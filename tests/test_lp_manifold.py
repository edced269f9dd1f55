import logging
import math
import pathlib

import numpy as np
import pytest

import kurzmani.lp_manifold as lpm
from conftest import (SADDLE, coupled_context, impulsive_manifold_closed_form,
                      quadratic_forcing)
from kurzmani.apps import IdeSpec, MdeSpec, ide_to_context, mde_to_context
from kurzmani.dichotomy import (SplittingError, _family_and_steps, certify,
                                projection_family)
from kurzmani.funcspace import (GAUSS_LEGENDRE, PiecewisePath,
                                StieltjesMeasure, norm)
from kurzmani.linsys import FundamentalOperator, LinearSystemSpec
from kurzmani.lp_manifold import (LPContext, NonlinearitySpec, SolutionPath,
                                  SolveError, _fast_apply, _reference_apply,
                                  bisect_manifold_oracle, classify_initial,
                                  contraction_bound, contraction_estimate,
                                  fixed_point_residual, flow_residual,
                                  invariance_check, lp_operator_apply,
                                  manifold_graph, solve_lp, splitting_bases)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_registry_nonlinearities_vanish_at_zero():
    specs = [
        NonlinearitySpec("quadratic",
                         {"mats": [np.eye(2), np.zeros((2, 2))]}, rho=1.0),
        NonlinearitySpec("cubic", {"coef": np.eye(2)}, rho=1.0),
        NonlinearitySpec("saturated_tanh",
                         {"gain": 0.3 * np.eye(2)}, rho=1.0),
    ]
    for spec in specs:
        assert np.allclose(spec.value(0.0, np.zeros(2)), 0.0)


_RNG = np.random.default_rng(18)
REGISTRY_SPECS = {
    **{"quadratic_n%d" % n: NonlinearitySpec(
        "quadratic", {"mats": _RNG.standard_normal((n, n, n))}, rho=0.5)
       for n in (1, 2, 3)},
    "cubic": NonlinearitySpec("cubic", {"coef": _RNG.standard_normal((3, 3))},
                              rho=0.5),
    # eight terms: numpy would sum them pairwise in an inner loop
    "cubic_n8": NonlinearitySpec("cubic", {"coef": _RNG.standard_normal((8, 8))},
                                 rho=0.5),
    "saturated_tanh": NonlinearitySpec(
        "saturated_tanh", {"gain": _RNG.standard_normal((2, 2))}, rho=0.5),
    "zero": NonlinearitySpec("zero", {"n": 3}, rho=0.5),
}
# |z| ranges in units of rho: inside the ball, across rho and 2 rho, outside
RADII = {"inside": (0.0, 1.0), "straddle": (0.0, 3.0), "outside": (2.0, 4.0)}


def _shell(rng, shape, n, radii):
    d = rng.standard_normal(shape + (n,))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return d * rng.uniform(*radii, size=shape)[..., None]


@pytest.mark.parametrize("radii", RADII.values(), ids=RADII.keys())
@pytest.mark.parametrize("spec", REGISTRY_SPECS.values(), ids=REGISTRY_SPECS.keys())
def test_registry_batch_equals_per_point_values(spec, radii):
    """A (400, 3, 1, n) quadrature-shaped batch, and batches of other
    lengths, give every point the bits of its own one-point value, and of
    f(z) psi(|z|) with the cutoff always multiplied in."""
    n = spec._raw.n
    rng = np.random.default_rng(7)
    for shape in ((400, 3, 1), (1,), (2,), (5,), (17,)):
        z = _shell(rng, shape, n, tuple(spec.rho * r for r in radii))
        got = spec.value(0.0, z)
        assert got.shape == z.shape
        psi = lpm._smooth_cutoff(np.linalg.norm(z, axis=-1), spec.rho)
        assert np.array_equal(got, spec._raw(z) * psi[..., None])
        want = np.array([spec.value(0.0, p) for p in z.reshape(-1, n)])
        assert np.array_equal(got, want.reshape(z.shape))


@pytest.mark.parametrize("registry_id, params", [
    ("quadratic", {"mats": [np.eye(1)]}), ("cubic", {"coef": [[1.0]]}),
    ("saturated_tanh", {"gain": [[0.2]]}),
])
def test_nonlinearity_of_another_dimension_is_refused(registry_id, params):
    """A one-dimensional forcing on planar states raises; it must not be
    read as twice as many one-dimensional states."""
    spec = NonlinearitySpec(registry_id, params, rho=0.5)
    with pytest.raises(ValueError):
        spec.value(0.0, np.full((4, 3, 1, 2), 0.1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_agrees_with_the_three_operand_form(n):
    """Q z then z.w agrees with sum_ij z_i Q_kij z_j to 1e-15 of the sum of
    the absolute terms (the value itself may cancel)."""
    spec = REGISTRY_SPECS["quadratic_n%d" % n]
    mats = spec._raw.mats
    z = _shell(np.random.default_rng(8), (1200,), n, (0.0, 3.0))
    old = np.einsum("...i,kij,...j->...k", z, mats, z)
    scale = np.einsum("...i,kij,...j->...k", abs(z), abs(mats), abs(z))
    assert np.all(np.abs(spec._raw(z) - old) <= 1e-15 * scale)


def _einsum_map(raw, z):
    """The registry maps as einsum contractions of a states-last (N, n)
    array."""
    flat = np.ascontiguousarray(z).reshape(-1, z.shape[-1])
    if isinstance(raw, lpm._Quadratic):
        w = np.einsum("kij,Nj->Nki", raw.mats, flat)
        out = np.einsum("Ni,Nki->Nk", flat, w)
    elif isinstance(raw, lpm._Cubic):
        out = np.einsum("ij,Nj->Ni", raw.coef, flat ** 3)
    elif isinstance(raw, lpm._SaturatedTanh):
        out = np.einsum("ij,Nj->Ni", raw.gain, np.tanh(flat))
    else:
        out = np.zeros(flat.shape)
    return out.reshape(z.shape)


def _ordered_sum(terms):
    """sum_j terms(j), one point at a time, added in order from +0."""
    acc = 0.0
    for term in terms:
        acc = acc + term
    return acc


def _loop_map(raw, z):
    """The registry maps as per-point loops over the components, each sum
    added in order from +0: the reference for ``_contract``."""
    flat = np.ascontiguousarray(z).reshape(-1, z.shape[-1])
    n = flat.shape[1]
    out = np.zeros(flat.shape)
    if isinstance(raw, lpm._Quadratic):
        for p, x in enumerate(flat):
            for i in range(n):
                Qx = [_ordered_sum(raw.mats[i, k, j] * x[j] for j in range(n))
                      for k in range(n)]
                out[p, i] = _ordered_sum(x[k] * Qx[k] for k in range(n))
    elif isinstance(raw, (lpm._Cubic, lpm._SaturatedTanh)):
        # the elementwise maps as the registry takes them, then the loop
        A, v = ((raw.coef, flat ** 3) if isinstance(raw, lpm._Cubic)
                else (raw.gain, np.tanh(flat)))
        for p, x in enumerate(v):
            for i in range(n):
                out[p, i] = _ordered_sum(A[i, j] * x[j] for j in range(n))
    return out.reshape(z.shape)


@pytest.mark.parametrize("spec", REGISTRY_SPECS.values(), ids=REGISTRY_SPECS.keys())
def test_component_sweeps_keep_the_einsum_bits(spec):
    """The component-first sweeps give the bits and zero signs of per-point
    sums added in order from +0, on the quadrature shape, an 11-anchor batch
    and single points; with at most two components, those of the two-einsum
    forms too."""
    n = spec._raw.n
    rng = np.random.default_rng(21)
    for shape in ((400, 3, 1), (400, 3, 11), (), (1,)):
        z = _shell(rng, shape, n, (0.0, 3.0 * spec.rho))
        z.reshape(-1)[::5] = 0.0              # zero products of both signs
        z.reshape(-1)[1::7] = -0.0
        got = spec._raw(z)
        assert got.shape == z.shape
        wants = [_loop_map(spec._raw, z)]
        if n <= 2:
            wants.append(_einsum_map(spec._raw, z))
        for want in wants:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_component_sweep_refuses_other_dimensions():
    """Only a length-1 component axis broadcasts; a planar map refuses
    three-component states."""
    with pytest.raises(ValueError):
        REGISTRY_SPECS["quadratic_n2"]._raw(np.ones((5, 3)))
    with pytest.raises(ValueError):
        REGISTRY_SPECS["cubic"]._raw(np.ones((5, 2)))
    with pytest.raises(ValueError):
        lpm._contract(np.ones((2, 4)), np.ones((3, 4)))


@pytest.mark.parametrize("spec", REGISTRY_SPECS.values(), ids=REGISTRY_SPECS.keys())
def test_ball_test_inside_the_box_takes_no_norm(spec, monkeypatch):
    """sqrt(n) max |z_i| <= rho puts the batch in the ball: no norm, no psi."""
    n = spec._raw.n
    z = np.random.default_rng(3).uniform(-1.0, 1.0, (400, 3, 1, n))
    z *= spec.rho / math.sqrt(n)
    want = spec._raw(z)

    def no_norm(*args, **kwargs):
        raise AssertionError("the box test should not take a norm")
    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert np.array_equal(spec.value(0.0, z), want)


@pytest.mark.parametrize("name", ["quadratic_n2", "quadratic_n3", "saturated_tanh"])
def test_ball_test_falls_back_to_the_norm(name, monkeypatch):
    """|z| <= rho < sqrt(n) max |z_i| fails the box but not the ball: the
    norms decide, and the raw map's bits come back; past rho psi is
    multiplied in."""
    spec = REGISTRY_SPECS[name]
    n, rho = spec._raw.n, spec.rho
    z = np.zeros((2, n))
    z[0, 0] = 0.9 * rho
    z[1, :2] = 0.6 * rho
    calls = []
    real_norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(args)
        return real_norm(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counted)
    got = spec.value(0.0, z)
    assert len(calls) == 1
    assert np.array_equal(got, spec._raw(z))
    assert np.array_equal(np.signbit(got), np.signbit(spec._raw(z)))
    # a straddling batch: one point past rho, so psi is multiplied in
    z[1, 0] = 1.5 * rho
    got = spec.value(0.0, z)
    psi = lpm._smooth_cutoff(real_norm(z, axis=-1), rho)
    assert psi[1] < 1.0
    assert np.array_equal(got, spec._raw(z) * psi[:, None])


def _anchor(Bs, c):
    """The anchor with every stable coordinate c."""
    return Bs @ np.full(Bs.shape[1], c)


@pytest.mark.parametrize("name", ["ctx_planar", "ctx_impulsive", "ctx_scalar_mde",
                                  "ctx_generated"])
def test_batch_apply_equals_its_columns(request, name):
    """An S = 3 application gives each column the bits of its own S = 1
    application.  The columns' |z| reach past rho, so the batch takes the
    cutoff multiply where a lone column may skip it; the scalar MDE adds its
    atom, the generated system a third component."""
    ctx = request.getfixturevalue(name)
    idx = ctx.span(0.0)
    x, kern = ctx.fund.nodes[idx], ctx.kernels(idx[0])
    Bs, _ = splitting_bases(ctx.P(idx[0]))
    zetas = [_anchor(Bs, c) for c in (0.1, -0.3, 0.7)]
    paths = [lp_operator_apply(ctx.initial_path(z, 0.0), z, 0.0, ctx)
             for z in zetas]
    vals = np.stack([p.values.T for p in paths], axis=-1)
    rights = np.stack([p.right_values.T for p in paths], axis=-1)
    zs = np.stack(zetas, axis=-1)
    batch = _fast_apply(ctx, kern, x, vals, rights, zs)
    for j in range(3):
        col = _fast_apply(ctx, kern, x, vals[..., j:j + 1], rights[..., j:j + 1],
                          zs[:, j:j + 1])
        for b, c in zip(batch, col):
            assert np.array_equal(b[..., j:j + 1], c)
            assert np.array_equal(np.signbit(b[..., j:j + 1]), np.signbit(c))


def _shipped_manifold_context(name):
    """The context and the run the ``manifold`` command builds from a
    shipped config."""
    from types import SimpleNamespace

    from kurzmani import cli
    from kurzmani.apps import build_context
    cfg = cli.load_config(str(CONFIG_DIR / (name + ".json")))
    spec, run = cli._read_run(cfg, SimpleNamespace(command="manifold", tol=None))
    return build_context(spec, **run.context), run


@pytest.mark.parametrize("name", ["planar_quadratic", "impulsive_saddle", "scalar_mde"])
def test_graph_values_equal_lone_solves(name):
    """On the shipped configs every converged point of ``manifold_graph``,
    solved in one batch, has the bits of its own ``solve_lp``: m, the
    iteration count and the converged path."""
    ctx, run = _shipped_manifold_context(name)
    graph = manifold_graph(run.s, run.zeta, ctx)
    zetas = [graph.basis_stable @ np.atleast_1d(z) for z in run.zeta]
    batch = lpm._solve_batch(zetas, run.s, ctx, graph.basis_unstable)
    assert len(graph.ok_samples) == len(run.zeta) > 1
    for g, zeta, sol in zip(graph.samples, zetas, batch):
        alone = solve_lp(zeta, run.s, ctx)
        assert np.array_equal(g.m_coords, alone.m)
        assert g.iterations == alone.iterations
        assert np.array_equal(sol.phi.values, alone.phi.values)
        assert np.array_equal(sol.phi.right_values, alone.phi.right_values)


def _planar_until(ctx_planar, T, nonlin):
    """A context for ``nonlin`` on the planar system's operator over [0, T],
    with the certificate of ``ctx_planar``."""
    fund = FundamentalOperator(ctx_planar.fund.spec, (0.0, T))
    return LPContext(fund, ctx_planar.dich, nonlin, tol=1e-10)


def test_projection_family_on_a_mesh_that_starts_before_t0():
    """Window (0, 6) with t0 = 2 and a jump on each side of t0: the context
    family is conjugated backward from t0 as well as forward."""
    spec = LinearSystemSpec(
        2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
        impulses=((1.05, np.array([[0.1, 0.2], [0.1, -0.1]])),
                  (3.55, np.array([[-0.1, -0.1], [0.2, 0.2]]))), t0=2.0)
    fund = FundamentalOperator(spec, (0.0, 6.0))
    dich = certify(fund, P0=np.diag([1.0, 0.0]))
    ctx = LPContext(fund, dich, NonlinearitySpec("zero", {"n": 2}))
    nodes, i0 = fund.nodes, fund.i_t0
    assert i0 > 0 and nodes[i0] == 2.0
    P = [ctx.P(i) for i in range(len(nodes))]
    assert np.array_equal(P[i0], dich.P0)
    for Pi in P:
        assert norm(Pi @ Pi - Pi) <= 1e-12
    for i in range(len(nodes) - 1):
        V = fund.value(nodes[i + 1], nodes[i])
        gap = norm(P[i + 1] @ V - V @ P[i])
        assert gap <= 1e-13 * norm(V) * norm(P[i]), (nodes[i], gap)
    # the grid family verify_dichotomy fits on (certify's default grid)
    grid = np.linspace(0.0, 6.0, 21)
    fam, _, _ = _family_and_steps(fund, dich.P0, grid)
    for Pg, t in zip(fam, grid):
        Pm = P[fund.node_index(t)]
        assert norm(Pg - Pm) <= 1e-12 * (1.0 + norm(Pm))


def test_cutoff_truncates_smoothly():
    nl = NonlinearitySpec("quadratic", {"mats": [np.eye(1)]}, rho=0.5)
    inside = nl.value(0.0, np.array([0.4]))
    assert inside[0] == pytest.approx(0.16)
    assert np.allclose(nl.value(0.0, np.array([1.5])), 0.0)


def test_operator_on_zero_path_with_zero_anchor(ctx_planar):
    zeta = np.zeros(2)
    mesh = ctx_planar.fund.nodes[ctx_planar.span(0.0)]
    zero = SolutionPath(mesh, np.zeros((len(mesh), 2)))
    out = lp_operator_apply(zero, zeta, 0.0, ctx_planar)
    assert out.sup_norm == 0.0


def test_operator_linear_case_returns_decaying_mode(ctx_planar):
    lin = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = LPContext(ctx_planar.fund, ctx_planar.dich, lin, tol=1e-10)
    zeta = np.array([0.2, 0.0])
    z0 = ctx.initial_path(zeta, 0.0)
    out = lp_operator_apply(z0, zeta, 0.0, ctx)
    mesh = ctx.fund.nodes[ctx.span(0.0)]
    expected = np.stack([0.2 * np.exp(-mesh), np.zeros(len(mesh))], axis=1)
    assert float(np.max(np.abs(out.values - expected))) <= 1e-9


def test_first_iterate_matches_tail_integral(ctx_planar):
    zeta1 = 0.15
    zeta = np.array([zeta1, 0.0])
    z0 = ctx_planar.initial_path(zeta, 0.0)
    z1 = lp_operator_apply(z0, zeta, 0.0, ctx_planar)
    T = ctx_planar.T
    expected = -zeta1 ** 2 / 3.0 * (1.0 - math.exp(-3.0 * T))
    assert z1.values[0][1] == pytest.approx(expected, abs=5e-3 * zeta1 ** 2)


def _loop_apply(z, zeta, s, ctx):
    """Per-cell loop form of the fast operator, the reference for the
    stacked-array form; built from the fundamental operator's stored cells,
    quadrature samples and jump factors and the context's projections only."""
    fund, nl = ctx.fund, ctx.nonlin
    idx = ctx.span(s)
    x = fund.nodes[idx]
    n, M = fund.n, len(idx) - 1
    eye = np.eye(n)
    cells = []
    for k in range(M):
        j = idx[k]
        phi = fund.cells.phi[j]
        phi_inv = np.linalg.inv(phi)
        sigma, weights = fund._sigma[j], fund._weights[j]
        J, J_inv = fund.jumps[j], fund.jump_invs[j]
        P_plus = J @ ctx.P(j) @ J_inv
        lam = (sigma - x[k]) / (x[k + 1] - x[k])
        zq = (1.0 - lam)[:, None] * z.right_values[k] + lam[:, None] * z.values[k + 1]
        dens = nl.value(sigma, zq) * nl.measure.density.sample(sigma)[:, None]
        w = ctx.atom_weights[j]
        atom = w * nl.value(x[k], z.values[k]) if w else np.zeros(n)
        K_s = np.stack([phi @ P_plus @ inv for inv in fund.cells.phi_sig_inv[j]])
        K_u = np.stack([J_inv @ (eye - P_plus) @ inv
                        for inv in fund.cells.phi_sig_inv[j]])
        loc_s = np.einsum("q,qij,qj->i", weights, K_s, dens)
        loc_u = np.einsum("q,qij,qj->i", weights, K_u, dens)
        cells.append((phi, phi_inv, J, J_inv, P_plus, atom, loc_s, loc_u))
    z_lin = np.empty((M + 1, n))
    I1 = np.zeros((M + 1, n))
    I2 = np.zeros((M + 1, n))
    z_lin[0] = zeta
    for k, (phi, _, J, _, P_plus, atom, loc_s, _) in enumerate(cells):
        I1[k + 1] = phi @ (J @ I1[k] + P_plus @ atom) + loc_s
        z_lin[k + 1] = phi @ (J @ z_lin[k])
    for k in range(M - 1, -1, -1):
        _, phi_inv, _, J_inv, P_plus, atom, _, loc_u = cells[k]
        I2[k] = J_inv @ (phi_inv @ I2[k + 1]) + \
            J_inv @ ((eye - P_plus) @ atom) + loc_u
    vals = z_lin + I1 - I2
    rights = np.stack([fund.jumps[idx[k]] @ vals[k] +
                       (cells[k][5] if k < M else 0.0) for k in range(M + 1)])
    return vals, rights


@pytest.mark.parametrize("name, s, zetas", [
    ("ctx_planar", 0.0, (0.1, -0.2)),
    ("ctx_impulsive", 0.0, (0.1, 0.2)),
    ("ctx_scalar_mde", 0.0, (0.4, -0.3)),
    ("ctx_impulsive", 1.0, (0.15,)),      # a later start slices the stacks
    ("ctx_coupled", 0.0, (0.1, -0.2)),    # non-normal coupled generator
    ("ctx_coupled", 1.0, (0.15,)),
    ("ctx_generated", 0.0, (0.1, -0.2)),  # n = 3, off-phase kicks
    ("ctx_generated", 1.0, (0.15,)),
])
def test_array_apply_matches_loop_form(request, name, s, zetas):
    ctx = request.getfixturevalue(name)
    kern = ctx.kernels(ctx.span(s)[0])
    # the scan levels are dichotomy-projected propagators: bounded by K
    levels = np.linalg.norm(_level_matrices(kern), 2, axis=(-2, -1))
    assert float(np.max(levels)) <= 2.0 * ctx.dich.K
    Bs, _ = splitting_bases(ctx.P(ctx.span(s)[0]))
    for zeta1 in zetas:
        zeta = _anchor(Bs, zeta1)
        z = lp_operator_apply(ctx.initial_path(zeta, s), zeta, s, ctx)
        out = lp_operator_apply(z, zeta, s, ctx)
        vals, rights = _loop_apply(z, zeta, s, ctx)
        # float64 roundoff over a few hundred cells
        bound = 1e-13 * (1.0 + float(np.max(np.abs(vals))))
        assert float(np.max(np.abs(out.values - vals))) <= bound
        assert float(np.max(np.abs(out.right_values - rights))) <= bound


def _level_matrices(kern):
    """The column planes of ``kern.scan`` as a (2M, L, n, n) stack of the
    level products, row k of level d at [k, d]."""
    return kern.scan[..., 0].transpose(3, 0, 2, 1)


@pytest.mark.parametrize("name", ["ctx_impulsive", "ctx_scalar_mde", "ctx_generated"])
def test_kernels_read_the_stored_mesh_steps(request, name):
    ctx = request.getfixturevalue(name)
    cells, m, n = ctx.fund.cells, len(ctx.fund.nodes) - 1, ctx.fund.n
    kern = ctx.kernels(0)
    # the jump factors and the atom kernels as contiguous planes (n, n, K, 1)
    assert kern.J.shape == (n, n, m + 1, 1) and kern.J.flags.c_contiguous
    assert np.array_equal(kern.J[..., 0].T, ctx.fund.jumps)
    J, J_inv, proj = ctx.fund.jumps[:-1], ctx.fund.jump_invs[:-1], ctx._projections()
    atom_s = cells.phi @ (J @ proj[:-1] @ J_inv)
    assert np.array_equal(kern.atom_s[..., 0].T, atom_s)
    # the quadrature kernels as q-blocks of planes: row q n + j holds column j
    # of V(x_{k+1}, sigma_q) P(sigma_q)
    Q = cells.phi_sig_inv.shape[1]
    assert kern.K_stable.shape == (Q * n, n, m, 1)
    K_s = kern.K_stable[..., 0].reshape(Q, n, n, m).transpose(3, 0, 2, 1)
    assert np.array_equal(K_s, atom_s[:, None] @ cells.phi_sig_inv)
    # level 0 holds the stored forward steps, projected, then the stored
    # backward steps, projected and reversed; row m, G~_{m-1}, is zero.  The
    # levels are stored as contiguous column planes (L, n, n, 2m, 1)
    assert kern.scan.shape[1:] == (n, n, 2 * m, 1) and kern.scan.flags.c_contiguous
    levels = _level_matrices(kern)
    assert np.array_equal(levels[:m, 0], cells.fwd[:m] @ proj[:m])
    unstable = (cells.bwd[:m] @ (np.eye(n) - proj[1:m + 1]))[::-1]
    assert np.array_equal(levels[m + 1:, 0], unstable[1:])
    assert not np.any(levels[m])
    # a later start drops the first rows of every plane
    i = ctx.fund.node_index(1.0)
    later = ctx.kernels(i)
    assert np.array_equal(_level_matrices(later), levels[i:])
    for field in ("J", "atom_s", "atom_u", "K_stable", "K_unstable"):
        assert np.array_equal(getattr(later, field), getattr(kern, field)[..., i:, :])


@pytest.mark.parametrize("name", ["ctx_impulsive", "ctx_scalar_mde"])
def test_kernels_are_read_only(request, name):
    """Every stacked kernel, and every slice of a later start, refuses a
    write, so no apply can change the context it reads."""
    ctx = request.getfixturevalue(name)
    for kern in (ctx.kernels(0), ctx.kernels(ctx.fund.node_index(1.0))):
        for field, arr in zip(kern._fields, kern):
            assert not arr.flags.writeable, field
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0


def _two_sweep_levels(A, forward):
    """Hillis-Steele levels of one sweep in its own stack: a forward level
    ends at its row, a backward level starts there.  With ``_two_sweep_scan``
    and ``_two_sweep_apply`` the reference for the one scan."""
    levels = [A]
    o = 1
    while 2 * o < len(A):
        prev = levels[-1]
        nxt = prev.copy()
        if forward:
            nxt[o:] = prev[o:] @ prev[:-o]
        else:
            nxt[:-o] = prev[:-o] @ prev[o:]
        levels.append(nxt)
        o *= 2
    return np.stack(levels, axis=1)


def _two_sweep_scan(levels, c, forward):
    """One sweep over the component-first (n, M, S) increments ``c``: each
    level adds its (M, n, n) products, as column planes, times the
    components 2^d rows back (ahead, backward)."""
    M = c.shape[1]
    o, d = 1, 0
    while o < M:
        cols = lpm._planes(levels[:, d])                # (n_j, n_i, M, 1)
        if forward:
            c[:, o:] += lpm._contract(cols[:, :, o:], c[:, None, :-o])
        else:
            c[:, :-o] += lpm._contract(cols[:, :, :-o], c[:, None, o:])
        o, d = 2 * o, d + 1
    return c


def _two_sweep_apply(ctx, i_s, values, rights, zetas):
    """The fast operator with a forward scan for the stable sweep and a
    separate backward scan for the unstable one, each on its own
    matrix-layout levels."""
    fund, m = ctx.fund, len(ctx.fund.nodes) - 1
    proj = ctx._projections()
    F_scan = _two_sweep_levels(fund.cells.fwd[:m] @ proj[:m], True)[i_s:]
    G_scan = _two_sweep_levels(
        fund.cells.bwd[:m] @ (np.eye(fund.n) - proj[1:m + 1]), False)[i_s:]
    kern = ctx.kernels(i_s)
    f, at, atoms = lpm._forcing(ctx, kern, values, rights, fund.nodes[i_s:m + 1])
    c1 = lpm._contract(kern.K_stable, f.swapaxes(1, 2)[:, None])
    c2 = lpm._contract(kern.K_unstable, f.swapaxes(1, 2)[:, None])
    if at.size:
        c1[:, at] += lpm._contract(kern.atom_s[:, :, at], atoms[:, None, at])
        c2[:, at] += lpm._contract(kern.atom_u[:, :, at], atoms[:, None, at])
    first = lpm._planes(F_scan[:1, 0])
    c1[:, :1] += lpm._contract(first, zetas[:, None, None])
    stable = _two_sweep_scan(F_scan, c1, True)
    vals = np.concatenate([zetas[:, None], stable], axis=1)
    vals[:, :-1] -= _two_sweep_scan(G_scan, c2, False)
    return vals, lpm._contract(kern.J, vals[:, None]) + atoms


@pytest.mark.parametrize("name", ["ctx_planar", "ctx_impulsive", "ctx_scalar_mde",
                                  "ctx_coupled", "ctx_generated"])
def test_one_scan_equals_two_sweeps(request, name):
    """The one forward scan over [F~; reversed G~] gives the bits of a
    forward and a backward sweep, from s = 0, s = 1, the last cell and T."""
    ctx = request.getfixturevalue(name)
    m = len(ctx.fund.nodes) - 1
    for i_s in (0, ctx.fund.node_index(1.0), m - 1, m):
        s = float(ctx.fund.nodes[i_s])
        Bs, _ = splitting_bases(ctx.P(i_s))
        zetas = np.stack([_anchor(Bs, c) for c in (0.15, -0.4)], axis=-1)
        paths = [ctx.initial_path(z, s) for z in zetas.T]
        vals = np.stack([p.values.T for p in paths], axis=-1)
        rights = np.stack([p.right_values.T for p in paths], axis=-1)
        zero = np.zeros_like(vals)
        want, _ = _two_sweep_apply(ctx, i_s, zero, zero, zetas)
        assert np.array_equal(vals, want)
        got = _fast_apply(ctx, ctx.kernels(i_s), ctx.fund.nodes[i_s:m + 1],
                          vals, rights, zetas)
        want = _two_sweep_apply(ctx, i_s, vals, rights, zetas)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("registry, params, maps", [
    ("quadratic", {"mats": np.ones((1, 2, 2))}, r"R\^2 to R\^1"),
    ("cubic", {"coef": np.ones((2, 1))}, r"R\^1 to R\^2"),
])
def test_context_refuses_a_nonlinearity_of_another_dimension(registry, params, maps):
    """The component sweep broadcasts these length-1 axes, as einsum did, so
    the spec builds on its own; the context names both dimensions before
    any solve."""
    fund = FundamentalOperator(LinearSystemSpec(2, PiecewisePath.constant(SADDLE)),
                               (0.0, 4.0))
    dich = certify(fund, P0=np.diag([1.0, 0.0]))
    nonlin = NonlinearitySpec(registry, params, rho=0.5)
    with pytest.raises(ValueError, match="%r maps %s .*n = 2" % (registry, maps)):
        LPContext(fund, dich, nonlin)


def test_a_hand_built_context_derives_its_horizon_and_regularity(ctx_planar):
    ctx = LPContext(ctx_planar.fund, ctx_planar.dich, ctx_planar.nonlin)
    assert ctx.T == ctx_planar.T == ctx.fund.nodes[-1]
    assert ctx.regularity == ctx_planar.regularity
    assert ctx.reports == {}
    graph = manifold_graph(0.0, [np.array([0.1])], ctx)
    assert math.isfinite(graph.L_theory)
    assert graph.L_theory == contraction_estimate(ctx_planar, 0.0)


def test_context_reports_the_splitting_defects():
    ctx = coupled_context(8.0)
    ctx.kernels(0)
    report = ctx.reports["splitting"]
    assert report["idempotency_defect"] <= 1e-13
    assert report["cocycle_gap"] <= 1e-13


def test_context_rejects_a_projection_family_that_lost_idempotency():
    """Forward conjugation over 2 alpha T beyond -log(eps) returns matrices
    that are no longer projections; the context refuses them."""
    ctx = coupled_context(24.0)
    with pytest.raises(SplittingError, match="lost idempotency at node"):
        ctx.P(0)
    with pytest.raises(SplittingError):
        solve_lp(np.zeros(2), 0.0, ctx)


def test_atom_times_match_relative_to_their_size():
    """An atom one ulp past the grid node 1e6 acts at that node; one 1e-6
    relative away does not.  The context holds the weights per node."""
    for t_atom, at_grid_node in ((np.nextafter(1e6, 2e6), 0.3),
                                 (1e6 * (1.0 + 1e-6), 0.0)):
        u = StieltjesMeasure(PiecewisePath.constant(1.0), [(t_atom, 0.3)])
        H = NonlinearitySpec("saturated_tanh", {"gain": [[0.2]]}, rho=1.0, measure=u)
        spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                       PiecewisePath.constant([[0.0]]), u, H)
        ctx = mde_to_context(spec, s=1e6 - 1.0, T=1e6 + 3.0)
        assert len(ctx.fund.nodes) == 41
        assert ctx.atom_weights[ctx.fund.node_index(1e6)] == at_grid_node
        assert ctx.atom_weights[ctx.fund.node_index(t_atom)] == 0.3
        assert np.count_nonzero(ctx.atom_weights) == 1


def kicked_context(s, times):
    """The kicked saddle with impulses at ``times`` on [s, s + 40]."""
    impulses = tuple((t, np.diag([0.1, 0.0])) for t in times)
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE), impulses,
                   quadratic_forcing(0.05))
    return ide_to_context(spec, s=s, T=s + 40.0, tol=1e-10,
                          grid=np.linspace(s, s + 10.0, 21))


def shifted_kicked_context(s):
    """The kicked saddle with 10 impulses at s + 0.3 + k on [s, s + 40]."""
    return kicked_context(s, [s + 0.3 + k for k in range(10)])


@pytest.mark.parametrize("s", [1e5, 1e7, 1e8, 1e9, 1e10])
def test_mesh_and_graph_value_hold_far_from_time_zero(s):
    # where the grid and an impulse time differ by roundoff they must share
    # a node (an absolute radius leaves a sliver cell: 1.5e-11 at 1e5, 1.9e-9
    # at 1e7); the grid must not drift with s (np.arange from s drifts by
    # 2.4e-6 over the window at 1e8); and the radius must stay below the
    # step (one relative to |t| alone merges grid nodes at 1e10)
    zeta = np.array([0.15, 0.0])
    ctx = shifted_kicked_context(s)
    assert len(ctx.fund.nodes) == 401
    m = solve_lp(zeta, s, ctx).m
    if s <= 1e8:
        assert norm(m - solve_lp(zeta, 0.0, shifted_kicked_context(0.0)).m) <= 1e-12
        return
    # From 1e9 on the impulse times s + 0.3 + k round by up to 4.8e-8, so
    # compare with the s = 0 problem at the same rounded offsets.  With a
    # constant generator the cell products do not depend on where the grid
    # nodes sit; what is left is the forcing quadrature, whose nodes and
    # weights 0.5 (b - a) w come from absolute times: off by up to about
    # 10 spacing(s) relative on a cell of 0.1.  The forcing makes all of m,
    # so m moves by at most about 10 |m| spacing(s) (measured: 1e-4 of it).
    offsets = [(s + 0.3 + k) - s for k in range(10)]   # exact differences
    m0 = solve_lp(zeta, 0.0, kicked_context(0.0, offsets)).m
    assert norm(m - m0) <= 10.0 * norm(m0) * np.spacing(s)


def test_operator_rejects_zeta_off_the_stable_range(ctx_planar):
    mesh = ctx_planar.fund.nodes[ctx_planar.span(0.0)]
    zero = SolutionPath(mesh, np.zeros((len(mesh), 2)))
    with pytest.raises(ValueError):
        lp_operator_apply(zero, np.array([0.0, 0.1]), 0.0, ctx_planar)


def test_operator_rejects_foreign_mesh(ctx_planar):
    bad = SolutionPath(np.linspace(0.0, 1.0, 5), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        lp_operator_apply(bad, np.array([0.1, 0.0]), 0.0, ctx_planar)


def test_solution_of_zero_anchor_is_zero(ctx_planar):
    sol = solve_lp(np.zeros(2), 0.0, ctx_planar)
    assert sol.phi.sup_norm == 0.0
    assert np.allclose(sol.m, 0.0)


def test_solve_at_the_horizon_has_a_one_node_span(ctx_planar):
    sol = solve_lp(np.array([0.1, 0.0]), ctx_planar.T, ctx_planar)
    assert sol.phi.values.shape == (1, 2)
    assert np.array_equal(sol.m, [0.0])


def test_linear_manifold_is_the_stable_subspace(ctx_planar):
    lin = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = LPContext(ctx_planar.fund, ctx_planar.dich, lin, tol=1e-10)
    sol = solve_lp(np.array([0.2, 0.0]), 0.0, ctx)
    assert np.allclose(sol.m, 0.0, atol=1e-12)


@pytest.mark.parametrize("zeta1", [-0.2, -0.1, 0.1, 0.2])
def test_planar_graph_value_matches_closed_form(ctx_planar, zeta1):
    sol = solve_lp(np.array([zeta1, 0.0]), 0.0, ctx_planar)
    assert sol.m[0] == pytest.approx(-zeta1 ** 2 / 3.0, abs=5e-3 * zeta1 ** 2)
    assert sol.converged


def test_fixed_point_and_flow_residuals(ctx_planar):
    sol = solve_lp(np.array([0.2, 0.0]), 0.0, ctx_planar)
    assert fixed_point_residual(sol, ctx_planar) <= 2.0 * ctx_planar.tol
    assert flow_residual(sol.phi, 0.0, ctx_planar) <= 1e-5
    assert np.allclose(ctx_planar.P(ctx_planar.span(0.0)[0]) @ sol.phi.values[0],
                       sol.zeta, atol=1e-10)


def test_contraction_bound_hand_arithmetic():
    # smallness gate (scale 2 V_h) at (C_a, V, K, V_h) = (1, 0.5, 1, 0.01):
    # 2 * 0.01 * (1 + 1 * 3) * 1 * e^{1.5} * 0.25
    expected = 2.0 * 0.01 * 4.0 * math.exp(1.5) * 0.25
    assert contraction_bound(2.0 * 0.01, 1.0, 1.0, 0.5) == pytest.approx(
        expected, rel=1e-15)
    assert contraction_bound(0.0, 1.0, 1.0, 0.5) == 0.0
    assert contraction_bound(2.0 * 0.01, 1.0, 1.0, 0.0) == 0.0


def test_contraction_estimate_reports_conservative_gate(ctx_planar):
    # the exponential factor is astronomical
    assert contraction_estimate(ctx_planar, s=0.0) >= 1.0
    sol = solve_lp(np.array([0.2, 0.0]), 0.0, ctx_planar)
    assert sol.L_empirical < 1.0


def test_manifold_graph_collects_lipschitz_data(ctx_planar):
    grid = [np.array([z]) for z in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    graph = manifold_graph(0.0, grid, ctx_planar)
    assert len(graph.ok_samples) == 5
    values = {float(g.zeta_coords[0]): float(g.m_coords[0])
              for g in graph.ok_samples}
    for z, m in values.items():
        assert m == pytest.approx(-z * z / 3.0, abs=5e-3 * max(z * z, 1e-6))
    # max pairwise quotient of the parabola on this grid is (0.2+0.1)/3
    assert graph.lipschitz_estimate == pytest.approx(0.1, abs=5e-3)
    # the graph keeps no copy of the dichotomy constant
    assert not hasattr(graph, "K_fit")
    assert graph.lipschitz_estimate <= ctx_planar.dich.K / (1.0 - graph.L_empirical)
    assert graph.L_empirical < 1.0


@pytest.mark.parametrize("name", ["ctx_planar", "ctx_impulsive"])
def test_batched_graph_matches_per_anchor_solves(request, name):
    ctx = request.getfixturevalue(name)
    grid = [np.array([c]) for c in np.linspace(-0.2, 0.2, 9)]
    graph = manifold_graph(0.0, grid, ctx)
    for g in graph.samples:
        sol = solve_lp(graph.basis_stable @ g.zeta_coords, 0.0, ctx)
        assert g.ok and g.iterations == sol.iterations
        assert float(np.max(np.abs(g.m_coords - sol.m))) <= 1e-14


def test_batched_graph_keeps_a_diverging_sample_to_itself(ctx_planar):
    Q1 = np.zeros((2, 2))
    Q1[1, 1] = 1.0
    Q2 = np.zeros((2, 2))
    Q2[0, 0] = 1.0
    blow = NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=50.0)
    ctx = _planar_until(ctx_planar, 12.0, blow)
    graph = manifold_graph(0.0, [np.array([0.05]), np.array([6.0])], ctx)
    near, far = graph.samples
    assert not far.ok and "stopped contracting" in far.error
    sol = solve_lp(np.array([0.05, 0.0]), 0.0, ctx)
    assert near.ok and near.iterations == sol.iterations
    assert float(np.max(np.abs(near.m_coords - sol.m))) <= 1e-14


def test_manifold_graph_rejects_grid_outside_cutoff(ctx_planar):
    with pytest.raises(ValueError):
        manifold_graph(0.0, [np.array([0.9])], ctx_planar)


def test_manifold_graph_rejects_grid_point_of_wrong_dimension(ctx_planar):
    with pytest.raises(ValueError, match="stable coordinates"):
        manifold_graph(0.0, [np.array([0.1, 0.05]), np.zeros(2)], ctx_planar)


@pytest.mark.parametrize("zeta", [0.2, [0.0, 0.0], [[0.0]]],
                         ids=["scalar", "two-entries", "matrix"])
def test_an_anchor_that_is_no_n_vector_is_refused(ctx_scalar_mde, zeta):
    """On an n = 1 system a scalar, a vector of 2n entries (whose range
    residual broadcasts to zero) and a 1 x 1 array are no anchor: each
    raises ValueError naming n, from a solve and from a single apply."""
    ctx = ctx_scalar_mde
    with pytest.raises(ValueError, match="n = 1"):
        solve_lp(zeta, 0.0, ctx)
    with pytest.raises(ValueError, match="n = 1"):
        ctx.initial_path(zeta, 0.0)
    z0 = ctx.initial_path(np.array([0.1]), 0.0)
    with pytest.raises(ValueError, match="n = 1"):
        lp_operator_apply(z0, zeta, 0.0, ctx)


@pytest.mark.parametrize("t1", [50.0, 0.05, -1.0])
def test_invariance_check_refuses_a_time_off_the_span(ctx_scalar_mde, t1):
    """Past T, between nodes or before s, t1 raises ValueError."""
    with pytest.raises(ValueError, match="no mesh node of"):
        invariance_check(0.0, [0.0], t1, ctx_scalar_mde)


def test_invariance_along_the_flow(ctx_planar):
    for t1 in (0.5, 1.0, 2.0):
        resid = invariance_check(0.0, np.array([0.1, 0.0]), t1, ctx_planar)
        assert resid <= 1e-4


def test_invariance_of_zero_solution(ctx_planar):
    assert invariance_check(0.0, np.zeros(2), 1.0, ctx_planar) <= 1e-12


def test_classification_of_zero_initial_state(ctx_planar):
    res = classify_initial(np.zeros(2), 0.0, ctx_planar, bound=1e3)
    assert res.status == "bounded_to_horizon"


def test_classification_escape_time_linear_growth(ctx_planar):
    lin = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = LPContext(ctx_planar.fund, ctx_planar.dich, lin, tol=1e-10)
    res = classify_initial(np.array([0.0, 0.01]), 0.0, ctx, bound=1e3)
    assert res.status == "escapes"
    assert res.t_escape == pytest.approx(math.log(1e5), abs=1e-9)


def test_classification_is_indeterminate_when_the_forcing_turns_non_finite(
        ctx_planar, monkeypatch):
    lin = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = LPContext(ctx_planar.fund, ctx_planar.dich, lin, tol=1e-10)
    # mid-way through the one stop [0, 40], long before the escape at 11.5
    monkeypatch.setattr(lin, "value",
                        lambda t, z: np.full(2, np.nan if t > 5.0 else 0.0))
    res = classify_initial(np.array([0.0, 0.01]), 0.0, ctx, bound=1e3)
    assert res.status == "indeterminate" and res.t_escape is None


def test_classification_off_manifold_offset_escapes(ctx_planar):
    z0 = np.array([0.1, -0.01 / 3.0 + 0.01])
    res = classify_initial(z0, 0.0, ctx_planar, bound=1e3)
    assert res.status == "escapes"
    assert res.t_escape < ctx_planar.T


def test_classification_escapes_through_an_impulse():
    # the kick diag(0, 100) at t = 1 carries (0, 0.01 e) to norm 2.75 > 2;
    # counting only smooth crossings read "bounded_to_horizon", sup 2.2e4
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE),
                   ((1.0, np.diag([0.0, 100.0])),), quadratic_forcing(0.05))
    ctx = ide_to_context(spec, s=0.0, T=10.0, tol=1e-10,
                         grid=np.linspace(0.0, 10.0, 21))
    res = classify_initial(np.array([0.0, 0.01]), 0.0, ctx, bound=2.0)
    assert res.status == "escapes" and res.t_escape == 1.0
    assert res.sup_norm == norm(res.final_state)
    assert res.final_state[1] == pytest.approx(101 * 0.01 * math.e, rel=1e-9)


def test_classification_escapes_through_an_atom():
    # no density: the state decays as e^-t until the atom at t = 1 scales it
    # by 1 + 10 * 0.3 and the kernel's kick adds 0.3 H
    u = StieltjesMeasure(PiecewisePath.constant(0.0), [(1.0, 0.3)])
    H = NonlinearitySpec("saturated_tanh", {"gain": [[0.2]]}, rho=1.0, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[10.0]]), u, H)
    ctx = mde_to_context(spec, s=0.0, T=12.0, tol=1e-10,
                         grid=np.linspace(0.0, 10.0, 21))
    res = classify_initial(np.array([0.5]), 0.0, ctx, bound=0.6)
    assert res.status == "escapes" and res.t_escape == 1.0
    assert 0.6 < res.sup_norm == abs(res.final_state[0])


def test_classification_requires_room_below_the_bound(ctx_planar):
    with pytest.raises(ValueError):
        classify_initial(np.array([10.0, 0.0]), 0.0, ctx_planar, bound=1.0)


def test_bisection_oracle_linear_system(ctx_planar):
    lin = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = LPContext(ctx_planar.fund, ctx_planar.dich, lin, tol=1e-10)
    eta = bisect_manifold_oracle(np.array([0.1, 0.0]), 0.0, ctx, bound=1e3)
    assert abs(eta) <= 1e-6


def test_bisection_oracle_planar_quadratic(ctx_planar):
    eta = bisect_manifold_oracle(np.array([0.15, 0.0]), 0.0, ctx_planar,
                                 bound=1e3, xtol=1e-7)
    assert eta == pytest.approx(-0.15 ** 2 / 3.0, abs=1e-4)


def test_bisection_oracle_agrees_on_impulsive_saddle(ctx_impulsive):
    for zeta1 in (0.1, 0.2):
        sol = solve_lp(np.array([zeta1, 0.0]), 0.0, ctx_impulsive)
        eta = bisect_manifold_oracle(np.array([zeta1, 0.0]), 0.0,
                                     ctx_impulsive, bound=1e3, xtol=1e-7)
        closed = impulsive_manifold_closed_form(zeta1)
        assert abs(sol.m[0] - eta) <= 1e-4
        assert sol.m[0] == pytest.approx(closed, abs=5e-3 * zeta1 ** 2)


def test_tail_bound_certificate(ctx_planar):
    sol_T = solve_lp(np.array([0.2, 0.0]), 0.0, ctx_planar)
    bound = ctx_planar.tail_bound(0.0)
    # doubling the horizon moves the value far less than the certificate
    from kurzmani.lp_manifold import LPContext
    from kurzmani.linsys import FundamentalOperator
    fund2 = FundamentalOperator(ctx_planar.fund.spec, (0.0, 80.0), base_step=0.1)
    ctx2 = LPContext(fund2, ctx_planar.dich, ctx_planar.nonlin, tol=1e-10)
    sol_2T = solve_lp(np.array([0.2, 0.0]), 0.0, ctx2)
    assert abs(sol_T.m[0] - sol_2T.m[0]) <= max(bound, 1e-6)


def test_scalar_mde_solve_and_residual(ctx_scalar_mde):
    sol = solve_lp(np.array([0.4]), 0.0, ctx_scalar_mde)
    assert sol.converged
    assert sol.L_empirical < 1.0
    assert flow_residual(sol.phi, 0.0, ctx_scalar_mde) <= 1e-9
    assert sol.m.shape == (0,)   # full contraction: no unstable coordinates


def test_splitting_bases_sign_canonical():
    P = np.diag([1.0, 0.0])
    Bs, Bu = splitting_bases(P)
    np.testing.assert_allclose(Bs, [[1.0], [0.0]])
    np.testing.assert_allclose(Bu, [[0.0], [1.0]])


def test_iteration_cap_raises_with_residual(ctx_scalar_mde, monkeypatch):
    from kurzmani.lp_manifold import SolveError
    monkeypatch.setattr(lpm, "_MAX_ITER", 2)
    ctx = LPContext(ctx_scalar_mde.fund, ctx_scalar_mde.dich,
                    ctx_scalar_mde.nonlin, tol=1e-12)
    with pytest.raises(SolveError) as err:
        solve_lp(np.array([0.4]), 0.0, ctx)
    assert err.value.residual is not None


def test_divergence_detected_with_ratio_history(ctx_planar):
    from kurzmani.lp_manifold import NonContractionError
    # cross-coupled quadratic far outside the contraction regime
    Q1 = np.zeros((2, 2))
    Q1[1, 1] = 1.0
    Q2 = np.zeros((2, 2))
    Q2[0, 0] = 1.0
    blow = NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=50.0)
    ctx = _planar_until(ctx_planar, 12.0, blow)
    with pytest.raises(NonContractionError) as err:
        solve_lp(np.array([6.0, 0.0]), 0.0, ctx)
    assert len(err.value.ratio_history) >= 3
    assert all(r >= 1.0 for r in err.value.ratio_history[-3:])


@pytest.fixture(scope="module")
def ctx_kicked_window():
    """The saddle with f = (0.1 y^2, 0.1 x^2), kicked by diag(0.2, 0) at
    t = 1.5, on the short window [0, 8]."""
    Q1 = np.zeros((2, 2))
    Q1[1, 1] = 0.1
    Q2 = np.zeros((2, 2))
    Q2[0, 0] = 0.1
    nl = NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=0.5)
    spec = IdeSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
                   ((1.5, np.diag([0.2, 0.0])),), nl)
    return ide_to_context(spec, s=0.0, T=8.0, tol=1e-10,
                          grid=np.linspace(0.0, 8.0, 17))


def _shipped_context(name):
    """The context of a shipped config, built as the CLI builds it."""
    from kurzmani.cli import load_config, parse_grid, parse_system, solver_block
    cfg = load_config(str(CONFIG_DIR / (name + ".json")))
    sol = solver_block(cfg)
    return ide_to_context(parse_system(cfg), s=float(sol["s"]), T=float(sol["T"]),
                          tol=float(sol["tol"]), base_step=float(sol["base_step"]),
                          grid=parse_grid(sol["grid"], None))


@pytest.mark.parametrize("name", [
    "kicked_window",
    pytest.param("impulsive_saddle", marks=pytest.mark.slow),    # T = 40, M = 400
    pytest.param("planar_quadratic", marks=pytest.mark.slow)])   # T = 40, M = 400
def test_mode_agreement_ide_with_impulse(request, name):
    ctx = (request.getfixturevalue("ctx_kicked_window") if name == "kicked_window"
           else _shipped_context(name))
    zeta = ctx.P(ctx.span(0.0)[0]) @ np.array([0.2, 0.0])
    z0 = ctx.initial_path(zeta, 0.0)
    fast = lp_operator_apply(z0, zeta, 0.0, ctx, mode="fast")
    ref = lp_operator_apply(z0, zeta, 0.0, ctx, mode="reference")
    agreement = float(np.max(np.linalg.norm(fast.values - ref.values, axis=1)))
    assert agreement <= 1e-10


def test_mode_agreement_scalar_mde_with_atom(ctx_scalar_mde):
    zeta = np.array([0.4])
    z0 = ctx_scalar_mde.initial_path(zeta, 0.0)
    fast = lp_operator_apply(z0, zeta, 0.0, ctx_scalar_mde, mode="fast")
    ref = lp_operator_apply(z0, zeta, 0.0, ctx_scalar_mde, mode="reference")
    agreement = float(np.max(np.abs(fast.values - ref.values)))
    assert agreement <= 1e-10


def _per_cell_accumulation(ctx, z, idx, layout):
    """``_inner_accumulation`` one fine cell at a time, the reference for
    its batched registry calls and running sum."""
    gl5, gw5 = GAUSS_LEGENDRE[5]
    n = ctx.fund.n
    density = ctx.nonlin.measure.density
    node_vals = []
    mid_vals = []
    acc = np.zeros(n)
    for k in range(len(idx) - 1):
        pts, _ = layout[k]
        atom_w = ctx.atom_weights[idx[k]]
        cells_nodes = np.empty((len(pts), n))
        cells_mids = np.empty((len(pts) - 1, n))
        cells_nodes[0] = acc
        if atom_w:
            acc = acc + atom_w * ctx.nonlin.value(pts[0], z.values[k])
        a_cell, b_cell = pts[0], pts[-1]
        for l in range(len(pts) - 1):
            a, b = pts[l], pts[l + 1]
            tau = 0.5 * (a + b)
            lam = (tau - a_cell) / (b_cell - a_cell)
            z_tau = (1.0 - lam) * z.right_values[k] + lam * z.values[k + 1]
            sig = 0.5 * (a + tau) + 0.5 * (tau - a) * gl5
            w = 0.5 * (tau - a) * gw5
            f = ctx.nonlin.value(sig, np.broadcast_to(z_tau, (5, n)))
            inc_half = np.sum((w * density.sample(sig))[:, None] * f, axis=0)
            sig2 = 0.5 * (tau + b) + 0.5 * (b - tau) * gl5
            w2 = 0.5 * (b - tau) * gw5
            f2 = ctx.nonlin.value(sig2, np.broadcast_to(z_tau, (5, n)))
            inc_full = inc_half + np.sum((w2 * density.sample(sig2))[:, None] * f2,
                                         axis=0)
            cells_mids[l] = acc + inc_half
            acc = acc + inc_full
            cells_nodes[l + 1] = acc
        node_vals.append(cells_nodes)
        mid_vals.append(cells_mids)
    return node_vals, mid_vals


def _per_output_pass(z, zeta, s, ctx, refine):
    """``_reference_pass`` with both outer Stieltjes sums restarted from
    every output node: the reference for the one sweep per side."""
    idx = ctx.span(float(s))
    x = ctx.fund.nodes[idx]
    M = len(idx) - 1
    n = ctx.fund.n
    eye = np.eye(n)
    layout = lpm._fine_layout(ctx, idx, refine)
    step_invs = [np.linalg.inv(steps) for _, steps in layout]
    node_N, mid_N = _per_cell_accumulation(ctx, z, idx, layout)
    vals = np.empty((M + 1, n))
    for out in range(M + 1):
        t = x[out]
        stable = np.zeros(n)
        Mcur = ctx.P(idx[out])
        for k in range(out - 1, -1, -1):
            pts, steps = layout[k]
            J = ctx.fund.jumps[idx[k]]
            for l in range(len(steps) - 1, -1, -1):
                M_hi = Mcur
                Mcur = Mcur @ steps[l]
                stable += (M_hi - Mcur) @ mid_N[k][l]
            M_plus = Mcur
            Mcur = Mcur @ J
            stable += (M_plus - Mcur) @ node_N[k][0]
        unstable = np.zeros(n)
        Ucur = eye - ctx.P(idx[out])
        for k in range(out, M):
            pts, steps = layout[k]
            U_left = Ucur
            Ucur = Ucur @ ctx.fund.jump_invs[idx[k]]
            unstable += (Ucur - U_left) @ node_N[k][0]
            for l in range(len(steps)):
                U_lo = Ucur
                Ucur = Ucur @ step_invs[k][l]
                unstable += (Ucur - U_lo) @ mid_N[k][l]
        unstable -= Ucur @ node_N[-1][-1]
        lin = ctx.fund.value(t, float(s)) @ (ctx.P(idx[0]) @ zeta)
        N_t = node_N[out][0] if out < M else node_N[-1][-1]
        vals[out] = lin + N_t - stable + unstable
    return vals


def _per_node_rights(z, s, ctx, vals):
    """The right limits of reference values, formed one node at a time."""
    idx = ctx.span(float(s))
    x = ctx.fund.nodes[idx]
    M = len(idx) - 1
    rights = vals.copy()
    for k in range(M + 1):
        a_k = ctx.atom_weights[idx[k]] if k < M else 0.0
        add = a_k * ctx.nonlin.value(x[k], z.values[k]) if a_k else np.zeros(ctx.fund.n)
        rights[k] = ctx.fund.jumps[idx[k]] @ vals[k] + add
    return rights


@pytest.mark.parametrize("refine", [2, 4])
@pytest.mark.parametrize("name, s", [("ctx_kicked_window", 0.0), ("ctx_scalar_mde", 0.0),
                                     ("ctx_planar", 30.0), ("ctx_coupled", 0.0)])
def test_reference_sweeps_equal_the_per_output_sweeps(request, name, s, refine):
    """A pass keeps its bits at refine 2 and at 4.  The path is three times
    the initial path of a zeta of norm 0.4 rho, so its states reach past the
    cutoff radius and the batched registry calls mix points inside and
    outside the ball.  The apply from the initial path gives its values the
    right limits formed per node.  The planar saddle starts at s = 30: 100
    cells keep the per-output sums quick."""
    ctx = request.getfixturevalue(name)
    zeta = ctx.P(ctx.span(s)[0]) @ np.eye(ctx.fund.n)[0]
    zeta *= 0.4 * ctx.nonlin.rho / norm(zeta)
    z0 = ctx.initial_path(zeta, s)
    z = SolutionPath(z0.times, 3.0 * z0.values, 3.0 * z0.right_values)
    assert np.max(np.linalg.norm(z.values, axis=1)) > ctx.nonlin.rho
    idx = ctx.span(s)
    Pz = ctx.P(idx[0]) @ zeta
    lin = np.array([ctx.fund.value(t, float(s)) @ Pz for t in ctx.fund.nodes[idx]])
    vals = _per_output_pass(z, zeta, s, ctx, refine)
    assert np.array_equal(lpm._reference_pass(ctx, z, idx, lin, refine), vals)
    ref = _reference_apply(z0, zeta, s, ctx)
    assert np.array_equal(ref.right_values, _per_node_rights(z0, s, ctx, ref.values))


def _short_planar(ctx_planar):
    return _planar_until(ctx_planar, 1.0, ctx_planar.nonlin)


def test_reference_apply_raises_at_the_cap(ctx_planar, monkeypatch):
    ctx = _short_planar(ctx_planar)
    zeta = np.array([0.01, 0.0])
    z0 = ctx.initial_path(zeta, 0.0)
    monkeypatch.setattr(lpm, "_REFINE0", 1)
    monkeypatch.setattr(lpm, "_MAX_REFINE", 2)
    with pytest.raises(SolveError, match="refine=2") as info:
        _reference_apply(z0, zeta, 0.0, ctx)
    # one doubling from refine 1 leaves a change well above tol, and two
    # passes give no extrapolate to stop on
    assert 1e-9 < info.value.residual < 1e-5


def test_converging_reference_apply_logs_nothing(ctx_planar, caplog):
    ctx = _short_planar(ctx_planar)
    zeta = np.array([0.01, 0.0])
    z0 = ctx.initial_path(zeta, 0.0)
    with caplog.at_level(logging.DEBUG, logger="kurzmani"):
        _reference_apply(z0, zeta, 0.0, ctx)
    assert not [r for r in caplog.records if r.name == "kurzmani"]


def _refinements(monkeypatch):
    refines = []
    layout = lpm._fine_layout
    monkeypatch.setattr(lpm, "_fine_layout",
                        lambda ctx, idx, refine: refines.append(refine)
                        or layout(ctx, idx, refine))
    return refines


def test_converging_reference_apply_stops_on_the_extrapolate(ctx_planar, monkeypatch):
    ctx = _short_planar(ctx_planar)
    zeta = np.array([0.01, 0.0])
    z0 = ctx.initial_path(zeta, 0.0)
    refines = _refinements(monkeypatch)
    ref = _reference_apply(z0, zeta, 0.0, ctx)
    assert refines == [2, 4, 8]
    fast = lp_operator_apply(z0, zeta, 0.0, ctx, mode="fast")
    assert float(np.max(np.linalg.norm(fast.values - ref.values, axis=1))) <= 1e-10


@pytest.mark.parametrize("name", ["planar_quadratic", "impulsive_saddle"])
def test_reference_apply_at_the_horizon_is_the_fast_anchor(name):
    """At s = T the span is one node and no cell: the reference returns the
    fast mode's one-node path, its anchor zeta, bit for bit."""
    ctx = _shipped_context(name)
    zeta = ctx.P(ctx.span(ctx.T)[0]) @ np.array([0.2, 0.0])
    z0 = ctx.initial_path(zeta, ctx.T)
    fast = lp_operator_apply(z0, zeta, ctx.T, ctx, mode="fast")
    ref = lp_operator_apply(z0, zeta, ctx.T, ctx, mode="reference")
    assert len(ref.times) == 1
    for a, b in ((fast.times, ref.times), (fast.values, ref.values),
                 (fast.right_values, ref.right_values)):
        assert np.array_equal(a, b)
