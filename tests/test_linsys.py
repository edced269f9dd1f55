import math
import os

import numpy as np
import pytest
import scipy.linalg

import kurzmani.linsys as linsys
from conftest import lebesgue
from kurzmani.cli import load_config, parse_system
from kurzmani.funcspace import PiecewisePath, StieltjesMeasure, norm
from kurzmani.linsys import (FundamentalOperator, LinearSystemSpec,
                             check_regularity, expm, jump_table)

EYE1 = np.eye(1)
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def scalar_path(c):
    return PiecewisePath.constant([[float(c)]])


def regularity(spec, window):
    return check_regularity(FundamentalOperator(spec, window))


def test_accumulated_path_zero_system():
    rep = regularity(LinearSystemSpec(1, scalar_path(0.0)), (-2.0, 5.0))
    assert rep.V_Lambda == 0.0 and rep.C_a == 1.0


def test_accumulated_path_with_one_impulse():
    spec = LinearSystemSpec(1, scalar_path(-1.0), impulses=((1.0, [[0.5]]),))
    assert regularity(spec, (0.0, 2.0)).V_Lambda == pytest.approx(2.5, rel=1e-15)
    # on [0, 1] the jump sits at the right end and acts past the window
    rep = regularity(spec, (0.0, 1.0))
    assert rep.V_Lambda == pytest.approx(1.0, rel=1e-15)
    assert rep.C_a == 1.0


def test_accumulated_variation_counts_every_impulse():
    spec = LinearSystemSpec(1, scalar_path(0.0),
                            impulses=((1.0, [[0.3]]), (2.0, [[0.3]])))
    assert regularity(spec, (0.0, 3.0)).V_Lambda == pytest.approx(0.6, abs=1e-12)


def test_impulse_at_reference_time_rejected():
    spec = LinearSystemSpec(1, scalar_path(0.0), impulses=((0.0, [[0.5]]),))
    with pytest.raises(ValueError, match="impulse at the reference time t0=0 "
                                         "is ambiguous"):
        regularity(spec, (0.0, 3.0))


def test_backward_branch_also_right_jumps():
    # an impulse before t0 counts in V_Lambda like one after it
    spec = LinearSystemSpec(1, scalar_path(0.0), impulses=((-1.0, [[0.4]]),))
    rep = regularity(spec, (-2.0, 1.0))
    assert rep.V_Lambda == pytest.approx(0.4, abs=1e-12)
    assert rep.C_a == 1.0


def test_measure_paths_zero_coefficient():
    spec = LinearSystemSpec(1, scalar_path(0.0),
                            measure_part=(scalar_path(0.0), lebesgue()))
    assert regularity(spec, (0.0, 7.0)).V_Lambda == 0.0


def test_measure_paths_single_atom():
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(2.0, 0.7)])
    spec = LinearSystemSpec(1, scalar_path(0.0),
                            measure_part=(scalar_path(1.0), mu))
    rep = regularity(spec, (0.0, 3.0))
    assert rep.V_Lambda == pytest.approx(0.7, abs=1e-12)
    assert rep.C_a == 1.0


def test_measure_paths_linear_coefficient_against_lebesgue():
    # generator C(t) = t: a quadrature piece, integral of |t| over [0, 1]
    C = PiecewisePath.polynomial([np.zeros((1, 1)), EYE1])
    spec = LinearSystemSpec(1, scalar_path(0.0), measure_part=(C, lebesgue()))
    assert regularity(spec, (0.0, 1.0)).V_Lambda == pytest.approx(0.5, abs=1e-12)


def test_singular_atom_factor_rejected():
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(1.0, 1.0)])
    with pytest.raises(ValueError):
        LinearSystemSpec(1, scalar_path(0.0), measure_part=(scalar_path(-1.0), mu))


def test_operator_is_identity_at_equal_times():
    spec = LinearSystemSpec(1, scalar_path(-1.0), impulses=((1.0, [[1.0]]),))
    op = FundamentalOperator(spec, (0.0, 3.0))
    assert np.array_equal(op.value(1.7, 1.7), np.eye(1))


def test_product_formula_with_one_impulse():
    spec = LinearSystemSpec(1, scalar_path(-1.0), impulses=((1.0, [[1.0]]),))
    v = FundamentalOperator(spec, (0.0, 2.0)).value(2.0, 0.0)
    assert v[0, 0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-10)


def test_time_dependent_coefficient_growth():
    # coefficient A(t) = t gives exp(t^2 / 2), within the accumulated
    # variation envelope exp(t^2 / 2) and under exp(t) on [0, 1]
    At = PiecewisePath.polynomial([np.zeros((1, 1)), EYE1])
    spec = LinearSystemSpec(1, At)
    op = FundamentalOperator(spec, (0.0, 1.0))
    for t in (0.25, 0.5, 1.0):
        val = op.value(t, 0.0)[0, 0]
        assert val == pytest.approx(math.exp(t * t / 2.0), rel=1e-9)
        assert val <= math.exp(t) * (1.0 + 1e-9)


def test_constant_unit_coefficient_matches_variation_envelope():
    # accumulated path Lambda(t) = t: growth exactly e^t = e^{var}
    spec = LinearSystemSpec(1, scalar_path(1.0))
    op = FundamentalOperator(spec, (0.0, 3.0))
    for t in np.linspace(0.0, 3.0, 13):
        assert op.value(t, 0.0)[0, 0] <= math.exp(t) * (1.0 + 1e-6)


def _three_test_specs():
    ode = LinearSystemSpec(2, PiecewisePath.constant(
        np.array([[-1.0, 0.3], [0.1, 0.8]])))
    imp = LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
                           impulses=tuple((0.5 + k, np.diag([0.1, -0.05]))
                                          for k in range(5)))
    mu = StieltjesMeasure(PiecewisePath.constant(0.5),
                          [(1.0, 0.2), (2.5, 0.1), (3.5, 0.3)])
    mde = LinearSystemSpec(2, PiecewisePath.constant(
        np.array([[-0.5, 0.0], [0.2, 0.4]])),
        measure_part=(PiecewisePath.constant(0.3 * np.eye(2)), mu))
    return [ode, imp, mde]


@pytest.mark.parametrize("spec_index", [0, 1, 2])
def test_cocycle_and_inverse_residuals(spec_index):
    spec = _three_test_specs()[spec_index]
    op = FundamentalOperator(spec, (0.0, 5.0))
    rng = np.random.default_rng(11 + spec_index)
    eye = np.eye(2)
    for _ in range(50):
        t, r, s = rng.uniform(0.0, 5.0, size=3)
        coc = norm(op.value(t, s) - op.value(t, r) @ op.value(r, s))
        inv = norm(op.value(t, s) @ op.value(s, t) - eye)
        assert coc <= 1e-8
        assert inv <= 1e-8


def _gauss_panel(fn, a, b, nodes=8):
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    return sum(wi * fn(ti) for wi, ti in zip(w, t)) * 0.5 * (b - a)


def test_linear_solution_satisfies_accumulated_identity():
    # z(t) = V(t, 0) z0 must satisfy z(t) = z0 + int A z dr + sum B_i z(t_i)
    spec = _three_test_specs()[1]
    op = FundamentalOperator(spec, (0.0, 5.0))
    z0 = np.array([1.0, -0.5])
    t_end = 4.0
    cuts = [0.0] + [t for t, _ in spec.impulses if t < t_end] + [t_end]
    acc = np.zeros(2)
    for a, b in zip(cuts, cuts[1:]):
        acc = acc + _gauss_panel(
            lambda r: spec.smooth(r) @ (op.value(r, 0.0) @ z0), a, b)
    for t_i, B in spec.impulses:
        if 0.0 <= t_i < t_end:
            acc = acc + np.asarray(B) @ (op.value(t_i, 0.0) @ z0)
    assert norm(op.value(t_end, 0.0) @ z0 - (z0 + acc)) <= 1e-8


def test_measure_realization_integral_identity():
    # U(t, s) = Id + int A U dr + int C U du, atoms entering as left-closed
    spec = _three_test_specs()[2]
    op = FundamentalOperator(spec, (0.0, 5.0))
    C, mu = spec.measure_part
    t_end = 4.0
    atom_times = [t for t, _ in mu.atoms if t < t_end]
    cuts = sorted({0.0, t_end} | set(atom_times))
    acc = np.eye(2) * 0.0
    for a, b in zip(cuts, cuts[1:]):
        acc = acc + _gauss_panel(
            lambda r: (spec.smooth(r) + C(r) * float(mu.density(r)))
            @ op.value(r, 0.0), a, b, nodes=12)
    for t_i, w in mu.atoms:
        if 0.0 <= t_i < t_end:
            acc = acc + C(t_i) * w @ op.value(t_i, 0.0)
    resid = norm(op.value(t_end, 0.0) - (np.eye(2) + acc))
    assert resid <= 1e-6


def test_regularity_report_trivial_system():
    rep = regularity(LinearSystemSpec(1, scalar_path(0.0)), (0.0, 2.0))
    assert rep.C_a == pytest.approx(1.0)
    assert rep.V_Lambda == pytest.approx(0.0)


def test_regularity_report_single_jump():
    spec = LinearSystemSpec(1, scalar_path(0.0), impulses=((1.0, [[0.5]]),))
    rep = regularity(spec, (0.0, 2.0))
    assert rep.C_a == pytest.approx(max(1.0, 1.0 / 1.5))
    assert rep.V_Lambda == pytest.approx(0.5)


def test_regularity_flags_singular_jump():
    with pytest.raises(ValueError):
        LinearSystemSpec(1, scalar_path(0.0), impulses=((1.0, [[-1.0]]),))


def test_jump_convention_matches_product_formula_at_nodes():
    # s exactly at an impulse time: the factor applies when leaving s
    spec = LinearSystemSpec(1, scalar_path(0.0), impulses=((1.0, [[1.0]]),))
    op = FundamentalOperator(spec, (0.0, 3.0))
    assert op.value(2.0, 1.0)[0, 0] == pytest.approx(2.0)
    assert op.value(1.0, 0.0)[0, 0] == pytest.approx(1.0)
    assert op.value(0.0, 1.0)[0, 0] == pytest.approx(1.0)
    assert op.value(1.0, 2.0)[0, 0] == pytest.approx(0.5)


def _cell_oracle(op, j):
    """A constant cell computed one matrix at a time, outside the operator.

    ``expm`` is the library's one-matrix call, bound at import so that a
    test counting ``linsys.expm`` calls does not count the oracle's;
    ``test_expm_matches_scipy_on_shipped_cells`` ties it to scipy.  The jump
    factor at x_j comes from the spec's events, not from the operator.
    """
    a, b = op.nodes[j], op.nodes[j + 1]
    x, w = np.polynomial.legendre.leggauss(3)
    sigma = 0.5 * (a + b) + 0.5 * (b - a) * x
    gen = op.spec.generator(0.5 * (a + b))
    phi = expm(gen * (b - a))
    phi_sig = [expm(gen * (t - a)) for t in sigma]
    table = op.spec.jumps
    J = next((J for t, J in zip(table.times, table.factors)
              if abs(t - a) <= op.radius), np.eye(op.n))
    return {"phi": phi, "gen": gen, "sigma": sigma, "weights": 0.5 * (b - a) * w,
            "phi_sig_inv": np.stack([np.linalg.inv(m) for m in phi_sig]),
            "fwd": phi @ J, "bwd": np.linalg.inv(J) @ np.linalg.inv(phi)}


def _shipped_linear_spec(name):
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".json"))
    return parse_system(cfg).linear_spec(0.0)


def _piecewise_spec():
    """Two constant pieces around a polynomial one, plus one impulse."""
    A1 = np.array([[-1.0, 0.5], [0.0, 0.8]])
    A2 = np.array([[-0.7, 0.0], [0.3, 1.2]])
    ramp = PiecewisePath.polynomial([A1, 0.1 * np.eye(2)]).segments[0]
    smooth = PiecewisePath.from_segments([1.0, 2.0], [A1, ramp, A2])
    return LinearSystemSpec(2, smooth, impulses=((2.5, np.diag([0.2, -0.1])),))


# the polynomial piece on (1, 2) spans 10 cells of the 0.1 mesh
@pytest.mark.parametrize("make, window, smooth_cells", [
    (lambda: _shipped_linear_spec("impulsive_saddle"), (0.0, 40.0), 0),
    (lambda: _shipped_linear_spec("scalar_mde"), (0.0, 12.0), 0),
    (_piecewise_spec, (0.0, 3.5), 10),
], ids=["impulsive_saddle", "scalar_mde", "piecewise"])
def test_stacked_constant_cells_equal_per_cell_oracle(monkeypatch, make, window,
                                                      smooth_cells):
    ivp_calls = []
    real_ivp = linsys.dop853
    monkeypatch.setattr(linsys, "dop853",
                        lambda *a, **k: ivp_calls.append(1) or real_ivp(*a, **k))
    spec = make()
    op = FundamentalOperator(spec, window)
    cells = op.cells
    integrated = 0
    for j in range(len(op.nodes) - 1):
        if not spec.generator_constant_on(op.nodes[j], op.nodes[j + 1]):
            integrated += 1
            continue
        oracle = _cell_oracle(op, j)
        for key in cells._fields:
            assert np.array_equal(getattr(cells, key)[j], oracle[key]), (j, key)
        assert np.array_equal(op._sigma[j], oracle["sigma"]), j
        assert np.array_equal(op._weights[j], oracle["weights"]), j
    assert integrated == len(ivp_calls) == smooth_cells


def _rel_gap(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_dop853_matches_expm_on_a_linear_system():
    """Step ends and dense output of y' = A y, y(0) = Id, against expm(A t)
    over [0, 5] at the tolerance the cell propagator uses."""
    A = np.array([[-1.0, 3.0, 0.0], [0.5, 1.0, -0.4], [0.0, 2.0, -0.3]])
    eye = np.eye(3).ravel()
    ends, dense_gaps = [], []
    for t, y, dense in linsys.dop853(lambda t, y: (A @ y.reshape(3, 3)).ravel(),
                                     0.0, eye, 5.0, 1e-12, 1e-12):
        ends.append(t)
        assert _rel_gap(y.reshape(3, 3), expm(A * t)) <= 1e-10, t
        t_mid = ends[-2] + 0.37 * (t - ends[-2]) if len(ends) > 1 else 0.37 * t
        dense_gaps.append(_rel_gap(dense(t_mid).reshape(3, 3), expm(A * t_mid)))
    assert ends[-1] == 5.0 and len(ends) > 10
    assert max(dense_gaps) <= 1e-10


def test_dop853_takes_the_steps_of_scipys_dop853():
    """The step control and the initial step are Hairer's, as in scipy's
    port of his code: the same steps on a nonlinear saddle whose forcing
    pulse at t = 4 makes the control reject steps."""
    from scipy.integrate import solve_ivp

    def fun(t, y):
        pulse = 5.0 * math.exp(-50.0 * (t - 4.0) ** 2)
        return np.array([-y[0], y[1] + y[0] ** 2 * math.cos(t) + pulse])

    y0 = np.array([0.3, 0.01])
    ref = solve_ivp(fun, (0.0, 8.0), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    steps = list(linsys.dop853(fun, 0.0, y0, 8.0, 1e-10, 1e-12))
    assert len(steps) == len(ref.t) - 1 > 20
    np.testing.assert_allclose([t for t, _, _ in steps], ref.t[1:], rtol=1e-14, atol=0)
    np.testing.assert_allclose([y for _, y, _ in steps], ref.y[:, 1:].T,
                               rtol=1e-12, atol=1e-15)


def test_non_finite_generator_mid_cell_raises_propagation_error(monkeypatch):
    """A right-hand side that turns NaN inside an integrated cell fails the
    cell; the step never shrinks to a floor and returns as converged."""
    spec = _piecewise_spec()
    smooth = LinearSystemSpec.generator
    # NaN on the polynomial piece (1, 2) from t = 1.55 on
    monkeypatch.setattr(LinearSystemSpec, "generator", lambda self, t: smooth(
        self, t) * (np.nan if 1.55 < t < 2.0 else 1.0))
    op = FundamentalOperator(spec, (0.0, 3.5))
    with pytest.raises(linsys.PropagationError, match="step size fell below"):
        op._propagate(1.5, 1.6)
    with pytest.raises(linsys.PropagationError):
        op.cells


@pytest.mark.parametrize("n", [1, 3])
def test_expm_stacked_slices_equal_one_matrix_calls(n):
    # these 1-norms need 0, 0, 0, 0, 1, 2, 3, 5 and 6 squarings
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((9, n, n))
    mats *= (np.array([0.0, 1e-3, 0.5, 5.0, 7.0, 12.0, 30.0, 100.0, 300.0])
             / np.abs(mats).sum(axis=-2).max(axis=-1))[:, None, None]
    stacked = expm(mats)
    assert np.array_equal(stacked[0], np.eye(n))
    for k, m in enumerate(mats):
        assert np.array_equal(stacked[k], expm(m)), k


@pytest.mark.parametrize("name, window", [("planar_quadratic", (0.0, 40.0)),
                                          ("impulsive_saddle", (0.0, 40.0)),
                                          ("scalar_mde", (0.0, 12.0))])
def test_expm_matches_scipy_on_shipped_cells(name, window):
    op = FundamentalOperator(_shipped_linear_spec(name), window)
    for j in range(len(op.nodes) - 1):
        a, b = op.nodes[j], op.nodes[j + 1]
        gen = op.spec.generator(0.5 * (a + b))
        for t in [*op._sigma[j], b]:
            step = gen * (t - a)
            assert _rel_gap(expm(step), scipy.linalg.expm(step)) <= 1e-15, (j, t)


def test_expm_matches_scipy_on_random_stacks():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mats = rng.standard_normal((16, 3, 3))
        mats *= (rng.uniform(0.0, 60.0, 16)
                 / np.abs(mats).sum(axis=-2).max(axis=-1))[:, None, None]
        for got, m in zip(expm(mats), mats):
            assert _rel_gap(got, scipy.linalg.expm(m)) <= 1e-11


def test_constant_fill_exponentiates_each_distinct_step_once(monkeypatch):
    spec = _shipped_linear_spec("impulsive_saddle")
    matrices = []
    real_expm = linsys.expm
    monkeypatch.setattr(linsys, "expm", lambda a: matrices.append(
        1 if np.ndim(a) == 2 else len(a)) or real_expm(a))
    op = FundamentalOperator(spec, (0.0, 40.0))
    cells = len(op.cells.phi)
    assert cells == len(op.nodes) - 1 == 400
    distinct = set()
    for j in range(cells):
        oracle = _cell_oracle(op, j)
        a, b = op.nodes[j], op.nodes[j + 1]
        for step in [*(oracle["sigma"] - a), b - a]:
            distinct.add((oracle["gen"].tobytes(), float(step)))
    assert sum(matrices) <= len(distinct) < 4 * cells


def test_mesh_store_is_read_only():
    op = FundamentalOperator(_piecewise_spec(), (0.0, 3.5))
    for arr in (op.event_nodes, op.jumps, op.jump_invs, *op.cells):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("make, window", [
    (lambda: _shipped_linear_spec("impulsive_saddle"), (0.0, 40.0)),
    (_piecewise_spec, (0.0, 3.5)),
], ids=["impulsive_saddle", "piecewise"])
def test_adjacent_backward_step_is_the_inverse_forward_step(make, window):
    op = FundamentalOperator(make(), window)
    x = op.nodes
    for j in range(len(x) - 1):
        want = np.linalg.inv(op.value(x[j + 1], x[j]))
        assert norm(op.value(x[j], x[j + 1]) - want) <= 1e-13 * norm(want), j


def _two_jumps(kinds, gap):
    """Factor 2 at t = 1 and factor 3 at t = 1 + gap, each an impulse or an
    atom of the measure part (C = 1)."""
    impulses, atoms = [], []
    for t, b, kind in zip((1.0, 1.0 + gap), (1.0, 2.0), kinds):
        if kind == "impulse":
            impulses.append((t, [[b]]))
        else:
            atoms.append((t, b))
    measure_part = None
    if atoms:
        measure_part = (scalar_path(1.0),
                        StieltjesMeasure(PiecewisePath.constant(0.0), atoms))
    return LinearSystemSpec(1, scalar_path(0.0), impulses=tuple(impulses),
                            measure_part=measure_part)


@pytest.mark.parametrize("kinds", [("impulse", "impulse"), ("atom", "atom"),
                                   ("impulse", "atom"), ("atom", "impulse")],
                         ids="-".join)
def test_coincident_jumps_are_refused(kinds):
    # one mesh node would keep one factor: V(2, 0) = 3 instead of 6
    with pytest.raises(ValueError, match="coincide"):
        FundamentalOperator(_two_jumps(kinds, 1e-13), (0.0, 3.0))
    op = FundamentalOperator(_two_jumps(kinds, 1e-6), (0.0, 3.0))
    assert op.value(2.0, 0.0)[0, 0] == pytest.approx(6.0, rel=1e-12)


def _per_event_table(spec):
    """The jump table one event at a time: np.eye(n) + B per impulse and
    np.eye(n) + C(t) w per atom, sorted by time (impulses first at a tie),
    with one ``np.linalg.inv`` per factor."""
    events = [(t, np.eye(spec.n) + B) for t, B in spec.impulses]
    if spec.measure_part is not None:
        C, u = spec.measure_part
        events += [(t, np.eye(spec.n) + C(t) * w) for t, w in u.atoms]
    events.sort(key=lambda e: e[0])
    return ([t for t, _ in events], [J for _, J in events],
            [np.linalg.inv(J) for _, J in events])


def _three_atom_spec():
    """A 2-d measure-driven system: time-dependent C, three atoms."""
    C = PiecewisePath.polynomial([np.array([[0.3, -0.2], [0.1, 0.4]]),
                                  np.array([[0.05, 0.0], [-0.1, 0.02]])])
    u = StieltjesMeasure(PiecewisePath.constant(0.5),
                         [(0.7, 0.3), (1.9, 1.2), (2.6, 0.45)])
    return LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 0.5])),
                            measure_part=(C, u))


def _interleaved_spec():
    """Impulses at 0.5, 1.5 and 2.5 between atoms at 1 and 2, plus an
    impulse and an atom at one time (3)."""
    C = PiecewisePath.constant(np.array([[0.2, 0.1], [-0.3, 0.4]]))
    u = StieltjesMeasure(PiecewisePath.constant(0.0),
                         [(1.0, 0.5), (2.0, 1.5), (3.0, 0.25)])
    impulses = tuple((t, np.array([[0.1 * t, -0.2], [0.05, -0.3]]))
                     for t in (0.5, 1.5, 2.5, 3.0))
    return LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 0.5])),
                            impulses=impulses, measure_part=(C, u))


@pytest.mark.parametrize("make, hi", [
    (lambda: _shipped_linear_spec("impulsive_saddle"), 40.0),
    (_three_atom_spec, 3.0),
    (_interleaved_spec, 2.8),     # the operator refuses the tie at t = 3
], ids=["impulsive_saddle", "three_atoms", "interleaved"])
def test_jump_table_equals_per_event_oracle(make, hi):
    spec = make()
    table = spec.jumps
    times, factors, inverses = _per_event_table(spec)
    assert table.times.tolist() == times and table.singular_at is None
    assert np.array_equal(table.factors, np.array(factors))
    assert np.array_equal(table.inverses, np.array(inverses))
    for arr in table[:3]:
        assert not arr.flags.writeable
    # the operator's node store holds the rows of the events in its window
    op = FundamentalOperator(spec, (0.0, hi))
    inside = table.times <= hi
    assert np.array_equal(op.jumps[op.event_nodes], table.factors[inside])
    assert np.array_equal(op.jump_invs[op.event_nodes], table.inverses[inside])


def test_table_orders_impulses_and_atoms_by_time():
    table = _interleaved_spec().jumps
    assert table.times.tolist() == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.0]
    # at the tie the impulse comes first, then the atom
    assert table.factors[5][0, 0] == 1.0 + 0.1 * 3.0
    assert len(_shipped_linear_spec("impulsive_saddle").jumps.times) == 39


@pytest.mark.parametrize("middle", [
    -np.eye(2),                                  # LinAlgError in the stacked call
    np.array([[-1.0 + 2.0 ** -53, 1e300], [0.0, 0.0]]),   # an inverse with -inf
], ids=["singular", "non_finite_inverse"])
def test_singular_factor_in_the_middle_is_named(middle):
    B = np.array([[0.2, 0.1], [0.0, -0.4]])
    impulses = ((1.0, B), (2.0, middle), (3.0, 2.0 * B))
    table = jump_table(2, impulses, None)
    assert table.singular_at == 2.0
    assert np.array_equal(table.inverses, np.linalg.inv(np.eye(2) + B)[None])
    with pytest.raises(ValueError, match="singular at t=2$"):
        LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
                         impulses=impulses)


def test_operator_init_makes_no_inverse_call(monkeypatch):
    spec = _interleaved_spec()
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    op = FundamentalOperator(spec, (0.0, 2.8))
    assert calls == [] and len(op.event_nodes) == 5
