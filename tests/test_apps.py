import math
import os

import numpy as np
import pytest

from conftest import SADDLE, lebesgue, quadratic_forcing
from kurzmani import cli
from kurzmani.apps import (HypothesisError, IdeSpec, MdeSpec, _probe_points,
                           build_context, check_hypotheses, ide_to_context,
                           mde_to_context)
from kurzmani.funcspace import PiecewisePath, StieltjesMeasure, norm
from kurzmani.linsys import FundamentalOperator, check_regularity
from kurzmani.lp_manifold import (NonlinearitySpec, contraction_bound,
                                  contraction_estimate, solve_lp)


def saddle_path():
    return PiecewisePath.constant(SADDLE)


def test_linear_forcing_gives_zero_modulus():
    f = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = ide_to_context(IdeSpec(2, saddle_path(), (), f), s=0.0, T=10.0)
    assert ctx.nonlin.v_h((0.0, 10.0)) == 0.0
    assert contraction_estimate(ctx, 0.0) == 0.0
    sol = solve_lp(np.array([0.2, 0.0]), 0.0, ctx)
    assert np.allclose(sol.m, 0.0, atol=1e-12)


def test_planar_benchmark_context_construction():
    spec = IdeSpec(2, saddle_path(), (), quadratic_forcing(1.0))
    ctx = ide_to_context(spec, s=0.0, T=40.0, tol=1e-10)
    assert abs(ctx.dich.K - 1.0) <= 0.01
    assert abs(ctx.dich.alpha - 1.0) <= 0.01
    sol = solve_lp(np.array([0.1, 0.0]), 0.0, ctx)
    assert sol.m[0] == pytest.approx(-0.1 ** 2 / 3.0, abs=5e-3 * 0.01)


@pytest.mark.parametrize("s", [0.05, 1e8 + 0.05])
def test_auto_horizon_ends_a_whole_step_from_s(s):
    """Without T the horizon is rounded up on the grid s + base_step k, so the
    last cell is one base_step, not what is left of a step counted from 0."""
    spec = IdeSpec(2, saddle_path(), (), quadratic_forcing(0.05))
    ctx = ide_to_context(spec, s=s, tol=1e-10, base_step=0.1)
    x = ctx.fund.nodes
    assert x[-1] == ctx.T
    # both ends of the cell are rounded at the size of T
    assert abs((x[-1] - x[-2]) - 0.1) <= 2.0 * np.spacing(ctx.T)


def test_context_default_grid_spans_ten_units_from_s():
    f = NonlinearitySpec("zero", {"n": 2}, rho=0.5)
    ctx = ide_to_context(IdeSpec(2, saddle_path(), (), f), s=1.0, T=41.0,
                         grid=None)
    report = ctx.dich.report
    ts = [t for _, _, t, _, _ in report.samples]
    assert min(ts) == 1.0 and max(ts) == 11.0


def test_impulse_variation_arithmetic():
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 11))
    spec = IdeSpec(2, saddle_path(), impulses, quadratic_forcing(0.05))
    ctx = ide_to_context(spec, s=0.0, T=12.0)

    def V(window):
        return check_regularity(FundamentalOperator(ctx.fund.spec, window)).V_Lambda

    # integral of ||A|| plus one 0.1-jump per impulse; the right-jump sitting
    # exactly at the window's right endpoint lies outside [0, 10]
    assert V((0.0, 10.0)) == pytest.approx(10.0 + 9 * 0.1, abs=1e-8)
    assert V((0.0, 10.5)) == pytest.approx(10.5 + 10 * 0.1, abs=1e-8)


def test_window_end_impulse_enters_C_a_but_not_V():
    impulses = ((1.0, np.diag([0.1, 0.0])), (2.0, np.diag([-0.5, 0.0])))
    spec = IdeSpec(2, saddle_path(), impulses, quadratic_forcing(0.05))
    ctx = build_context(spec, s=0.0, T=2.0)
    # ||A|| over [0, 2] plus the jump at 1; (Id + B)^{-1} at 2 is diag(2, 1)
    assert ctx.regularity.V_Lambda == pytest.approx(2.1, rel=1e-14)
    assert ctx.regularity.C_a == pytest.approx(2.0, rel=1e-15)


def test_ide_window_relative_forcing_bound():
    spec = IdeSpec(2, saddle_path(), (), quadratic_forcing(1.0, rho=0.5))
    rep = check_hypotheses(spec, (0.0, 10.0))
    assert rep.all_passed
    gamma_const = max(spec.f.sup_eff, spec.f.lip_eff)
    assert rep.constants["M_gamma"] == pytest.approx(10.0 * gamma_const)
    # no impulses: an empty stack of norms sums to +0.0
    assert repr(rep.constants["sum_impulse_norms"]) == "0.0"


def test_ide_rejects_singular_jump():
    spec = IdeSpec(2, saddle_path(), ((1.0, -np.eye(2)),), quadratic_forcing(1.0))
    rep = check_hypotheses(spec, (0.0, 5.0))
    assert not rep.items["B3_jump_inverses"].passed
    assert rep.items["B3_jump_inverses"].witness == pytest.approx(1.0)
    with pytest.raises(HypothesisError) as err:
        ide_to_context(spec, T=5.0)
    assert err.value.condition == "B3_jump_inverses"


def test_mde_zero_kernel_is_linear():
    u = lebesgue()
    H = NonlinearitySpec("zero", {"n": 2}, rho=0.5, measure=u)
    spec = MdeSpec(2, saddle_path(), PiecewisePath.constant(np.zeros((2, 2))),
                   u, H)
    ctx = mde_to_context(spec, s=0.0, T=10.0)
    assert ctx.nonlin.v_h((0.0, 10.0)) == 0.0
    assert ctx.reports["realization_gate"] == 0.0


def test_mde_atom_enters_accumulated_variation():
    u = StieltjesMeasure(PiecewisePath.constant(0.0), [(1.0, 0.2)])
    H = NonlinearitySpec("zero", {"n": 1}, rho=0.5, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[0.0]]),
                   PiecewisePath.constant([[1.0]]), u, H)
    ctx = mde_to_context(spec, s=0.0, T=3.0)
    assert ctx.regularity.V_Lambda == pytest.approx(0.2, abs=1e-10)


def test_mde_rejects_singular_atom_factor():
    u = StieltjesMeasure(PiecewisePath.constant(0.0), [(1.0, 1.0)])
    H = NonlinearitySpec("zero", {"n": 1}, rho=0.5, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[0.0]]),
                   PiecewisePath.constant([[-1.0]]), u, H)
    rep = check_hypotheses(spec, (0.0, 3.0))
    assert not rep.items["D6_atom_inverses"].passed
    with pytest.raises(HypothesisError):
        mde_to_context(spec, T=3.0)


def test_mde_flags_non_monotone_driver():
    u = StieltjesMeasure(PiecewisePath.constant(-1.0), [])
    H = NonlinearitySpec("zero", {"n": 1}, rho=0.5, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[0.0]]), u, H)
    rep = check_hypotheses(spec, (0.0, 3.0))
    assert not rep.items["b_driver_nondecreasing_bv"].passed
    with pytest.raises(HypothesisError):
        mde_to_context(spec, T=3.0)


def _driven(density, atoms):
    """The scalar contraction of ``scalar_mde`` driven by ``density`` and
    ``atoms``."""
    u = StieltjesMeasure(density, atoms)
    H = NonlinearitySpec("saturated_tanh", {"gain": [[0.2]]}, rho=1.0, measure=u)
    return MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[0.0]]), u, H)


def test_monotonicity_of_u_is_measured_on_the_window():
    # 5 - t with the atom (1, 0.3): |u|([0, 12)) = 12.5 + 24.5 + 0.3, while
    # u([0, 12)) = 60 - 72 + 0.3 has mu([5, 12)) = -24.5 in it
    spec = _driven(PiecewisePath.polynomial([5.0, -1.0]), [(1.0, 0.3)])
    item = check_hypotheses(spec, (0.0, 12.0)).items["b_driver_nondecreasing_bv"]
    assert not item.passed
    assert item.value == pytest.approx(37.3, rel=1e-12)
    assert item.witness == pytest.approx(-11.7, rel=1e-12)
    with pytest.raises(HypothesisError) as err:
        build_context(spec, s=0.0, T=12.0)
    assert err.value.condition == "b_driver_nondecreasing_bv"
    # the same u is nondecreasing on [0, 5]
    assert check_hypotheses(spec, (0.0, 5.0)).items["b_driver_nondecreasing_bv"].passed
    # 1 + t is positive on [0, 5], however it continues below 0
    ctx = build_context(_driven(PiecewisePath.polynomial([1.0, 1.0]), ()),
                        s=0.0, T=5.0)
    item = ctx.reports["hypotheses"].items["b_driver_nondecreasing_bv"]
    assert item.passed and item.witness is None
    assert item.value == pytest.approx(17.5, rel=1e-12)


@pytest.mark.parametrize("t_atom, passed", [(1.5, False), (3.0, True)])
def test_a_negative_atom_counts_only_inside_the_window(t_atom, passed):
    # an atom at the window's end belongs to [3, ...), not to [0, 3)
    spec = _driven(PiecewisePath.constant(1.0), [(t_atom, -0.1)])
    item = check_hypotheses(spec, (0.0, 3.0)).items["b_driver_nondecreasing_bv"]
    assert item.passed is passed
    assert item.witness == (None if passed else pytest.approx(2.9, rel=1e-12))


def test_context_reports_hold_what_their_layers_write(ctx_planar):
    ctx_planar.kernels(0)
    assert sorted(ctx_planar.reports) == ["hypotheses", "realization_gate",
                                          "splitting"]


def test_mde_smallness_gate_printed_formula():
    u = StieltjesMeasure(PiecewisePath.constant(1.0), [(1.0, 0.3)])
    H = NonlinearitySpec("saturated_tanh", {"gain": [[0.2]]}, rho=1.0, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[0.0]]), u, H)
    ctx = mde_to_context(spec, s=0.0, T=12.0)
    V_u = u.variation((0.0, 12.0))
    V = ctx.regularity.V_Lambda
    K = ctx.dich.K
    C_g = 1.0
    expected = 2.0 * H.lip_eff * V_u * (1.0 + K * (1.0 + 2.0 * K)) * C_g ** 3 \
        * math.exp(3.0 * C_g * V) * V ** 2
    assert ctx.reports["realization_gate"] == pytest.approx(expected, rel=1e-12)


def test_round_trip_classical_system_between_front_ends():
    # the same classical system encoded both ways: impulse-free vs
    # Lebesgue-driven; the forcing integrates against dt either way, so the
    # two contexts and their solves agree bit for bit
    f = quadratic_forcing(1.0)
    ide_ctx = ide_to_context(IdeSpec(2, saddle_path(), (), f),
                             s=0.0, T=40.0, tol=1e-10)
    u = lebesgue()
    H = NonlinearitySpec("quadratic",
                         {"mats": [np.zeros((2, 2)),
                                   np.array([[1.0, 0.0], [0.0, 0.0]])]},
                         rho=0.5, measure=u)
    mde_ctx = mde_to_context(
        MdeSpec(2, saddle_path(), PiecewisePath.constant(np.zeros((2, 2))),
                u, H), s=0.0, T=40.0, tol=1e-10)
    nodes = range(len(ide_ctx.fund.nodes))
    assert np.array_equal(ide_ctx.fund.nodes, mde_ctx.fund.nodes)
    assert np.array_equal([ide_ctx.P(i) for i in nodes],
                          [mde_ctx.P(i) for i in nodes])
    assert ide_ctx.nonlin.v_h((0.0, 40.0)) == mde_ctx.nonlin.v_h((0.0, 40.0))
    assert contraction_estimate(ide_ctx, 0.0) == contraction_estimate(mde_ctx, 0.0)
    for zeta1 in (0.1, 0.2):
        a = solve_lp(np.array([zeta1, 0.0]), 0.0, ide_ctx)
        b = solve_lp(np.array([zeta1, 0.0]), 0.0, mde_ctx)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.phi.values, b.phi.values)


def test_ide_forcing_takes_no_measure():
    u = lebesgue()
    with pytest.raises(ValueError, match="IdeSpec forcing integrates against dt"):
        IdeSpec(2, saddle_path(), (),
                NonlinearitySpec("zero", {"n": 2}, rho=0.5, measure=u))
    with pytest.raises(ValueError, match="driven by spec.u"):
        MdeSpec(2, saddle_path(), PiecewisePath.constant(np.zeros((2, 2))), u,
                NonlinearitySpec("zero", {"n": 2}, rho=0.5))
    with pytest.raises(ValueError, match="StieltjesMeasure"):
        NonlinearitySpec("zero", {"n": 2}, measure=PiecewisePath.constant(1.0))


def test_specs_refuse_a_nonlinearity_of_another_dimension():
    u = lebesgue()
    one = NonlinearitySpec("quadratic", {"mats": [[[1.0]]]}, rho=0.5)
    with pytest.raises(ValueError, match=r"'quadratic' maps R\^1 to R\^1 .*n = 2"):
        IdeSpec(2, saddle_path(), (), one)
    # the component sweep broadcasts the length-1 state past the (1, 2, 2) forms
    wide = NonlinearitySpec("quadratic", {"mats": np.ones((1, 2, 2))}, rho=0.5)
    with pytest.raises(ValueError, match=r"maps R\^2 to R\^1 .*n = 1"):
        IdeSpec(1, PiecewisePath.constant([[-1.0]]), (), wide)
    # the zero registry without "n" declares n = 1
    with pytest.raises(ValueError, match=r"'zero' maps R\^1 to R\^1 .*n = 2"):
        MdeSpec(2, saddle_path(), PiecewisePath.constant(np.zeros((2, 2))), u,
                NonlinearitySpec("zero", rho=0.5, measure=u))


def test_context_meshes_contain_kernel_atoms():
    u = StieltjesMeasure(PiecewisePath.constant(1.0), [(1.234, 0.1)])
    H = NonlinearitySpec("zero", {"n": 1}, rho=0.5, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[0.0]]), u, H)
    ctx = mde_to_context(spec, s=0.0, T=5.0)
    assert ctx.fund.nodes[ctx.fund.node_index(1.234)] == 1.234


def test_check_hypotheses_rejects_other_types():
    with pytest.raises(TypeError):
        check_hypotheses(object(), (0.0, 1.0))


@pytest.mark.parametrize("name, horizon", [("impulsive_saddle", 32.6),
                                           ("planar_quadratic", 30.4),
                                           ("scalar_mde", 28.1)])
def test_context_without_horizon_matches_shipped_horizon(name, horizon):
    # the probe operator on [0, 20] and the final window both leave out
    # the impulses beyond them
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", name + ".json"))
    spec, sol = cli.parse_system(cfg), cli.solver_block(cfg)
    grid = cli.parse_grid(sol["grid"], None)
    auto = build_context(spec, T=None, tol=sol["tol"], grid=grid)
    shipped = build_context(spec, T=sol["T"], tol=sol["tol"], grid=grid)
    assert auto.T == pytest.approx(horizon, abs=1e-9)
    zeta = np.zeros(spec.n)
    zeta[0] = 0.1
    np.testing.assert_allclose(solve_lp(zeta, 0.0, auto).m,
                               solve_lp(zeta, 0.0, shipped).m, rtol=0, atol=1e-12)


def test_context_without_horizon_takes_both_gates_over_the_run_window():
    # the hypotheses are checked on the probe window [0, 20]; the forcing
    # variation of both gates is taken over the run window [0, T]
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "planar_quadratic.json"))
    spec, sol = cli.parse_system(cfg), cli.solver_block(cfg)
    ctx = build_context(spec, T=None, tol=sol["tol"],
                        grid=cli.parse_grid(sol["grid"], None))
    hyp, reg, K = ctx.reports["hypotheses"], ctx.regularity, ctx.dich.K
    assert ctx.T == pytest.approx(30.4, abs=1e-9)
    assert hyp.constants["M_gamma"] == spec.f.v_h((0.0, 20.0)) == pytest.approx(100.0)
    v_h = spec.f.v_h((0.0, ctx.T))
    assert v_h == pytest.approx(152.0)
    assert ctx.reports["realization_gate"] == contraction_bound(
        v_h, K, hyp.constants["C_b"], reg.V_Lambda) == pytest.approx(2.28e45, rel=1e-2)
    assert contraction_estimate(ctx, 0.0) == contraction_bound(
        2.0 * v_h, K, reg.C_a, reg.V_Lambda)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_probe_points_pair_up_on_rays_inside_the_ball(n):
    pts = _probe_points(n, 0.8)
    assert pts.shape == (64, n) and np.array_equal(pts, _probe_points(n, 0.8))
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(radii >= 0.05 * 0.8 * (1 - 1e-12))
    assert np.all(radii <= 0.8 * (1 + 1e-12))
    # each pair (i, i + 1) shares its direction, at two different radii
    a, b = pts[0::2], pts[1::2]
    ra, rb = radii[0::2, None], radii[1::2, None]
    np.testing.assert_allclose(a / ra, b / rb, rtol=0, atol=1e-12)
    assert np.all(abs(ra - rb) > 1e-9)
    # the directions are spread: no two pairs share one, and on the line
    # both occur
    dirs = a / ra
    if n == 1:
        assert set(dirs[:, 0]) == {-1.0, 1.0}
    else:
        assert np.max(dirs @ dirs.T - 2 * np.eye(32)) < 1 - 1e-9


@pytest.mark.parametrize("name", ["impulsive_saddle", "planar_quadratic",
                                  "scalar_mde"])
def test_every_c_hypothesis_passes_on_the_shipped_configs(name):
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", name + ".json"))
    sol = cli.solver_block(cfg)
    report = check_hypotheses(cli.parse_system(cfg), (sol.get("s", 0.0), sol["T"]))
    items = {k: v for k, v in report.items.items() if k.startswith("c_")}
    assert len(items) == 1 and all(item.passed for item in items.values())


def test_impulsive_saddle_inverts_its_jumps_twice(monkeypatch):
    # LinearSystemSpec and check_hypotheses each invert the 39 kick factors
    # in one stacked call; the operator slices the spec's table
    cfg = cli.load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "impulsive_saddle.json"))
    spec = cli.parse_system(cfg)
    sizes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: sizes.append(
        1 if np.ndim(a) == 2 else len(a)) or inv(a))
    FundamentalOperator(spec.linear_spec(0.0), (0.0, 40.0))
    check_hypotheses(spec, (0.0, 40.0))
    assert sizes == [39, 39]


def _loop_inverse_items(factors):
    """The inverse bound, the first singular time and the impulse-norm sum of
    the per-factor loop that stops at a ``LinAlgError``."""
    bound, bad, total = 1.0, None, 0.0
    for t, J, B in factors:
        total += norm(B)
        try:
            bound = max(bound, norm(np.linalg.inv(J)))
        except np.linalg.LinAlgError:
            bad = t
            break
    return bound, bad, total


@pytest.mark.parametrize("middle, singular_at", [
    ([[0.5, 0.1], [0.0, -0.3]], None), (-np.eye(2), 2.0),
], ids=["regular", "singular"])
def test_ide_inverse_items_equal_the_per_factor_loop(middle, singular_at):
    Bs = [np.array([[0.3, -0.2], [0.1, 0.4]]), np.asarray(middle, dtype=float),
          np.array([[-0.6, 0.0], [0.7, 0.1]])]
    impulses = tuple(zip((1.0, 2.0, 3.0), Bs))
    rep = check_hypotheses(IdeSpec(2, saddle_path(), impulses,
                                   quadratic_forcing(1.0)), (0.0, 5.0))
    bound, bad, total = _loop_inverse_items(
        [(t, np.eye(2) + B, B) for t, B in impulses])
    item = rep.items["B3_jump_inverses"]
    assert (item.passed, item.value, item.witness) == (bad is None, bound, bad)
    C_b = rep.items["a_jump_norms_summable"]
    assert (C_b.value, C_b.witness) == (max(total, bound), bad)
    assert rep.constants["sum_impulse_norms"] == total
    assert bad == singular_at


@pytest.mark.parametrize("weight", [0.5, 1.0], ids=["regular", "singular"])
def test_mde_inverse_items_equal_the_per_factor_loop(weight):
    # C(t) = [[-t, 0], [0.2, -0.5]]: Id + C(1) is singular
    C = PiecewisePath.polynomial([np.array([[0.0, 0.0], [0.2, -0.5]]),
                                  np.array([[-1.0, 0.0], [0.0, 0.0]])])
    u = StieltjesMeasure(PiecewisePath.constant(0.0),
                         [(0.5, 0.3), (1.0, weight), (2.0, 0.7)])
    H = NonlinearitySpec("zero", {"n": 2}, rho=0.5, measure=u)
    rep = check_hypotheses(MdeSpec(2, saddle_path(), C, u, H), (0.0, 3.0))
    bound, bad, _ = _loop_inverse_items(
        [(t, np.eye(2) + C(t) * w, C(t) * w) for t, w in u.atoms])
    for name in ("D6_atom_inverses", "a_atom_inverse_bound"):
        item = rep.items[name]
        assert (item.passed, item.value, item.witness) == (bad is None, bound, bad)
    assert rep.constants["C_g"] == bound
    assert bad == (1.0 if weight == 1.0 else None)
