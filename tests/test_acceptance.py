"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ... PASS`` line (visible with -s or in
failure reports); tolerances are pinned here and nowhere else.
"""

import glob
import math
import os

import numpy as np
import pytest

from conftest import impulsive_manifold_closed_form, lebesgue
from kurzmani.cli import load_config, parse_system, solver_block
from kurzmani.apps import IdeSpec, MdeSpec, ide_to_context, mde_to_context
from kurzmani.dichotomy import verify_dichotomy
from kurzmani.funcspace import PiecewisePath, StieltjesMeasure, norm
from kurzmani.kurzweil import PointIntervalFn, cross_check, ks_integral_ref
from kurzmani.linsys import FundamentalOperator, LinearSystemSpec
from kurzmani.lp_manifold import (NonlinearitySpec, bisect_manifold_oracle,
                                  classify_initial, contraction_bound,
                                  invariance_check, lp_operator_apply,
                                  manifold_graph, solve_lp)

CONFIG_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                          os.pardir, "configs"))


def _ok(number, label):
    print("ACCEPTANCE %02d %s: PASS" % (number, label))


def test_acceptance_01_reference_vs_decomposition_randomized():
    rng = np.random.default_rng(20240811)
    for case in range(20):
        f = PiecewisePath.polynomial(rng.normal(size=rng.integers(1, 4)))
        density = PiecewisePath.polynomial(rng.normal(size=rng.integers(1, 3)))
        n_atoms = int(rng.integers(0, 4))
        times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
        while len(set(np.round(times, 5))) < n_atoms:
            times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
        mu = StieltjesMeasure(density, [(float(t), float(rng.normal()))
                                        for t in times])
        report = cross_check(f, mu, (0.0, 1.0), tol=1e-6)
        assert report.passed, "case %d differed by %.3e" % (case, report.difference)
        assert report.difference <= 1e-6
    _ok(1, "20 randomized fast/reference agreements <= 1e-6")


def test_acceptance_02_node_increment_identity():
    f = PiecewisePath.preset("wcos", 1.0, (0.5, 3.0, 12))
    res = ks_integral_ref(PointIntervalFn.node_function(f), (0.0, 1.0), tol=1e-10)
    expected = float(f(1.0) - f(0.0))
    assert abs(float(res.value) - expected) <= 1e-9
    _ok(2, "lacunary-sum increment equals f(1) - f(0) to 1e-9")


def test_acceptance_03_fundamental_operator_algebra():
    mu = StieltjesMeasure(PiecewisePath.constant(0.5),
                          [(1.0, 0.2), (2.5, 0.1), (3.5, 0.3)])
    specs = [
        LinearSystemSpec(2, PiecewisePath.constant(
            np.array([[-1.0, 0.3], [0.1, 0.8]]))),
        LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
                         impulses=tuple((0.5 + k, np.diag([0.1, -0.05]))
                                        for k in range(5))),
        LinearSystemSpec(2, PiecewisePath.constant(
            np.array([[-0.5, 0.0], [0.2, 0.4]])),
            measure_part=(PiecewisePath.constant(0.3 * np.eye(2)), mu)),
    ]
    rng = np.random.default_rng(3)
    eye = np.eye(2)
    for spec in specs:
        op = FundamentalOperator(spec, (0.0, 5.0))
        assert np.array_equal(op.value(2.2, 2.2), eye)
        for _ in range(50):
            t, r, s = rng.uniform(0.0, 5.0, size=3)
            assert norm(op.value(t, s) - op.value(t, r) @ op.value(r, s)) <= 1e-8
            assert norm(op.value(t, s) @ op.value(s, t) - eye) <= 1e-8
    _ok(3, "identity/cocycle/inverse residuals <= 1e-8 on 3 specs x 50 triples")


def test_acceptance_04_growth_under_variation_envelope():
    # accumulated coefficient path t (unit density): growth exactly e^t
    spec = LinearSystemSpec(1, PiecewisePath.constant([[1.0]]))
    op = FundamentalOperator(spec, (0.0, 3.0))
    for t in np.linspace(0.0, 3.0, 61):
        assert norm(op.value(t, 0.0)) <= math.exp(t) * (1.0 + 1e-6)
    _ok(4, "||V(t, 0)|| <= e^t (1 + 1e-6) on [0, 3]")


def test_acceptance_05_saddle_envelope_constants():
    spec = LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])))
    op = FundamentalOperator(spec, (-10.0, 10.0), base_step=0.5)
    K, alpha, _ = verify_dichotomy(op, np.diag([1.0, 0.0]),
                                   np.linspace(-10.0, 10.0, 41))
    assert 0.99 <= K <= 1.01
    assert 0.99 <= alpha <= 1.01
    _ok(5, "saddle fit K=%.4f alpha=%.4f in [0.99, 1.01]" % (K, alpha))


def test_acceptance_06_planar_manifold_closed_form(ctx_planar):
    assert ctx_planar.T == 40.0 and ctx_planar.tol == 1e-10
    assert ctx_planar.nonlin.rho == 0.5
    for zeta in (-0.2, -0.15, -0.1, -0.05, 0.05, 0.1, 0.15, 0.2):
        sol = solve_lp(np.array([zeta, 0.0]), 0.0, ctx_planar)
        assert abs(sol.m[0] + zeta ** 2 / 3.0) <= 5e-3 * zeta ** 2
    _ok(6, "planar benchmark |m + zeta^2/3| <= 5e-3 zeta^2 on 8 points")


def test_acceptance_07_bisection_oracle_agreement(ctx_impulsive):
    for zeta in (-0.2, -0.1, 0.0, 0.1, 0.2):
        sol = solve_lp(np.array([zeta, 0.0]), 0.0, ctx_impulsive)
        eta = bisect_manifold_oracle(np.array([zeta, 0.0]), 0.0, ctx_impulsive,
                                     bound=1e3, xtol=1e-7)
        assert abs(sol.m[0] - eta) <= 1e-4
        # third route: the geometric-series closed form
        assert abs(sol.m[0] - impulsive_manifold_closed_form(zeta)) \
            <= 5e-3 * max(zeta ** 2, 1e-8)
    _ok(7, "impulsive saddle |m - eta*| <= 1e-4 on the 5-point grid")


def test_acceptance_08_contraction_and_lipschitz(ctx_planar, ctx_impulsive):
    grid = [np.array([z]) for z in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    for ctx in (ctx_planar, ctx_impulsive):
        graph = manifold_graph(0.0, grid, ctx)
        assert graph.L_empirical < 1.0
        for sol_zeta in (0.1, 0.2):
            sol = solve_lp(np.array([sol_zeta, 0.0]), 0.0, ctx)
            diffs_ok = all(r < 1.0 for r in sol.ratio_history[-2:]) \
                if sol.ratio_history else True
            assert diffs_ok
        assert graph.lipschitz_estimate <= \
            ctx.dich.K / (1.0 - graph.L_empirical)
    _ok(8, "L_emp < 1 and Lipschitz quotients <= K / (1 - L_emp)")


def test_acceptance_09_invariance_along_flow(ctx_planar):
    for t1 in (0.5, 1.0, 2.0):
        resid = invariance_check(0.0, np.array([0.1, 0.0]), t1, ctx_planar)
        assert resid <= 1e-4
    _ok(9, "invariance residuals <= 1e-4 at t1 in {0.5, 1, 2}")


def test_acceptance_10_off_manifold_unboundedness(ctx_planar, ctx_impulsive):
    for ctx in (ctx_planar, ctx_impulsive):
        for zeta in (0.1, 0.2):
            sol = solve_lp(np.array([zeta, 0.0]), 0.0, ctx)
            z0 = sol.phi.values[0] + np.array([0.0, 1e-2])
            res = classify_initial(z0, 0.0, ctx, bound=1e3)
            assert res.status == "escapes"
            assert res.t_escape < 40.0
    _ok(10, "1e-2 unstable offsets exceed norm 1e3 before T = 40")


def _context_from_benchmark_config(path):
    cfg = load_config(path)
    spec = parse_system(cfg)
    sol = solver_block(cfg)
    kwargs = dict(s=float(sol.get("s", 0.0)), T=float(sol["T"]),
                  tol=float(sol.get("tol", 1e-10)),
                  base_step=float(sol.get("base_step", 0.1)))
    if isinstance(spec, IdeSpec):
        return ide_to_context(spec, **kwargs)
    return mde_to_context(spec, **kwargs)


def test_acceptance_11_zero_anchor_on_every_shipped_config():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
    checked = 0
    for path in paths:
        cfg = load_config(path)
        if "system" not in cfg or "nonlinearity" not in cfg["system"]:
            continue
        ctx = _context_from_benchmark_config(path)
        n = ctx.fund.n
        sol = solve_lp(np.zeros(n), float(solver_block(cfg).get("s", 0.0)), ctx)
        assert sol.phi.sup_norm <= ctx.tol
        assert np.allclose(sol.m_vector, 0.0, atol=ctx.tol)
        checked += 1
    assert checked >= 3
    _ok(11, "m(s, 0) = 0 within tolerance on %d shipped configs" % checked)


def test_acceptance_12_mode_agreement(ctx_scalar_mde):
    Q1 = np.zeros((2, 2))
    Q1[1, 1] = 0.1
    Q2 = np.zeros((2, 2))
    Q2[0, 0] = 0.1
    nl = NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=0.5)
    ide = IdeSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
                  ((1.5, np.diag([0.2, 0.0])),), nl)
    ctx = ide_to_context(ide, s=0.0, T=8.0, tol=1e-10,
                         grid=np.linspace(0.0, 8.0, 17))
    zeta = ctx.P(ctx.span(0.0)[0]) @ np.array([0.2, 0.0])
    z0 = ctx.initial_path(zeta, 0.0)
    fast = lp_operator_apply(z0, zeta, 0.0, ctx, mode="fast")
    ref = lp_operator_apply(z0, zeta, 0.0, ctx, mode="reference")
    gap_ide = float(np.max(np.linalg.norm(fast.values - ref.values, axis=1)))
    assert gap_ide <= 1e-10

    zeta_m = np.array([0.4])
    zm = ctx_scalar_mde.initial_path(zeta_m, 0.0)
    fast_m = lp_operator_apply(zm, zeta_m, 0.0, ctx_scalar_mde, mode="fast")
    ref_m = lp_operator_apply(zm, zeta_m, 0.0, ctx_scalar_mde, mode="reference")
    gap_mde = float(np.max(np.abs(fast_m.values - ref_m.values)))
    assert gap_mde <= 1e-10
    _ok(12, "mode agreement %.2e (impulsive) / %.2e (measure atom) <= 1e-10"
        % (gap_ide, gap_mde))


def test_acceptance_13_front_end_round_trip():
    Q1 = np.zeros((2, 2))
    Q2 = np.zeros((2, 2))
    Q2[0, 0] = 1.0
    f = NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=0.5)
    ide_ctx = ide_to_context(
        IdeSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])), (), f),
        s=0.0, T=40.0, tol=1e-10)
    u = lebesgue()
    H = NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=0.5, measure=u)
    mde_ctx = mde_to_context(
        MdeSpec(2, PiecewisePath.constant(np.diag([-1.0, 1.0])),
                PiecewisePath.constant(np.zeros((2, 2))), u, H),
        s=0.0, T=40.0, tol=1e-10)
    worst = 0.0
    for zeta in (-0.2, -0.1, 0.1, 0.2):
        a = solve_lp(np.array([zeta, 0.0]), 0.0, ide_ctx)
        b = solve_lp(np.array([zeta, 0.0]), 0.0, mde_ctx)
        worst = max(worst, abs(a.m[0] - b.m[0]))
    assert worst <= 1e-5
    _ok(13, "impulse-free vs Lebesgue-driven encodings agree to %.2e" % worst)


def test_acceptance_14_gate_arithmetic_machine_precision():
    expected = 2.0 * 0.01 * (1.0 + 1.0 * (1.0 + 2.0)) * 1.0 ** 3 \
        * math.exp(3.0 * 1.0 * 0.5) * 0.5 ** 2
    got = contraction_bound(2.0 * 0.01, 1.0, 1.0, 0.5)   # scale 2 V_h
    assert got == expected
    assert got == pytest.approx(0.0896, abs=5e-4)
    _ok(14, "printed gate formula reproduced exactly")
