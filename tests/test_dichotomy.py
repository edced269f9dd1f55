import dataclasses
import math
import pathlib

import numpy as np
import pytest

from conftest import coupled_context
from kurzmani import cli
from kurzmani.apps import build_context
from kurzmani.dichotomy import (DichotomyData, SplittingError, certify,
                                fit_envelope, projection_family,
                                spectral_projection, verify_dichotomy)
from kurzmani.funcspace import PiecewisePath, norm
from kurzmani.linsys import FundamentalOperator, LinearSystemSpec

SADDLE = np.diag([-1.0, 1.0])
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def saddle_spec(impulses=()):
    return LinearSystemSpec(2, PiecewisePath.constant(SADDLE), impulses=impulses)


def test_spectral_projection_saddle():
    P0, how = spectral_projection(saddle_spec())
    np.testing.assert_allclose(P0, np.diag([1.0, 0.0]), atol=1e-12)
    assert how == "autonomous"


def test_spectral_projection_scalar_contraction_and_expansion():
    con, _ = spectral_projection(LinearSystemSpec(1, PiecewisePath.constant([[-1.0]])))
    exp, _ = spectral_projection(LinearSystemSpec(1, PiecewisePath.constant([[1.0]])))
    assert con[0, 0] == pytest.approx(1.0)
    assert exp[0, 0] == pytest.approx(0.0)


def test_spectral_projection_rejects_neutral_direction():
    spec = LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 0.0])))
    with pytest.raises(SplittingError):
        spectral_projection(spec)


def test_explicit_projection_must_be_idempotent():
    with pytest.raises(SplittingError):
        spectral_projection(saddle_spec(), P0=np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_periodic_kick_monodromy_projection():
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 10))
    P0, how = spectral_projection(saddle_spec(impulses))
    np.testing.assert_allclose(P0, np.diag([1.0, 0.0]), atol=1e-12)
    assert how == "periodic"


def test_svd_mode_recovers_diagonal_splitting():
    P0, how = spectral_projection(saddle_spec(), mode="svd", horizon=5.0)
    np.testing.assert_allclose(P0, np.diag([1.0, 0.0]), atol=1e-8)
    assert how == "svd"


@pytest.mark.parametrize("name, how", [
    ("ctx_planar", "autonomous"),        # planar_quadratic
    ("ctx_impulsive", "periodic"),       # impulsive_saddle
    ("ctx_scalar_mde", "svd"),           # scalar_mde: one atom, no period
])
def test_certify_records_the_projection_mode(request, name, how):
    assert request.getfixturevalue(name).reports["dichotomy"].projection_mode == how


def test_certify_records_explicit_and_requested_svd_modes():
    cfg = cli.load_config(CONFIGS / "expansion_example.json")
    op = FundamentalOperator(cli._linear_spec(cfg), (0.0, 3.0))
    explicit = certify(op, P0=np.asarray(cli.solver_block(cfg)["P0"], dtype=float))
    assert explicit.report.projection_mode == "explicit"
    saddle = FundamentalOperator(saddle_spec(), (0.0, 10.0))
    assert certify(saddle, mode="svd").report.projection_mode == "svd"


def test_saddle_envelope_fit_is_exact():
    op = FundamentalOperator(saddle_spec(), (-10.0, 10.0), base_step=0.5)
    K, alpha, report = verify_dichotomy(op, np.diag([1.0, 0.0]),
                                        np.linspace(-10.0, 10.0, 41))
    assert abs(K - 1.0) <= 0.01
    assert abs(alpha - 1.0) <= 0.01
    assert report.dichotomy_detected


def test_expansion_branch_bound_holds_on_grid():
    # scalar system with accumulated path t: pure expansion, trivial P
    spec = LinearSystemSpec(1, PiecewisePath.constant([[1.0]]))
    op = FundamentalOperator(spec, (0.0, 3.0), base_step=0.25)
    K, alpha, report = verify_dichotomy(op, np.zeros((1, 1)),
                                        np.linspace(0.0, 3.0, 13))
    for sep, log_n, t, s, side in report.samples:
        if side == "unstable":
            assert log_n <= -sep + 1e-9   # N(t, s) <= e^{t - s} for t <= s
    assert alpha == pytest.approx(1.0, abs=1e-6)
    assert K <= 1.0 + 1e-9


def test_strengthened_contraction_from_jumps():
    # A = -1 with kicks of -0.5 at integers: per-period decay e^{-1} / 2.
    # Grid nodes sit on the kick times so every pair spans whole periods
    # (a pair straddling the kick-free warm-up would only decay at rate 1).
    impulses = tuple((float(k), [[-0.5]]) for k in range(1, 10))
    spec = LinearSystemSpec(1, PiecewisePath.constant([[-1.0]]),
                            impulses=impulses)
    op = FundamentalOperator(spec, (0.0, 10.0), base_step=0.5)
    K, alpha, _ = verify_dichotomy(op, np.eye(1), np.arange(1.0, 11.0))
    assert alpha >= 1.0 + math.log(2.0) - 1e-6


def test_projection_family_consistency():
    op = FundamentalOperator(saddle_spec(), (-10.0, 10.0), base_step=0.5)
    grid = np.linspace(-10.0, 10.0, 21)
    fam = projection_family(op, np.diag([1.0, 0.0]), grid)
    eye = np.eye(2)
    for i, t in enumerate(grid):
        P = fam[i]
        assert norm(P @ P - P) <= 1e-10
        assert norm(P + (eye - P) - eye) == 0.0
        assert norm(P @ (eye - P)) <= 1e-10
        assert int(round(np.trace(P))) == 1
    for i in range(0, len(grid), 5):
        for j in range(0, len(grid), 5):
            resid = norm(fam[i] - op.value(grid[i], grid[j]) @ fam[j]
                         @ op.value(grid[j], grid[i]))
            assert resid <= 1e-8


def test_flat_system_reports_no_dichotomy():
    spec = LinearSystemSpec(1, PiecewisePath.constant([[0.0]]))
    op = FundamentalOperator(spec, (0.0, 5.0), base_step=0.5)
    _, alpha, report = verify_dichotomy(op, np.eye(1), np.linspace(0.0, 5.0, 11))
    assert not report.dichotomy_detected
    assert alpha <= 1e-6


def test_fit_envelope_recovers_known_rate():
    seps = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    logs = math.log(2.0) - 0.7 * seps
    alpha, log_k = fit_envelope(seps, logs)
    assert alpha == pytest.approx(0.7, abs=1e-9)
    assert log_k == pytest.approx(math.log(2.0), abs=1e-6)


def test_certify_packages_constants_and_report():
    op = FundamentalOperator(saddle_spec(), (0.0, 10.0))
    data = certify(op, grid=np.linspace(0.0, 10.0, 21))
    assert isinstance(data, DichotomyData)
    assert [f.name for f in dataclasses.fields(data)] == ["P0", "K", "alpha",
                                                          "report"]
    assert data.rank == 1
    assert data.report.dichotomy_detected
    assert abs(data.K - 1.0) <= 0.01 and abs(data.alpha - 1.0) <= 0.01


def test_certify_default_grid_is_the_first_ten_time_units():
    op = FundamentalOperator(saddle_spec(), (0.0, 20.0), base_step=0.5)
    data = certify(op)
    ts = {t for _, _, t, _, _ in data.report.samples}
    assert min(ts) == 0.0 and max(ts) == 10.0
    assert len(ts) == 21
    # grid points outside the operator window are dropped, not propagated to
    wide = certify(op, grid=np.linspace(-5.0, 25.0, 7))
    assert {t for _, _, t, _, _ in wide.report.samples} == {0.0, 5.0, 10.0,
                                                            15.0, 20.0}


def _loop_samples(op, P0, grid):
    """The certificate's samples, one matrix and one 2-norm at a time."""
    fam = projection_family(op, P0, grid)
    eye = np.eye(op.n)
    samples = []

    def record(sep, M, t, s, side):
        value = float(np.linalg.norm(M, 2))
        if value > 1e-250:
            samples.append((sep, math.log(value), t, s, side))

    for j, s in enumerate(grid):
        X = fam[j]
        record(0.0, X, s, s, "stable")
        for i in range(j + 1, len(grid)):
            X = op.value(grid[i], grid[i - 1]) @ X
            record(grid[i] - s, X, grid[i], s, "stable")
        Y = eye - fam[j]
        record(0.0, Y, s, s, "unstable-limit")
        for i in range(j - 1, -1, -1):
            Y = op.value(grid[i], grid[i + 1]) @ Y
            record(s - grid[i], Y, grid[i], s, "unstable")
    return samples


def _shipped_context(name):
    cfg = cli.load_config(CONFIGS / (name + ".json"))
    sol = cli.solver_block(cfg)
    grid = cli.parse_grid(sol["grid"], None)
    ctx = build_context(cli.parse_system(cfg), T=sol["T"], tol=sol["tol"], grid=grid)
    return ctx, grid


@pytest.mark.parametrize("name", ["planar_quadratic", "impulsive_saddle",
                                  "scalar_mde", "coupled"])
def test_verify_dichotomy_samples_equal_per_sample_loop(name):
    if name == "coupled":
        ctx, grid = coupled_context(4.0), np.linspace(0.0, 4.0, 21)
    else:
        ctx, grid = _shipped_context(name)
    want = _loop_samples(ctx.fund, ctx.dich.P0, grid)
    assert ctx.reports["dichotomy"].samples == want
    _, _, report = verify_dichotomy(ctx.fund, ctx.dich.P0, grid)
    assert report.samples == want


def _inverse_step_family(op, P0):
    """The mesh family with one explicit inverse per step, V P V^{-1}, where
    V is the forward cell product or its inverse."""
    x, i0 = op.nodes, op.i_t0
    out = np.empty((len(x), op.n, op.n))
    out[i0] = P0
    for i in range(i0 + 1, len(x)):
        V = op.value(x[i], x[i - 1])
        out[i] = V @ out[i - 1] @ np.linalg.inv(V)
    for i in range(i0 - 1, -1, -1):
        V = np.linalg.inv(op.value(x[i + 1], x[i]))
        out[i] = V @ out[i + 1] @ np.linalg.inv(V)
    return out


@pytest.mark.parametrize("name", ["impulsive_saddle", "t0_inside"])
def test_mesh_family_matches_inverse_step_oracle(name):
    if name == "t0_inside":
        # a jump on each side of t0 = 2, so the family runs both ways
        spec = LinearSystemSpec(
            2, PiecewisePath.constant(SADDLE), t0=2.0,
            impulses=((1.05, np.array([[0.1, 0.2], [0.1, -0.1]])),
                      (3.55, np.array([[-0.1, -0.1], [0.2, 0.2]]))))
        op = FundamentalOperator(spec, (0.0, 6.0))
        P0 = np.diag([1.0, 0.0])
    else:
        ctx, _ = _shipped_context(name)
        op, P0 = ctx.fund, ctx.dich.P0
    fam = projection_family(op, P0, op.nodes)
    want = _inverse_step_family(op, P0)
    gap = np.linalg.norm(fam - want, 2, axis=(-2, -1))
    scale = np.linalg.norm(want, 2, axis=(-2, -1))
    assert np.all(gap <= 1e-13 * scale)
