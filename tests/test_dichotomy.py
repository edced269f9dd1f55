import dataclasses
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import COUPLED, coupled_context
from kurzmani import cli, dichotomy
from kurzmani.apps import build_context
from kurzmani.dichotomy import (DichotomyData, SplittingError, certify,
                                fit_envelope, projection_family,
                                spectral_projection, verify_dichotomy)
from kurzmani.funcspace import PiecewisePath, StieltjesMeasure, norm
from kurzmani.linsys import FundamentalOperator, LinearSystemSpec, PropagationError

SADDLE = np.diag([-1.0, 1.0])
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def saddle_spec(impulses=()):
    return LinearSystemSpec(2, PiecewisePath.constant(SADDLE), impulses=impulses)


def grid_family(op, P0, grid):
    """The certification grid's projection family."""
    return dichotomy._family_and_steps(op, np.asarray(P0, dtype=float), grid)[0]


def aperiodic_saddle_spec():
    """The saddle with diagonal kicks at t = 1, 2 and 3.5: autonomous between
    kicks but not periodic, so P0 comes from the svd branch."""
    kick = np.diag([0.1, 0.0])
    return saddle_spec(((1.0, kick), (2.0, kick), (3.5, kick)))


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


@pytest.mark.parametrize("offset, how", [(5e-13, "periodic"), (2e-12, "svd")])
def test_periodic_branch_needs_equal_kicks_within_1e_12(monkeypatch, offset, how):
    # evenly spaced kicks; the factor at t = 5 is off by ``offset`` in its
    # largest entry, where numpy's default relative tolerance lets 2e-12 pass
    monkeypatch.setattr(dichotomy, "_SVD_HORIZON", 5.0)
    impulses = [(float(k), np.diag([0.1, 0.0])) for k in range(1, 10)]
    impulses[4] = (5.0, np.diag([0.1 + offset, 0.0]))
    assert spectral_projection(saddle_spec(tuple(impulses)))[1] == how


def test_measure_coefficient_breakpoint_leaves_the_autonomous_branch():
    # A = 0, density 1 and C = diag(-1, 1) swapped to diag(1, -1) at t = 5:
    # the generator is constant near t0 but not on the line
    C = PiecewisePath.from_segments([5.0], [np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])])
    u = StieltjesMeasure(PiecewisePath.constant(1.0))
    spec = LinearSystemSpec(2, PiecewisePath.constant(np.zeros((2, 2))),
                            measure_part=(C, u))
    assert spectral_projection(spec)[1] == "svd"


@pytest.mark.parametrize("s", [0.3, 0.5])
def test_periodic_splitting_follows_the_phase_of_t0(s):
    # the coupled generator kicked at 1, ..., 7, certified on [s, s + 5]:
    # the monodromy from s must start with the flow to the first kick
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 8))
    spec = LinearSystemSpec(2, PiecewisePath.constant(COUPLED), impulses=impulses,
                            t0=s)
    op = FundamentalOperator(spec, (s, s + 5.0))
    data = certify(op)
    assert data.report.projection_mode == "periodic"
    assert data.K <= 1.4
    family = projection_family(op, data.P0)
    at = op.node_index([s + k for k in range(5)])
    for i in at[1:]:
        assert norm(family[i] - family[at[0]]) <= 1e-9


def test_certify_forms_each_grid_step_once(monkeypatch):
    # 21-point grid from t0: 20 forward steps, whose inverses are the
    # backward ones, plus the two factors that carry P0 to the first grid
    # time, shared by the projection family and the envelope samples
    calls = []
    value = FundamentalOperator.value
    monkeypatch.setattr(FundamentalOperator, "value",
                        lambda self, t, s: calls.append((t, s)) or value(self, t, s))
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 10))
    data = certify(FundamentalOperator(saddle_spec(impulses), (0.0, 10.0)))
    assert data.report.projection_mode == "periodic"
    assert len(calls) == 20 + 2


def _schur_projector(x, stable):
    """Spectral projector onto the ``stable`` eigenvalues of ``x`` from two
    ordered real Schur forms (scipy), the oracle of the sign splitting."""
    n = len(x)
    _, zs, k = scipy.linalg.schur(x, output="real", sort=stable)
    _, zu, _ = scipy.linalg.schur(x, output="real",
                                  sort=lambda re, im: not stable(re, im))
    basis = np.hstack([zs[:, :k], zu[:, :n - k]])
    return basis @ np.diag([1.0] * k + [0.0] * (n - k)) @ np.linalg.inv(basis)


def _left(re, im):
    return re < 0.0


def _inside(re, im):
    return math.hypot(re, im) < 1.0


def _monodromy(spec):
    """V(t0 + p, t0) over one kick period p: the flow from t0 to the first
    kick at or after it, the kick (first, when it sits at t0), then the flow
    on to t0 + p."""
    t0, times = spec.t0, spec.jumps.times
    p, first = times[1] - times[0], times[times >= t0][0]
    A = spec.generator(t0)
    return scipy.linalg.expm(A * (t0 + p - first)) @ spec.jumps.factors[0] \
        @ scipy.linalg.expm(A * (first - t0))


def _kicked(gen, kick, t0=0.0):
    impulses = tuple((float(k), kick) for k in range(1, 10))
    return LinearSystemSpec(len(gen), PiecewisePath.constant(gen), impulses=impulses,
                            t0=t0)


def _assert_schur_match(spec, how):
    P, got = spectral_projection(spec)
    assert got == how
    if how == "autonomous":
        want = _schur_projector(spec.generator(spec.t0), _left)
    else:
        want = _schur_projector(_monodromy(spec), _inside)
    assert norm(P - want) <= 1e-13 * max(1.0, norm(want))


def _shipped_spec(name):
    cfg = cli.load_config(CONFIGS / (name + ".json"))
    return cli.parse_system(cfg).linear_spec(0.0)


@pytest.mark.parametrize("make, how", [
    (lambda: _shipped_spec("planar_quadratic"), "autonomous"),
    (lambda: _shipped_spec("impulsive_saddle"), "periodic"),
    (lambda: LinearSystemSpec(3, PiecewisePath.constant(
        np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]]))),
     "autonomous"),                           # Jordan block + expansion
    (lambda: _kicked(COUPLED, np.array([[0.1, 0.2], [-0.1, 0.3]])), "periodic"),
    (lambda: _kicked(np.array([[-0.5, 2.0, 0.0], [0.0, 0.3, 1.0],
                               [0.0, -1.0, 0.3]]), np.eye(3) * -0.2), "periodic"),
    (lambda: _kicked(COUPLED, np.array([[0.1, 0.2], [-0.1, 0.3]]), t0=0.3),
     "periodic"),                             # first kick 0.7 past t0
    (lambda: _kicked(COUPLED, np.array([[0.1, 0.2], [-0.1, 0.3]]), t0=2.0),
     "periodic"),                             # a kick at t0 acts first
], ids=["planar_quadratic", "impulsive_saddle", "jordan", "kicked_coupled",
        "kicked_3d", "kicked_coupled_t0_0.3", "kicked_coupled_kick_at_t0"])
def test_sign_projection_matches_schur(make, how):
    _assert_schur_match(make(), how)


@pytest.mark.parametrize("n", [2, 3])
def test_sign_projection_matches_schur_on_random_hyperbolic_generators(n):
    rng = np.random.default_rng(n)
    checked = 0
    while checked < 20:
        gen = rng.standard_normal((n, n))
        re = np.linalg.eigvals(gen).real
        if np.min(np.abs(re)) < 0.2 or np.all(re < 0) or np.all(re > 0):
            continue
        _assert_schur_match(LinearSystemSpec(n, PiecewisePath.constant(gen)),
                            "autonomous")
        checked += 1


@pytest.mark.parametrize("spec, want", [
    (LinearSystemSpec(2, PiecewisePath.constant([[1.0, 5.0], [0.0, 2.0]])), 0),
    (LinearSystemSpec(2, PiecewisePath.constant([[-1.0, 5.0], [0.0, -2.0]])), 1),
    (_kicked(np.diag([0.5, 1.0]), np.diag([0.5, 0.1])), 0),
    (_kicked(np.diag([-0.5, -1.0]), np.diag([0.5, 0.1])), 1),
], ids=["expanding", "contracting", "kicked_expanding", "kicked_contracting"])
def test_sign_projection_empty_side_is_exact(spec, want):
    P, _ = spectral_projection(spec)
    assert np.array_equal(P, want * np.eye(2))


def test_sign_projection_newton_cap_raises(monkeypatch):
    monkeypatch.setattr(dichotomy, "_NEWTON_CAP", 2)
    spec = LinearSystemSpec(2, PiecewisePath.constant(COUPLED))
    with pytest.raises(SplittingError, match="did not converge in 2 steps"):
        spectral_projection(spec)


@pytest.mark.parametrize("spec, match", [
    (LinearSystemSpec(2, PiecewisePath.constant(np.diag([-1.0, 5e-9]))),
     "imaginary axis"),
    (_kicked(np.diag([-1.0, 1.0]), np.diag([0.0, math.exp(-1.0) - 1.0])),
     "unit circle"),
], ids=["imaginary_axis", "unit_circle"])
def test_spectral_projection_refuses_near_neutral_spectrum(spec, match):
    with pytest.raises(SplittingError, match=match):
        spectral_projection(spec)


def test_spectral_projection_logs_one_debug_record(caplog):
    with caplog.at_level("DEBUG", logger="kurzmani"):
        spectral_projection(LinearSystemSpec(2, PiecewisePath.constant(COUPLED)))
    (record,) = caplog.records
    assert record.levelname == "DEBUG"
    msg = record.getMessage()
    assert "mode autonomous, stable rank 1, unstable rank 1" in msg
    assert "Newton steps, residual" in msg


def test_svd_mode_recovers_diagonal_splitting(monkeypatch):
    monkeypatch.setattr(dichotomy, "_SVD_HORIZON", 5.0)
    P0, how = spectral_projection(aperiodic_saddle_spec())
    np.testing.assert_allclose(P0, np.diag([1.0, 0.0]), atol=1e-8)
    assert how == "svd"


@pytest.mark.parametrize("name, how", [
    ("ctx_planar", "autonomous"),        # planar_quadratic
    ("ctx_impulsive", "periodic"),       # impulsive_saddle
    ("ctx_scalar_mde", "svd"),           # scalar_mde: one atom, no period
])
def test_certify_records_the_projection_mode(request, name, how):
    assert request.getfixturevalue(name).dich.report.projection_mode == how


def test_certify_records_explicit_and_requested_svd_modes():
    cfg = cli.load_config(CONFIGS / "expansion_example.json")
    op = FundamentalOperator(cli.parse_system(cfg), (0.0, 3.0))
    explicit = certify(op, P0=np.asarray(cli.solver_block(cfg)["P0"], dtype=float))
    assert explicit.report.projection_mode == "explicit"
    kicked = FundamentalOperator(aperiodic_saddle_spec(), (0.0, 10.0))
    svd = certify(kicked)
    assert svd.report.projection_mode == "svd"
    np.testing.assert_allclose(svd.P0, np.diag([1.0, 0.0]), atol=1e-8)


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
    fam = grid_family(op, np.diag([1.0, 0.0]), grid)
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


def _bisection_fit(seps, logs):
    """The envelope fit by bisection on c(alpha) <= c(0) + _FIT_SLACK, to
    1e-13 _ALPHA_CAP: the oracle of the closed form."""
    target = np.max(logs) + dichotomy._FIT_SLACK

    def ok(alpha):
        return np.max(logs + alpha * seps) <= target

    if ok(dichotomy._ALPHA_CAP):
        return dichotomy._ALPHA_CAP
    lo, hi = 0.0, dichotomy._ALPHA_CAP
    while hi - lo >= 1e-13 * dichotomy._ALPHA_CAP:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


_SAMPLES = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.05, 20.0)),
                              st.floats(-100.0, 10.0)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_SAMPLES)
def test_fit_envelope_is_the_largest_admissible_rate(samples):
    seps, logs = np.array(samples).T
    alpha, log_k = fit_envelope(seps, logs)
    target = np.max(logs) + dichotomy._FIT_SLACK
    env = logs + alpha * seps
    # a few ulps of the largest term the envelope sums
    ulps = 4 * np.spacing(max(np.max(np.abs(logs)), np.max(alpha * seps), 1.0))
    assert 0.0 < alpha <= dichotomy._ALPHA_CAP
    assert log_k == np.max(env) <= target + ulps
    if alpha < dichotomy._ALPHA_CAP:
        # a sample that moves with alpha is tight, so a larger rate lifts it
        # past the target
        assert np.max(env[seps > 0]) >= target - ulps
        assert np.max(logs + (alpha + 1e-10) * seps) > target
    assert alpha == pytest.approx(_bisection_fit(seps, logs), abs=1e-11)


def test_fit_envelope_recovers_known_rate():
    seps = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    logs = math.log(2.0) - 0.7 * seps
    alpha, log_k = fit_envelope(seps, logs)
    assert alpha == pytest.approx(0.7, abs=1e-9)
    assert log_k == pytest.approx(math.log(2.0), abs=1e-6)


@pytest.mark.parametrize("grid", [[0.0], [3.0, 3.0], [20.0, 30.0]],
                         ids=["one_time", "one_time_twice", "outside"])
def test_certify_refuses_a_grid_without_two_times_in_the_window(grid):
    # each used to certify alpha = _ALPHA_CAP (or fail inside numpy)
    op = FundamentalOperator(saddle_spec(), (0.0, 10.0))
    with pytest.raises(ValueError, match=r"two distinct times in the window \[0, 10\]"):
        certify(op, grid=grid)
    with pytest.raises(ValueError, match="window"):
        verify_dichotomy(op, np.diag([1.0, 0.0]), grid)


def test_an_underflowing_grid_step_is_a_propagation_error():
    # e^{-2000 / 2} underflows to 0: the forward step over half a time unit
    # is singular, and its stacked inverse refuses it
    spec = LinearSystemSpec(2, PiecewisePath.constant(np.diag([-2000.0, 1.0])))
    op = FundamentalOperator(spec, (0.0, 10.0))
    with pytest.raises(PropagationError, match="singular"):
        verify_dichotomy(op, np.diag([1.0, 0.0]), np.linspace(0.0, 10.0, 21))


def test_t0_between_grid_times_anchors_at_the_next_grid_time(monkeypatch):
    op, P0 = _mesh_case("t0_inside")          # t0 = 2, jumps at 1.05 and 3.55
    grid = np.linspace(0.0, 6.0, 9)            # 1.5 < t0 < 2.25
    calls = []
    value = FundamentalOperator.value
    monkeypatch.setattr(FundamentalOperator, "value",
                        lambda self, t, s: calls.append((t, s)) or value(self, t, s))
    fam = grid_family(op, P0, grid)
    assert len(calls) == 8 + 2
    assert (2.25, 2.0) in calls and (2.0, 2.25) in calls
    monkeypatch.undo()
    for P, x in zip(fam, grid):
        want = op.value(x, 2.0) @ P0 @ op.value(2.0, x)
        assert norm(P - want) <= 1e-12 * max(1.0, norm(want)), x


def test_certify_packages_constants_and_report():
    op = FundamentalOperator(saddle_spec(), (0.0, 10.0))
    data = certify(op, grid=np.linspace(0.0, 10.0, 21))
    assert isinstance(data, DichotomyData)
    assert [f.name for f in dataclasses.fields(data)] == ["P0", "K", "alpha",
                                                          "report"]
    assert round(float(np.trace(data.P0))) == 1
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
    """The certificate's samples, one matrix and one 2-norm at a time; a
    side of rank zero (P0 = 0 or Id) has no samples."""
    fam = grid_family(op, P0, grid)
    eye = np.eye(op.n)
    rank = int(round(float(np.trace(P0))))
    samples = []

    def record(sep, M, t, s, side):
        value = float(np.linalg.norm(M, 2))
        if value > 1e-250:
            samples.append((sep, math.log(value), t, s, side))

    for j, s in enumerate(grid):
        if rank > 0:
            X = fam[j]
            record(0.0, X, s, s, "stable")
            for i in range(j + 1, len(grid)):
                X = op.value(grid[i], grid[i - 1]) @ X
                record(grid[i] - s, X, grid[i], s, "stable")
        if rank < op.n:
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
    assert ctx.dich.report.samples == want
    _, _, report = verify_dichotomy(ctx.fund, ctx.dich.P0, grid)
    assert report.samples == want


def test_scalar_mde_certificate_samples_only_the_stable_side():
    # svd P0 = [[1]] leaves the unstable side empty; before the rank rule its
    # roundoff rows (log N <= -26) were sampled and were never binding, so K
    # and alpha stay those of that certificate
    ctx, _ = _shipped_context("scalar_mde")
    report = ctx.dich.report
    assert report.projection_mode == "svd"
    assert np.array_equal(ctx.dich.P0, np.eye(1))
    assert len(report.samples) == 21 * 22 // 2
    assert {side for *_, side in report.samples} == {"stable"}
    assert ctx.dich.alpha == 1.0000000000999998
    assert ctx.dich.K == pytest.approx(1.000000001, rel=1e-14)


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


_T0 = {"t0_inside": 2.0, "t0_at_end": 6.0}


def _mesh_case(name):
    """The operator and P0 of a mesh-family case: impulsive_saddle, or the
    saddle with a jump on each side of t0 = 2 (or t0 = 6, the window end)."""
    if name in _T0:
        spec = LinearSystemSpec(
            2, PiecewisePath.constant(SADDLE), t0=_T0[name],
            impulses=((1.05, np.array([[0.1, 0.2], [0.1, -0.1]])),
                      (3.55, np.array([[-0.1, -0.1], [0.2, 0.2]]))))
        return FundamentalOperator(spec, (0.0, 6.0)), np.diag([1.0, 0.0])
    ctx, _ = _shipped_context(name)
    return ctx.fund, ctx.dich.P0


@pytest.mark.parametrize("name", ["impulsive_saddle", "t0_inside"])
def test_mesh_family_matches_inverse_step_oracle(name):
    op, P0 = _mesh_case(name)
    fam = projection_family(op, P0)
    want = _inverse_step_family(op, P0)
    gap = np.linalg.norm(fam - want, 2, axis=(-2, -1))
    scale = np.linalg.norm(want, 2, axis=(-2, -1))
    assert np.all(gap <= 1e-13 * scale)


@pytest.mark.parametrize("name", ["impulsive_saddle", "t0_inside", "t0_at_end"])
def test_mesh_family_equals_value_step_recurrence(name):
    """Conjugated one mesh step at a time from P(t0) = P0, each step
    V(x_{i+1}, x_i) one ``value`` call (the stored row ``cells.fwd[i]``, bit
    for bit) and its inverse the stored ``cells.bwd[i]``, the mesh family
    keeps its bits.  ``value`` itself inverts a backward step, which
    ``test_mesh_family_matches_inverse_step_oracle`` compares."""
    op, P0 = _mesh_case(name)
    x, i0, bwd = op.nodes, op.i_t0, op.cells.bwd
    want = np.empty((len(x), op.n, op.n))
    want[i0] = P0
    for i in range(i0 + 1, len(x)):
        want[i] = op.value(x[i], x[i - 1]) @ want[i - 1] @ bwd[i - 1]
    for i in range(i0 - 1, -1, -1):
        want[i] = bwd[i] @ want[i + 1] @ op.value(x[i + 1], x[i])
    assert np.array_equal(projection_family(op, P0), want)


def test_mesh_family_makes_no_value_call(monkeypatch):
    op, P0 = _mesh_case("impulsive_saddle")
    calls = []
    value = FundamentalOperator.value
    monkeypatch.setattr(FundamentalOperator, "value",
                        lambda self, t, s: calls.append((t, s)) or value(self, t, s))
    assert len(projection_family(op, P0)) == len(op.nodes) == 401
    assert calls == []
