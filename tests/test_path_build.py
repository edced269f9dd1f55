"""Measure masses, closed-form norm integrals and the regularity constants.

A measure's mass of half-open cells is checked against differences of the
distribution path that a jump fold builds (one step path and one
``__add__`` per jump), kept here as the oracle; the closed-form cells of
``norm_integral`` are checked against adaptive quadrature; the regularity
constants read from the mesh store are checked against the variation of the
accumulated path that the fold builds (``total_variation`` below, the
package's former path variation).
"""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import kurzmani.apps as apps
import kurzmani.funcspace as funcspace
import kurzmani.lp_manifold as lp_manifold
from conftest import COUPLED, SADDLE, masses_of_pairs, quadratic_forcing
from kurzmani.apps import IdeSpec, MdeSpec, check_hypotheses, ide_to_context
from kurzmani.cli import load_config, parse_system
from kurzmani.funcspace import (PiecewisePath, Segment, StieltjesMeasure,
                                norm, norm_integral, running_integral)
from kurzmani.linsys import FundamentalOperator, LinearSystemSpec, check_regularity
from kurzmani.lp_manifold import NonlinearitySpec
from test_funcspace import right_limit
from test_linsys import _piecewise_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def folded(path, jumps):
    """The old fold: one step path added per jump, each add re-validated."""
    for t, jump in jumps:
        jump = np.asarray(jump, dtype=float)
        path = path + PiecewisePath.from_segments([t], [np.zeros_like(jump), jump])
    return path


def closure_norm_integral(window, breaks, piece, jumps):
    """The package's former norm integral, kept as the oracle: the window is
    cut at ``breaks``, and ``piece(a, b)`` gives the integrand on a cell,
    its value where constant, else a callable of t for the quadrature, the
    package's ``gauss_kronrod`` on the norms taken one node at a time."""
    c, d = window
    cuts = sorted({c, d} | {t for t in breaks if c < t < d})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        g = piece(a, b)
        if not callable(g):
            total += norm(g) * (b - a)
            continue
        total += funcspace.gauss_kronrod(
            lambda ts: np.array([norm(g(t)) for t in ts]), a, b)[0]
    return total + jumps


def total_variation(path, window):
    """The package's former path variation: the derivative's norm
    integrated per piece plus the norm of the right-jump at every breakpoint in
    [c, d)."""
    c, d = window

    def derivative(a, b):
        dseg = path.segments[path.segment_index(0.5 * (a + b))].derivative()
        return dseg.coeffs[0] if dseg.is_constant else dseg.value

    jumps = sum(norm(right_limit(path, t) - path(t)) for t in path.times if c <= t < d)
    return closure_norm_integral(window, path.times, derivative, jumps)


def three_atom_measure():
    density = PiecewisePath.from_segments(
        [1.5], [Segment.polynomial([1.0, 0.5]), Segment.constant(2.0)])
    return StieltjesMeasure(density, [(0.5, 0.3), (1.5, 0.7), (2.25, 1.1)])


def test_impulse_at_t0_still_rejected():
    # refused by the context build, from check_regularity; an atom at s is fine
    impulses = ((1.0, np.diag([0.1, 0.0])), (2.0, np.diag([0.1, 0.0])))
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE), impulses, quadratic_forcing(0.05))
    with pytest.raises(ValueError, match="impulse at the reference time t0=1 "
                                         "is ambiguous"):
        apps.build_context(spec, s=1.0, T=5.0)
    u = StieltjesMeasure(PiecewisePath.constant(1.0), [(1.0, 0.3)])
    H = NonlinearitySpec("zero", {"n": 1}, rho=0.5, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[0.5]]), u, H)
    ctx = apps.build_context(spec, s=1.0, T=5.0)
    # |-1 + 0.5| over [1, 5] plus the atom's jump 0.5 * 0.3 at s itself
    assert ctx.regularity.V_Lambda == pytest.approx(2.0 + 0.15, rel=1e-14)


def test_mass_matches_fold_on_three_atoms():
    # cell ends on, just before and just after each atom, and across the
    # density's breakpoint at 1.5
    mu = three_atom_measure()
    u = folded(running_integral(mu.density, 0.0), mu.atoms)
    ends = np.array([-0.5, 0.0, 1.0, 3.0]
                    + [t + d for t, _ in mu.atoms for d in (-1e-7, 0.0, 1e-7)])
    los, his = (a.ravel() for a in np.meshgrid(ends, ends))
    want = u.sample(his) - u.sample(los)
    got = masses_of_pairs(mu, los, his)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


# ---------------------------------------------------------------------------
# regularity constants against the accumulated path
# ---------------------------------------------------------------------------

def accumulated_oracle(spec, window):
    """(C_a, V_Lambda) from the spec's raw data: the closed form
    max(1, max ||(Id + B)^{-1}||) over the jumps in the window, and the
    variation of Lambda = running integral of A + C density plus the fold of
    every jump B (an impulse, or C(t) w at an atom)."""
    gen, jumps = spec.smooth, list(spec.impulses)
    if spec.measure_part is not None:
        C, u = spec.measure_part
        times = np.union1d(gen.times, np.union1d(C.times, u.density.times))
        ends = [-math.inf] + list(times) + [math.inf]
        segs = []
        for lo, hi in zip(ends, ends[1:]):
            t = funcspace._interior_point(lo, hi)
            segs.append(gen.segments[gen.segment_index(t)].plus(
                C.segments[C.segment_index(t)].times_scalar_segment(
                    u.density.segments[u.density.segment_index(t)])))
        gen = PiecewisePath.from_segments(times, segs)
        jumps += [(t, w * C(t)) for t, w in u.atoms]
    lam = folded(running_integral(gen, spec.t0), sorted(jumps, key=lambda e: e[0]))
    eye = np.eye(spec.n)
    C_a = max([1.0] + [norm(np.linalg.inv(eye + B)) for t, B in jumps
                       if window[0] <= t <= window[1]])
    return C_a, total_variation(lam, window)


def _shipped(name):
    return parse_system(load_config(os.path.join(CONFIG_DIR, name + ".json")))


def _mde_with_polynomial_C():
    """Non-zero C with a polynomial piece from t = 1, constant density, one atom."""
    C1 = np.array([[0.4, -0.2], [0.1, 0.3]])
    C = PiecewisePath.from_segments(
        [1.0], [Segment.constant(C1), Segment.polynomial([C1, 0.3 * np.eye(2)])])
    mu = StieltjesMeasure(PiecewisePath.constant(0.5), [(1.5, 0.4)])
    return LinearSystemSpec(2, PiecewisePath.constant(COUPLED), measure_part=(C, mu))


def _kinked_with_impulses_on_both_sides():
    """A kinked generator whose breakpoint sits on an impulse; t0 = 0.2."""
    A = PiecewisePath.from_segments(
        [-1.0], [Segment.polynomial([[[0.5, 0.0], [1.0, -1.0]],
                                     [[0.2, 0.1], [0.0, 0.3]]]),
                 Segment.constant([[-1.0, 0.4], [0.0, 2.0]])])
    rng = np.random.default_rng(3)
    impulses = tuple((t, 0.3 * rng.normal(size=(2, 2)))
                     for t in (-2.5, -1.0, -0.25, 0.75, 1.5, 4.0))
    return LinearSystemSpec(2, A, impulses=impulses, t0=0.2)


def _impulses_on_both_window_ends():
    """Impulses at both ends of [1, 3]; the largest inverse sits at 3."""
    impulses = ((1.0, np.diag([0.1, 0.0])), (2.5, np.diag([0.1, 0.2])),
                (3.0, np.diag([-0.5, 0.0])))
    return LinearSystemSpec(2, PiecewisePath.constant(SADDLE), impulses=impulses,
                            t0=2.0)


@pytest.mark.parametrize("make, window", [
    (lambda: _shipped("impulsive_saddle").linear_spec(0.0), (0.0, 40.0)),
    (lambda: _shipped("scalar_mde").linear_spec(0.0), (0.0, 12.0)),
    (_piecewise_spec, (0.0, 3.5)),
    (_mde_with_polynomial_C, (0.0, 3.0)),
    (_kinked_with_impulses_on_both_sides, (-3.0, 5.0)),
    (_impulses_on_both_window_ends, (1.0, 3.0)),
], ids=["impulsive_saddle", "scalar_mde", "piecewise", "mde_polynomial_C",
        "both_sides_of_t0", "window_ends"])
def test_regularity_constants_match_the_accumulated_path(make, window):
    spec = make()
    rep = check_regularity(FundamentalOperator(spec, window))
    C_a, V = accumulated_oracle(spec, window)
    assert rep.C_a == pytest.approx(C_a, rel=1e-15, abs=0.0)
    assert rep.V_Lambda == pytest.approx(V, rel=1e-12, abs=0.0)


def test_check_regularity_builds_no_path(monkeypatch):
    funds = [FundamentalOperator(_shipped("impulsive_saddle").linear_spec(0.0),
                                 (0.0, 40.0)),
             FundamentalOperator(_mde_with_polynomial_C(), (0.0, 3.0))]
    built = []
    orig = PiecewisePath.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(PiecewisePath, "__init__", counted)
    for fund in funds:
        check_regularity(fund)
    assert built == []


@pytest.fixture
def quad_calls(monkeypatch):
    calls = []
    orig = funcspace.gauss_kronrod

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(funcspace, "gauss_kronrod", counted)
    return calls


def test_quadrature_failures_raise_in_variation_and_regularity(monkeypatch):
    # all read one rule: a cell error above max(100 tol, 1e-8 (1 + V)) raises
    monkeypatch.setattr(funcspace, "gauss_kronrod", lambda f, a, b: (0.0, 1e-6))
    path = PiecewisePath.preset("exp", np.diag([1.0, 2.0]), (0.5,))
    with pytest.raises(funcspace.QuadratureError):
        norm_integral((0.0, 1.0), path, (path,), 0.0, "test integral")
    fund = FundamentalOperator(_piecewise_spec(), (0.0, 3.5))
    with pytest.raises(funcspace.QuadratureError):
        check_regularity(fund)
    mu = three_atom_measure()
    with pytest.raises(funcspace.QuadratureError):
        mu.variation((0.0, 3.0))
    spec = SimpleNamespace(C=PiecewisePath.constant([[1.0]]), u=mu)
    with pytest.raises(funcspace.QuadratureError):
        apps._measure_domination(spec, (0.0, 3.0))


def test_linear_matrix_segments_use_the_closed_form(quad_calls):
    # the variation of a path of linear pieces: its constant derivative
    # integrated in closed form, plus its jumps
    rng = np.random.default_rng(5)
    segs = [Segment.polynomial([rng.normal(size=(2, 2)), rng.normal(size=(2, 2))])
            for _ in range(3)]
    path = PiecewisePath.from_segments([0.4, 1.3], segs)
    window = (0.0, 2.0)
    slope = PiecewisePath.from_segments(path.times, [s.derivative() for s in segs])
    jumps = sum(norm(right_limit(path, t) - path(t)) for t in path.times)
    got = norm_integral(window, slope, (slope,), jumps, "test variation")
    assert quad_calls == []
    cuts = [0.0, 0.4, 1.3, 2.0]
    oracle = sum(quad(lambda t, s=s: norm(s.derivative().value(t)), a, b)[0]
                 for s, a, b in zip(segs, cuts, cuts[1:]))
    oracle += sum(norm(right_limit(path, t) - path(t)) for t in path.times)
    assert got == pytest.approx(oracle, rel=1e-13)


def test_exp_preset_path_still_uses_quadrature(quad_calls):
    path = PiecewisePath.preset("exp", np.diag([1.0, 2.0]), (0.5,))
    got = norm_integral((0.0, 1.0), path, (path,), 0.0, "test integral")
    assert len(quad_calls) == 1
    # ||diag(e^{t/2}, 2 e^{t/2})|| = 2 e^{t/2}
    assert got == pytest.approx(4.0 * (math.exp(0.5) - 1.0), rel=1e-12)


def test_measure_variation_closed_form_only_on_constant_density(quad_calls):
    mu = three_atom_measure()
    got = mu.variation((0.0, 3.0))
    assert quad_calls == [(0.0, 1.5)]
    oracle = quad(lambda t: 1.0 + 0.5 * t, 0.0, 1.5)[0] + 2.0 * 1.5 + 0.3 + 0.7 + 1.1
    assert got == pytest.approx(oracle, rel=1e-13)


def test_measure_domination_matches_quadrature():
    # C and the density are both constant only on [2, 3], the closed-form cell
    C = PiecewisePath.from_segments(
        [1.0, 2.0], [Segment.constant([[2.0, 0.0], [0.0, -1.0]]),
                     Segment.polynomial([[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.5, 0.0], [0.0, 0.0]]]),
                     Segment.constant([[0.5, 0.0], [0.0, 3.0]])])
    mu = three_atom_measure()
    got = apps._measure_domination(SimpleNamespace(C=C, u=mu), (0.0, 3.0))
    cuts = [0.0, 1.0, 1.5, 2.0, 3.0]
    oracle = sum(quad(lambda t: norm(C(t)) * float(mu.density(t)), a, b)[0]
                 for a, b in zip(cuts, cuts[1:]))
    oracle += sum(norm(C(t)) * w for t, w in mu.atoms)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_ide_context_checks_regularity_once(monkeypatch):
    calls = []
    orig = lp_manifold.check_regularity

    def counted(fund):
        calls.append(fund.window)
        return orig(fund)

    monkeypatch.setattr(lp_manifold, "check_regularity", counted)
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 6))
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE), impulses,
                   quadratic_forcing(0.05))
    ctx = ide_to_context(spec, s=0.0, T=6.0, grid=np.linspace(0.0, 6.0, 13))
    assert calls == [(0.0, 6.0)]
    assert ctx.regularity.V_Lambda == pytest.approx(6.0 + 0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# one norm integral against the four former closures
# ---------------------------------------------------------------------------

def _closure_generator_constant_on(spec, mid):
    """The former ``LinearSystemSpec.generator_constant_on`` at a midpoint."""
    def seg_const(path):
        return path.segments[path.segment_index(mid)].is_constant

    if not seg_const(spec.smooth):
        return False
    if spec.measure_part is not None:
        C, u = spec.measure_part
        return seg_const(C) and seg_const(u.density)
    return True


def _closure_regularity(fund):
    """V_Lambda by the former ``check_regularity`` closure."""
    spec = fund.spec
    breaks = set(spec.smooth.times.tolist())
    if spec.measure_part is not None:
        C, u = spec.measure_part
        breaks |= set(C.times.tolist()) | set(u.density.times.tolist())

    def generator(a, b):
        if _closure_generator_constant_on(spec, 0.5 * (a + b)):
            return spec.generator(0.5 * (a + b))
        return spec.generator

    ev = fund.event_nodes
    inner = ev[ev < len(fund.nodes) - 1]
    jump_norms = np.linalg.norm(fund.jumps[inner] - np.eye(fund.n), 2, axis=(-2, -1))
    return closure_norm_integral(fund.window, breaks, generator,
                                 float(np.sum(jump_norms)))


def _closure_measure_variation(mu, window):
    """|mu|([c, d)) by the former ``StieltjesMeasure.variation`` closure."""
    density = mu.density

    def piece(a, b):
        seg = density.segments[density.segment_index(0.5 * (a + b))]
        return seg.coeffs[0] if seg.is_constant else density

    atoms = sum(abs(w) for _, w in mu.atoms_in(*window))
    return closure_norm_integral(window, density.times, piece, atoms)


def _closure_measure_domination(C, mu, window):
    """(D5) by the former ``apps._measure_domination`` closure."""
    dens = mu.density

    def piece(a, b):
        mid = 0.5 * (a + b)
        if C.segments[C.segment_index(mid)].is_constant and \
                dens.segments[dens.segment_index(mid)].is_constant:
            return norm(C(mid)) * abs(float(dens(mid)))
        return lambda t: norm(C(t)) * abs(float(dens(t)))

    atoms = sum(norm(C(t)) * abs(w) for t, w in mu.atoms_in(*window))
    return closure_norm_integral(window, [*C.times, *dens.times], piece, atoms)


def _three_atom_spec():
    """Constant A and C driven by ``three_atom_measure``, whose density has
    a linear piece."""
    C = PiecewisePath.constant([[0.4, -0.2], [0.1, 0.3]])
    return LinearSystemSpec(2, PiecewisePath.constant(COUPLED),
                            measure_part=(C, three_atom_measure()))


def _as_system(spec):
    """The ``IdeSpec`` or ``MdeSpec`` of a linear spec, with no forcing."""
    if spec.measure_part is None:
        f = NonlinearitySpec("zero", {"n": spec.n}, rho=0.5)
        return IdeSpec(spec.n, spec.smooth, spec.impulses, f)
    C, u = spec.measure_part
    H = NonlinearitySpec("zero", {"n": spec.n}, rho=0.5, measure=u)
    return MdeSpec(spec.n, spec.smooth, C, u, H)


@pytest.mark.parametrize("make, window", [
    (lambda: _shipped("planar_quadratic").linear_spec(0.0), (0.0, 40.0)),
    (lambda: _shipped("impulsive_saddle").linear_spec(0.0), (0.0, 40.0)),
    (lambda: _shipped("scalar_mde").linear_spec(0.0), (0.0, 12.0)),
    (_piecewise_spec, (0.0, 3.5)),
    (_mde_with_polynomial_C, (0.0, 3.0)),
    (_three_atom_spec, (0.0, 3.0)),
], ids=["planar_quadratic", "impulsive_saddle", "scalar_mde", "piecewise",
        "mde_polynomial_C", "three_atom_measure"])
def test_norm_integral_reproduces_the_former_closures(make, window):
    spec = make()
    fund = FundamentalOperator(spec, window)
    cuts = np.union1d(fund.nodes, sorted(spec.generator_breakpoints()))
    for mid in 0.5 * (cuts[:-1] + cuts[1:]):
        assert funcspace.constant_on(spec.paths, mid) == \
            _closure_generator_constant_on(spec, mid), mid
    assert check_regularity(fund).V_Lambda == _closure_regularity(fund)
    system = _as_system(spec)
    items = check_hypotheses(system, window).items
    got = items["B2_coefficient_bound" if spec.measure_part is None
                else "D4_smooth_dominated"].value
    # the former (B2)/(D4) differentiated an antiderivative of A
    want = total_variation(running_integral(spec.smooth, window[0]), window)
    if all(seg.is_constant for seg in spec.smooth.segments):
        assert got == want
    else:
        assert abs(got - want) <= 1e-14 * want
    if spec.measure_part is not None:
        C, u = spec.measure_part
        assert items["D5_measure_dominated"].value == \
            _closure_measure_domination(C, u, window)
        assert items["b_driver_nondecreasing_bv"].value == \
            _closure_measure_variation(u, window)
