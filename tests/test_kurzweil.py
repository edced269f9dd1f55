import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from conftest import lebesgue, mass_by_cell_ends
from kurzmani import kurzweil
from kurzmani.cli import main
from kurzmani.funcspace import (PiecewisePath, QuadratureError, Segment,
                                StieltjesMeasure, TaggedDivision, gauss_kronrod)
from kurzmani.kurzweil import (IntegrationError, PointIntervalFn, cross_check,
                               ks_integral_ref, pinned_division,
                               stieltjes_integral)

# closed form for the 12-term lacunary cosine sum with a = 1/2, b = 3:
# every 3^k is odd, so f(1) - f(0) = sum a^k (cos(3^k pi) - 1) = -2 sum a^k
LACUNARY_INCREMENT = -4.0 + 2.0 ** -10


def lacunary():
    return PiecewisePath.preset("wcos", 1.0, (0.5, 3.0, 12))


def test_node_increment_of_nowhere_smooth_like_sum():
    res = ks_integral_ref(PointIntervalFn.node_function(lacunary()), (0, 1),
                          tol=1e-9)
    assert float(res.value) == pytest.approx(LACUNARY_INCREMENT, abs=1e-9)


def test_scalar_step_integrates_to_its_height():
    step = PiecewisePath.from_segments([0.5], [0.0, 2.5])
    res = ks_integral_ref(PointIntervalFn.node_function(step), (0, 1), tol=1e-12)
    assert float(res.value) == pytest.approx(2.5, abs=1e-12)


def test_tag_times_node_product_integrates_to_half():
    f = PiecewisePath.polynomial([0.0, 1.0])
    fn = PointIntervalFn.stieltjes_pair(f, lebesgue())
    res = ks_integral_ref(fn, (0, 1), tol=1e-9)
    assert float(res.value) == pytest.approx(0.5, abs=1e-8)


def test_reference_failure_carries_last_two_sums(monkeypatch):
    # Riemann-type sums of (b - a) / tag grow without bound on [0, 1]
    blowup = PointIntervalFn(
        lambda tags, nodes: (nodes[1:] - nodes[:-1]) / np.maximum(tags, 1e-300))
    monkeypatch.setattr(kurzweil, "_MAX_ROUNDS", 8)
    with pytest.raises(IntegrationError) as err:
        ks_integral_ref(blowup, (0.0, 1.0), tol=1e-12)
    previous, last = err.value.last_two
    # the sums of the last two rounds, and the message names their difference
    assert last > previous
    assert "last diff %.3e" % float(abs(last - previous)) in str(err.value)


def test_pinned_division_tags_atoms():
    div = pinned_division((0.0, 1.0), [0.25, 0.5], radius=0.01, step=0.1)
    assert 0.25 in div.tags and 0.5 in div.tags


def test_identity_matrix_against_single_atom():
    f = PiecewisePath.constant(np.eye(3))
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(0.0, 0.7)])
    val = stieltjes_integral(f, mu, (-1.0, 1.0))
    np.testing.assert_allclose(val, 0.7 * np.eye(3), atol=1e-14)


def test_linear_density_integral():
    f = PiecewisePath.polynomial([0.0, 1.0])
    val = stieltjes_integral(f, lebesgue(), (0.0, 1.0))
    assert float(val) == pytest.approx(0.5, abs=1e-12)


def test_exponential_with_mixed_measure():
    f = PiecewisePath.preset("exp", 1.0, (1.0,))
    mu = StieltjesMeasure(PiecewisePath.constant(1.0), [(0.5, 2.0)])
    val = stieltjes_integral(f, mu, (0.0, 1.0))
    expected = (math.e - 1.0) + 2.0 * math.exp(0.5)
    assert float(val) == pytest.approx(expected, abs=1e-10)
    report = cross_check(f, mu, (0.0, 1.0), tol=1e-6)
    assert report.passed


def test_cross_check_passes_on_spec_examples():
    cases = [
        (PiecewisePath.constant(1.0),
         StieltjesMeasure(PiecewisePath.constant(0.0), [(0.0, 0.7)])),
        (PiecewisePath.polynomial([0.0, 1.0]), lebesgue()),
        (PiecewisePath.preset("exp", 1.0, (1.0,)),
         StieltjesMeasure(PiecewisePath.constant(1.0), [(0.5, 2.0)])),
    ]
    for f, mu in cases:
        assert cross_check(f, mu, (0.0, 1.0), tol=1e-6).passed


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_cross_check_asks_one_reference_tolerance_of_both_forms(monkeypatch, tol):
    asked = []
    real = kurzweil.ks_integral_ref

    def recorded(V, window, tol):
        asked.append(tol)
        return real(V, window, tol=tol)

    monkeypatch.setattr(kurzweil, "ks_integral_ref", recorded)
    f = PiecewisePath.polynomial([0.0, 1.0])
    cross_check(f, None, (0.0, 1.0), tol=tol)
    cross_check(f, lebesgue(), (0.0, 1.0), tol=tol)
    assert asked == [min(tol / 10.0, 1e-8)] * 2


def test_shared_jump_uses_stored_value_and_full_jump():
    f = PiecewisePath.from_segments(
        [0.5], [Segment.constant(1.0), Segment.constant(3.0)])
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(0.5, 1.0)])
    # hand computation: the pinned tag picks f's stored (left) value 1 and
    # the full two-sided jump of the integrator, which is the atom weight
    assert float(stieltjes_integral(f, mu, (0.0, 1.0))) == pytest.approx(1.0)
    assert cross_check(f, mu, (0.0, 1.0), tol=1e-9).passed


def test_atom_window_accounting_left_closed_right_open():
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(0.0, 1.0), (1.0, 5.0)])
    one = PiecewisePath.constant(1.0)
    assert float(stieltjes_integral(one, mu, (0.0, 1.0))) == pytest.approx(1.0)
    # additivity: the atom at the shared endpoint counts exactly once
    total = stieltjes_integral(one, mu, (0.0, 1.0)) + \
        stieltjes_integral(one, mu, (1.0, 2.0))
    assert float(total) == pytest.approx(
        float(stieltjes_integral(one, mu, (0.0, 2.0))), abs=1e-12)
    assert cross_check(one, mu, (0.0, 1.0), tol=1e-9).passed


def test_linearity_in_the_integrand():
    f = PiecewisePath.polynomial([0.0, 1.0])
    g = PiecewisePath.preset("cos", 1.0, (2.0, 0.0))
    mu = StieltjesMeasure(PiecewisePath.constant(1.0), [(0.3, 0.4)])
    combo = PiecewisePath.polynomial([0.0, 2.0]) \
        + PiecewisePath.preset("cos", -3.0, (2.0, 0.0))   # 2 f - 3 g
    lhs = stieltjes_integral(combo, mu, (0.0, 1.0))
    rhs = 2.0 * stieltjes_integral(f, mu, (0.0, 1.0)) \
        - 3.0 * stieltjes_integral(g, mu, (0.0, 1.0))
    assert float(lhs) == pytest.approx(float(rhs), abs=1e-10)


def test_bounded_integrand_respects_variation_bound():
    # |integral| <= variation of the (nondecreasing) integrator when |f| <= 1
    mu = StieltjesMeasure(PiecewisePath.constant(0.7), [(0.25, 0.5), (0.75, 1.0)])
    f = PiecewisePath.preset("sin", 1.0, (7.0, 0.3))
    val = abs(float(stieltjes_integral(f, mu, (0.0, 1.0))))
    assert val <= mu.variation((0.0, 1.0)) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_randomized_fast_reference_agreement(seed):
    rng = np.random.default_rng(seed)
    f = PiecewisePath.polynomial(rng.normal(size=rng.integers(1, 4)))
    dens = PiecewisePath.polynomial(rng.normal(size=2))
    n_atoms = int(rng.integers(0, 4))
    times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
    while len(set(np.round(times, 5))) < n_atoms:
        times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
    atoms = [(float(t), float(rng.normal())) for t in times]
    mu = StieltjesMeasure(dens, atoms)
    report = cross_check(f, mu, (0.0, 1.0), tol=1e-6)
    assert report.passed, report.difference


# ---------------------------------------------------------------------------
# closed-form density cells and the division fill
# ---------------------------------------------------------------------------

def quad_vec_oracle(f, mu, window):
    """Per-cell adaptive quadrature of ``f * density`` plus the atom terms."""
    c, d = window
    inner = np.concatenate([f.times, mu.density.times, [t for t, _ in mu.atoms]])
    cuts = sorted({c, d} | {float(t) for t in inner if c < t < d})
    total = np.zeros(f.shape)
    for a, b in zip(cuts, cuts[1:]):
        val, _ = scipy.integrate.quad_vec(
            lambda t: f.sample(t) * float(mu.density.sample(t)), a, b,
            epsabs=1e-14, epsrel=1e-14)
        total = total + val
    for t, w in mu.atoms_in(c, d):
        total = total + w * f(t)
    return total


def _refuse_quadrature(*args, **kwargs):
    raise AssertionError("quadrature called on a closed-form cell")


CLOSED_FORM_CASES = {
    "poly_x_poly": (
        PiecewisePath.polynomial([0.3, -1.2, 0.7]),
        StieltjesMeasure(PiecewisePath.polynomial([0.5, 0.25]),
                         [(0.3, 0.4), (0.7, -1.1)]),
        (0.0, 1.0)),
    "piecewise_poly_with_shared_jump": (
        PiecewisePath.from_segments(
            [0.4], [Segment.polynomial([1.0, 2.0]), Segment.polynomial([0.0, -1.0, 3.0])]),
        StieltjesMeasure(PiecewisePath.from_segments(
            [0.6], [Segment.polynomial([1.0, -0.5]), Segment.constant(2.0)]),
            [(0.4, 0.8)]),
        (0.0, 1.0)),
    "preset_x_constant": (
        PiecewisePath.preset("sin", 1.0, (7.0, 0.3)),
        StieltjesMeasure(PiecewisePath.constant(0.7), [(0.25, 0.5), (0.75, 1.0)]),
        (0.0, 1.0)),
    "lacunary_x_constant": (
        PiecewisePath.preset("wcos", 1.0, (0.5, 3.0, 4)),
        StieltjesMeasure(PiecewisePath.constant(-1.3), [(0.3, 0.2)]), (0.1, 0.83)),
    "constant_vector_x_preset": (
        PiecewisePath.constant([1.0, -2.0]),
        StieltjesMeasure(PiecewisePath.preset("cos", 0.5, (3.0, 0.1)), [(0.5, 2.0)]),
        (0.0, 1.0)),
    "matrix_poly_x_poly": (
        PiecewisePath.polynomial([np.eye(2), [[0.0, 1.0], [2.0, 0.0]],
                                  [[0.5, 0.0], [0.0, -0.5]]]),
        StieltjesMeasure(PiecewisePath.polynomial([0.2, 1.5]), [(0.1, -0.3)]),
        (0.0, 1.0)),
    "offset_window": (
        PiecewisePath.polynomial([0.3, -1.2, 0.7]),
        StieltjesMeasure(PiecewisePath.polynomial([0.5, 0.25]),
                         [(40.5, 0.4), (41.0, -1.1)]),
        (40.0, 41.5)),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_closed_form_cells_match_quad_vec_without_calling_it(case, monkeypatch):
    f, mu, window = CLOSED_FORM_CASES[case]
    expected = quad_vec_oracle(f, mu, window)
    monkeypatch.setattr(kurzweil, "gauss_kronrod", _refuse_quadrature)
    value = stieltjes_integral(f, mu, window)
    assert np.shape(value) == f.shape
    err = float(np.max(np.abs(value - expected)))
    assert err <= 1e-12 * (1.0 + float(np.max(np.abs(expected))))


def test_preset_times_nonconstant_density_falls_back_to_quadrature(monkeypatch):
    f = PiecewisePath.preset("exp", 1.0, (1.0,))
    mu = StieltjesMeasure(PiecewisePath.polynomial([1.0, 0.5]), [(0.5, 2.0)])
    expected = quad_vec_oracle(f, mu, (0.0, 1.0))
    calls = []
    orig = kurzweil.gauss_kronrod

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(kurzweil, "gauss_kronrod", counted)
    value = float(stieltjes_integral(f, mu, (0.0, 1.0)))
    assert calls == [(0.0, 0.5), (0.5, 1.0)]
    # int_0^1 e^t (1 + t/2) dt = (e - 1) + (1/2); atom 2 e^{1/2}
    exact = (math.e - 1.0) + 0.5 + 2.0 * math.exp(0.5)
    assert value == pytest.approx(exact, abs=1e-10)
    assert value == pytest.approx(float(expected), abs=1e-10)


def test_quadrature_miss_is_nonconvergence(monkeypatch, tmp_path, capsys):
    # one miss rule for every quadrature: a cell error of 1e-6 raises
    # QuadratureError, which the CLI reports as nonconvergence (exit 3)
    monkeypatch.setattr(kurzweil, "gauss_kronrod",
                        lambda f, a, b: (f(np.array([0.5 * (a + b)]))[0] * (b - a), 1e-6))
    f = PiecewisePath.preset("exp", 1.0, (1.0,))
    mu = StieltjesMeasure(PiecewisePath.polynomial([1.0, 0.5]), [(0.5, 2.0)])
    with pytest.raises(QuadratureError, match="density on \\[0, 0.5\\]"):
        stieltjes_integral(f, mu, (0.0, 1.0))
    cfg = {"integrand": {"f": {"preset": {"kind": "exp", "params": [1.0]}},
                         "mu": {"density": {"poly": [1.0, 0.5]}},
                         "window": [0.0, 1.0]},
           "output": {"prefix": "miss"}}
    path = tmp_path / "miss.json"
    path.write_text(json.dumps(cfg))
    assert main(["crosscheck", "--config", str(path), "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "nonconvergence"


def test_an_overflowing_integrand_is_a_quadrature_miss():
    # e^{800 t} overflows to inf, so K21 - G10 is not a number: the miss
    # rule refuses it instead of returning nan as a value
    f = PiecewisePath.preset("exp", 1.0, (800.0,))
    mu = StieltjesMeasure(PiecewisePath.polynomial([1.0, 0.5]))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(QuadratureError, match="achieved only nan"):
        stieltjes_integral(f, mu, (0.0, 1.0))


def pinned_division_by_cell_loop(window, atoms, radius, step):
    """The per-cell loop form of ``pinned_division``."""
    c, d = float(window[0]), float(window[1])
    atoms = sorted({t for t in atoms if c <= t <= d})
    if atoms:
        gaps = [b - a for a, b in zip(atoms, atoms[1:])]
        limit = min([d - c] + gaps) / 4.0
        radius = min(radius, limit) if limit > 0 else radius
    nodes = [c]
    tags = []

    def fill(a, b):
        if b <= a:
            return
        ncells = max(1, int(math.ceil((b - a) / step)))
        edges = np.linspace(a, b, ncells + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes.append(hi)
            tags.append(0.5 * (lo + hi))

    cursor = c
    for t in atoms:
        lo, hi = max(c, t - radius), min(d, t + radius)
        fill(cursor, lo)
        nodes.append(hi)
        tags.append(t)
        cursor = hi
    fill(cursor, d)
    return np.array(nodes), np.array(tags)


@pytest.mark.parametrize("window,atoms,radius,step", [
    ((0.0, 1.0), [], 0.01, 0.125),
    ((0.0, 1.0), [0.25, 0.5], 0.01, 0.1),
    ((0.0, 1.0), [0.0, 0.3, 1.0], 1e-3, 1.0 / 3.0),
    ((-2.0, 3.5), [-1.1, 0.7, 0.71, 2.9], 0.05, 2.0 ** -9),
    ((40.0, 41.5), [40.5, 41.0], 0.01, 0.007),
])
def test_pinned_division_matches_the_cell_loop(window, atoms, radius, step):
    div = pinned_division(window, atoms, radius, step)
    nodes, tags = pinned_division_by_cell_loop(window, atoms, radius, step)
    assert np.array_equal(div.nodes, nodes)
    assert np.array_equal(div.tags, tags)


# (integrand coefficients, density coefficients, atoms): every integrand
# size and atom count of acceptance test 01, the density size alternating
CASE_SHAPES = [(n_f, 1 + (n_f + n_atoms) % 2, n_atoms)
               for n_f in (1, 2, 3) for n_atoms in (0, 1, 2, 3)]


def _shape_cases(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for n_f, n_density, n_atoms in CASE_SHAPES:
        f = PiecewisePath.polynomial(rng.normal(size=n_f))
        density = PiecewisePath.polynomial(rng.normal(size=n_density))
        times = np.sort(rng.uniform(0.05, 0.95, size=n_atoms))
        cases.append((f, StieltjesMeasure(density, [(float(t), float(rng.normal()))
                                                    for t in times])))
    return cases


def _reference_outputs(cases):
    out = []
    for f, mu in cases:
        for m in (mu, None):
            rep = cross_check(f, m, (0.0, 1.0), tol=1e-6)
            out.append((rep.fast_value, rep.reference.value,
                        rep.reference.achieved_tolerance,
                        rep.reference.refinement_rounds, rep.difference))
    return out


def test_reference_is_bit_identical_to_the_cell_loop_division(monkeypatch):
    """The gauge reference built from array blocks gives the values, achieved
    tolerances and round counts of the per-cell loop division exactly."""
    cases = _shape_cases(7)
    fast = _reference_outputs(cases)
    monkeypatch.setattr(kurzweil, "pinned_division", lambda *args: TaggedDivision(
        *pinned_division_by_cell_loop(*args)))
    loop = _reference_outputs(cases)
    assert len(fast) == 2 * len(CASE_SHAPES)
    for got, want in zip(fast, loop):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_cross_check_on_polynomials_leaves_scipy_integrate_unloaded():
    code = "\n".join([
        "import sys",
        "from kurzmani.funcspace import PiecewisePath, StieltjesMeasure",
        "from kurzmani.kurzweil import cross_check",
        "mu = StieltjesMeasure(PiecewisePath.polynomial([0.5, 0.25]),",
        "                      [(0.3, 0.4), (0.7, -1.1)])",
        "f = PiecewisePath.polynomial([0.3, -1.2, 0.7])",
        "assert cross_check(f, mu, (0.0, 1.0), tol=1e-6).passed",
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate was imported'",
    ])
    import kurzmani
    src = os.path.dirname(os.path.dirname(os.path.abspath(kurzmani.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the grouped fast side and the node-sampled reference against their former
# forms, and the window rules of both sides
# ---------------------------------------------------------------------------

def stieltjes_integral_by_cut(f, mu, window):
    """The per-cut loop form of ``stieltjes_integral``: one antiderivative
    and two one-point values per cell, and one one-point value per atom,
    each term added to the total as it is formed."""
    c, d = float(window[0]), float(window[1])
    if d < c:
        return -stieltjes_integral_by_cut(f, mu, (d, c))
    density = mu.density
    total = np.zeros(f.shape)
    breaks = [*f.times, *density.times, *(t for t, _ in mu.atoms)]
    cuts = sorted({c, d} | {t for t in breaks if c < t < d})
    for a, b in zip(cuts, cuts[1:]):
        fs = f.segments[f.segment_index(a, side=+1)]
        rs = density.segments[density.segment_index(a, side=+1)]
        try:
            anti = fs.times_scalar_segment(rs).antiderivative()
        except NotImplementedError:
            val, _ = gauss_kronrod(
                lambda ts: f.sample(ts) * density.sample(ts).reshape(
                    ts.shape + (1,) * len(f.shape)), a, b)
            total = total + val
        else:
            total = total + (anti.value(b) - anti.value(a))
    for t, w in mu.atoms_in(c, d):
        total = total + w * f(t)
    return total


BY_CUT_CASES = {
    # breakpoints of f at 0.25 and 0.6, of the density at 0.4 and 0.6, and
    # atoms at both window ends and on breakpoints of each
    "breakpoints_and_atoms_on_them": (
        PiecewisePath.from_segments([0.25, 0.6], [
            Segment.polynomial([[1.0, -0.5], [2.0, 0.25]]),
            Segment.polynomial([[0.0, 1.5], [-1.0, 3.0], [0.5, 0.5]]),
            Segment.constant([0.75, -2.0])]),
        StieltjesMeasure(PiecewisePath.from_segments([0.4, 0.6], [
            Segment.polynomial([1.0, -0.5]), Segment.constant(2.0),
            Segment.polynomial([0.5, 0.1, -0.3])]),
            [(0.0, 0.3), (0.25, -0.8), (0.4, 0.6), (0.6, 1.2), (1.0, 0.5)]),
        (0.0, 1.0)),
    "constant_matrix_x_preset": (
        PiecewisePath.from_segments([0.5], [np.eye(2), [[0.0, 1.0], [2.0, 0.0]]]),
        StieltjesMeasure(PiecewisePath.preset("cos", 0.5, (3.0, 0.1)),
                         [(0.5, 2.0), (0.8, -0.4)]),
        (0.0, 1.0)),
    "preset_x_polynomial_quadrature": (
        PiecewisePath.from_segments([0.3], [Segment.preset("exp", 1.0, (1.0,)),
                                            Segment.preset("sin", 2.0, (5.0, 0.2))]),
        StieltjesMeasure(PiecewisePath.from_segments(
            [0.7], [Segment.polynomial([1.0, 0.5]), Segment.constant(0.25)]),
            [(0.3, 0.9), (0.5, 2.0)]),
        (-0.2, 1.0)),
    "reversed_window": (
        PiecewisePath.from_segments([0.4], [Segment.polynomial([1.0, 2.0]),
                                            Segment.polynomial([0.0, -1.0, 3.0])]),
        StieltjesMeasure(PiecewisePath.polynomial([0.5, 0.25]), [(0.4, 0.8), (1.0, 0.1)]),
        (1.0, -0.5)),
    "degenerate_window": (
        PiecewisePath.constant([1.0, -2.0]),
        StieltjesMeasure(PiecewisePath.constant(0.5), [(0.5, 0.4)]), (0.5, 0.5)),
}
BY_CUT_CASES.update(CLOSED_FORM_CASES)


@pytest.mark.parametrize("case", sorted(BY_CUT_CASES))
def test_stieltjes_integral_equals_the_per_cut_loop(case):
    """One antiderivative per run of cells and one sample of every atom's
    left value give the per-cut loop's total bit for bit."""
    f, mu, window = BY_CUT_CASES[case]
    got = stieltjes_integral(f, mu, window)
    want = stieltjes_integral_by_cut(f, mu, window)
    assert np.shape(got) == np.shape(want) == f.shape
    assert np.array_equal(got, want)


def test_node_sampled_cell_terms_equal_the_sum_by_cell_ends():
    """The ``stieltjes_pair`` sum, from one distribution sample per node, is
    the sum of f(tag) mu([lo, hi)) with both ends of every cell sampled."""
    cases = [(f, mu) for f, mu in _shape_cases(7)] + [
        (f, mu) for f, mu, _ in BY_CUT_CASES.values()]
    for f, mu in cases:
        V = PointIntervalFn.stieltjes_pair(f, mu)
        for step in (0.125, 2.0 ** -10):
            div = pinned_division((0.0, 1.0), V.atom_times, step / 8.0, step)
            du = mass_by_cell_ends(mu, div.nodes[:-1], div.nodes[1:])
            want = (f.sample(div.tags)
                    * du.reshape(du.shape + (1,) * len(f.shape))).sum(axis=0)
            assert np.array_equal(V.k_sum(div), want)


def test_reversed_window_mirrors_the_sign_on_both_sides():
    f = PiecewisePath.polynomial([1.0, 2.0])
    mu = StieltjesMeasure(PiecewisePath.constant(0.5), [(0.3, 0.4)])
    back = cross_check(f, mu, (1.0, 0.0), tol=1e-6)
    ahead = cross_check(f, mu, (0.0, 1.0), tol=1e-6)
    # 0.5 (1 + 1) from the density and 0.4 (1 + 0.6) from the atom
    assert float(back.fast_value) == pytest.approx(-1.64, abs=1e-12)
    assert back.passed
    assert np.array_equal(back.fast_value, -ahead.fast_value)
    assert np.array_equal(back.reference.value, -ahead.reference.value)
    assert back.reference.refinement_rounds == ahead.reference.refinement_rounds
    assert back.difference == ahead.difference
    node = cross_check(f, None, (1.0, 0.0), tol=1e-6)
    assert node.passed and float(node.reference.value) == pytest.approx(-2.0)


def test_reference_converges_where_f_jumps_at_an_atom_over_a_density():
    """The pinned cell is tagged with f's left value while its right half
    carries density against f's right value; its radius quarters each round,
    so the sums settle, in 13 rounds."""
    f = PiecewisePath.from_segments([0.5], [1.0, 3.0])
    mu = StieltjesMeasure(PiecewisePath.constant(1.0), [(0.5, 1.0)])
    rep = cross_check(f, mu, (0.0, 1.0), tol=1e-6)
    # 1 * 0.5 + 3 * 0.5 from the density, f(0.5) = 1 times the atom
    assert float(rep.fast_value) == 3.0
    assert rep.passed and rep.difference <= 1e-8
    assert rep.reference.refinement_rounds == 13


def test_degenerate_window_gives_a_zero_of_the_integrands_shape():
    f = PiecewisePath.polynomial([[1.0, -2.0], [0.5, 3.0]])
    mu = StieltjesMeasure(PiecewisePath.constant(0.5), [(0.5, 0.4)])
    for V in (PointIntervalFn.stieltjes_pair(f, mu), PointIntervalFn.node_function(f)):
        res = ks_integral_ref(V, (0.5, 0.5))
        assert res.value.shape == (2,) and not res.value.any()
        assert res.refinement_rounds == 0
    for m in (mu, None):
        rep = cross_check(f, m, (0.5, 0.5))
        assert rep.passed
        assert np.shape(rep.fast_value) == rep.reference.value.shape == (2,)


@pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.inf),
                                    (-math.inf, 0.0), (1.0, math.nan)])
def test_non_finite_window_is_refused_by_both_sides(window):
    f = PiecewisePath.polynomial([1.0, 2.0])
    mu = StieltjesMeasure(PiecewisePath.constant(0.5), [(0.3, 0.4)])
    with pytest.raises(ValueError, match="finite"):
        ks_integral_ref(PointIntervalFn.stieltjes_pair(f, mu), window)
    with pytest.raises(ValueError, match="finite"):
        ks_integral_ref(PointIntervalFn.node_function(f), window)
    with pytest.raises(ValueError, match="finite"):
        stieltjes_integral(f, mu, window)
    with pytest.raises(ValueError, match="finite"):
        cross_check(f, mu, window)
