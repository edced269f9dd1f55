import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, quad_vec

import kurzmani.funcspace as funcspace
from conftest import mass_by_cell_ends, masses_of_pairs
from kurzmani.funcspace import (GAUSS_LEGENDRE, PiecewisePath, QuadratureError,
                                Segment, StieltjesMeasure, TaggedDivision,
                                check_quadrature, constant_on, gauss_kronrod,
                                norm, norm_integral, running_integral,
                                sorted_unique)


def right_limit(path, t):
    """The right limit at t: the right segment's value at a breakpoint."""
    return path.segments[path.segment_index(t, side=+1)].value(t)


def _integral(path, window):
    """The integral of ||path|| over the window: the variation of the
    path's running integral."""
    return norm_integral(window, path, (path,), 0.0, "test integral")


def test_variation_of_constant_path_is_zero():
    # no density and no atoms: the distribution is a constant path
    assert StieltjesMeasure(PiecewisePath.constant(0.0)).variation((0.0, 1.0)) == 0.0


def test_variation_of_unit_step():
    # one unit atom at 0.5: the distribution is a unit step
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(0.5, 1.0)])
    assert mu.variation((0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_variation_of_linear_ramp_matches_quadrature_oracle():
    # density 1: the distribution is a linear ramp
    mu = StieltjesMeasure(PiecewisePath.constant(1.0))
    oracle, _ = quad(lambda t: 1.0, 0.0, 1.0)
    assert mu.variation((0.0, 1.0)) == pytest.approx(oracle, abs=1e-10)


def test_variation_rejects_infinite_window():
    with pytest.raises(ValueError):
        _integral(PiecewisePath.constant(0.0), (0.0, math.inf))
    with pytest.raises(ValueError):
        StieltjesMeasure(PiecewisePath.constant(1.0)).variation((-math.inf, 0.0))


def test_variation_monotone_and_additive():
    path = PiecewisePath.from_segments(
        [0.3, 0.7],
        [Segment.polynomial([0.0, 2.0]), Segment.constant(1.0),
         Segment.preset("exp", 1.0, (1.0,))])
    inner = _integral(path, (0.1, 0.6))
    outer = _integral(path, (0.0, 1.0))
    assert inner <= outer + 1e-12
    left = _integral(path, (0.0, 0.5))
    right = _integral(path, (0.5, 1.0))
    assert left + right == pytest.approx(outer, abs=2e-10)


def test_regulated_evaluation_returns_stored_one_sided_values():
    path = PiecewisePath.from_segments(
        [1.0], [Segment.constant(2.0), Segment.constant(5.0)])
    # left-continuous: the value at the breakpoint is the left limit
    assert path(1.0) == pytest.approx(2.0)
    assert right_limit(path, 1.0) == pytest.approx(5.0)
    # the measure whose distribution jumps by 3 there
    mu = StieltjesMeasure(PiecewisePath.constant(0.0), [(1.0, 3.0)])
    assert mu.variation((0.0, 2.0)) == pytest.approx(3.0)


def test_constant_on_reads_the_left_segment_at_a_breakpoint():
    ramp = PiecewisePath.from_segments(
        [1.0], [Segment.constant(2.0), Segment.polynomial([0.0, 1.0])])
    flat = PiecewisePath.constant(1.0)
    assert constant_on((ramp, flat), 1.0) and constant_on((flat,), 7.0)
    assert not constant_on((flat, ramp), 1.0 + 1e-9)
    assert constant_on((), 0.0)


def test_breakpoint_times_must_increase():
    with pytest.raises(ValueError):
        PiecewisePath.from_segments(
            [1.0, 1.0],
            [Segment.constant(0.0), Segment.constant(1.0), Segment.constant(2.0)])


def test_non_finite_breakpoint_value_is_refused():
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite breakpoint value"):
        PiecewisePath.from_segments(
            [800.0], [Segment.preset("exp", 1.0, (1.0,)), Segment.constant(0.0)])


def test_matrix_norm_is_operator_two_norm():
    assert norm(np.array([[3.0, 0.0], [0.0, 1.0]])) == pytest.approx(3.0)
    assert norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_running_integral_stitches_across_jumps():
    # integrand jumps at 1 but its running integral is continuous with a kink
    path = PiecewisePath.from_segments(
        [1.0], [Segment.constant(1.0), Segment.constant(3.0)])
    ri = running_integral(path, 0.0)
    assert ri(1.0) == pytest.approx(1.0)
    assert ri(2.0) == pytest.approx(4.0)
    assert ri(-1.0) == pytest.approx(-1.0)
    assert not any(norm(right_limit(ri, t) - ri(t)) > 0 for t in ri.times)


def test_measure_mass_left_continuous():
    mu = StieltjesMeasure(PiecewisePath.constant(1.0), [(0.5, 2.0)])
    # u(t) = t + 2 [t > 0.5]: mu([0, 0.5)) = u(0.5) - u(0) = 0.5, and the
    # cell [0.5, 0.5 + h) holds the atom
    los, his = np.array([0.0, 0.0, 0.5, 0.25]), np.array([0.5, 1.0, 0.5 + 1e-9, 0.5])
    np.testing.assert_allclose(masses_of_pairs(mu, los, his),
                               [0.5, 3.0, 2.0 + 1e-9, 0.25], rtol=1e-12)
    assert masses_of_pairs(mu, np.array([0.5]), np.array([0.5]))[0] == 0.0
    assert mu.cell_masses(np.array([0.5])).shape == (0,)
    assert mu.variation((0.0, 1.0)) == pytest.approx(3.0)
    # atom at the right window end is outside [a, b)
    assert mu.variation((0.0, 0.5)) == pytest.approx(0.5)


CELL_MASS_MEASURES = {
    "three_atoms_and_a_density_break": StieltjesMeasure(
        PiecewisePath.from_segments([1.5], [Segment.polynomial([1.0, 0.5]),
                                            Segment.constant(2.0)]),
        [(0.5, 0.3), (1.5, 0.7), (2.25, 1.1)]),
    "signed_polynomial": StieltjesMeasure(
        PiecewisePath.polynomial([0.3, -1.2, 0.7]), [(-0.4, -0.8), (0.9, 0.25)]),
    "preset_density": StieltjesMeasure(
        PiecewisePath.preset("cos", 0.5, (3.0, 0.1)), [(0.5, 2.0)]),
    "no_atoms": StieltjesMeasure(PiecewisePath.constant(1.0)),
}


@pytest.mark.parametrize("name", sorted(CELL_MASS_MEASURES))
def test_cell_masses_equal_the_sum_by_cell_ends(name):
    """One sample of the distribution per node gives the masses of the
    per-cell form u(hi) - u(lo) bit for bit: each part's difference is
    formed from the same samples and added in the same order."""
    mu = CELL_MASS_MEASURES[name]
    rng = np.random.default_rng(4)
    special = [t + e for t, _ in mu.atoms for e in (-1e-7, 0.0, 1e-7)] \
        + mu.density.times.tolist() + [0.0, 0.0, 3.0]
    for nodes in (np.sort(np.concatenate([rng.uniform(-1.0, 3.0, 40), special])),
                  np.linspace(-1.0, 3.0, 1025), np.array([0.5, 0.5])):
        want = mass_by_cell_ends(mu, nodes[:-1], nodes[1:])
        assert np.array_equal(mu.cell_masses(nodes), want)


@pytest.mark.parametrize("nodes,tags,message", [
    ([0.0, math.nan, 1.0], [0.0, 1.0], "finite"),
    ([0.0, 0.5, 1.0], [0.25, math.nan], "finite"),
    ([0.0, 1.0, math.inf], [0.5, 2.0], "finite"),
    ([-math.inf, 0.0], [-1.0], "finite"),
    ([math.nan], [], "finite"),
    ([0.0, 1.0, 0.5], [0.5, 0.75], "weakly increasing"),
    ([0.0, 0.5, 1.0], [0.25, 1.5], "subinterval"),
    ([0.0, 1.0], [0.5, 0.6], "len"),
])
def test_tagged_division_refuses_bad_entries(nodes, tags, message):
    with pytest.raises(ValueError, match=message):
        TaggedDivision(nodes, tags)


def test_tagged_division_accepts_touching_tags_and_empty_cells():
    div = TaggedDivision([0.0, 0.0, 0.5, 1.0], [0.0, 0.5, 0.5])
    assert div.nodes.dtype == div.tags.dtype == float
    assert TaggedDivision([2.0], []).tags.shape == (0,)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.45), st.floats(0.55, 0.95))
def test_variation_nested_window_monotonicity(a, b):
    path = PiecewisePath.from_segments(
        [0.5], [Segment.polynomial([0.0, 1.0]), Segment.constant(2.0)])
    assert _integral(path, (a, b)) <= _integral(path, (0.0, 1.0)) + 1e-10


def test_path_algebra_addition_merges_breakpoints():
    a = PiecewisePath.from_segments([0.3], [0.0, 1.0])
    b = PiecewisePath.from_segments([0.7], [0.0, 2.0])
    s = a + b
    assert s.times.tolist() == [0.3, 0.7]
    assert s(0.5) == pytest.approx(1.0)
    assert s(0.9) == pytest.approx(3.0)
    assert (a + a)(0.5) == pytest.approx(2.0)


def test_preset_derivative_antiderivative_roundtrip():
    seg = Segment.preset("sin", 2.0, (3.0, 0.25))
    anti = seg.antiderivative()
    back = anti.derivative()
    ts = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(back.eval(ts), seg.eval(ts), atol=1e-12)
    wc = Segment.preset("wcos", 1.0, (0.5, 3.0, 5))
    np.testing.assert_allclose(wc.antiderivative().derivative().eval(ts),
                               wc.eval(ts), atol=1e-12)



# paths whose segments evaluate elementwise (constants and the exp/sin/cos
# presets; the wcos/wsin sums reduce through ``tensordot``), with and
# without breakpoints, scalar and matrix valued; polynomials are below
SAMPLE_PATHS = {
    "preset_scalar": PiecewisePath.preset("exp", 1.5, (0.7,)),
    "preset_matrix": PiecewisePath.preset("sin", [[1.0, -2.0], [0.5, 3.0]], (2.5, 0.3)),
    "steps_scalar": PiecewisePath.from_segments(
        [0.25, 0.6], [Segment.preset("cos", 2.0, (1.3, -0.4)), -0.5,
                      Segment.preset("exp", 1.5, (0.7,))]),
    "steps_matrix": PiecewisePath.from_segments(
        [0.4], [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 1.0], [1.2, -1.0]]]),
}
POLY_PATHS = {
    "poly_scalar": [0.3, -1.2, 0.7],
    "poly_matrix": [np.eye(2), [[0.1, -1.3], [2.2, 0.4]], [[0.7, 0.0], [-0.9, 1.1]]],
}
SAMPLE_TIMES = {
    "0d": np.float64(0.4),
    "1d": np.linspace(-0.5, 1.5, 17),
    "2d": np.array([[0.25, 0.6, 0.1, 0.3, 0.9], [0.4, 1.3, -0.2, 0.7, 0.5]]),
    "unsorted": np.array([0.9, 0.25, -1.0, 0.6, 0.4, 0.4, 0.05, 1.2, 0.6]),
}


@pytest.mark.parametrize("ts", SAMPLE_TIMES.values(), ids=SAMPLE_TIMES.keys())
@pytest.mark.parametrize("path", SAMPLE_PATHS.values(), ids=SAMPLE_PATHS.keys())
def test_sample_equals_pointwise_call_exactly(path, ts):
    """Batch sampling is the per-point value bit for bit (the left limit at
    a breakpoint), in the shape ``ts.shape + path.shape``."""
    got = path.sample(ts)
    assert got.shape == np.shape(ts) + path.shape
    want = np.array([path(t) for t in np.ravel(ts)]).reshape(got.shape)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["wcos", "wsin"])
def test_lacunary_preset_batch_equals_one_point_value(kind):
    """The wcos/wsin sums run elementwise over k, so a time's value has the
    same bits in a batch of any length as on its own."""
    seg = Segment.preset(kind, 1.0, (0.5, 3.0, 12))
    rng = np.random.default_rng(3)
    for length in (3, 4, 7, 8, 9, 16, 17, 31, 64, 129, 500, 1200):
        ts = rng.uniform(-2.0, 5.0, length)
        want = np.array([seg.eval(t) for t in ts])
        assert np.array_equal(seg.eval(ts), want), length


@pytest.mark.parametrize("ts", SAMPLE_TIMES.values(), ids=SAMPLE_TIMES.keys())
@pytest.mark.parametrize("coeffs", POLY_PATHS.values(), ids=POLY_PATHS.keys())
def test_sample_without_breakpoints_equals_the_grouped_sample(coeffs, ts):
    """A path without breakpoints is evaluated in one call; it equals the
    segment grouping bit for bit (the same segment on both sides of a
    breakpoint no time reaches) and the one-point ``path(t)``: a segment
    evaluates its polynomial elementwise, so no batch length moves a bit."""
    path = PiecewisePath.polynomial(coeffs)
    seg = path.segments[0]
    grouped = PiecewisePath([seg, seg], [1e3]).sample(ts)
    got = path.sample(ts)
    assert got.shape == np.shape(ts) + path.shape
    assert np.array_equal(got, grouped)
    want = np.array([path(t) for t in np.ravel(ts)]).reshape(got.shape)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [3, 5])
def test_gauss_legendre_table_has_the_bits_of_leggauss(count):
    nodes, weights = np.polynomial.legendre.leggauss(count)
    assert np.array_equal(GAUSS_LEGENDRE[count][0], nodes)
    assert np.array_equal(GAUSS_LEGENDRE[count][1], weights)


@pytest.mark.parametrize("values", [
    [3, 1, 3, 0, 1, 1, 7, -2], [5], [],
    [0.3, -1.5, 0.3, 1e-300, 2.0, -1.5, 0.1 + 0.2, 0.30000000000000004],
    np.arange(40) % 7 * 0.1])
def test_sorted_unique_equals_np_unique(values):
    a = np.asarray(values)
    got, inverse = sorted_unique(a, return_inverse=True)
    want, want_inverse = np.unique(a, return_inverse=True)
    for out in (got, sorted_unique(a)):
        assert out.dtype == want.dtype and np.array_equal(out, want)
    assert np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(got[inverse], a)


def test_sorted_unique_of_rows_equals_np_unique_on_axis_0():
    rows = np.array([[2, 0, 1], [0, 5, 5], [2, 0, 1], [0, 5, 4], [1, 0, 0],
                     [0, 5, 5]])
    assert np.array_equal(sorted_unique(rows), np.unique(rows, axis=0))
    got, inverse = sorted_unique(rows, return_inverse=True)
    assert np.array_equal(got[inverse], rows)
    assert sorted_unique(rows[:0]).shape == (0, 3)


# ---------------------------------------------------------------------------
# the Gauss-Kronrod rule, with scipy's quad and quad_vec as the outside oracle
# ---------------------------------------------------------------------------

def _one_cell(f):
    """K21 on the single cell [-1, 1] and the raw pair difference |K21 - G10|
    there, G10 summed from the table (the cell estimate floors it at
    50 eps resabs)."""
    x, _, _, wg = funcspace.KRONROD_21
    k21, _ = funcspace._kronrod_cells(f, np.array([-1.0]), np.array([1.0]))
    g10 = float(np.dot(wg, f(-x[:5]) + f(x[:5])))
    return float(k21[0]), abs(float(k21[0]) - g10)


@pytest.mark.parametrize("degree", range(34))
def test_kronrod_pair_is_exact_to_degree_31_and_gauss_to_19(degree):
    k21, diff = _one_cell(lambda t: t ** degree)
    exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    if degree <= 31:
        assert abs(k21 - exact) <= 1e-15
    else:
        # the first even degree past 31 is the first one K21 misses
        assert degree == 33 or abs(k21 - exact) > 1e-13
    if degree <= 19 or degree % 2:
        assert diff <= 1e-15
    else:
        assert diff > 1e-7


def test_one_cell_integrals_have_the_bits_of_quadpack():
    """Where one cell meets the tolerance, K21 summed in qk21's order is
    scipy's ``quad`` result bit for bit, on a smooth scalar integrand and on
    the norm of a linear-in-time matrix path."""
    got, err = gauss_kronrod(np.exp, 0.0, 2.0)
    assert got == quad(np.exp, 0.0, 2.0, epsabs=1e-10, epsrel=1e-12)[0]
    A = PiecewisePath.from_segments([5.0], [
        Segment.constant(np.diag([-1.0, 1.0])),
        Segment.polynomial([np.diag([-1.0, 1.0]), [[0.0, 0.01], [0.0, 0.0]]])])
    cell, _ = quad(lambda t: norm(A(t)), 5.0, 40.0, epsabs=1e-10, epsrel=1e-12)
    assert norm_integral((0.0, 40.0), A, (A,), 0.0, "test integral") == 5.0 + cell


SCALAR_CASES = {
    "exp": (np.exp, 0.0, 2.0),
    "runge": (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0),
    "kink": (lambda t: np.abs(t - 0.3), 0.0, 1.0),
    "sqrt_cusp": (lambda t: np.sqrt(np.abs(t)), 0.0, 1.0),
    "sin_30t": (lambda t: np.sin(30.0 * t), 0.0, 2.0),
    "damped_cos_100t": (lambda t: np.exp(-t) * np.cos(100.0 * t), 0.0, 3.0),
}


@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
def test_rule_agrees_with_quad_on_scalar_integrands(case):
    f, a, b = SCALAR_CASES[case]
    got, err = gauss_kronrod(f, a, b)
    want = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
    assert err <= max(funcspace._QUAD_TOL, 1e-12 * abs(got))
    assert abs(got - want) <= err


VECTOR_CASES = {
    "smooth_vector": (lambda t: np.stack([np.exp(t), np.sin(3.0 * t)], axis=-1),
                      0.0, 1.0),
    "oscillatory_kinked_vector": (
        lambda t: np.stack([np.cos(40.0 * t), t * np.sin(25.0 * t), np.abs(t - 0.4)],
                           axis=-1), 0.0, 1.5),
    "matrix": (lambda t: np.moveaxis(np.array([[np.exp(-t), np.cos(7.0 * t)],
                                               [t ** 3, 1.0 / (1.0 + t)]]),
                                     [0, 1], [-2, -1]), 0.0, 2.0),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_rule_agrees_with_quad_vec_on_vector_and_matrix_integrands(case):
    f, a, b = VECTOR_CASES[case]
    got, err = gauss_kronrod(f, a, b)
    want = quad_vec(lambda t: f(np.array([t]))[0], a, b, epsabs=1e-13, epsrel=1e-13,
                    limit=2000)[0]
    assert got.shape == want.shape
    assert err <= max(funcspace._QUAD_TOL, 1e-12 * norm(got))
    # qk21's scaled estimate bounds the error, at the kink of the third
    # component too (the raw |K21 - G10| read 6.9e-11 against 1.2e-10 there)
    assert np.max(np.abs(got - want)) <= err


def test_kinked_matrix_norm_integrates_to_three_quarters():
    # ||diag(t, 1 - t)|| = max(t, 1 - t) kinks at 0.5, inside the one cell
    # of the window; the first bisection cuts there
    path = PiecewisePath.polynomial([np.diag([0.0, 1.0]), np.diag([1.0, -1.0])])
    got = norm_integral((0.0, 1.0), path, (path,), 0.0, "test integral")
    assert got == 0.75
    assert got == pytest.approx(quad(lambda t: norm(path(t)), 0.0, 1.0)[0], abs=1e-14)


def test_rule_stops_at_the_cell_limit_with_a_miss():
    # 12 lacunary terms on [0, 10], up to 3^11 pi rad per time unit: 200
    # cells cannot resolve them, and the estimate is a miss
    path = PiecewisePath.preset("wcos", 1.0, (0.5, 3.0, 12))
    sizes = []

    def f(ts):
        sizes.append(len(ts))
        return np.abs(path.sample(ts))

    got, err = gauss_kronrod(f, 0.0, 10.0)
    assert sizes == [21] + [42] * (funcspace._QUAD_CELLS - 1)
    assert err > 1e-3
    with pytest.raises(QuadratureError, match="test integral"):
        check_quadrature(err, abs(got), "test integral")
