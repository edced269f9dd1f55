"""Piecewise-smooth paths, Stieltjes measures and tagged divisions.

Every path handled by this library is smooth between finitely many
breakpoints and is held as nothing but its segments and its breakpoint
times.  This class is closed under the operations the solvers need (sums
and running integrals) and covers exactly what the impulsive and
measure-driven realizations produce.  Smooth segments are polynomials in t
plus a small set of named function families (exp, sin/cos, and lacunary
trigonometric sums), each closed under differentiation and antidifferentiation.
Every variation the theorem reads is an integral of a norm over the pieces
of coefficient paths plus the jumps (``norm_integral``), and
``constant_on`` is the one rule for a constant cell.  Where a cell is not
constant, ``gauss_kronrod`` integrates it: QUADPACK's 21-point
Gauss-Kronrod pair with global adaptive bisection, the package's one
adaptive quadrature, and ``check_quadrature`` judges every miss.
A Stieltjes measure (a density plus atoms) is read through its variation
and the masses of the half-open cells between consecutive nodes,
mu([t_{j-1}, t_j)); no distribution path is built.

Conventions used throughout:
  * paths are left-continuous: the value at a breakpoint is the left
    segment's, and a jump is a right-jump, the right segment's value there
    minus the left one's;
  * vector norms are Euclidean, matrix norms are the operator 2-norm;
  * a window is a finite closed interval [c, d].
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_QUAD_TOL = 1e-10    # absolute tolerance of every adaptive quadrature
_QUAD_RTOL = 1e-12   # its relative tolerance
_QUAD_CELLS = 200    # most cells one adaptive quadrature bisects its window into

# Gauss-Legendre nodes and weights on [-1, 1] by node count, written out with
# the bits of numpy's ``leggauss`` (whose 5/9 reads 0.5555555555555557)
GAUSS_LEGENDRE = {
    3: (np.array([-0.7745966692414834, 0.0, 0.7745966692414834]),
        np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])),
    5: (np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                  0.5384693101056831, 0.906179845938664]),
        np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                  0.4786286704993663, 0.23692688505618928])),
}

# The 21-point Gauss-Kronrod pair of QUADPACK's qk21 (Piessens, de
# Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983) on
# [-1, 1]: the positive nodes x and their Kronrod weights in the order qk21
# adds the pair terms f(-x) + f(x), the five nodes of the 10-point Gauss rule
# first; then the Kronrod weight of the centre 0 and the Gauss weights of the
# five.  The other Kronrod nodes are the zeros of the Stieltjes polynomial
# E_11, the monic odd polynomial of degree 11 orthogonal to x^k P_10(x) for
# k <= 10 (Kronrod 1965), and each weight is the integral over [-1, 1] of
# its node's Lagrange basis polynomial.  Evaluated to 60 digits and rounded
# to double they give qk21's table.  The pair is exact on polynomials of
# degree 31 (K21) and 19 (G10).
KRONROD_21 = (
    np.array([0.9739065285171717, 0.8650633666889845, 0.6794095682990244,
              0.4333953941292472, 0.14887433898163122,
              0.9956571630258081, 0.9301574913557082, 0.7808177265864169,
              0.5627571346686047, 0.2943928627014602]),
    np.array([0.032558162307964725, 0.07503967481091996, 0.10938715880229764,
              0.13470921731147334, 0.14773910490133849,
              0.011694638867371874, 0.054755896574351995, 0.0931254545836976,
              0.12349197626206584, 0.14277593857706009]),
    0.1494455540029169,
    np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
              0.26926671930999635, 0.29552422471475287]))


class QuadratureError(RuntimeError):
    """Adaptive quadrature stopped above the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


def norm(value) -> float:
    """Euclidean norm for scalars/vectors, operator 2-norm for matrices."""
    a = np.asarray(value, dtype=float)
    if a.ndim <= 1:
        return float(np.linalg.norm(a))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def sorted_unique(a, return_inverse=False):
    """The sorted distinct entries of a 1-D array, or the distinct rows of a
    2-D one in lexicographic order, and with ``return_inverse`` the index of
    each entry (row) among them: ``np.unique(a)`` or ``np.unique(a, axis=0)``
    for data without NaN.  One sort and a neighbour mask; ``np.unique``
    itself reads ``numpy.ma``, an import a fresh process would pay for."""
    a = np.asarray(a)
    if a.ndim == 1 and not return_inverse:
        s = np.sort(a)
        new = np.empty(len(s), dtype=bool)
        new[:1] = True
        np.not_equal(s[1:], s[:-1], out=new[1:])
        return s[new]
    rows = a if a.ndim > 1 else a[:, None]
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    if not return_inverse:
        return a[order[new]]
    inverse = np.empty(len(s), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse


def plain(value):
    """A JSON-ready copy: arrays and numpy scalars become Python values,
    tuples become lists and infinities become the strings "inf"/"-inf"."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _check_window(window):
    c, d = float(window[0]), float(window[1])
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError("window endpoints must be finite, got %r" % (window,))
    if d < c:
        raise ValueError("window must satisfy c <= d, got %r" % (window,))
    return c, d


# ---------------------------------------------------------------------------
# smooth segments: polynomial part + named preset terms
# ---------------------------------------------------------------------------

_PRESET_KINDS = ("exp", "sin", "cos", "wcos", "wsin")


@dataclass(frozen=True)
class PresetTerm:
    """One named smooth term, ``amp * family(t; params)``.

    Families:
      exp   amp * e^{r t},            params = (r,),  r != 0
      sin   amp * sin(w t + p),       params = (w, p), w != 0
      cos   amp * cos(w t + p),       params = (w, p), w != 0
      wcos  amp * sum_{k<n} a^k cos(b^k pi t),  params = (a, b, n)
      wsin  amp * sum_{k<n} a^k sin(b^k pi t),  params = (a, b, n)

    The lacunary sums (wcos/wsin) give highly oscillatory but smooth test
    integrands; all five families are closed under d/dt and antiderivative.
    """

    kind: str
    amp: np.ndarray
    params: tuple

    def __post_init__(self):
        if self.kind not in _PRESET_KINDS:
            raise ValueError("unknown preset kind %r" % (self.kind,))
        object.__setattr__(self, "amp", np.asarray(self.amp, dtype=float))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "exp" and self.params[0] == 0.0:
            raise ValueError("exp preset needs a nonzero rate (use a constant)")
        if self.kind in ("sin", "cos") and self.params[0] == 0.0:
            raise ValueError("trig preset needs a nonzero frequency")

    def _scalar(self, ts):
        if self.kind == "exp":
            return np.exp(self.params[0] * ts)
        if self.kind == "sin":
            return np.sin(self.params[0] * ts + self.params[1])
        if self.kind == "cos":
            return np.cos(self.params[0] * ts + self.params[1])
        a, b, n = self.params
        ks = np.arange(int(n))
        trig = np.cos if self.kind == "wcos" else np.sin
        # summed elementwise over k, so a time's value is the same in any batch
        return sum((w * trig(f * ts) for w, f in zip(a ** ks, b ** ks * math.pi)),
                   np.zeros(np.shape(ts)))

    def eval(self, ts):
        """Values at an array of times; shape ``ts.shape + amp.shape``."""
        ts = np.asarray(ts, dtype=float)
        return np.multiply.outer(self._scalar(ts), self.amp)

    def scaled(self, c):
        return PresetTerm(self.kind, c * self.amp, self.params)

    def derivative(self):
        if self.kind == "exp":
            r = self.params[0]
            return PresetTerm("exp", r * self.amp, self.params)
        if self.kind == "sin":
            w = self.params[0]
            return PresetTerm("cos", w * self.amp, self.params)
        if self.kind == "cos":
            w = self.params[0]
            return PresetTerm("sin", -w * self.amp, self.params)
        a, b, n = self.params
        if self.kind == "wcos":
            return PresetTerm("wsin", -math.pi * self.amp, (a * b, b, n))
        return PresetTerm("wcos", math.pi * self.amp, (a * b, b, n))

    def antiderivative(self):
        if self.kind == "exp":
            r = self.params[0]
            return PresetTerm("exp", self.amp / r, self.params)
        if self.kind == "sin":
            w = self.params[0]
            return PresetTerm("cos", -self.amp / w, self.params)
        if self.kind == "cos":
            w = self.params[0]
            return PresetTerm("sin", self.amp / w, self.params)
        a, b, n = self.params
        if self.kind == "wcos":
            return PresetTerm("wsin", self.amp / math.pi, (a / b, b, n))
        return PresetTerm("wcos", -self.amp / math.pi, (a / b, b, n))


@dataclass(frozen=True)
class Segment:
    """A smooth map t -> value: polynomial coefficients plus preset terms.

    ``coeffs`` has shape ``(deg+1,) + value_shape`` with value
    ``sum_k coeffs[k] t^k``.
    """

    coeffs: np.ndarray
    terms: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1)
        object.__setattr__(self, "coeffs", c)
        for term in self.terms:
            if term.amp.shape != self.shape:
                raise ValueError("preset term shape %r does not match segment shape %r"
                                 % (term.amp.shape, self.shape))

    @property
    def shape(self):
        return self.coeffs.shape[1:]

    @staticmethod
    def constant(value):
        v = np.asarray(value, dtype=float)
        return Segment(v.reshape((1,) + v.shape))

    @staticmethod
    def polynomial(coeff_list):
        coeffs = np.stack([np.asarray(c, dtype=float) for c in coeff_list])
        return Segment(coeffs)

    @staticmethod
    def preset(kind, amp, params):
        term = PresetTerm(kind, amp, params)
        zero = np.zeros((1,) + term.amp.shape)
        return Segment(zero, (term,))

    def eval(self, ts):
        ts = np.asarray(ts, dtype=float)
        scalar_in = ts.ndim == 0
        if scalar_in:
            ts = ts.reshape(1)
        # elementwise Horner: a time's value has the same bits in any batch;
        # a scalar segment's coefficients as Python floats, which numpy
        # multiplies and adds faster than its own scalars
        shape = self.coeffs.shape[1:]
        coeffs = list(self.coeffs) if shape else self.coeffs.tolist()
        if len(coeffs) == 1:
            out = np.empty(ts.shape + shape)
            out[...] = coeffs[0]
        else:
            t = ts.reshape(ts.shape + (1,) * len(shape))
            out = coeffs[-1] * t
            out += coeffs[-2]
            for c in coeffs[-3::-1]:
                out *= t
                out += c
        for term in self.terms:
            out = out + term.eval(ts)
        return out[0] if scalar_in else out

    def value(self, t):
        return self.eval(float(t))

    @property
    def is_constant(self):
        return self.coeffs.shape[0] == 1 and not self.terms

    def derivative(self):
        k = self.coeffs.shape[0]
        if k == 1:
            dcoeffs = np.zeros((1,) + self.shape)
        else:
            scale = np.arange(1, k).reshape((k - 1,) + (1,) * len(self.shape))
            dcoeffs = self.coeffs[1:] * scale
        return Segment(dcoeffs, tuple(t.derivative() for t in self.terms))

    def antiderivative(self):
        k = self.coeffs.shape[0]
        scale = np.arange(1, k + 1).reshape((k,) + (1,) * len(self.shape))
        acoeffs = np.concatenate([np.zeros((1,) + self.shape), self.coeffs / scale])
        return Segment(acoeffs, tuple(t.antiderivative() for t in self.terms))

    def scaled(self, c):
        c = float(c)
        return Segment(c * self.coeffs, tuple(t.scaled(c) for t in self.terms))

    def plus(self, other):
        if other.shape != self.shape:
            raise ValueError("segment shapes differ: %r vs %r" % (self.shape, other.shape))
        ka, kb = self.coeffs.shape[0], other.coeffs.shape[0]
        k = max(ka, kb)
        coeffs = np.zeros((k,) + self.shape)
        coeffs[:ka] += self.coeffs
        coeffs[:kb] += other.coeffs
        return Segment(coeffs, self.terms + other.terms)

    def times_scalar_segment(self, other):
        """Product with a scalar-valued segment.

        Closed only when at least one factor is preset-free (polynomial); a
        preset times a non-constant factor leaves the representable class.
        """
        if other.shape != ():
            raise ValueError("multiplier segment must be scalar-valued")
        if other.is_constant:
            return self.scaled(float(other.coeffs[0]))
        if self.is_constant:
            const = self.coeffs[0]
            coeffs = np.multiply.outer(other.coeffs, const)
            terms = tuple(PresetTerm(t.kind, float(t.amp) * const, t.params)
                          for t in other.terms)
            return Segment(coeffs, terms)
        if self.terms or other.terms:
            raise NotImplementedError(
                "product of preset segments with non-constant factors is not representable")
        conv = np.zeros((self.coeffs.shape[0] + other.coeffs.shape[0] - 1,) + self.shape)
        for i in range(self.coeffs.shape[0]):
            for j in range(other.coeffs.shape[0]):
                conv[i + j] += self.coeffs[i] * float(other.coeffs[j])
        return Segment(conv)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

class PiecewisePath:
    """A regulated, piecewise-smooth, left-continuous path on the whole line.

    ``segments`` has one entry per open interval between consecutive
    breakpoint ``times`` plus the two unbounded ends (so ``len(segments) ==
    len(times) + 1``).  At a breakpoint the path takes the value of the
    segment on its left, and the segment on its right gives the right limit.
    """

    def __init__(self, segments, times=()):
        self.segments = tuple(segments)
        self.times = np.array(times, dtype=float)
        if len(self.segments) != len(self.times) + 1:
            raise ValueError("need len(segments) == len(times) + 1")
        self.shape = self.segments[0].shape
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("breakpoint times must be strictly increasing")
        for seg in self.segments:
            if seg.shape != self.shape:
                raise ValueError("all segments must share one value shape")
        for seg, t in zip(self.segments, self.times):
            if not np.all(np.isfinite(seg.value(t))):
                raise ValueError("non-finite breakpoint value at t=%g" % t)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value):
        return PiecewisePath([Segment.constant(value)])

    @staticmethod
    def polynomial(coeff_list):
        return PiecewisePath([Segment.polynomial(coeff_list)])

    @staticmethod
    def preset(kind, amp, params):
        return PiecewisePath([Segment.preset(kind, amp, params)])

    @staticmethod
    def from_segments(times, segments):
        """Stitch explicit segments (or constants) at the given breakpoint times."""
        segments = [s if isinstance(s, Segment) else Segment.constant(s) for s in segments]
        return PiecewisePath(segments, times)

    # -- evaluation ---------------------------------------------------------

    def segment_index(self, t, side=0):
        """Index of the segment governing t (side<0 left, >0 right of a bp)."""
        ts = self.times.tolist()
        if side <= 0:
            return bisect_left(ts, t)
        return bisect_right(ts, t)

    def __call__(self, t):
        """The value at t, which at a breakpoint is the left limit."""
        t = float(t)
        return self.segments[self.segment_index(t)].value(t)

    def sample(self, ts):
        """Batch evaluation; a breakpoint time gets its left limit."""
        ts = np.asarray(ts, dtype=float)
        if not len(self.times):
            return self.segments[0].eval(ts.ravel()).reshape(ts.shape + self.shape)
        flat = np.atleast_1d(ts)
        out = np.empty(flat.shape + self.shape)
        idx = np.searchsorted(self.times, flat, side="left")
        for seg_i in sorted_unique(idx.ravel()):
            mask = idx == seg_i
            out[mask] = self.segments[seg_i].eval(flat[mask])
        return out.reshape(ts.shape + self.shape)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if other.shape != self.shape:
            raise ValueError("path shapes differ: %r vs %r" % (self.shape, other.shape))
        times = sorted_unique(np.concatenate([self.times, other.times]))
        segments = []
        for i in range(len(times) + 1):
            lo = -math.inf if i == 0 else times[i - 1]
            hi = math.inf if i == len(times) else times[i]
            probe = _interior_point(lo, hi)
            sa = self.segments[self.segment_index(probe)]
            sb = other.segments[other.segment_index(probe)]
            segments.append(sa.plus(sb))
        return PiecewisePath(segments, times)


def _interior_point(lo, hi):
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


def running_integral(path, t0):
    """The continuous path t -> integral of ``path`` from t0 to t.

    Jumps of the integrand contribute nothing; the result has kinks (zero
    jumps) at the integrand's breakpoints.
    """
    t0 = float(t0)
    anti = [seg.antiderivative() for seg in path.segments]
    k = path.segment_index(t0)
    offsets = [np.zeros(path.shape) for _ in anti]
    offsets[k] = -anti[k].value(t0)
    for i in range(k + 1, len(anti)):
        t = path.times[i - 1]
        offsets[i] = offsets[i - 1] + anti[i - 1].value(t) - anti[i].value(t)
    for i in range(k - 1, -1, -1):
        t = path.times[i]
        offsets[i] = offsets[i + 1] + anti[i + 1].value(t) - anti[i].value(t)
    segments = [Segment(a.coeffs.copy(), a.terms).plus(Segment.constant(off))
                for a, off in zip(anti, offsets)]
    return PiecewisePath(segments, path.times)


# ---------------------------------------------------------------------------
# Stieltjes measures
# ---------------------------------------------------------------------------

class StieltjesMeasure:
    """A measure with an absolutely continuous density plus finitely many atoms.

    The induced distribution function is left-continuous (every atom is a
    right-jump), so an atom at ``a`` belongs to the window [a, b) and an atom
    at ``b`` does not.
    """

    def __init__(self, density: PiecewisePath, atoms=()):
        if density.shape != ():
            raise ValueError("measure density must be scalar-valued")
        self.density = density
        atoms = tuple((float(t), float(w)) for t, w in atoms)
        times = [t for t, _ in atoms]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing")
        self.atoms = atoms

    def atoms_in(self, lo, hi):
        """Atoms belonging to the window [lo, hi)."""
        return [(t, w) for t, w in self.atoms if lo <= t < hi]

    def variation(self, window):
        """|mu|([c, d)): the integral of |density| plus the atoms in [c, d)."""
        atoms = sum(abs(w) for _, w in self.atoms_in(*window))
        return norm_integral(window, self.density, (self.density,), atoms,
                             "measure variation")

    @cached_property
    def _cumulative(self):
        """The density's running integral from 0, the atom times and the
        running sums of the atom weights (0 first), built once."""
        weights = np.cumsum([0.0] + [w for _, w in self.atoms])
        return running_integral(self.density, 0.0), \
            np.array([t for t, _ in self.atoms]), weights

    def cell_masses(self, nodes):
        """mu([t_{j-1}, t_j)) for consecutive entries of the array ``nodes``:
        u(t_j) - u(t_{j-1}) for the left-continuous distribution u, so an
        atom at t_{j-1} counts and one at t_j does not, as in ``atoms_in``.
        u is sampled once per node, its density part and its atom part
        apart, and the two differences are added."""
        dens, times, weights = self._cumulative
        D = dens.sample(nodes)
        W = weights[np.searchsorted(times, nodes, side="left")]
        return (D[1:] - D[:-1]) + (W[1:] - W[:-1])


# dt: the driving measure of a forcing that is given no other
LEBESGUE = StieltjesMeasure(PiecewisePath.constant(1.0))


# ---------------------------------------------------------------------------
# tagged divisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaggedDivision:
    """Finite nodes c = t_0 <= ... <= t_m = d with a tag in every subinterval."""

    nodes: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        tags = np.asarray(self.tags, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "tags", tags)
        if len(nodes) != len(tags) + 1:
            raise ValueError("need len(nodes) == len(tags) + 1")
        # t_{j-1} <= tag_j <= t_j for every cell orders the nodes as well, and
        # a NaN fails it; with finite ends, every node and tag is finite
        lo, hi = nodes[:-1], nodes[1:]
        if (math.isfinite(nodes[0]) and math.isfinite(nodes[-1])
                and (lo <= tags).all() and (tags <= hi).all()):
            return
        if not (np.isfinite(nodes).all() and np.isfinite(tags).all()):
            raise ValueError("division nodes and tags must be finite")
        if (hi < lo).any():
            raise ValueError("division nodes must be weakly increasing")
        raise ValueError("every tag must lie in its subinterval")


# ---------------------------------------------------------------------------
# norm integrals
# ---------------------------------------------------------------------------

def _kronrod_cells(f, lo, hi):
    """K21 over each cell [lo_i, hi_i] and qk21's error estimate there, from
    one call of ``f`` at the 21 nodes of every cell; each sum is added in
    qk21's order, so a cell's K21 has the bits of QUADPACK's.  Per component
    |K21 - G10| becomes resasc min(1, 200 |K21 - G10| / resasc)^1.5, at
    least 50 eps resabs (resasc and resabs the K21 integrals of
    |f - K21 / (b - a)| and |f|), and a cell's estimate is its norm."""
    x, wk, wc, wg = KRONROD_21
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    step = np.multiply.outer(half, x)
    ts = np.concatenate([centre[:, None], centre[:, None] - step,
                         centre[:, None] + step], axis=1)
    v = np.asarray(f(ts.ravel()), dtype=float)
    v = v.reshape(ts.shape + v.shape[1:])
    pairs = v[:, 1:11] + v[:, 11:]
    kron, gauss = wc * v[:, 0], 0.0
    for j in range(10):
        kron = kron + wk[j] * pairs[:, j]
        if j < 5:
            gauss = gauss + wg[j] * pairs[:, j]
    half = half.reshape((-1,) + (1,) * (v.ndim - 2))
    w = np.concatenate([[wc], wk, wk]).reshape((1, 21) + (1,) * (v.ndim - 2))
    fl, diff = np.finfo(float), np.abs(kron - gauss) * half
    resasc = np.sum(w * np.abs(v - 0.5 * kron[:, None]), axis=1) * half
    scaled = resasc * np.minimum(1.0, 200.0 * diff / np.maximum(resasc, fl.tiny)) ** 1.5
    err = np.maximum(scaled, 50.0 * fl.eps * np.sum(w * np.abs(v), axis=1) * half)
    return kron * half, np.linalg.norm(err.reshape(len(lo), -1), axis=1)


def gauss_kronrod(f, a, b):
    """The integral of ``f`` over [a, b] and its error estimate, by the
    ``KRONROD_21`` pair with global adaptive bisection.

    ``f`` maps a 1-D array of times to the stacked integrand values there.
    A cell's estimate is qk21's (``_kronrod_cells``).  While the estimates
    sum to more than max(_QUAD_TOL, _QUAD_RTOL |integral|), the cell with the
    largest one is halved, both halves sampled in one call, up to
    ``_QUAD_CELLS`` cells.  Returns the sum over the cells and the summed
    estimate; the caller judges a miss (``check_quadrature``).
    """
    edges = np.array([a, b], dtype=float)
    vals, errs = _kronrod_cells(f, edges[:-1], edges[1:])
    while len(errs) < _QUAD_CELLS and not (
            errs.sum() <= max(_QUAD_TOL, _QUAD_RTOL * norm(vals.sum(axis=0)))):
        i = int(np.argmax(errs))
        edges = np.insert(edges, i + 1, 0.5 * (edges[i] + edges[i + 1]))
        v, e = _kronrod_cells(f, edges[i:i + 2], edges[i + 1:i + 3])
        vals = np.concatenate([vals[:i], v, vals[i + 1:]])
        errs = np.concatenate([errs[:i], e, errs[i + 1:]])
    return vals.sum(axis=0), float(errs.sum())


def quadrature_miss(size):
    """max(100 tol, 1e-8 (1 + size)): what a quadrature of size may miss by."""
    return max(100 * _QUAD_TOL, 1e-8 * (1.0 + size))


def check_quadrature(err, size, what):
    """The one quadrature-miss rule: ``QuadratureError`` (naming ``what``) when
    the error ``err`` exceeds ``quadrature_miss(size)`` or is not a number."""
    if not err <= quadrature_miss(size):
        raise QuadratureError("%s quadrature achieved only %.3e" % (what, err), err)


def constant_on(paths, t):
    """The one constant-cell rule: every path's segment at t (the left one
    at a breakpoint) is constant."""
    return all(p.segments[p.segment_index(t)].is_constant for p in paths)


def norm_integral(window, g, paths, jumps, what):
    """Integral of ||g(t)|| over the window [c, d], plus ``jumps``, the
    variation that jumps add; ``what`` names the integral in errors.

    ``g`` is a function of time built from the coefficient ``paths``, and
    the window is cut at every breakpoint of theirs inside it.  A cell on
    which ``constant_on`` holds contributes ``norm(g(mid)) * (b - a)``
    exactly; every other cell is integrated by ``gauss_kronrod``, the norms
    at a cell's 21 nodes taken in one stacked call, and the worst cell error
    goes through ``check_quadrature``.
    """
    def node_norms(ts):
        v = np.array([g(t) for t in ts.tolist()], dtype=float)
        if v.ndim > 2:
            return np.linalg.svd(v, compute_uv=False)[:, 0]
        return np.linalg.norm(v.reshape(len(v), -1), axis=1)

    c, d = _check_window(window)
    cuts = sorted({c, d} | {t for p in paths for t in p.times.tolist() if c < t < d})
    total = 0.0
    worst_err = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        if constant_on(paths, mid):
            total += norm(g(mid)) * (b - a)
            continue
        val, err = gauss_kronrod(node_norms, a, b)
        total += float(val)
        worst_err = max(worst_err, err)
    total += jumps
    check_quadrature(worst_err, abs(total), what)
    return total
