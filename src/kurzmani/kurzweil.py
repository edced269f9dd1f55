"""Two evaluators for gauge-limit (Kurzweil) and Perron-Stieltjes integrals.

``ks_integral_ref`` is the slow reference: it drives Riemann-type sums
K(V, D) = sum_j [V(tag_j, t_j) - V(tag_j, t_{j-1})] through a sequence of
divisions that halve a uniform fineness each round while forcing every known
atom time to be the tag of a private cell whose radius quarters; a round is
a few array passes, with one sample of the integrand per node and per tag.
``stieltjes_integral`` is the fast evaluator for the piecewise class: the
density part in closed form from the antiderivative of ``f * density``,
one per pair of segments (``funcspace.gauss_kronrod`` where a preset meets
a non-constant factor), plus explicit atom terms.  ``cross_check`` runs
both on the same data and is the standing validation that the fast
decomposition agrees with the defining limit.  Both refuse a non-finite
window and, over a reversed one, return minus the integral over [d, c].

Atom convention (used consistently everywhere): at a jump time of the
integrator the sum picks up f's left limit there times the full two-sided
jump; with left-continuous integrators that is the right jump, and an atom
at the left window endpoint counts while one at the right endpoint does not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (PiecewisePath, StieltjesMeasure, TaggedDivision,
                        check_quadrature, gauss_kronrod, norm)

_MAX_CELLS = 1 << 22
_MAX_ROUNDS = 18          # refinement rounds of the gauge-limit reference


class IntegrationError(RuntimeError):
    """The refinement sequence did not settle within the round limit."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


@dataclass
class IntegralResult:
    value: np.ndarray
    achieved_tolerance: float
    refinement_rounds: int


class PointIntervalFn:
    """A two-slot integrand V(tag, node) with its known atom times.

    ``batch(tags, nodes)`` returns the cell terms V(tag_j, t_j) -
    V(tag_j, t_{j-1}) of a whole division at once, stacked along axis 0, from
    its m tags and m + 1 nodes, so a node shared by two cells is sampled
    once; the forms below cover everything the solvers use:

    * ``node_function(f)``       V(tag, t) = f(t)
    * ``stieltjes_pair(f, mu)``  V(tag, t) = f(tag) * u(t), u the distribution
      of ``mu``: a cell term is f(tag) mu([a, b))
      (``StieltjesMeasure.cell_masses``)
    """

    def __init__(self, batch, atom_times=()):
        self._batch = batch
        self.atom_times = tuple(sorted(float(t) for t in atom_times))

    @classmethod
    def node_function(cls, f: PiecewisePath):
        def batch(tags, nodes):
            values = f.sample(nodes)
            return values[1:] - values[:-1]

        return cls(batch, atom_times=f.times)

    @classmethod
    def stieltjes_pair(cls, f: PiecewisePath, mu: StieltjesMeasure):
        def batch(tags, nodes):
            du = mu.cell_masses(nodes)
            return f.sample(tags) * du.reshape(du.shape + (1,) * len(f.shape))

        atoms = [t for t, _ in mu.atoms] + f.times.tolist()
        return cls(batch, atom_times=atoms)

    def k_sum(self, division: TaggedDivision):
        """The Riemann-type sum of this integrand over a tagged division;
        over a one-node division, the zero of the integrand's shape."""
        return self._batch(division.tags, division.nodes).sum(axis=0)


def pinned_division(window, atoms, radius, step) -> TaggedDivision:
    """Uniform cells of width <= step with each atom tagging its own cell.

    Every atom inside the window owns the cell [t - r, t + r] (clipped) with
    the atom as tag, r at most a quarter of d - c and of every gap between
    atoms; the gaps are filled uniformly with midpoint tags.  A gap's edges
    are ``np.linspace``'s arithmetic and bits, k (b - a) / n + a with b set
    last, without its per-call cost.
    """
    c, d = float(window[0]), float(window[1])
    atoms = sorted({t for t in atoms if c <= t <= d})
    limit = min([d - c, *(b - a for a, b in zip(atoms, atoms[1:]))]) / 4.0
    radius = min(radius, limit) if limit > 0 else radius
    nodes, pinned = [[c]], []

    def fill(a, b):
        if b <= a:
            return 0
        n = max(1, int(math.ceil((b - a) / step)))
        edges = np.arange(1.0, n + 1.0)
        edges *= (b - a) / n
        edges += a
        edges[-1] = b
        nodes.append(edges)
        return n

    cells = 0
    cursor = c
    for t in atoms:
        cells += fill(cursor, max(c, t - radius))
        cursor = min(d, t + radius)
        nodes.append([cursor])
        pinned.append(cells)
        cells += 1
    fill(cursor, d)
    nodes = np.concatenate(nodes)
    tags = 0.5 * (nodes[:-1] + nodes[1:])
    tags[pinned] = atoms
    return TaggedDivision(nodes, tags)


def ks_integral_ref(V: PointIntervalFn, window, tol=1e-9) -> IntegralResult:
    """Gauge-limit reference evaluation of ``V`` over a window.

    Round k uses uniform fineness ``(d - c) / 2**(k + 3)`` and pins every atom
    of ``V`` as the tag of a private cell whose radius quarters; the
    iteration stops when two successive sums differ by less than ``tol``.
    Where f jumps at an atom over a density, the pinned cell's tag misses
    the density on one half by about |jump| density r, so a radius that
    shrank only with the fineness would converge linearly.
    For d < c the value is minus the one over [d, c], as for
    ``stieltjes_integral``; over c = d it is the zero of the integrand's
    shape.  The window must be finite.
    """
    c, d = float(window[0]), float(window[1])
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError("window endpoints must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if d < c:
        res = ks_integral_ref(V, (d, c), tol)
        return IntegralResult(-res.value, res.achieved_tolerance, res.refinement_rounds)
    if d == c:
        return IntegralResult(np.asarray(V.k_sum(TaggedDivision([c], [])), dtype=float),
                              0.0, 0)
    atoms = sorted({t for t in V.atom_times if c <= t <= d})  # the same every round
    step = (d - c) / 8.0
    radius = step / 8.0
    previous = None
    diff = math.nan
    for k in range(_MAX_ROUNDS):
        division = pinned_division((c, d), atoms, radius, step)
        if len(division.tags) > _MAX_CELLS:
            raise IntegrationError("division grew past %d cells" % _MAX_CELLS,
                                   last_two=(previous, None))
        current = np.asarray(V.k_sum(division), dtype=float)
        if previous is not None:
            diff = norm(current - previous)
            if diff < tol:
                return IntegralResult(current, diff, k + 1)
        last_two = (previous, current)
        previous = current
        step *= 0.5
        radius *= 0.25
    raise IntegrationError("no convergence within %d rounds (last diff %.3e)"
                           % (_MAX_ROUNDS, diff), last_two=last_two)


def stieltjes_integral(f: PiecewisePath, mu: StieltjesMeasure, window):
    """Fast Perron-Stieltjes integral of ``f`` against ``d mu`` over [c, d].

    Splits at every breakpoint of ``f`` and of the density and at every atom.
    On each smooth cell the product ``f * density`` is a segment
    (``Segment.times_scalar_segment``), so the cell contributes
    ``anti(b) - anti(a)`` of its antiderivative exactly, formed once per
    pair of segments and evaluated at all its cells' ends in one call.  Only
    a preset times a non-constant factor leaves the segment class; such a
    cell is integrated by ``funcspace.gauss_kronrod``, and a miss raises
    ``QuadratureError`` (``check_quadrature``).  Finally adds f's left
    limit at the atom times its weight for each atom in [c, d), read in one
    ``f.sample``; the terms are added one by one in that order.
    """
    c, d = float(window[0]), float(window[1])
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError("window endpoints must be finite")
    if d < c:
        return -stieltjes_integral(f, mu, (d, c))
    density = mu.density
    breaks = [*f.times, *density.times, *(t for t, _ in mu.atoms)]
    cuts = sorted({c, d} | {t for t in breaks if c < t < d})
    # no breakpoint of f or the density lies inside a cell: both follow the
    # segment just right of its left end, so each pair of segments covers
    # one run of consecutive cells
    pairs = [(f.segment_index(a, side=+1), density.segment_index(a, side=+1))
             for a in cuts[:-1]]
    terms = []
    start = 0
    for (i, j), run in itertools.groupby(pairs):
        stop = start + len(list(run))
        ends = cuts[start:stop + 1]
        try:
            anti = f.segments[i].times_scalar_segment(density.segments[j]).antiderivative()
        except NotImplementedError:
            for a, b in zip(ends, ends[1:]):
                val, err = gauss_kronrod(lambda ts: f.sample(ts) * density.sample(ts).reshape(
                    ts.shape + (1,) * len(f.shape)), a, b)
                check_quadrature(err, norm(val), "density on [%g, %g]" % (a, b))
                terms.append(val)
        else:
            values = anti.eval(ends)
            terms += list(values[1:] - values[:-1])
        start = stop
    atoms = mu.atoms_in(c, d)
    if atoms:
        times, weights = np.array(atoms).T
        terms += list(weights.reshape((-1,) + (1,) * len(f.shape)) * f.sample(times))
    total = np.zeros(f.shape)
    for term in terms:
        total = total + term
    return total


@dataclass
class CrossCheckReport:
    fast_value: np.ndarray
    reference: IntegralResult
    difference: float
    tolerance_used: float
    passed: bool


def cross_check(f: PiecewisePath, mu: StieltjesMeasure | None, window,
                tol=1e-6) -> CrossCheckReport:
    """Run both evaluators on the same data and compare.

    With a measure the fast side is ``stieltjes_integral``; with ``mu`` None
    the integrand is the node-increment form V(tag, t) = f(t), whose fast
    value is the endpoint difference f(d) - f(c).  Either form asks the
    reference for min(tol / 10, 1e-8).  Passes iff the values
    differ by at most ``max(tol, 10 x achieved reference tolerance)``;
    reference non-convergence propagates.
    """
    if mu is None:
        fast = np.asarray(f(window[1]) - f(window[0]))
        V = PointIntervalFn.node_function(f)
    else:
        fast = np.asarray(stieltjes_integral(f, mu, window))
        V = PointIntervalFn.stieltjes_pair(f, mu)
    ref = ks_integral_ref(V, window, tol=min(tol / 10.0, 1e-8))
    difference = norm(fast - ref.value)
    tolerance = max(tol, 10.0 * ref.achieved_tolerance)
    return CrossCheckReport(fast, ref, difference, tolerance,
                            difference <= tolerance)
