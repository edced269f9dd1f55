"""Linear system data, the fundamental operator and the regularity constants.

A system is a smooth coefficient matrix A(t) plus two optional jump sources:
impulses (t_i, B_i) that reset the state through Id + B_i, and a driving
measure (C, u) whose atoms reset it through Id + C(t) * du({t}) while its
density adds C(t) * density(t) to the smooth generator.

The fundamental operator V(t, s) is realized by the product formula: smooth
propagation between consecutive mesh nodes (the numpy ``expm`` below on
constant cells, scipy's adaptive order-8 integrator otherwise) interleaved
with the jump factors.  The operator holds its mesh as one stacked store:
jump factors and inverses per node, propagators and both mesh steps per cell.
The projection family, the fast kernels, ``value``, the reference oracle and
the regularity constants C_a and V_Lambda (``check_regularity``) all read it;
no accumulated coefficient path is built.
Solutions are stored left-continuous: the factor at a jump time applies when
propagating past it, so V(t, s) includes the factors at times in [s, t) and
V(t, t) = Id exactly.  The mesh is the only code that matches times: one
radius per mesh, from its window and grid step, and ``node_index`` to
resolve jumps, atoms, kinks and base times to nodes.

Accuracy note: the product formula itself is well conditioned; what limits a
long horizon is the projection family conjugated along it, whose roundoff
grows like exp(2 alpha t) and swamps it near 2 alpha T = -log(eps) (see
``LPContext._projections``, which refuses such a family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .funcspace import PiecewisePath, StieltjesMeasure, norm_integral

_TIME_TOL = 1e-11     # match radius per unit of the window's magnitude,
_STEP_FRAC = 1e-3     # capped at this fraction of the grid step
_ODE_TOL = 1e-12      # rtol and atol of the smooth one-step integrator
_QUAD_NODES = 3       # Gauss-Legendre nodes per mesh cell


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use."""
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


# Pade-13 coefficients (13 choose k) (26 - k)! / 26!, scaled to a unit
# constant so that zero maps to Id exactly, and the 1-norm below which degree
# 13 needs no scaling (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), tab. 2.3)
_PADE13 = [math.comb(13, k) / math.perm(26, k) for k in range(14)]
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential of one (n, n) matrix or an (..., n, n) stack.

    Degree-13 Pade scaling and squaring (Higham 2005) with a scaling count
    per matrix; the squarings are masked per matrix, so every slice of a
    stacked call equals the one-matrix call bit for bit.
    """
    a = np.asarray(a, dtype=float)
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm1 / _THETA13, 1.0))).astype(int)
    a = a * np.exp2(-s)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s, initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


class PropagationError(RuntimeError):
    """The smooth one-step integrator missed its local tolerance."""


def _as_matrix(value, n):
    m = np.asarray(value, dtype=float)
    if m.shape != (n, n):
        raise ValueError("expected a (%d, %d) matrix, got shape %r" % (n, n, m.shape))
    return m


def _inverse_or_none(m):
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inv)):
        return None
    return inv


@dataclass(frozen=True)
class LinearSystemSpec:
    """Coefficients of one linear system.

    ``smooth`` is the matrix path A(t); ``impulses`` are (time, B) with
    strictly increasing times; ``measure_part`` is an optional (C, u) pair.
    Construction verifies every jump factor is invertible; the mesh refuses
    two jumps on one node (``FundamentalOperator``).
    """

    n: int
    smooth: PiecewisePath
    impulses: tuple = ()
    measure_part: tuple | None = None
    t0: float = 0.0

    def __post_init__(self):
        if self.smooth.shape != (self.n, self.n):
            raise ValueError("smooth part must be a (%d, %d) matrix path" % (self.n, self.n))
        imp = tuple((float(t), _as_matrix(B, self.n)) for t, B in self.impulses)
        times = [t for t, _ in imp]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("impulse times must be strictly increasing")
        object.__setattr__(self, "impulses", imp)
        if self.measure_part is not None:
            C, u = self.measure_part
            if C.shape != (self.n, self.n):
                raise ValueError("measure coefficient must be a matrix path")
            if not isinstance(u, StieltjesMeasure):
                raise ValueError("measure_part must be (PiecewisePath, StieltjesMeasure)")
        object.__setattr__(self, "t0", float(self.t0))
        for t, J in self.jump_events():
            if _inverse_or_none(J) is None:
                raise ValueError("jump factor Id + B or Id + C*du is singular "
                                 "at t=%g" % t)

    def jump_events(self):
        """Sorted (time, factor) pairs combining impulses and measure atoms."""
        events = [(t, np.eye(self.n) + B) for t, B in self.impulses]
        if self.measure_part is not None:
            C, u = self.measure_part
            events += [(t, np.eye(self.n) + C(t) * w) for t, w in u.atoms]
        events.sort(key=lambda e: e[0])
        return events

    def generator(self, t):
        """Effective smooth coefficient A(t) (+ C(t) * density(t))."""
        m = self.smooth(t)
        if self.measure_part is not None:
            C, u = self.measure_part
            m = m + C(t) * float(u.density(t))
        return m

    def generator_breakpoints(self):
        times = set(self.smooth.times.tolist())
        if self.measure_part is not None:
            C, u = self.measure_part
            times |= set(C.times.tolist()) | set(u.density.times.tolist())
        return times

    def generator_constant_on(self, lo, hi):
        mid = 0.5 * (lo + hi)

        def seg_const(path):
            return path.segments[path.segment_index(mid)].is_constant

        if not seg_const(self.smooth):
            return False
        if self.measure_part is not None:
            C, u = self.measure_part
            if not (seg_const(C) and seg_const(u.density)):
                return False
        return True


# ---------------------------------------------------------------------------
# fundamental operator
# ---------------------------------------------------------------------------

class _Cells(NamedTuple):
    """Per-cell propagators and the two mesh steps across each cell, each
    formed once, stacked along the mesh; row j is [x_j, x_{j+1}]."""

    phi: np.ndarray          # (M, n, n) Phi(x_{j+1}, x_j)
    phi_sig_inv: np.ndarray  # (M, Q, n, n) Phi(sigma_q, x_j)^{-1}
    fwd: np.ndarray          # (M, n, n) phi_j J_j = V(x_{j+1}, x_j)
    bwd: np.ndarray          # (M, n, n) J_j^{-1} phi_j^{-1} = V(x_j, x_{j+1})


class FundamentalOperator:
    """Mesh-cached realization of the solution operator V(t, s).

    The mesh contains the window endpoints, the grid lo + base_step k, every
    jump time inside the window, every breakpoint of the generator, and the
    reference time t0.  It is the one place that matches times: one
    ``radius`` per mesh, _TIME_TOL times the window's magnitude capped at
    _STEP_FRAC base_step, covers the rounding of input times of that size
    and stays far below the grid step.  A time within it of the node before
    it shares that node, ``node_index`` resolves any time within it of a
    node to that node; two jumps on one node, or a chain of close times
    wider than the radius, are refused.  The mesh is held as stacked arrays:
    ``jumps`` and ``jump_invs`` (N, n, n) carry the jump factor at each node
    (identity where nothing jumps, ``event_nodes`` indexes the others), and
    ``cells`` the propagators and mesh steps of each cell, filled on first
    use.  All are read-only.
    """

    def __init__(self, spec: LinearSystemSpec, window, base_step=0.1):
        self.spec = spec
        self.n = spec.n
        lo, hi = float(window[0]), float(window[1])
        if not 0.0 < base_step < math.inf:
            raise ValueError("base_step must be positive and finite, got %r"
                             % base_step)
        r = min(_TIME_TOL * max(1.0, abs(lo), abs(hi)), _STEP_FRAC * base_step)
        if not hi - lo > r:
            raise ValueError("window must have positive length")
        if not (lo <= spec.t0 <= hi):
            raise ValueError("reference time t0 must lie inside the window")
        self.window, self.radius = (lo, hi), r
        # a jump outside the window cannot act on V there
        events = [(t, J) for t, J in spec.jump_events() if lo <= t <= hi]
        inner = np.concatenate([
            lo + base_step * np.arange(1, math.ceil((hi - lo) / base_step)),
            [spec.t0, *(t for t, _ in events), *spec.generator_breakpoints()]])
        inner = np.sort(inner[(inner > lo + r) & (inner < hi - r)])
        nodes = np.concatenate([[lo], inner, [hi]])
        keep = np.concatenate([[True], np.diff(nodes) > r])
        self.nodes = nodes[keep]
        head = self.nodes[np.cumsum(keep) - 1]      # the node each time joins
        for i in np.flatnonzero(nodes - head > r):   # node_index would miss i
            raise ValueError("times %r and %r chain into one node wider than "
                             "the match radius %g" % (float(head[i]), float(nodes[i]), r))
        self._times = self.nodes.tolist()   # Python floats for scalar steps
        self._index = {t: i for i, t in enumerate(self._times)}
        self.event_nodes = self.node_index([t for t, _ in events])
        for i in np.flatnonzero(np.diff(self.event_nodes) == 0):
            # one node would keep only one of the two factors
            raise ValueError("jumps at t=%r and t=%r coincide"
                             % (events[i][0], events[i + 1][0]))
        self.jumps = np.tile(np.eye(self.n), (len(self.nodes), 1, 1))
        self.jump_invs = self.jumps.copy()
        if events:
            at = self.event_nodes
            self.jumps[at] = [J for _, J in events]
            self.jump_invs[at] = np.linalg.inv(self.jumps[at])
        for arr in (self.event_nodes, self.jumps, self.jump_invs):
            arr.flags.writeable = False
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
        a, b = self.nodes[:-1, None], self.nodes[1:, None]
        self._sigma = 0.5 * (a + b) + 0.5 * (b - a) * gl_nodes   # (cells, Q)
        self._weights = 0.5 * (b - a) * gl_weights
        self.i_t0 = self.node_index(spec.t0)

    # -- mesh lookup --------------------------------------------------------

    def _nearest(self, t):
        """For each time, the first node at or past t - radius (the last node
        if there is none) and whether it lies within the radius."""
        t = np.asarray(t, dtype=float)
        i = self.nodes[:-1].searchsorted(t - self.radius)
        return i, abs(self.nodes[i] - t) <= self.radius

    def node_index(self, t):
        """The node of a time, or an index array for an array of times;
        ``KeyError`` names the first time that is no node."""
        i, hit = self._nearest(t)
        if not hit.all():
            raise KeyError("time %r is not a mesh node"
                           % float(np.atleast_1d(t)[np.flatnonzero(~hit)[0]]))
        return int(i) if i.ndim == 0 else i

    # -- smooth propagation -------------------------------------------------

    def _propagate(self, a, b, t_eval=()):
        """Phi(t, a) for t in t_eval plus Phi(b, a), no jumps inside (a, b)."""
        n = self.n
        ts = list(t_eval) + [b]
        if self.spec.generator_constant_on(a, b):
            gen = self.spec.generator(0.5 * (a + b))
            return [expm(gen * (t - a)) for t in ts]

        def rhs(t, y):
            return (self.spec.generator(t) @ y.reshape(n, n)).ravel()

        sol = solve_ivp(rhs, (a, b), np.eye(n).ravel(), method="DOP853",
                        t_eval=np.asarray(ts), rtol=_ODE_TOL,
                        atol=_ODE_TOL, dense_output=False)
        if not sol.success:
            raise PropagationError("integrator failed on [%g, %g]: %s"
                                   % (a, b, sol.message))
        return [sol.y[:, k].reshape(n, n) for k in range(sol.y.shape[1])]

    @cached_property
    def cells(self) -> _Cells:
        """Propagators and mesh steps of every cell, filled on first use.

        Constant-generator cells are grouped by the segments of A, C and the
        density that hold their midpoints.  Each group evaluates its
        generator once and makes one stacked call of the numpy Pade ``expm``
        of this module over its distinct exact steps from the left node (the
        Gauss nodes and the cell end), then one stacked inverse.  Slices of a
        stacked ``expm``, ``inv`` or product are computed independently, so
        every entry equals its one-matrix value bit for bit.  Every other
        cell is integrated on its own, the only step that imports scipy.
        The steps multiply in the jump factors, one stacked product each.
        """
        spec, n = self.spec, self.n
        left, right = self.nodes[:-1], self.nodes[1:]
        M, Q = self._sigma.shape
        phi, phi_inv = np.empty((2, M, n, n))
        phi_sig_inv = np.empty((M, Q, n, n))
        mids = 0.5 * (left + right)
        paths = [spec.smooth]
        if spec.measure_part is not None:
            C, u = spec.measure_part
            paths += [C, u.density]
        seg = np.stack([np.searchsorted(p.times, mids) for p in paths], axis=1)
        const = np.all([np.array([sg.is_constant for sg in p.segments])[k]
                        for p, k in zip(paths, seg.T)], axis=0)
        js = np.flatnonzero(const)
        for key in np.unique(seg[js], axis=0):
            jg = js[np.all(seg[js] == key, axis=1)]
            a, b = left[jg, None], right[jg, None]
            steps = np.concatenate([self._sigma[jg] - a, b - a], axis=1)
            distinct, where = np.unique(steps, return_inverse=True)
            mats = expm(spec.generator(mids[jg[0]]) * distinct[:, None, None])
            where = where.reshape(steps.shape)
            inv = np.linalg.inv(mats)
            phi[jg], phi_inv[jg] = mats[where[:, -1]], inv[where[:, -1]]
            phi_sig_inv[jg] = inv[where[:, :-1]]
        for j in np.flatnonzero(~const).tolist():
            mats = self._propagate(left[j], right[j], t_eval=self._sigma[j])
            phi[j], phi_inv[j] = mats[-1], np.linalg.inv(mats[-1])
            phi_sig_inv[j] = np.linalg.inv(np.stack(mats[:-1]))
        fwd = phi @ self.jumps[:-1]
        bwd = self.jump_invs[:-1] @ phi_inv
        for arr in (phi, phi_sig_inv, fwd, bwd):
            arr.flags.writeable = False
        return _Cells(phi, phi_sig_inv, fwd, bwd)

    # -- queries ------------------------------------------------------------

    def value(self, t, s):
        """V(t, s); jump factors at times in [min, max) apply per direction.

        A step between adjacent nodes is the stored row ``cells.fwd[j]`` or
        ``cells.bwd[j]``, returned as a read-only view: copy it to modify.
        """
        t, s = float(t), float(s)
        j = self._index.get(s)
        if j is not None:
            if j + 1 < len(self._times) and t == self._times[j + 1]:
                return self.cells.fwd[j]
            if j > 0 and t == self._times[j - 1]:
                return self.cells.bwd[j - 1]
        if abs(t - s) <= self.radius:
            return np.eye(self.n)
        if t > s:
            return self._forward(s, t)
        back = self._forward(t, s)
        inv = _inverse_or_none(back)
        if inv is None:
            raise PropagationError("forward operator is numerically singular")
        return inv

    def _forward(self, s, t):
        """Product of factors from s up to t (s < t); a time within the
        radius of a node is at that node."""
        (i, k), (s_at, t_at) = self._nearest([s, t])
        lo, hi = self.window
        if (s < lo and not s_at) or (t > hi and not t_at):
            raise ValueError("query (%g, %g) outside window %r" % (t, s, self.window))
        out = np.eye(self.n)
        if not s_at:
            # i is the first node after s: the left partial cell ends there
            if t < self._times[i] or (t_at and k == i):
                return self._propagate(s, t)[0]
            out = self._propagate(s, self._times[i])[0]
        if not t_at:
            k -= 1      # the last node before t
        for c in range(i, k):
            out = self.cells.phi[c] @ (self.jumps[c] @ out)
        if not t_at:
            out = self._propagate(self._times[k], t)[0] @ (self.jumps[k] @ out)
        return out


# ---------------------------------------------------------------------------
# regularity report
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    C_a: float
    V_Lambda: float


def check_regularity(fund: FundamentalOperator) -> RegularityReport:
    """The constants of Lambda over the operator's window, from its mesh store.

    C_a bounds the inverse jump factors: max(1, max ||J^{-1}||) over the
    events in the window, either end included.  V_Lambda is the variation of
    Lambda: the integral of ||A + C density|| over the generator's pieces
    (exact where the generator is constant, quadrature elsewhere) plus
    ||J - Id|| for every event in [lo, hi); a jump at hi acts past the
    window.  An impulse at the reference time is refused: which side of t0
    it belongs to is ambiguous.  Atoms there are accepted.
    """
    spec, (lo, hi) = fund.spec, fund.window
    if fund.i_t0 in fund.node_index([t for t, _ in spec.impulses if lo <= t <= hi]):
        raise ValueError("impulse at the reference time t0=%g is ambiguous"
                         % spec.t0)
    ev = fund.event_nodes
    inv_norms = np.linalg.norm(fund.jump_invs[ev], 2, axis=(-2, -1))

    def generator(a, b):
        if spec.generator_constant_on(a, b):
            return spec.generator(0.5 * (a + b))
        return spec.generator

    inner = ev[ev < len(fund.nodes) - 1]
    jump_norms = np.linalg.norm(fund.jumps[inner] - np.eye(fund.n), 2, axis=(-2, -1))
    return RegularityReport(
        C_a=float(np.max(inv_norms, initial=1.0)),
        V_Lambda=norm_integral(fund.window, spec.generator_breakpoints(), generator,
                               float(np.sum(jump_norms)), "V_Lambda variation"))
