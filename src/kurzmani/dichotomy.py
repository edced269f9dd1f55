"""Hyperbolic splittings: projection families and exponential-rate envelopes.

The reference projection P0 at t0 either comes from the user, from the
spectrum of an autonomous (optionally periodically kicked) generator, or from
a singular-subspace heuristic over a finite horizon.  The spectral splitting
is P0 = (Id - sign(X)) / 2 by a scaled Newton iteration, X the generator or
the Cayley transform (M + Id)^{-1} (M - Id) of the one-period monodromy M
(from the numpy ``linsys.expm``); an empty side is exact 0 or Id.
One recurrence conjugates P0 along the operator, P(t) = V(t, t0) P0 V(t0, t),
by the stored mesh steps on the solver mesh (``projection_family``) and by
steps formed through ``value`` on a certification grid, which starts from P0
carried to its first time at or past t0 by one conjugation.  The two decay
inequalities

    ||V(t, s) P(s)||        <= K exp(-alpha (t - s)),   t >= s
    ||V(t, s) (Id - P(s))|| <= K exp(+alpha (t - s)),   t <  s

are certified by fitting the exact max-envelope over sampled pairs: both
families contribute constraints log N <= log K - alpha * |t - s|, the fitted
alpha is the largest one that raises the minimal envelope constant by at
most ``_FIT_SLACK`` (in closed form, no search), and K is the resulting
constant.  A uniform bound, not a regression.
``certify`` runs the whole chain on a built operator and returns
``DichotomyData(P0, K, alpha, report)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .funcspace import norm
from .linsys import (FundamentalOperator, LinearSystemSpec, PropagationError,
                     _inverse_or_none, expm)

log = logging.getLogger("kurzmani")

_IMAG_MARGIN = 1e-8
_IDEMPOTENCY_TOL = 1e-10   # ||P0^2 - P0|| accepted for a reference projection
_FIT_SLACK = 1e-9          # resolution in log K of the envelope fit
_ALPHA_CAP = 60.0          # largest decay rate the fit reports
_NEWTON_CAP = 100          # Newton steps allowed for a matrix sign
_SVD_HORIZON = 10.0        # flow horizon of the singular-subspace heuristic


class SplittingError(ValueError):
    """No admissible hyperbolic splitting."""


def _sign_split(x, k, how):
    """P = (Id - sign(x)) / 2 for ``x`` with ``k`` eigenvalues left of the
    imaginary axis and none on it; an empty side gives exact 0 or Id.
    Scaled Newton, stopped by Higham's quadratic-convergence test (*Functions
    of Matrices*, SIAM 2008, sec. 5.7) at n u.  One DEBUG record names the
    branch ``how``, the side ranks, the Newton steps and ||X^2 - Id||.
    """
    n = x.shape[0]
    eye = np.eye(n)
    eta = n * np.finfo(float).eps
    scaled, steps = True, 0
    if k in (0, n):
        x = eye if k == 0 else -eye
    else:
        for steps in range(1, _NEWTON_CAP + 1):
            inv = np.linalg.inv(x)
            mu = abs(np.linalg.det(x)) ** (-1.0 / n) if scaled else 1.0
            new = 0.5 * (mu * x + inv / mu)
            change, size = np.linalg.norm(new - x, 1), np.linalg.norm(new, 1)
            done = not scaled and change ** 2 <= eta * size / np.linalg.norm(inv, 1)
            scaled = scaled and change > 1e-2 * size
            x = new
            if done:
                break
        else:
            raise SplittingError("sign-function Newton iteration did not "
                                 "converge in %d steps" % _NEWTON_CAP)
    log.debug("spectral_projection: mode %s, stable rank %d, unstable rank %d, "
              "%d Newton steps, residual %.3g", how, k, n - k, steps,
              norm(x @ x - eye))
    return 0.5 * (eye - x)


def _validate_projection(P0):
    P0 = np.asarray(P0, dtype=float)
    if norm(P0 @ P0 - P0) > _IDEMPOTENCY_TOL:
        raise SplittingError("supplied matrix is not idempotent within %g"
                             % _IDEMPOTENCY_TOL)
    return P0


def spectral_projection(spec: LinearSystemSpec, P0=None):
    """Reference projection onto the contracting directions at ``spec.t0``.

    The data pick the branch, first match wins: a given ``P0`` is validated
    and passed through; an autonomous generator (no path of ``spec.paths``
    has a breakpoint) has its spectrum split, or, when the jump pattern is
    periodic and some jump lies at or after t0, that of the one-period
    monodromy V(t0 + p, t0), which starts with the flow to that first jump;
    anything
    else is split by the contracting right / expanding left singular
    directions of the flow over ``_SVD_HORIZON`` (a labeled heuristic for
    genuinely nonautonomous systems).  The ``autonomous`` and ``periodic``
    branches emit one DEBUG record on the ``kurzmani`` logger (see
    ``_sign_split``).

    Returns ``(P0, how)`` where ``how`` names the branch that produced P0:
    ``explicit``, ``autonomous`` (generator spectrum), ``periodic``
    (monodromy spectrum) or ``svd``.
    """
    t0 = spec.t0
    n = spec.n
    if P0 is not None:
        return _validate_projection(P0), "explicit"

    if not spec.generator_breakpoints() and spec.generator_constant_on(t0, t0):
        times, kicks = spec.jumps.times, spec.jumps.factors
        gen = spec.generator(t0)
        if not len(times):
            eig = np.linalg.eigvals(gen)
            if np.any(np.abs(eig.real) <= _IMAG_MARGIN):
                raise SplittingError(
                    "generator has an eigenvalue within %g of the imaginary axis"
                    % _IMAG_MARGIN)
            k = int(np.sum(eig.real < 0))
            return _sign_split(gen, k, "autonomous"), "autonomous"
        period = times[1] - times[0] if len(times) > 1 else None
        ahead = int(np.searchsorted(times, t0))   # first jump at or after t0
        if period is not None and ahead < len(times) \
                and np.allclose(np.diff(times), period, atol=1e-9) \
                and np.allclose(kicks, kicks[0], rtol=0.0, atol=1e-12):
            # V(t0 + p, t0): flow to the first jump, kick, flow the rest; a
            # jump at t0 itself (delta = 0) acts first
            delta = times[ahead] - t0
            mono = expm(gen * (period - delta)) @ kicks[0] @ expm(gen * delta)
            lam = np.linalg.eigvals(mono)
            if np.any(np.abs(np.abs(lam) - 1.0) <= _IMAG_MARGIN):
                raise SplittingError("monodromy eigenvalue within %g of the unit circle"
                                     % _IMAG_MARGIN)
            k = int(np.sum(np.abs(lam) < 1.0))
            cayley = np.linalg.solve(mono + np.eye(n), mono - np.eye(n))
            return _sign_split(cayley, k, "periodic"), "periodic"

    # singular-subspace heuristic over a finite horizon
    op = FundamentalOperator(spec, (t0 - _SVD_HORIZON, t0 + _SVD_HORIZON))
    fwd = op.value(t0 + _SVD_HORIZON, t0)
    _, sv_f, vt = np.linalg.svd(fwd)
    k = int(np.sum(sv_f < 1.0))
    if k == 0:
        return np.zeros((n, n)), "svd"
    if k == n:
        return np.eye(n), "svd"
    stable = vt[n - k:, :].T
    u_l, _, _ = np.linalg.svd(op.value(t0, t0 - _SVD_HORIZON))
    # projection onto the stable columns along the unstable ones
    return stable @ np.linalg.inv(np.hstack([stable, u_l[:, :n - k]]))[:k], "svd"


def _conjugate(P0, fwd, bwd, i0):
    """P_i on a chain from P_{i0} = P0 by the steps between neighbours:
    P_{i+1} = fwd[i] P_i bwd[i] forward, P_i = bwd[i] P_{i+1} fwd[i] back."""
    out = np.empty((len(fwd) + 1, *P0.shape))
    out[i0] = P0
    for i in range(i0, len(fwd)):
        out[i + 1] = fwd[i] @ out[i] @ bwd[i]
    for i in range(i0 - 1, -1, -1):
        out[i] = bwd[i] @ out[i + 1] @ fwd[i]
    return out


def _family_and_steps(op, P0, times):
    """P(x_i) = V(x_i, t0) P0 V(t0, x_i) at sorted times x in the window, and
    the stacks ``fwd[i]`` = V(x_{i+1}, x_i), each formed once by ``op.value``,
    and ``bwd[i]`` = V(x_i, x_{i+1}), their inverses in one stacked call (a
    singular or non-finite one raises ``PropagationError``).  The chain
    starts at x_{i0}, the first time at or past t0 (the last time if none
    is), from V(x_{i0}, t0) P0 V(t0, x_{i0})."""
    x, t0 = np.asarray(times, dtype=float), op.spec.t0
    i0 = min(int(np.searchsorted(x, t0)), len(x) - 1)
    fwd = np.array([op.value(b, a) for a, b in zip(x[:-1], x[1:])])
    bwd = _inverse_or_none(fwd)
    if bwd is None:
        raise PropagationError("forward operator is numerically singular")
    anchor = op.value(x[i0], t0) @ P0 @ op.value(t0, x[i0])
    return _conjugate(anchor, fwd, bwd, i0), fwd, bwd


def projection_family(op: FundamentalOperator, P0):
    """P(x_i) = V(x_i, t0) P0 V(t0, x_i) on every mesh node: P0 at the node
    of t0, conjugated both ways by the stored ``op.cells.fwd`` and
    ``op.cells.bwd``, with no ``value`` call and no inverse."""
    cells = op.cells
    return _conjugate(np.asarray(P0, dtype=float), cells.fwd, cells.bwd, op.i_t0)


@dataclass
class DichotomyReport:
    dichotomy_detected: bool
    samples: list = field(default_factory=list)   # (separation, log N, t, s, side)
    witness: tuple | None = None
    projection_mode: str | None = None   # spectral_projection branch behind P0


@dataclass
class DichotomyData:
    """Certified splitting: reference projection, constants and the report."""

    P0: np.ndarray
    K: float
    alpha: float
    report: DichotomyReport

    def __post_init__(self):
        self.P0 = _validate_projection(self.P0)


def fit_envelope(seps, logs):
    """Largest alpha whose uniform envelope constant stays minimal.

    c(alpha) = max(log N + alpha * sep) is convex nondecreasing (all
    separations are >= 0), and c(alpha) <= c(0) + ``_FIT_SLACK`` holds
    while alpha <= (c(0) + _FIT_SLACK - log N) / sep for every sample with
    sep > 0.  The fit returns the least of these bounds, capped at
    ``_ALPHA_CAP``, and c at it (a few ulps may remain): ``(alpha, log K)``.
    """
    seps = np.asarray(seps, dtype=float)
    logs = np.asarray(logs, dtype=float)
    moving = seps > 0
    bounds = (np.max(logs) + _FIT_SLACK - logs[moving]) / seps[moving]
    alpha = float(np.min(bounds, initial=_ALPHA_CAP))
    return alpha, float(np.max(logs + alpha * seps))


def verify_dichotomy(op: FundamentalOperator, P0, grid):
    """Sample both decay families on a grid and fit (K, alpha).

    Returns ``(K, alpha, report)``.  The stable family includes
    t = s; the unstable family is sampled strictly at t < s.  A side of rank
    zero (round(trace P0) is 0 or n) has no family: its samples would be
    roundoff, which the backward chain can blow up past the true bound.
    The separation-d samples of a side are one stacked product of the grid
    steps per diagonal, and their 2-norms one stacked call; the report lists
    them by s: stable t ascending, the unstable limit, unstable t descending.
    A fitted alpha at or below 1e-6 flags "no dichotomy detected" in the
    report instead of raising (a flat system fits only a vanishing rate).
    A grid without two distinct times raises ``ValueError``, as does a
    time outside the window (``certify`` drops those).
    """
    grid = np.asarray(sorted(grid), dtype=float)
    if not grid.size or grid[-1] - grid[0] <= op.radius:
        raise ValueError("the certification grid needs two distinct times in "
                         "the window [%g, %g]" % op.window)
    P0 = _validate_projection(P0)
    rank = int(round(float(np.trace(P0))))
    fam, fwd, bwd = _family_and_steps(op, P0, grid)
    G, at = len(grid), np.arange(len(grid))
    mats, keys = [], []   # per diagonal: sample matrices, their (s, t, side)
    if rank > 0:
        X = fam
        for d in range(G):
            if d:
                X = fwd[d - 1:] @ X[:-1]
            mats.append(X)
            keys.append(np.broadcast_arrays(at[:G - d], at[d:], 0))
    if rank < op.n:
        # t -> s^- limit of the backward bound forces K >= ||Id - P(s)||;
        # recorded as a zero-separation constraint (side 1), not a t = s sample
        Y = np.eye(op.n) - fam
        for d in range(G):
            if d:
                Y = bwd[:G - d] @ Y[1:]
            mats.append(Y)
            keys.append(np.broadcast_arrays(at[d:], at[:G - d], 2 if d else 1))
    s_at, t_at, side = np.concatenate(keys, axis=1)
    order = np.lexsort((np.where(side == 0, t_at, -t_at), side, s_at))
    s_at, t_at, side = s_at[order], t_at[order], side[order]
    norms = np.linalg.norm(np.concatenate(mats)[order], 2, axis=(-2, -1)).tolist()
    # a steep contraction can underflow to 0, which has no log: drop it
    samples = [(sep, math.log(v), t, s, ("stable", "unstable-limit", "unstable")[c])
               for sep, v, t, s, c in zip(
                   np.abs(grid[t_at] - grid[s_at]).tolist(), norms,
                   grid[t_at].tolist(), grid[s_at].tolist(), side.tolist())
               if v > 1e-250]
    seps, logs = np.array([x[:2] for x in samples]).T
    alpha, logK = fit_envelope(seps, logs)
    iworst = int(np.argmax(logs + alpha * seps))
    report = DichotomyReport(dichotomy_detected=alpha > 1e-6, samples=samples,
                             witness=samples[iworst][2:])
    return math.exp(logK), alpha, report


def certify(op: FundamentalOperator, grid=None, P0=None) -> DichotomyData:
    """Construct P0 for the operator's system, fit the envelope, package both.

    The default grid is 21 points on [lo, min(hi, lo + 10)] of the operator
    window; grid points outside the window are dropped.
    """
    lo, hi = op.window
    if grid is None:
        grid = np.linspace(lo, min(hi, lo + 10.0), 21)
    grid = np.asarray([g for g in grid if lo <= g <= hi])
    proj, how = spectral_projection(op.spec, P0)
    K, alpha, report = verify_dichotomy(op, proj, grid)
    report.projection_mode = how
    return DichotomyData(P0=proj, K=K, alpha=alpha, report=report)
