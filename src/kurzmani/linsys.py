"""Linear system data, the fundamental operator and the regularity constants.

A system is a smooth coefficient matrix A(t) plus two optional jump sources:
impulses (t_i, B_i) that reset the state through Id + B_i, and a driving
measure (C, u) whose atoms reset it through Id + C(t) * du({t}) while its
density adds C(t) * density(t) to the smooth generator.

The jump factors and their inverses are formed once per system, in one
stacked call (``jump_table``, kept by ``LinearSystemSpec``).
The fundamental operator V(t, s) is realized by the product formula: smooth
propagation between consecutive mesh nodes (the numpy ``expm`` below on
constant cells, the adaptive order-8 integrator ``dop853`` below otherwise)
interleaved with the jump factors.  The operator holds its mesh as one
stacked store: jump factors and inverses per node, sliced from that table,
and propagators and both mesh steps per cell.
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

from .funcspace import (GAUSS_LEGENDRE, PiecewisePath, StieltjesMeasure,
                        constant_on, norm_integral, sorted_unique)

_TIME_TOL = 1e-11     # match radius per unit of the window's magnitude,
_STEP_FRAC = 1e-3     # capped at this fraction of the grid step
_ODE_TOL = 1e-12      # rtol and atol of the smooth one-step integrator
_QUAD_NODES = 3       # Gauss-Legendre nodes per mesh cell


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


# ---------------------------------------------------------------------------
# adaptive one-step integrator
# ---------------------------------------------------------------------------

def _tableau(rows, width):
    """A (len(rows), width) array from rows of {column: coefficient}."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


# The Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett and Wanner, Solving
# ODEs I, sec. II.5 and II.6).  Rows 0-11 of _DOP_A are the stages of a step
# and row 12 its 8th-order weights b; rows 13-15 are the extra stages of the
# 7th-order dense output, whose higher coefficients are the rows of _DOP_D.
# _DOP_E5 and _DOP_E3 weight the 5th- and 3rd-order error estimates.
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778])
_DOP_A = _tableau([
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138}], 16)
_DOP_D = _tableau([
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3}], 16)
_DOP_E5 = _tableau([
    {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
     6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
     8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
     10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}], 13)[0]
_DOP_B = _DOP_A[12, :12]
_DOP_E3 = np.append(_DOP_B, 0.0)
_DOP_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                        0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0   # step-size change per step
_ERR_EXP = -1 / 8                                    # error estimate of order 7


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t, y, f, t_end, rtol, atol):
    """Hairer's starting step (Solving ODEs I, sec. II.4)."""
    span = t_end - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((np.asarray(fun(t + h0, y + h0 * f)) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERR_EXP
    return min(100 * h0, h1, span)


def _stages(fun, t, y, h, K, rows):
    """Fill K[s] for s in ``rows`` from the stages before it."""
    for s in rows:
        K[s] = fun(t + _DOP_C[s] * h, y + np.dot(K[:s].T, _DOP_A[s, :s]) * h)


def _error_norm(K, h, scale):
    """Hairer's error measure h e5^2 / sqrt(e5^2 + 0.01 e3^2) of a step, for
    the RMS norms e5 and e3 of its 5th- and 3rd-order estimates over
    ``scale``."""
    e5 = np.linalg.norm(np.dot(K.T, _DOP_E5) / scale) ** 2
    e3 = np.linalg.norm(np.dot(K.T, _DOP_E3) / scale) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    return h * e5 / np.sqrt((e5 + 0.01 * e3) * len(scale))


def _dense_output(fun, t, h, y, y_new, K):
    """The 7th-order continuous extension on [t, t + h]: a function of one
    time or a 1-d array of times that returns the state or the states as
    rows.  Its three extra stages are formed on the first call."""
    coef = []

    def dense(ts):
        if not coef:
            _stages(fun, t, y, h, K, range(13, 16))
            dy = y_new - y
            coef.extend([dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]),
                         *(h * np.dot(_DOP_D, K))])
        x = ((np.asarray(ts, dtype=float) - t) / h)[..., None]
        out = np.zeros(x.shape[:-1] + y.shape)
        for i, c in enumerate(reversed(coef)):
            out += c
            out *= x if i % 2 == 0 else 1 - x
        return out + y

    return dense


def dop853(fun, t, y, t_end, rtol, atol):
    """The accepted steps of DOP853 for y' = fun(t, y) from t to t_end > t.

    Yields ``(t, y, dense)`` per step: its end time and state and its
    ``dense`` output (``_dense_output``).  Hairer's step control holds the
    RMS norm of each step's error estimate, relative to atol + rtol |y|,
    below one; a rejected step shrinks by at most _MIN_FACTOR and an
    accepted one grows by at most _MAX_FACTOR.  There is no step cap.  A
    step that cannot pass above 10 ulp of t, as when ``fun`` turns
    non-finite (a NaN error shrinks the step by _MIN_FACTOR), raises
    ``PropagationError``.
    """
    y = np.asarray(y, dtype=float)
    f = np.asarray(fun(t, y), dtype=float)
    h_abs = _initial_step(fun, t, y, f, t_end, rtol, atol)
    while t < t_end:
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise PropagationError("step size fell below %g at t=%r; the "
                                       "right-hand side may be non-finite"
                                       % (min_step, float(t)))
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K = np.empty((16, y.size))
            K[0] = f
            _stages(fun, t, y, h, K, range(1, 12))
            y_new = y + h * np.dot(K[:12].T, _DOP_B)
            K[12] = fun(t + h, y_new)
            err = _error_norm(K[:13], h, atol + np.maximum(abs(y), abs(y_new)) * rtol)
            if err < 1:
                break
            h_abs, rejected = h * max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP), True
        factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
        h_abs = h * (min(1.0, factor) if rejected else factor)
        yield t_new, y_new, _dense_output(fun, t, h, y, y_new, K)
        t, y, f = t_new, y_new, K[12]


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


class JumpTable(NamedTuple):
    """The jump factors of a system in time order and their inverses."""

    times: np.ndarray          # (E,) impulse and atom times, ascending
    factors: np.ndarray        # (E, n, n) Id + B, or Id + C(t) du({t}) at an atom
    inverses: np.ndarray       # (E, n, n), or the rows before ``singular_at``
    singular_at: float | None  # time of the first factor without a finite inverse


def jump_table(n, impulses, measure_part):
    """The ``JumpTable`` of impulses (t, B) and the atoms of a (C, u) pair,
    impulses first at a tie.  One stacked ``np.linalg.inv`` inverts every
    factor; only if it fails does a pass factor by factor locate the first
    singular one.  The arrays are read-only."""
    events = [(t, np.eye(n) + B) for t, B in impulses]
    if measure_part is not None:
        C, u = measure_part
        events += [(t, np.eye(n) + C(t) * w) for t, w in u.atoms]
    events.sort(key=lambda e: e[0])
    times = np.array([t for t, _ in events], dtype=float)
    factors = np.array([J for _, J in events], dtype=float).reshape(-1, n, n)
    try:
        inverses = np.linalg.inv(factors)
        ok = np.isfinite(inverses).all(axis=(-2, -1))
        k = len(ok) if ok.all() else int(np.argmin(ok))
    except np.linalg.LinAlgError:
        k = next(i for i, J in enumerate(factors) if _inverse_or_none(J) is None)
        inverses = np.linalg.inv(factors[:k])
    inverses = inverses[:k]
    for arr in (times, factors, inverses):
        arr.flags.writeable = False
    return JumpTable(times, factors, inverses, float(times[k]) if k < len(times) else None)


def inverse_bound(inverses):
    """max(1, max ||J^{-1}||) over a stack of inverse jump factors."""
    return float(np.max(np.linalg.norm(inverses, 2, axis=(-2, -1)), initial=1.0))


@dataclass(frozen=True)
class LinearSystemSpec:
    """Coefficients of one linear system.

    ``smooth`` is the matrix path A(t); ``impulses`` are (time, B) with
    strictly increasing times; ``measure_part`` is an optional (C, u) pair.
    Construction keeps their ``jump_table`` as ``jumps`` and refuses a
    singular factor; the mesh refuses two jumps on one node.  ``paths`` is
    the one list of the coefficient paths the generator is made of: A, then
    C and u's density when there is a measure part.
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
            object.__setattr__(self, "paths", (self.smooth, C, u.density))
        else:
            object.__setattr__(self, "paths", (self.smooth,))
        object.__setattr__(self, "t0", float(self.t0))
        jumps = jump_table(self.n, imp, self.measure_part)
        if jumps.singular_at is not None:
            raise ValueError("jump factor Id + B or Id + C*du is singular "
                             "at t=%g" % jumps.singular_at)
        object.__setattr__(self, "jumps", jumps)

    def generator(self, t):
        """Effective smooth coefficient A(t) (+ C(t) * density(t))."""
        m = self.smooth(t)
        if self.measure_part is not None:
            C, u = self.measure_part
            m = m + C(t) * float(u.density(t))
        return m

    def generator_breakpoints(self):
        return {t for p in self.paths for t in p.times.tolist()}

    def generator_constant_on(self, lo, hi):
        return constant_on(self.paths, 0.5 * (lo + hi))


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
        table = spec.jumps
        inside = (table.times >= lo) & (table.times <= hi)
        times = table.times[inside].tolist()
        inner = np.concatenate([
            lo + base_step * np.arange(1, math.ceil((hi - lo) / base_step)),
            [spec.t0, *times, *spec.generator_breakpoints()]])
        inner = np.sort(inner[(inner > lo + r) & (inner < hi - r)])
        nodes = np.concatenate([[lo], inner, [hi]])
        keep = np.concatenate([[True], np.diff(nodes) > r])
        self.nodes = nodes[keep]
        head = self.nodes[np.cumsum(keep) - 1]      # the node each time joins
        for i in np.flatnonzero(nodes - head > r):   # node_index would miss i
            raise ValueError("times %r and %r chain into one node wider than "
                             "the match radius %g" % (float(head[i]), float(nodes[i]), r))
        self.event_nodes = at = self.node_index(times)
        for i in np.flatnonzero(np.diff(at) == 0):
            # one node would keep only one of the two factors
            raise ValueError("jumps at t=%r and t=%r coincide" % (times[i], times[i + 1]))
        self.jumps = np.tile(np.eye(self.n), (len(self.nodes), 1, 1))
        self.jump_invs = self.jumps.copy()
        self.jumps[at], self.jump_invs[at] = table.factors[inside], table.inverses[inside]
        for arr in (self.event_nodes, self.jumps, self.jump_invs):
            arr.flags.writeable = False
        gl_nodes, gl_weights = GAUSS_LEGENDRE[_QUAD_NODES]
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
        """Phi(t, a) for t in t_eval plus Phi(b, a), no jumps inside (a, b):
        ``expm`` where the generator is constant, else the dense output of
        ``dop853``."""
        n = self.n
        ts = list(t_eval) + [b]
        if self.spec.generator_constant_on(a, b):
            gen = self.spec.generator(0.5 * (a + b))
            return [expm(gen * (t - a)) for t in ts]

        def rhs(t, y):
            return (self.spec.generator(t) @ y.reshape(n, n)).ravel()

        ts, out = np.asarray(ts), []
        for t, _, dense in dop853(rhs, a, np.eye(n).ravel(), b, _ODE_TOL, _ODE_TOL):
            k = ts.searchsorted(t, side="right")
            if k > len(out):
                out.extend(dense(ts[len(out):k]).reshape(-1, n, n))
        return out

    @cached_property
    def cells(self) -> _Cells:
        """Propagators and mesh steps of every cell, filled on first use.

        Constant-generator cells (``constant_on``'s rule, applied to every
        cell at once) are grouped by the segments of ``spec.paths`` that hold
        their midpoints.  Each group evaluates its
        generator once and makes one stacked call of the numpy Pade ``expm``
        of this module over its distinct exact steps from the left node (the
        Gauss nodes and the cell end), then one stacked inverse.  Slices of a
        stacked ``expm``, ``inv`` or product are computed independently, so
        every entry equals its one-matrix value bit for bit.  Every other
        cell is integrated on its own by ``dop853``.
        The steps multiply in the jump factors, one stacked product each.
        """
        spec, n = self.spec, self.n
        left, right = self.nodes[:-1], self.nodes[1:]
        M, Q = self._sigma.shape
        phi, phi_inv = np.empty((2, M, n, n))
        phi_sig_inv = np.empty((M, Q, n, n))
        mids = 0.5 * (left + right)
        seg = np.stack([np.searchsorted(p.times, mids) for p in spec.paths], axis=1)
        const = np.all([np.array([sg.is_constant for sg in p.segments])[k]
                        for p, k in zip(spec.paths, seg.T)], axis=0)
        js = np.flatnonzero(const)
        for key in sorted_unique(seg[js]):
            jg = js[np.all(seg[js] == key, axis=1)]
            a, b = left[jg, None], right[jg, None]
            steps = np.concatenate([self._sigma[jg] - a, b - a], axis=1)
            distinct, where = sorted_unique(steps.ravel(), return_inverse=True)
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
        """V(t, s); jump factors at times in [min, max) apply per direction."""
        t, s = float(t), float(s)
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
            if t < self.nodes[i] or (t_at and k == i):
                return self._propagate(s, t)[0]
            out = self._propagate(s, float(self.nodes[i]))[0]
        if not t_at:
            k -= 1      # the last node before t
        for c in range(i, k):
            out = self.cells.fwd[c] @ out
        if not t_at:
            out = self._propagate(float(self.nodes[k]), t)[0] @ (self.jumps[k] @ out)
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
    Lambda: the integral of ||A + C density|| over the pieces of
    ``spec.paths`` (``norm_integral``: exact on a cell where every path is
    constant, quadrature elsewhere) plus ||J - Id|| for every event in
    [lo, hi); a jump at hi acts past the window.  An impulse at the
    reference time is refused: which side of t0 it belongs to is ambiguous.
    Atoms there are accepted.
    """
    spec, (lo, hi) = fund.spec, fund.window
    if fund.i_t0 in fund.node_index([t for t, _ in spec.impulses if lo <= t <= hi]):
        raise ValueError("impulse at the reference time t0=%g is ambiguous"
                         % spec.t0)
    ev = fund.event_nodes
    inner = ev[ev < len(fund.nodes) - 1]
    jump_norms = np.linalg.norm(fund.jumps[inner] - np.eye(fund.n), 2, axis=(-2, -1))
    return RegularityReport(
        C_a=inverse_bound(fund.jump_invs[ev]),
        V_Lambda=norm_integral(fund.window, spec.generator, spec.paths,
                               float(np.sum(jump_norms)), "V_Lambda variation"))
