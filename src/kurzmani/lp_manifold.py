"""Stable-manifold computation by contraction on a discretized path space.

The solver iterates the integral operator

    (J_zeta z)(t) = V(t, s) zeta
                    + int_s^t  V(t, sigma) P(sigma)        dN_z(sigma)
                    - int_t^T  V(t, sigma) (Id - P(sigma)) dN_z(sigma)

on mesh-sampled paths, where dN_z = f(t, z(t)) du(t) accumulates the
(cutoff) nonlinearity against its one driving measure u: Lebesgue measure
(du = dt) for impulsive systems, the driver (density plus atoms) for
measure-driven ones, with no branch between the two.  Atoms that
sit exactly at the evaluation time t belong to the unstable-side integral, so
iterates stay left-continuous like the solutions they approximate.  The fixed
point phi yields the graph value m(s, zeta) = phi(s) - zeta in the unstable
directions.

The fast mode evaluates both integrals as affine recurrences over the mesh
cells: forward from s with the propagators F~_k = V(x_{k+1}, x_k) P(x_k) and
backward from T with G~_k = V(x_k, x_{k+1}) (Id - P(x_{k+1})).  The backward
one, reversed, follows the forward one in a single 2M-row sequence, and one
Hillis-Steele inclusive prefix scan (Blelloch, "Prefix sums and their
applications", 1990) runs both: log2(M) levels of stored products, so an
application is a few stacked products with no Python loop over cells.  The
projections change nothing in exact arithmetic (P(x_{k+1}) F_k = F_k P(x_k)),
but they make every stored product a dichotomy-bounded propagator, norm <= K.
A solve iterates a batch of anchors (sample axis last) with one application
per iteration for all unconverged samples; each sample keeps its own
convergence test, ratio history and error, and ``solve_lp`` is a batch of one.

A second, much slower evaluation path implements the operator literally as

    V(t,s) P(s) zeta + int_s^t DF
        - int_s^t d_sigma[V(t,sigma) P(sigma)]        int_s^sigma DF
        + int_t^T d_sigma[V(t,sigma) (Id - P(sigma))] int_s^sigma DF

with the inner accumulation built from gauge-style sums (atom times pinned as
tags) and the outer Stieltjes sums taken against the sampled matrix paths on
successively refined subdivisions of the solver mesh.  Refinement doubles
until two passes agree to ``max(tol, 1e-9)``, or until the Richardson
extrapolates (4 v_2r - v_r) / 3 of the last three passes agree to it while
the plain change fell by about 4 (``_H2_FALL``), as an O(h^2) error does;
it then returns the newer extrapolate.  Reaching ``_MAX_REFINE`` raises
``SolveError``.  A pass (``_reference_pass``) sweeps the fine cells once
downward for the stable sum and once upward for the unstable one, each
sweep carrying the stack of every output node it has passed (row o holds
P(x_o) V(x_o, sigma), or (Id - P(x_o)) V(x_o, sigma)), so each output sees
the products and sums of a sweep restarted from it, in the same order.
From the initial path the shipped configs stop after the refine-8 pass; a
full-size apply (M = 400) takes about 0.55 s on the impulsive saddle on a
2-core x86 machine with one BLAS thread.  Agreement
of the two modes is the standing certificate for the reduced form.

Truncation: the dropped unstable tail beyond T is bounded by
K * exp(-alpha (T - t)) * 2 V_h and T is chosen (or must be supplied) so this
sits below the solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dichotomy import DichotomyData, SplittingError, projection_family
from .funcspace import (GAUSS_LEGENDRE, LEBESGUE, StieltjesMeasure, norm,
                        sorted_unique)
from .linsys import (FundamentalOperator, PropagationError, check_regularity,
                     dop853, expm)

_RANGE_TOL = 1e-10
_IDEMPOTENCY_TOL = 1e-8
_MAX_ITER = 80        # fixed-point iterations of one solve
_REFINE0 = 2          # first subdivision of a cell in the reference apply
_MAX_REFINE = 32      # finest subdivision the reference apply tries
_H2_FALL = (3.5, 4.5)  # plain-change ratio per doubling that Richardson trusts


class NonContractionError(RuntimeError):
    """Iterate differences stopped shrinking."""

    def __init__(self, message, ratio_history=()):
        super().__init__(message)
        self.ratio_history = list(ratio_history)


class SolveError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# nonlinearity registry: each function sweeps the (n, N) component rows of its
# states elementwise, never with a BLAS kernel (whose blocking depends on N),
# so a point's value has the same bits in any batch
# ---------------------------------------------------------------------------

def _component_sum(a, b):
    """sum_j a[j] * b[j] over the leading (component) axis, elementwise, in
    the order numpy's einsum adds fewer than 8 terms (even and odd components
    in two lanes, then the lanes; a zero sum is +0), so with einsum's bits in
    any batch.  A length-1 component axis broadcasts; other lengths raise."""
    n = max(len(a), len(b))
    if min(len(a), len(b)) not in (1, n):
        raise ValueError("%d components against %d" % (len(a), len(b)))
    lanes = [a[j % len(a)] * b[j % len(b)] for j in range(min(n, 2))] + [0.0]
    for j in range(2, n):
        lanes[j % 2] += a[j % len(a)] * b[j % len(b)]
    lanes[0] += lanes[1]
    lanes[0] += 0.0
    return lanes[0]


class _Quadratic:
    """Component-wise quadratic forms, f_i(z) = z^T Q_i z, one i at a time."""

    def __init__(self, mats):
        self.mats = np.asarray(mats, dtype=float)
        self.n = self.mats.shape[0]
        self.shape = self.mats.shape        # (n, n, n) on R^n

    def __call__(self, z):
        x = z.reshape(-1, z.shape[-1]).T
        return np.array([_component_sum(x, _component_sum(Q.T[..., None], x[:, None]))
                         for Q in self.mats]).T.reshape(z.shape)

    def sup_bound(self, r):
        return r * r * math.sqrt(sum(norm(Q) ** 2 for Q in self.mats))

    def lip_bound(self, r):
        return 2.0 * r * math.sqrt(sum(norm(Q) ** 2 for Q in self.mats))


class _Cubic:
    """Diagonal cubics mixed by a coefficient matrix, f = C (z ** 3)."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)
        self.n = self.coef.shape[0]
        self.shape = self.coef.shape        # (n, n) on R^n

    def __call__(self, z):
        x = z.reshape(-1, z.shape[-1]).T ** 3
        return _component_sum(self.coef.T[..., None], x[:, None]).T.reshape(z.shape)

    def sup_bound(self, r):
        return norm(self.coef) * r ** 3

    def lip_bound(self, r):
        return 3.0 * norm(self.coef) * r ** 2


class _SaturatedTanh:
    """f = G tanh(z), componentwise tanh."""

    def __init__(self, gain):
        self.gain = np.asarray(gain, dtype=float)
        self.n = self.gain.shape[0]
        self.shape = self.gain.shape        # (n, n) on R^n

    def __call__(self, z):
        x = np.tanh(z.reshape(-1, z.shape[-1]).T)
        return _component_sum(self.gain.T[..., None], x[:, None]).T.reshape(z.shape)

    def sup_bound(self, r):
        n = self.gain.shape[1]
        return norm(self.gain) * min(r, math.sqrt(n))

    def lip_bound(self, r):
        return norm(self.gain)


class _Zero:
    def __init__(self, n):
        self.n = int(n)
        self.shape = (self.n, self.n)

    def __call__(self, z):
        return np.zeros(np.shape(z))

    def sup_bound(self, r):
        return 0.0

    def lip_bound(self, r):
        return 0.0


REGISTRY = {
    "quadratic": lambda params: _Quadratic(params["mats"]),
    "cubic": lambda params: _Cubic(params["coef"]),
    "saturated_tanh": lambda params: _SaturatedTanh(params["gain"]),
    "zero": lambda params: _Zero(params.get("n", 1)),
}


def _smooth_cutoff(r, rho):
    """C^1 bump: 1 on [0, rho], 0 on [2 rho, inf), |psi'| <= 1.5 / rho."""
    x = np.clip((np.asarray(r, dtype=float) - rho) / rho, 0.0, 1.0)
    return 1.0 - x * x * (3.0 - 2.0 * x)


class NonlinearitySpec:
    """A registry nonlinearity f(t, z), integrated against a driving measure.

    The forcing of the generalized ODE is F(z, t) = int f(sigma, z) du(sigma)
    for the driving ``measure`` u: Lebesgue measure (``LEBESGUE``, du = dt)
    when none is given, as for impulsive systems, or the driver of a
    measure-driven system, atoms included.  The registry functions vanish at
    z = 0, and outside radius ``rho`` the value is smoothly truncated so the
    global smallness hypotheses hold; the computed manifold is local to the
    ball of radius rho.  ``sup_eff`` and ``lip_eff`` bound the cutoff
    function and its Lipschitz constant, and their max, ``modulus``, bounds
    the forcing per unit of |u|.
    """

    def __init__(self, registry_id, params=None, rho=0.5, measure=None):
        self.registry_id = registry_id
        self.params = dict(params or {})
        self.rho = float(rho)
        if self.rho <= 0:
            raise ValueError("cutoff radius must be positive")
        if registry_id not in REGISTRY:
            raise KeyError("no registered nonlinearity %r" % registry_id)
        self._raw = REGISTRY[registry_id](self.params)
        if measure is not None and not isinstance(measure, StieltjesMeasure):
            raise ValueError("the driving measure must be a StieltjesMeasure")
        self.measure = LEBESGUE if measure is None else measure
        sup2 = self._raw.sup_bound(2 * self.rho)
        lip2 = self._raw.lip_bound(2 * self.rho)
        self.sup_eff = sup2
        self.lip_eff = lip2 + sup2 * 1.5 / self.rho
        self.modulus = max(self.sup_eff, self.lip_eff)
        zero = np.zeros(self._raw.n)
        if norm(self.value(0.0, zero)) != 0.0:
            raise ValueError("registry nonlinearity must vanish at z = 0")

    def require_dimension(self, n):
        """ValueError unless the registry parameters map R^n to R^n."""
        shape = self._raw.shape
        if shape != (n,) * len(shape):
            raise ValueError("nonlinearity %r maps R^%d to R^%d (parameters of shape "
                             "%r), but the system has n = %d"
                             % (self.registry_id, shape[-1], shape[0], shape, n))

    def value(self, t, z):
        """Cutoff nonlinearity; broadcasts over leading axes of z.  psi is 1 on
        |z| <= rho: a batch with sqrt(n) max |z_i| <= rho skips norm and psi."""
        z = np.asarray(z, dtype=float)
        f = self._raw(z)
        if math.sqrt(z.shape[-1]) * np.abs(z).max(initial=0.0) <= self.rho:
            return f
        psi = _smooth_cutoff(np.linalg.norm(z, axis=-1), self.rho)
        return f * psi[..., None] if z.ndim > 1 else float(psi) * f

    def v_h(self, window):
        """Variation of the accumulation modulus h over the window."""
        return self.modulus * self.measure.variation(window)

    def h_rate(self, window):
        """Sup of the absolutely continuous rate of h (for horizon choice)."""
        grid = np.linspace(window[0], window[1], 101)
        return self.modulus * float(
            np.max(np.abs(self.measure.density.sample(grid))))


# ---------------------------------------------------------------------------
# discretized paths and context
# ---------------------------------------------------------------------------

@dataclass
class SolutionPath:
    """Mesh-sampled path; left values everywhere plus right limits at jumps."""

    times: np.ndarray
    values: np.ndarray
    right_values: np.ndarray = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.right_values is None:
            self.right_values = self.values.copy()
        else:
            self.right_values = np.asarray(self.right_values, dtype=float)

    @property
    def sup_norm(self):
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def diff_sup(self, other):
        d = self.values - other.values      # sqrt is monotone: one, of the max
        return float(np.sqrt(np.max(np.einsum("ij,ij->i", d, d))))


def _canon_sign(B):
    B = B.copy()
    for j in range(B.shape[1]):
        i = int(np.argmax(np.abs(B[:, j])))
        if B[i, j] < 0:
            B[:, j] = -B[:, j]
    return B


def splitting_bases(P):
    """Orthonormal (sign-canonical) bases of range P and range (Id - P)."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    k = int(round(float(np.trace(P))))
    U, _, _ = np.linalg.svd(P)
    Bs = _canon_sign(U[:, :k]) if k > 0 else np.zeros((n, 0))
    U2, _, _ = np.linalg.svd(np.eye(n) - P)
    Bu = _canon_sign(U2[:, :n - k]) if n - k > 0 else np.zeros((n, 0))
    return Bs, Bu


def _mv(A, v, out=None):
    """Stacked products A[..., :, :] @ v[..., :, :] of matrices and columns.

    Mesh arrays of the fast operator keep the sample axis last, (M, n, S),
    so one stacked product serves a single path (S = 1) and a batch alike.
    """
    return np.einsum("...ij,...js->...is", A, v, out=out)


def _q_blocks(K):
    """(M, Q, n, n) per-node kernels as (M, n, Q n): one product per cell."""
    return np.concatenate(np.moveaxis(K, 1, 0), axis=-1)


def _stacked_norm(A):
    """Operator 2-norms of a stack of matrices; inf where an entry is not finite."""
    out = np.full(A.shape[0], np.inf)
    finite = np.all(np.isfinite(A), axis=(-2, -1))
    out[finite] = np.linalg.norm(A[finite], 2, axis=(-2, -1))
    return out


class _Kernels(NamedTuple):
    """Per-cell arrays of the fast operator, stacked along the mesh.

    Row k belongs to the cell [x_k, x_{k+1}]; ``J`` has one row per node.
    ``P+`` is J P J^{-1}, the projection just after the jump at x_k.  The
    rows of the one ``scan`` stack are the sweep propagators projected by
    the dichotomy, F~_k = F_k P(x_k) for k < M, then G~_k = G_k (Id - P(x_{k+1}))
    for k = M-1 .. 0, with F_k and G_k = F_k^{-1} slices of the mesh steps
    ``cells.fwd`` and ``cells.bwd``.  Row M, G~_{M-1}, multiplies I_M = 0,
    so it is zero, which keeps the stable sweep out of the unstable one.
    Level d multiplies 2^d rows, ending at its own.  A start at node i
    reads rows [i, 2M - i): the first 2 (M - i) left after dropping i.
    """

    sigma: np.ndarray       # (M, Q) quadrature times
    lam: np.ndarray         # (M, Q) their positions in the cell, in [0, 1]
    wq: np.ndarray          # (M, Q) quadrature weights times the density factor
    atom_w: np.ndarray      # (M,) nonlinearity atom weight at x_k
    J: np.ndarray           # (M+1, n, n) jump factor at each node
    F: np.ndarray           # (M, n, n) phi J: left value at x_k to x_{k+1}
    atom_s: np.ndarray      # (M, n, n) phi P+
    atom_u: np.ndarray      # (M, n, n) J^{-1} (Id - P+)
    K_stable: np.ndarray    # (M, n, Q n) V(x_{k+1}, sigma_q) P(sigma_q), q-blocks
    K_unstable: np.ndarray  # (M, n, Q n) V(x_k, sigma_q) (Id - P(sigma_q))
    scan: np.ndarray        # (2M, L, n, n) level d: rows k, k-1 .. k-2^d+1 multiplied


def _scan_levels(A):
    """Hillis-Steele level products of a stacked (2M, n, n) sequence: level
    d + 1 joins two level-d products 2^d rows apart and ends at its row.
    Returns (2M, L, n, n), the L levels of offset below M that ``_scan`` reads.
    """
    levels = np.empty((len(A), max(1, (len(A) // 2 - 1).bit_length())) + A.shape[1:])
    levels[:, 0] = A
    for d in range(1, levels.shape[1]):
        prev, o = levels[:, d - 1], 2 ** (d - 1)
        levels[:, d] = np.concatenate([prev[:o], prev[o:] @ prev[:-o]])
    return levels


def _scan(kern: _Kernels, c):
    """Inclusive scan of the affine recurrence u_k = A_k u_{k-1} + c_k over
    the ``scan`` rows, with zero before row 0; ``c`` is (M, n, S) or
    (2M, n, S) for the M cells of ``kern`` and is overwritten."""
    K, o, d = len(c), 1, 0
    while o < len(kern.F):
        c[o:] += _mv(kern.scan[o:K, d], c[:-o])
        o, d = 2 * o, d + 1
    return c


def _stable_sweep(kern: _Kernels, zetas, c):
    """V(x_k, s) zeta plus the stable integral up to x_k, for every node.

    ``zetas`` is (n, S) and ``c`` the (M, n, S) per-cell increments (or
    (2M, n, S), the unstable ones reversed after them, for the scan to sum
    too); zeta enters as F~_0 zeta on the first cell.  Returns (M+1, n, S).
    """
    c[:1] += _mv(kern.scan[:1, 0], zetas[None])
    return np.concatenate([zetas[None], _scan(kern, c)[:len(kern.F)]])


class LPContext:
    """Everything a manifold solve needs, with read-only stacked kernels.

    ``T`` is the operator's last node, ``regularity`` its ``check_regularity``
    and ``reports`` starts empty.  ``atom_weights`` holds the weight of the
    nonlinearity's driving measure at each mesh node (zero where it has no
    atom).  A nonlinearity that does not map R^n to R^n for the operator's n
    is refused.
    """

    def __init__(self, fund: FundamentalOperator, dich: DichotomyData,
                 nonlin: NonlinearitySpec, tol=1e-10):
        nonlin.require_dimension(fund.n)
        self.fund = fund
        self.dich = dich
        self.nonlin = nonlin
        self.T = float(fund.window[1])
        self.tol = float(tol)
        self.regularity = check_regularity(fund)
        self.reports = {}
        lo, hi = fund.window
        atoms = [(t, w) for t, w in nonlin.measure.atoms if lo <= t <= hi]
        try:
            at = fund.node_index([t for t, _ in atoms])
        except KeyError as exc:
            raise ValueError("every nonlinearity atom must be a mesh node: %s"
                             % exc.args[0]) from None
        self.atom_weights = np.zeros(len(fund.nodes))
        self.atom_weights[at] = [w for _, w in atoms]
        self.atom_weights.flags.writeable = False
        self._proj = None
        self._proj_defect = None
        self._kernels = None

    # -- projections ---------------------------------------------------------

    def _projections(self):
        """P(x_i) on every mesh node, checked for idempotency in one pass.

        Forward conjugation amplifies roundoff by about exp(2 alpha t), so a
        long horizon can return matrices that are no longer projections; that
        raises ``SplittingError`` at the first bad node.
        """
        if self._proj is None:
            proj = projection_family(self.fund, self.dich.P0)
            defect = _stacked_norm(proj @ proj - proj)
            bad = np.flatnonzero(~(defect <= _IDEMPOTENCY_TOL))
            if bad.size:
                i = int(bad[0])
                raise SplittingError(
                    "projection family lost idempotency at node %d (t=%g): "
                    "||P^2 - P|| = %.3e > %g" % (i, self.fund.nodes[i], defect[i],
                                                 _IDEMPOTENCY_TOL))
            self._proj = proj
            self._proj_defect = float(np.max(defect))
        return self._proj

    def P(self, i):
        return self._projections()[i]

    def kernels(self, i_s) -> _Kernels:
        """Fast-operator kernels from node ``i_s`` to the horizon.

        The stacks for the whole mesh up to T, scan levels included, are
        built on first use (not with the context) and sliced for a span that
        starts later.
        """
        if self._kernels is None:
            self._kernels = self._build_kernels()
        return _Kernels._make(a[i_s:] for a in self._kernels)

    def _build_kernels(self):
        fund = self.fund
        eye = np.eye(fund.n)
        phi, phi_sig_inv, F, G = fund.cells
        J, J_inv = fund.jumps, fund.jump_invs
        proj = self._projections()
        P_plus = J[:-1] @ proj[:-1] @ J_inv[:-1]
        atom_s = phi @ P_plus
        atom_u = J_inv[:-1] @ (eye - P_plus)
        self.reports["splitting"] = {
            "idempotency_defect": self._proj_defect,
            "cocycle_gap": float(np.max(_stacked_norm(proj[1:] @ F - F @ proj[:-1]),
                                        initial=0.0))}
        sigma = fund._sigma
        a, b = fund.nodes[:-1, None], fund.nodes[1:, None]
        return _Kernels(
            sigma=sigma, lam=(sigma - a) / (b - a),
            wq=fund._weights * self.nonlin.measure.density.sample(sigma),
            atom_w=self.atom_weights[:-1],
            J=J, F=F, atom_s=atom_s, atom_u=atom_u,
            K_stable=_q_blocks(atom_s[:, None] @ phi_sig_inv),
            K_unstable=_q_blocks(atom_u[:, None] @ phi_sig_inv),
            scan=_scan_levels(np.concatenate([F @ proj[:-1], np.zeros((1,) + eye.shape),
                                              (G @ (eye - proj[1:]))[-2::-1]])))

    def span(self, s):
        """Mesh node indices covering [s, T]; s must be a node."""
        return np.arange(self.fund.node_index(s), len(self.fund.nodes))

    def initial_path(self, zeta, s):
        """z_0(t) = V(t, s) zeta for zeta in the stable range at s."""
        idx = self.span(s)
        zeta = _check_zeta(zeta, self.P(idx[0]))
        kern = self.kernels(idx[0])
        vals = _stable_sweep(kern, zeta[:, None],
                             np.zeros((len(idx) - 1, self.fund.n, 1)))
        return SolutionPath(self.fund.nodes[idx], vals[..., 0],
                            _mv(kern.J, vals)[..., 0])

    def tail_bound(self, s):
        """Certified size of the discarded unstable tail beyond T."""
        v_h = self.nonlin.v_h((s, self.T))
        return 2.0 * v_h * self.dich.K * math.exp(
            -self.dich.alpha * max(self.T - s, 0.0))


def auto_horizon(s, K, alpha, h_rate, tol):
    """Horizon making the exponential tail of the unstable integral < tol,
    plus a margin of 5."""
    if alpha <= 0:
        raise ValueError("horizon choice needs a positive decay rate")
    return s + math.log(max(2.0 * K * max(h_rate, tol) / tol, 10.0)) / alpha + 5.0


# ---------------------------------------------------------------------------
# the operator: fast (reduced) mode
# ---------------------------------------------------------------------------

def _check_zeta(zeta, P_s):
    zeta = np.asarray(zeta, dtype=float)
    resid = norm((np.eye(len(zeta)) - P_s) @ zeta)
    if resid > _RANGE_TOL * (1.0 + norm(zeta)):
        raise ValueError("zeta is not in the stable range (residual %.3e)" % resid)
    return zeta


def _forcing(ctx, kern: _Kernels, values, rights, x):
    """Nonlinearity terms of a batch of paths on the mesh ``x``.

    ``values`` and ``rights`` are (M+1, n, S) left values and right limits.
    The quadrature states (z runs linearly from its right value at x_k to
    its left value at x_{k+1}) form one contiguous (M, Q, S, n) block,
    states last as the registry functions take them.  Returns f, the
    (M, Q n, S) weighted density in the q-block layout of ``K_stable``, the
    cells ``at`` that carry an atom, and the atom terms per node (zero away
    from ``at`` and at the last node).
    """
    lam = kern.lam[..., None, None]
    zq = np.multiply(1.0 - lam, rights[:-1, None].swapaxes(-1, -2), order="C")
    zq += lam * values[1:, None].swapaxes(-1, -2)
    f = ctx.nonlin.value(kern.sigma, zq)
    f *= kern.wq[..., None, None]
    M, Q, S, n = f.shape
    at = np.flatnonzero(kern.atom_w)
    atoms = np.zeros(values.shape)
    if at.size:
        atoms[at] = kern.atom_w[at, None, None] * ctx.nonlin.value(
            x[at], values[at].swapaxes(-1, -2)).swapaxes(-1, -2)
    return f.swapaxes(-1, -2).reshape(M, Q * n, S), at, atoms


def _fast_apply(ctx, kern: _Kernels, x, values, rights, zetas):
    """The fast operator on a batch of mesh paths; see ``lp_operator_apply``.

    ``values``/``rights`` are (M+1, n, S) and ``zetas`` (n, S); returns the
    new left values and right limits.
    """
    f, at, atoms = _forcing(ctx, kern, values, rights, x)
    M = len(f)
    c = np.empty((2 * M,) + zetas.shape)    # stable rows k, unstable 2M-1-k
    _mv(kern.K_stable, f, out=c[:M])
    _mv(kern.K_unstable, f, out=c[M:][::-1])
    if at.size:
        c[at] += _mv(kern.atom_s[at], atoms[at])
        c[2 * M - 1 - at] += _mv(kern.atom_u[at], atoms[at])
    # y = V(t, s) zeta + stable integral up to t, minus the unstable one to T
    vals = _stable_sweep(kern, zetas, c)
    vals[:-1] -= c[M:][::-1]
    return vals, _mv(kern.J, vals) + atoms


def lp_operator_apply(z: SolutionPath, zeta, s, ctx: LPContext, mode="fast"):
    """One application of the manifold operator to a mesh path.

    Fast mode computes the stable integral from s and the unstable integral
    back from T as two affine recurrences over the mesh cells,
    y_{k+1} = F~_k y_k + c_k and I_k = G~_k I_{k+1} + c'_k; reversed, the
    second continues the first, and one log2(M)-level inclusive prefix scan
    over the context's stored products of the dichotomy-projected
    propagators (``_Kernels``) evaluates both.  By the cocycle identity
    P(x_{k+1}) F_k = F_k P(x_k) the projection leaves the sweeps unchanged in
    exact arithmetic, and it keeps every stored product bounded by the
    dichotomy constant.  The reference mode evaluates the literal four-term
    form (see module docstring).  Both return a new ``SolutionPath`` on the
    same mesh.
    """
    idx = ctx.span(float(s))
    x = ctx.fund.nodes[idx]
    if not np.array_equal(z.times, x):
        raise ValueError("path mesh does not match the context mesh from s")
    zeta = _check_zeta(zeta, ctx.P(idx[0]))
    if mode == "reference":
        return _reference_apply(z, zeta, s, ctx)
    if mode != "fast":
        raise ValueError("unknown mode %r" % mode)
    vals, rights = _fast_apply(ctx, ctx.kernels(idx[0]), x, z.values[..., None],
                               z.right_values[..., None], zeta[:, None])
    return SolutionPath(x, vals[..., 0], rights[..., 0])


# ---------------------------------------------------------------------------
# the operator: literal reference mode
# ---------------------------------------------------------------------------

def _fine_layout(ctx, idx, refine):
    """Per-cell uniform subdivisions with their step propagators."""
    layout = []
    spec = ctx.fund.spec
    for k in range(len(idx) - 1):
        j = idx[k]
        a, b = ctx.fund.nodes[j], ctx.fund.nodes[j + 1]
        pts = np.linspace(a, b, refine + 1)
        if spec.generator_constant_on(a, b):
            step = expm(spec.generator(0.5 * (a + b)) * (pts[1] - pts[0]))
            steps = [step] * refine
        else:
            mats = ctx.fund._propagate(a, b, t_eval=pts[:-1].tolist())
            full = mats[:refine] + [mats[-1]]
            steps = [full[l + 1] @ np.linalg.inv(full[l]) for l in range(refine)]
        layout.append((pts, steps))
    return layout


def _inner_accumulation(ctx, z, idx, layout):
    """Gauge-sum accumulation of DF along the mesh from s.

    Returns (M, refine + 1, n) values at the fine nodes of every mesh cell
    and (M, refine, n) values at its fine midpoints, computed with
    frozen-state increments per fine cell (one registry call per half of all
    the fine cells of a mesh cell) and atom terms added when the
    accumulation crosses an atom time (atoms are mesh nodes).
    """
    gl5, gw5 = GAUSS_LEGENDRE[5]
    n = ctx.fund.n
    density = ctx.nonlin.measure.density
    refine = len(layout[0][0]) - 1
    node_N = np.empty((len(layout), refine + 1, n))
    mid_N = np.empty((len(layout), refine, n))
    acc = np.zeros(n)
    for k, (pts, _) in enumerate(layout):
        node_N[k, 0] = acc
        atom_w = ctx.atom_weights[idx[k]]
        if atom_w:
            acc = acc + atom_w * ctx.nonlin.value(pts[0], z.values[k])
        a, b = pts[:-1, None], pts[1:, None]
        tau = 0.5 * (a + b)
        lam = (tau - pts[0]) / (pts[-1] - pts[0])
        z_tau = (1.0 - lam) * z.right_values[k] + lam * z.values[k + 1]
        inc = []
        for lo, hi in ((a, tau), (tau, b)):
            sig = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl5
            f = ctx.nonlin.value(sig, np.broadcast_to(z_tau[:, None], sig.shape + (n,)))
            inc.append(np.einsum("lq,lqi->li",
                                 0.5 * (hi - lo) * gw5 * density.sample(sig), f))
        # cumsum adds the fine cells one after another, as a loop over them would
        chain = np.cumsum(np.concatenate([acc[None], inc[0] + inc[1]]), axis=0)
        node_N[k, 1:] = chain[1:]
        mid_N[k] = chain[:-1] + inc[0]
        acc = chain[-1]
    return node_N, mid_N


def _reference_pass(ctx, z, idx, lin, refine):
    """The reference values at the mesh nodes from ``refine`` fine cells per
    mesh cell; ``lin`` holds V(x_o, s) P(s) zeta at every output x_o."""
    M = len(idx) - 1
    n = ctx.fund.n
    jumps, jump_invs = ctx.fund.jumps[idx], ctx.fund.jump_invs[idx]
    proj = ctx.P(idx)
    layout = _fine_layout(ctx, idx, refine)
    node_N, mid_N = _inner_accumulation(ctx, z, idx, layout)
    # stable outer integral over [s, t), one sweep of sigma downward:
    # row o carries P(x_o) V(x_o, sigma) for the outputs x_o above sigma
    stable = np.zeros((M + 1, n))
    Ms = proj.copy()
    for k in range(M - 1, -1, -1):
        cur = Ms[k + 1:]
        for step, N in zip(layout[k][1][::-1], mid_N[k][::-1]):
            nxt = cur @ step
            stable[k + 1:] += (cur - nxt) @ N
            cur = nxt
        # jump of the integrator at the cell's left node
        Ms[k + 1:] = cur @ jumps[k]
        stable[k + 1:] += (cur - Ms[k + 1:]) @ node_N[k, 0]
    # unstable outer integral over [t, T), one sweep of sigma upward: row
    # o carries (Id - P(x_o)) V(x_o, sigma) for the outputs at or below
    # sigma; the final boundary term carries the truncated tail beyond T
    # (int_T^inf d[M~] N ~ -M~(T) N(T) up to the decayed dN tail)
    unstable = np.zeros((M + 1, n))
    Us = np.eye(n) - proj
    for k in range(M):
        cur = Us[:k + 1] @ jump_invs[k]
        unstable[:k + 1] += (cur - Us[:k + 1]) @ node_N[k, 0]
        for step_inv, N in zip(np.linalg.inv(layout[k][1]), mid_N[k]):
            nxt = cur @ step_inv
            unstable[:k + 1] += (nxt - cur) @ N
            cur = nxt
        Us[:k + 1] = cur
    unstable -= Us @ node_N[-1, -1]
    N_t = np.concatenate([node_N[:, 0], node_N[-1:, -1]])
    return lin + N_t - stable + unstable


def _sup_change(a, b):
    return float(np.max(np.linalg.norm(a - b, axis=1)))


def _reference_apply(z: SolutionPath, zeta, s, ctx: LPContext):
    idx = ctx.span(float(s))
    x = ctx.fund.nodes[idx]
    M = len(idx) - 1
    n = ctx.fund.n
    Pz = ctx.P(idx[0]) @ zeta
    lin = np.array([ctx.fund.value(t, float(s)) @ Pz for t in x])
    tol = max(ctx.tol, 1e-9)
    passes = []     # the last two passes, coarser first
    change = math.nan
    refine = _REFINE0
    # at s = T the span is the one node s, with no cell to integrate over:
    # the path is its anchor zeta, as in the fast mode (zeta lies in the
    # range of P(s), so this is V(s, s) P(s) zeta to the range tolerance)
    vals = zeta[None]
    while M:
        vals = _reference_pass(ctx, z, idx, lin, refine)
        if passes:
            change = _sup_change(vals, passes[-1])
            if change < tol:
                break
        if len(passes) == 2:
            # Richardson on an O(h^2) error: (4 v_2r - v_r) / 3 from the last
            # two pairs of passes, trusted once the plain change fell by ~4
            older = (4.0 * passes[1] - passes[0]) / 3.0
            newer = (4.0 * vals - passes[1]) / 3.0
            fall = _sup_change(passes[1], passes[0]) / change
            if _sup_change(newer, older) < tol and \
                    _H2_FALL[0] <= fall <= _H2_FALL[1]:
                vals = newer
                break
        if refine >= _MAX_REFINE:
            raise SolveError("reference apply reached refine=%d (_MAX_REFINE) with "
                             "sup-norm change %.3e, not below tol %.3e"
                             % (refine, change, tol), residual=change)
        passes = passes[-1:] + [vals]
        refine *= 2
    jumps = ctx.fund.jumps[idx]
    at = np.flatnonzero(ctx.atom_weights[idx[:-1]])
    add = np.zeros((M + 1, n))
    add[at] = ctx.atom_weights[idx[at], None] * ctx.nonlin.value(x[at], z.values[at])
    return SolutionPath(x, vals, (jumps @ vals[..., None])[..., 0] + add)


# ---------------------------------------------------------------------------
# contraction bookkeeping
# ---------------------------------------------------------------------------

def safe_exp(x):
    """``math.exp`` that returns inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def contraction_bound(scale, K, C, V):
    """scale (1 + K(1+2K)) C^3 exp(3 C V) V^2, the formula of every gate."""
    grow = safe_exp(3.0 * C * V)
    if grow == math.inf:
        return math.inf
    return scale * (1.0 + K * (1.0 + 2.0 * K)) * C ** 3 * grow * V ** 2


def contraction_estimate(ctx: LPContext, s) -> float:
    """Theoretical contraction number of the operator from base time ``s``.

    The bound is wildly conservative (it carries exp(3 C_a V_Lambda)), so it
    is reported and never gates a solve; the observed iterate ratios do.
    """
    return contraction_bound(2.0 * ctx.nonlin.v_h((float(s), ctx.T)), ctx.dich.K,
                             ctx.regularity.C_a, ctx.regularity.V_Lambda)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class LPSolution:
    phi: SolutionPath
    m_vector: np.ndarray       # ambient unstable correction phi(s) - zeta
    m: np.ndarray              # coordinates in the unstable basis at s
    zeta: np.ndarray
    s: float
    iterations: int
    residual: float
    ratio_history: list
    converged: bool

    @property
    def L_empirical(self):
        return max(self.ratio_history) if self.ratio_history else 0.0


def _solve_batch(zetas, s, ctx: LPContext, Bu):
    """Fixed points for an (S, n) batch of anchors at one base time.

    All unconverged samples share one fast operator application per
    iteration.  Each sample keeps its own difference and ratio history: it
    leaves the batch once its difference drops below ``ctx.tol``, and it
    gets its own ``NonContractionError`` (three non-shrinking differences)
    or ``SolveError`` (``_MAX_ITER`` reached).  Returns one ``LPSolution`` or
    exception per sample; ``Bu`` is the unstable basis at s.
    """
    idx = ctx.span(s)
    x = ctx.fund.nodes[idx]
    P_s = ctx.P(idx[0])
    zetas = np.array([_check_zeta(z, P_s) for z in zetas]).reshape(-1, ctx.fund.n).T
    S = zetas.shape[1]
    kern = ctx.kernels(idx[0])
    vals = _stable_sweep(kern, zetas, np.zeros((len(x) - 1, ctx.fund.n, S)))
    rights = _mv(kern.J, vals)
    out = [None] * S
    diffs = [[] for _ in range(S)]
    ratios = [[] for _ in range(S)]
    active = np.arange(S)
    for it in range(1, _MAX_ITER + 1):
        if not active.size:
            break
        new_v, new_r = _fast_apply(ctx, kern, x, vals[..., active],
                                   rights[..., active], zetas[:, active])
        d = new_v - vals[..., active]       # sqrt is monotone: one per sample
        step = np.sqrt(np.max(np.einsum("kis,kis->ks", d, d), axis=0))
        vals[..., active], rights[..., active] = new_v, new_r
        still = []
        for i, diff in zip(active, step.tolist()):
            d, r = diffs[i], ratios[i]
            if d:
                r.append(diff / d[-1] if d[-1] > 0 else 0.0)
            d.append(diff)
            if diff < ctx.tol:
                m_vec = vals[0, :, i] - zetas[:, i]
                out[i] = LPSolution(
                    phi=SolutionPath(x, vals[..., i].copy(), rights[..., i].copy()),
                    m_vector=m_vec, m=Bu.T @ m_vec, zeta=zetas[:, i], s=s,
                    iterations=it, residual=diff, ratio_history=r,
                    converged=True)
            elif len(r) >= 3 and all(q >= 1.0 for q in r[-3:]):
                out[i] = NonContractionError(
                    "iterates stopped contracting (ratios %s)" % r[-3:],
                    ratio_history=r)
            else:
                still.append(i)
        active = np.array(still, dtype=int)
    for i in active:
        out[i] = SolveError("no convergence in %d iterations (last diff %.3e)"
                            % (_MAX_ITER, diffs[i][-1]), residual=diffs[i][-1])
    return out


def solve_lp(zeta, s, ctx: LPContext) -> LPSolution:
    """Iterate the fast operator to its fixed point from z_0(t) = V(t, s) zeta.

    Stops when the sup-norm difference of consecutive iterates drops below
    ``ctx.tol``.  Three consecutive non-shrinking differences abort with the
    ratio history; ``_MAX_ITER`` aborts with the last residual.  A batch of
    one for the solve behind ``manifold_graph``.
    """
    s = float(s)
    _, Bu = splitting_bases(ctx.P(ctx.span(s)[0]))
    (sol,) = _solve_batch([zeta], s, ctx, Bu)
    if isinstance(sol, Exception):
        raise sol
    return sol


def fixed_point_residual(sol: LPSolution, ctx: LPContext):
    """sup-norm distance between phi and one more fast operator application."""
    again = lp_operator_apply(sol.phi, sol.zeta, sol.s, ctx)
    return sol.phi.diff_sup(again)


def flow_residual(path: SolutionPath, s, ctx: LPContext):
    """Residual of the unprojected variation-of-constants identity.

    For any true solution, z(b) = V(b, a) z(a)^+ + int_a^b V(b, sigma) dN_z
    over every mesh cell; the worst cell residual checks that a fixed point
    of the manifold operator actually solves the underlying system.  (The
    check is per cell: chaining it across the window would re-amplify
    roundoff along the unstable directions.)
    """
    idx = ctx.span(float(s))
    kern = ctx.kernels(idx[0])
    f, _, atoms = _forcing(ctx, kern, path.values[..., None],
                           path.right_values[..., None], ctx.fund.nodes[idx])
    # phi = phi P+ + (phi J) J^{-1} (Id - P+): the projected kernels add up
    # to the unprojected V(x_{k+1}, sigma) and phi
    K = kern.K_stable + kern.F @ kern.K_unstable
    phi = kern.atom_s + kern.F @ kern.atom_u
    pred = _mv(kern.F, path.values[:-1, :, None]) + _mv(phi, atoms[:-1]) + _mv(K, f)
    return float(np.max(np.linalg.norm(pred[..., 0] - path.values[1:], axis=1),
                        initial=0.0))


# ---------------------------------------------------------------------------
# graphs, invariance, classification
# ---------------------------------------------------------------------------

@dataclass
class GraphSample:
    zeta_coords: np.ndarray
    m_coords: np.ndarray | None
    ok: bool
    error: str | None = None
    iterations: int = 0


@dataclass
class ManifoldGraph:
    s: float
    basis_stable: np.ndarray
    basis_unstable: np.ndarray
    samples: list
    lipschitz_estimate: float
    L_empirical: float
    L_theory: float
    tail_bound: float
    K_fit: float = math.nan

    @property
    def ok_samples(self):
        return [g for g in self.samples if g.ok]


def manifold_graph(s, zeta_grid, ctx: LPContext) -> ManifoldGraph:
    """Sample the graph map over stable coordinates inside the cutoff ball.

    Numerical solve failures are recorded per sample and do not abort the
    graph; a grid point of the wrong dimension or outside the ball raises.
    """
    s = float(s)
    P_s = ctx.P(ctx.span(s)[0])
    Bs, Bu = splitting_bases(P_s)
    coords = [np.atleast_1d(np.asarray(c, dtype=float)) for c in zeta_grid]
    for c in coords:
        if c.shape != (Bs.shape[1],):
            raise ValueError("grid point %r needs %d stable coordinates"
                             % (c, Bs.shape[1]))
        if norm(c) > ctx.nonlin.rho + 1e-12:
            raise ValueError("grid point %r outside the cutoff radius" % (c,))

    try:
        outcomes = _solve_batch([Bs @ c for c in coords], s, ctx, Bu)
    except (PropagationError, np.linalg.LinAlgError) as exc:
        outcomes = [exc] * len(coords)
    samples, sols = [], []
    for c, sol in zip(coords, outcomes):
        if isinstance(sol, LPSolution):
            samples.append(GraphSample(c, sol.m, True, iterations=sol.iterations))
            sols.append(sol)
        else:
            samples.append(GraphSample(c, None, False, error=str(sol)))

    # worst difference quotient over all pairs of converged samples
    lip = 0.0
    if len(sols) > 1:
        i, j = np.triu_indices(len(sols), 1)
        Z = np.array([g.zeta_coords for g in samples if g.ok])
        Mc = np.array([sol.m for sol in sols])
        dz = np.linalg.norm(Z[i] - Z[j], axis=-1)
        far = dz > 1e-14
        lip = float(np.max(np.linalg.norm(Mc[i] - Mc[j], axis=-1)[far] / dz[far],
                           initial=0.0))
    L_emp = max((s_.L_empirical for s_ in sols), default=0.0)
    graph = ManifoldGraph(
        s=s, basis_stable=Bs, basis_unstable=Bu, samples=samples,
        lipschitz_estimate=lip, L_empirical=L_emp,
        L_theory=contraction_estimate(ctx, s),
        tail_bound=ctx.tail_bound(s), K_fit=ctx.dich.K)
    return graph


def invariance_check(s, zeta, t1, ctx: LPContext) -> float:
    """Flow the solved path to t1 and compare with a fresh solve there.

    Returns || (Id - P(t1)) phi(t1) - m(t1, P(t1) phi(t1)) ||.
    """
    sol = solve_lp(zeta, s, ctx)
    idx = ctx.span(float(s))
    k = ctx.fund.node_index(t1) - idx[0]
    if not 0 <= k < len(idx):
        raise ValueError("t1=%g lies outside [s, T]" % t1)
    phi_t1 = sol.phi.values[k]
    P_t1 = ctx.P(idx[k])
    zeta1 = P_t1 @ phi_t1
    sol1 = solve_lp(zeta1, float(t1), ctx)
    return float(norm((np.eye(ctx.fund.n) - P_t1) @ phi_t1 - sol1.m_vector))


@dataclass
class Classification:
    status: str                # "escapes" | "bounded_to_horizon" | "indeterminate"
    t_escape: float | None
    final_state: np.ndarray
    sup_norm: float


def _first_time(reached, lo, hi):
    """Where the predicate ``reached``, false at lo and true at hi, turns
    true: bisection down to adjacent floats, returning the later one."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if reached(mid):
            hi = mid
        else:
            lo = mid


def classify_initial(z0, s, ctx: LPContext, bound) -> Classification:
    """Forward-integrate the full nonlinear system until escape or horizon.

    ``dop853`` runs between the event stops.  The solution escapes in the
    first step across which its norm rises through ``bound``, the escape
    time where the step's dense output reaches the bound, or at the first
    stop whose jump or atom kick carries its norm to the bound or past it
    (there ``sup_norm`` is the norm after the jump).  A failed step reads
    "indeterminate".
    """
    z0 = np.asarray(z0, dtype=float)
    bound = float(bound)
    if bound <= norm(z0):
        raise ValueError("bound must exceed the initial norm")
    idx = ctx.span(float(s))
    nodes = ctx.fund.nodes[idx]
    state = z0.copy()
    sup = norm(state)
    density = ctx.nonlin.measure.density

    def rhs(t, y):
        return ctx.fund.spec.generator(t) @ y + \
            np.asarray(ctx.nonlin.value(t, y)) * float(density.sample(t))

    # integrate between genuine events only: jumps, kernel atoms, and kinks
    # of the generator; everything in between is one smooth solve
    lo, hi = ctx.fund.window
    kinks = [b for b in ctx.fund.spec.generator_breakpoints() if lo <= b <= hi]
    marks = np.concatenate([ctx.fund.event_nodes, np.flatnonzero(ctx.atom_weights),
                            ctx.fund.node_index(kinks), idx[-1:]]) - idx[0]
    stops = [0, *sorted_unique(marks[(marks > 0) & (marks < len(idx))]).tolist()]
    for a_i, b_i in zip(stops[:-1], stops[1:]):
        cc_w = ctx.atom_weights[idx[a_i]]
        kick = cc_w * np.asarray(ctx.nonlin.value(nodes[a_i], state)) if cc_w else 0.0
        state = ctx.fund.jumps[idx[a_i]] @ state + kick
        t_old, r_old = nodes[a_i], norm(state)
        sup = max(sup, r_old)
        if r_old >= bound:
            return Classification("escapes", float(t_old), state, sup)
        try:
            for t, y, dense in dop853(rhs, nodes[a_i], state, nodes[b_i],
                                      rtol=1e-10, atol=1e-12):
                r = norm(y)
                if r_old <= bound <= r:
                    t_esc = _first_time(lambda t: norm(dense(t)) >= bound, t_old, t)
                    return Classification("escapes", float(t_esc), dense(t_esc), bound)
                t_old, r_old, state, sup = t, r, y, max(sup, r)
        except PropagationError:
            return Classification("indeterminate", None, state, sup)
    return Classification("bounded_to_horizon", None, state, sup)


def bisect_manifold_oracle(zeta, s, ctx: LPContext, bound, xtol=1e-6) -> float:
    """Brute-force graph value via escape-direction bisection.

    Requires a one-dimensional unstable subspace.  Scans the unstable offset
    eta over the bracket [-rho/2, rho/2] (rho the cutoff radius): above the
    manifold trajectories escape with positive unstable coordinate, below
    with negative; the boundary is m(s, zeta).  Completely independent of
    the fixed-point machinery.
    """
    s = float(s)
    P_s = ctx.P(ctx.span(s)[0])
    Bs, Bu = splitting_bases(P_s)
    if Bu.shape[1] != 1:
        raise ValueError("bisection oracle needs a one-dimensional unstable space")
    b_u = Bu[:, 0]
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape == ():
        zeta = zeta.reshape(1)
    if zeta.shape[0] != ctx.fund.n:
        zeta = Bs @ np.atleast_1d(zeta)

    def side(eta):
        res = classify_initial(zeta + eta * b_u, s, ctx, bound)
        if res.status == "bounded_to_horizon":
            return 0
        if res.status == "indeterminate":
            raise SolveError("integrator failed during bisection at eta=%g" % eta)
        return 1 if float(b_u @ res.final_state) > 0 else -1

    lo, hi = -0.5 * ctx.nonlin.rho, 0.5 * ctx.nonlin.rho
    s_lo, s_hi = side(lo), side(hi)
    if s_lo == 0 or s_hi == 0:
        raise ValueError(
            "bracket endpoint stayed bounded to the horizon; extend T or lower "
            "the bound (bracket %r)" % ((lo, hi),))
    if s_lo == s_hi:
        raise ValueError("no escape-direction sign change on bracket %r" % ((lo, hi),))
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        s_mid = side(mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
