"""User-level impulsive and measure-driven system front-ends.

Both realizations are one generalized ODE, dz = D[Lambda(t) z + F(z, t)]:
an ``IdeSpec`` or ``MdeSpec`` names its linear part (``linear_spec``), its
nonlinearity (``nonlin``) and the hypotheses it enforces (``enforced``), and
``build_context`` turns either into a ready solver context: fundamental
operator, certified splitting, regularity constants and the realization's
gate.  Every named hypothesis of the two realizations is evaluated by
``check_hypotheses`` with computed constants and witnesses; context
construction refuses specs whose structural hypotheses (invertible jump
factors, monotone driver) fail, while smallness gates are reported rather
than enforced (the observed contraction ratio is the operative gate).

Both forcings integrate against a driving measure: dt for an ``IdeSpec``,
u for an ``MdeSpec``.  Lebesgue measure has no finite mass over the whole
line, so the forcing bound of an impulsive system is computed over the solve
window and reported as window-relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dichotomy import certify
from .funcspace import (LEBESGUE, PiecewisePath, StieltjesMeasure, norm,
                        norm_integral, plain, quadrature_miss)
from .linsys import (FundamentalOperator, LinearSystemSpec, inverse_bound,
                     jump_table)
from .lp_manifold import (LPContext, NonlinearitySpec, auto_horizon,
                          contraction_bound)


_PROBE_COUNT = 64    # points of the Lipschitz probe, two per ray


class HypothesisError(ValueError):
    """A named structural hypothesis failed; carries the condition and witness."""

    def __init__(self, condition, witness=None):
        super().__init__("condition %s failed (witness: %r)" % (condition, witness))
        self.condition = condition
        self.witness = witness


@dataclass(frozen=True)
class IdeSpec:
    """Impulsive system: smooth coefficients, state resets, forcing f dt."""

    n: int
    A: PiecewisePath
    impulses: tuple
    f: NonlinearitySpec

    enforced = ("B3_jump_inverses", "a_jump_norms_summable",
                "impulse_times_increasing", "c_gamma_dominates")

    def __post_init__(self):
        if self.f.measure is not LEBESGUE:
            raise ValueError("IdeSpec forcing integrates against dt: give its "
                             "nonlinearity no measure")
        self.f.require_dimension(self.n)
        object.__setattr__(self, "impulses",
                           tuple((float(t), np.asarray(B, dtype=float))
                                 for t, B in self.impulses))

    @property
    def nonlin(self):
        return self.f

    def linear_spec(self, t0):
        """The linear part referenced at ``t0``: A plus the impulses."""
        return LinearSystemSpec(self.n, self.A, impulses=self.impulses, t0=t0)


@dataclass(frozen=True)
class MdeSpec:
    """Measure-driven system: smooth + measure coefficients, kernel forcing."""

    n: int
    A: PiecewisePath
    C: PiecewisePath
    u: StieltjesMeasure
    H: NonlinearitySpec

    enforced = ("D6_atom_inverses", "a_atom_inverse_bound",
                "b_driver_nondecreasing_bv", "c_kernel_bounded_lipschitz")

    def __post_init__(self):
        if self.H.measure is not self.u:
            raise ValueError("the kernel nonlinearity must be driven by spec.u")
        self.H.require_dimension(self.n)

    @property
    def nonlin(self):
        return self.H

    def linear_spec(self, t0):
        """The linear part referenced at ``t0``: A plus C du."""
        return LinearSystemSpec(self.n, self.A, measure_part=(self.C, self.u),
                                t0=t0)


@dataclass
class CheckItem:
    passed: bool
    value: object = None
    witness: object = None


@dataclass
class HypothesesReport:
    kind: str
    items: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)

    @property
    def all_passed(self):
        return all(item.passed for item in self.items.values())

    def to_dict(self):
        return {
            "kind": self.kind,
            "all_passed": self.all_passed,
            "conditions": {
                k: {"passed": v.passed, "value": plain(v.value),
                    "witness": plain(v.witness)}
                for k, v in self.items.items()},
            "constants": {k: plain(v) for k, v in self.constants.items()},
        }


def _probe_points(n, radius):
    """``_PROBE_COUNT`` fixed points of the ball of ``radius`` in R^n, in
    pairs on one ray each, at radii in [0.05, 1] radius.  Pair k is the k-th
    point u of Roberts' additive recurrence frac(k alpha) in d = 2 + 2m
    dimensions, m = ceil(n / 2) (alpha_j = g^-j, g the positive root of
    x^(d+1) = x + 1): u_1 and u_2 set the two radii, and the Box-Muller
    transform of the other 2m coordinates gives a normal vector whose first
    n entries, normalized, are the direction.  No seed: the set depends on
    n and the radius alone."""
    m = -(-n // 2)
    g = 2.0
    for _ in range(60):     # g = (1 + g)^(1/(d+1)) contracts by < 1/2
        g = (1.0 + g) ** (1.0 / (2 * m + 3))
    u = (np.arange(1, _PROBE_COUNT // 2 + 1)[:, None]
         * g ** -np.arange(1.0, 2 * m + 3)) % 1.0
    size, angle = np.sqrt(-2.0 * np.log(u[:, 2::2])), 2.0 * math.pi * u[:, 3::2]
    dirs = np.concatenate([size * np.cos(angle), size * np.sin(angle)], axis=1)[:, :n]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * (0.05 + 0.95 * u[:, :2])
    return (radii[:, :, None] * dirs[:, None, :]).reshape(-1, n)


def _lipschitz_probe(nonlin, n, radius):
    """Sampled sup and Lipschitz constants of the cutoff nonlinearity over
    the fixed probe set ``_probe_points``; the slopes are those of the
    pairs (0, 1), (2, 3), ..., each along its ray."""
    pts = _probe_points(n, radius)
    vals = nonlin.value(0.0, pts)
    sup = float(np.max(np.linalg.norm(vals, axis=1)))
    lip = 0.0
    for i in range(0, len(pts) - 1, 2):
        dz = norm(pts[i] - pts[i + 1])
        if dz > 1e-12:
            lip = max(lip, norm(vals[i] - vals[i + 1]) / dz)
    return sup, lip


def check_hypotheses(spec, window) -> HypothesesReport:
    """Evaluate every named condition of the realization over ``window``,
    with witnesses."""
    if isinstance(spec, IdeSpec):
        return _check_ide(spec, window)
    if isinstance(spec, MdeSpec):
        return _check_mde(spec, window)
    raise TypeError("expected IdeSpec or MdeSpec, got %r" % type(spec).__name__)


def _check_ide(spec: IdeSpec, window) -> HypothesesReport:
    rep = HypothesesReport(kind="ide")
    n = spec.n

    rep.items["B1_smooth_integrable"] = CheckItem(True, None)
    m_int = norm_integral(window, spec.A, (spec.A,), 0.0, "B2 bound int ||A||")
    rep.items["B2_coefficient_bound"] = CheckItem(math.isfinite(m_int), m_int)

    table = jump_table(n, spec.impulses, None)
    inv_B, bad = inverse_bound(table.inverses), table.singular_at
    # in time order, up to and including the first singular factor
    upto = sorted(spec.impulses, key=lambda e: e[0])[:len(table.inverses) + 1]
    norms = np.linalg.norm(np.reshape([B for _, B in upto], (-1, n, n)), 2, axis=(-2, -1))
    sum_B = sum(norms.tolist(), 0.0)
    rep.items["B3_jump_inverses"] = CheckItem(bad is None, inv_B, bad)
    C_b = max(sum_B, inv_B)
    rep.items["a_jump_norms_summable"] = CheckItem(bad is None, C_b, bad)

    M_gamma = spec.f.v_h(window)
    rep.items["b_forcing_integrable"] = CheckItem(
        math.isfinite(M_gamma), M_gamma,
        "window-relative over %r" % (list(window),))

    sup_f, lip_f = _lipschitz_probe(spec.f, n, 2.0 * spec.f.rho)
    gamma = spec.f.modulus
    rep.items["c_gamma_dominates"] = CheckItem(
        bool(gamma >= max(sup_f, lip_f) - 1e-9), (gamma, sup_f, lip_f))

    times = [t for t, _ in spec.impulses]
    increasing = all(b > a for a, b in zip(times, times[1:]))
    rep.items["impulse_times_increasing"] = CheckItem(increasing, times)

    rep.constants.update(C_b=C_b, M_gamma=M_gamma, sup_f=sup_f, lip_f=lip_f,
                         sum_impulse_norms=sum_B)
    return rep


def _check_mde(spec: MdeSpec, window) -> HypothesesReport:
    rep = HypothesesReport(kind="mde")
    n = spec.n

    rep.items["D1_smooth_integrable"] = CheckItem(True, None)
    rep.items["D2_driver_left_continuous"] = CheckItem(True, None)
    rep.items["D3_measure_coefficient_integrable"] = CheckItem(True, None)
    m1 = norm_integral(window, spec.A, (spec.A,), 0.0, "D4 bound int ||A||")
    rep.items["D4_smooth_dominated"] = CheckItem(math.isfinite(m1), m1)
    m2 = _measure_domination(spec, window)
    rep.items["D5_measure_dominated"] = CheckItem(math.isfinite(m2), m2)

    table = jump_table(n, (), (spec.C, spec.u))
    C_g, bad = inverse_bound(table.inverses), table.singular_at
    rep.items["D6_atom_inverses"] = CheckItem(bad is None, C_g, bad)
    rep.items["a_atom_inverse_bound"] = CheckItem(bad is None, C_g, bad)

    # u is nondecreasing on the window when its variation there is its mass
    V_u = spec.u.variation(window)
    mass = float(spec.u.cell_masses(np.array(window, dtype=float))[0])
    monotone = bool(V_u - mass <= quadrature_miss(V_u))
    rep.items["b_driver_nondecreasing_bv"] = CheckItem(
        monotone, V_u, None if monotone else mass)

    sup_H, lip_H = _lipschitz_probe(spec.H, n, 2.0 * spec.H.rho)
    M_H, L_H = spec.H.sup_eff, spec.H.lip_eff
    rep.items["c_kernel_bounded_lipschitz"] = CheckItem(
        bool(M_H >= sup_H - 1e-9 and L_H >= lip_H - 1e-9), (M_H, sup_H, L_H, lip_H))

    rep.constants.update(C_g=C_g, V_u=V_u, M_H=M_H, L_H=L_H,
                         sampled_sup_H=sup_H, sampled_lip_H=lip_H)
    return rep


def _measure_domination(spec, window):
    """int ||C|| d|u| over the window: the (D5) domination constant
    (``norm_integral`` over the pieces of C and the density)."""
    C, dens = spec.C, spec.u.density
    atoms = sum(norm(C(t)) * abs(w) for t, w in spec.u.atoms_in(*window))
    return norm_integral(window, lambda t: norm(C(t)) * abs(float(dens(t))),
                         (C, dens), atoms, "(D5) domination int ||C|| d|u|")


def build_context(spec, s=0.0, T=None, tol=1e-10, base_step=0.1, P0=None,
                  grid=None) -> LPContext:
    """Build a solver context for an ``IdeSpec`` or an ``MdeSpec``.

    A failed hypothesis of ``spec.enforced`` raises ``HypothesisError`` with
    the named condition; without ``T`` a probe certification on [s, s + 20]
    sets the horizon (``auto_horizon``).  The context's reports gain the
    hypotheses and the realization's printed gate, a ``contraction_bound``
    with V the variation of Lambda from the mesh store and scale M_gamma =
    V_h with C_b (impulsive) or 2 L_H V_u with C_g (measure-driven), L_H the
    kernel's ``lip_eff``; V_h and V_u are taken over the run window [s, T].
    The smallness gate is ``contraction_estimate(ctx, s)``.
    """
    s = float(s)
    probe_hi = T if T is not None else s + 20.0
    hyp = check_hypotheses(spec, (s, probe_hi))
    for name in spec.enforced:
        if not hyp.items[name].passed:
            raise HypothesisError(name, hyp.items[name].witness)

    nonlin = spec.nonlin
    linspec = spec.linear_spec(s)
    if T is None:
        probe = certify(FundamentalOperator(linspec, (s, probe_hi), base_step),
                        grid, P0)
        T = auto_horizon(s, probe.K, probe.alpha,
                         nonlin.h_rate((s, probe_hi)), tol)
        T = s + math.ceil((T - s) / base_step) * base_step
    window = (s, float(T))
    fund = FundamentalOperator(linspec, window, base_step)
    ctx = LPContext(fund, certify(fund, grid, P0), nonlin, tol)
    if isinstance(spec, IdeSpec):
        scale, C = nonlin.v_h(window), hyp.constants["C_b"]
    else:
        scale, C = 2.0 * spec.H.lip_eff * spec.u.variation(window), hyp.constants["C_g"]
    ctx.reports.update(hypotheses=hyp, realization_gate=contraction_bound(
        scale, ctx.dich.K, C, ctx.regularity.V_Lambda))
    return ctx


ide_to_context = mde_to_context = build_context
