import math

import numpy as np
import pytest

from kurzmani.apps import IdeSpec, MdeSpec, ide_to_context, mde_to_context
from kurzmani.funcspace import PiecewisePath, StieltjesMeasure, running_integral
from kurzmani.lp_manifold import NonlinearitySpec

SADDLE = np.diag([-1.0, 1.0])
COUPLED = np.array([[-1.0, 3.0], [0.5, 1.0]])


def lebesgue():
    """Lebesgue measure: density 1, no atoms."""
    return StieltjesMeasure(PiecewisePath.constant(1.0), ())


def masses_of_pairs(mu, los, his):
    """mu([lo, hi)) for arrays of cell ends, read through ``cell_masses`` of
    the interleaved nodes lo_0, hi_0, lo_1, hi_1, ...: every other cell."""
    return mu.cell_masses(np.column_stack([los, his]).ravel())[::2]


def mass_by_cell_ends(mu, los, his):
    """The former ``StieltjesMeasure.mass(los, his)``, kept as the oracle of
    ``cell_masses``: the density's running integral from 0 and the running
    sums of the atom weights, each sampled at both ends of every cell."""
    dens = running_integral(mu.density, 0.0)
    times = np.array([t for t, _ in mu.atoms])
    weights = np.cumsum([0.0] + [w for _, w in mu.atoms])
    return dens.sample(his) - dens.sample(los) \
        + (weights[np.searchsorted(times, his, side="left")]
           - weights[np.searchsorted(times, los, side="left")])


def quadratic_forcing(eps, rho=0.5):
    """f = (0, eps * x^2): the planar benchmark forcing."""
    Q1 = np.zeros((2, 2))
    Q2 = np.zeros((2, 2))
    Q2[0, 0] = eps
    return NonlinearitySpec("quadratic", {"mats": [Q1, Q2]}, rho=rho)


@pytest.fixture(scope="session")
def ctx_planar():
    """Saddle with f = (0, x^2), cutoff 0.5, horizon 40, tol 1e-10."""
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE), (), quadratic_forcing(1.0))
    return ide_to_context(spec, s=0.0, T=40.0, tol=1e-10,
                          grid=np.linspace(0.0, 10.0, 21))


@pytest.fixture(scope="session")
def ctx_impulsive():
    """Saddle kicked by diag(0.1, 0) at integers, f = (0, 0.05 x^2)."""
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 40))
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE), impulses,
                   quadratic_forcing(0.05))
    return ide_to_context(spec, s=0.0, T=40.0, tol=1e-10,
                          grid=np.linspace(0.0, 10.0, 21))


def coupled_context(T):
    """Non-normal coupled generator [[-1, 3], [0.5, 1]] with the saddle kicks
    diag(0.1, 0) at the integers inside (0, T), f = (0, 0.05 x^2)."""
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, math.ceil(T)))
    spec = IdeSpec(2, PiecewisePath.constant(COUPLED), impulses,
                   quadratic_forcing(0.05))
    return ide_to_context(spec, s=0.0, T=T, tol=1e-10,
                          grid=np.linspace(0.0, min(T, 10.0), 21))


@pytest.fixture(scope="session")
def ctx_coupled():
    """The coupled kicked system on a T=4 window."""
    return coupled_context(4.0)


def generated_context(seed, T=4.0):
    """A seeded n = 3 kicked system in the style of the generated hard
    systems: a non-normal constant generator A = S diag(lam) S^{-1} with two
    stable rates from -U(0.5, 2) and one unstable from U(0.5, 2),
    S = Id + N(0, 0.7^2); the kick Id + B, B with N(0, 0.1^2) entries, at
    k + phase, phase ~ U(0, 1), so off the integers t0 and s = 1 sit on; and
    f = 0.05 x_1^2 in the last component, cutoff 0.5."""
    rng = np.random.default_rng(seed)
    n = 3
    rates = np.concatenate([-rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 1)])
    S = np.eye(n) + rng.normal(0.0, 0.7, (n, n))
    A = S @ np.diag(rates) @ np.linalg.inv(S)
    phase = rng.uniform(0.0, 1.0)
    B = rng.normal(0.0, 0.1, (n, n))
    impulses = tuple((k + phase, B) for k in range(math.ceil(T)) if k + phase < T)
    mats = np.zeros((n, n, n))
    mats[-1, 0, 0] = 0.05
    spec = IdeSpec(n, PiecewisePath.constant(A), impulses,
                   NonlinearitySpec("quadratic", {"mats": mats}, rho=0.5))
    return ide_to_context(spec, s=0.0, T=T, tol=1e-10, grid=np.linspace(0.0, T, 21))


@pytest.fixture(scope="session")
def ctx_generated():
    """The seeded three-dimensional system (seed 2) on a T=4 window."""
    return generated_context(2)


@pytest.fixture(scope="session")
def ctx_scalar_mde():
    """Scalar contraction driven by Lebesgue + one atom, tanh kernel."""
    u = StieltjesMeasure(PiecewisePath.constant(1.0), [(1.0, 0.3)])
    H = NonlinearitySpec("saturated_tanh", {"gain": [[0.2]]}, rho=1.0, measure=u)
    spec = MdeSpec(1, PiecewisePath.constant([[-1.0]]),
                   PiecewisePath.constant([[0.0]]), u, H)
    return mde_to_context(spec, s=0.0, T=12.0, tol=1e-10,
                          grid=np.linspace(0.0, 10.0, 21))


def impulsive_manifold_closed_form(zeta, eps=0.05):
    """Bounded-solution value for the kicked saddle at s = 0.

    The stable coordinate is zeta e^{-t} boosted by 1.1 at each integer, so
    the unstable component of the bounded solution at 0 sums a geometric
    series of per-period integrals of e^{-sigma} x(sigma)^2.
    """
    import math
    q = 1.21 * math.exp(-3.0)
    return -eps * zeta * zeta * (1.0 - math.exp(-3.0)) / (3.0 * (1.0 - q))
