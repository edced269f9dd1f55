"""One-pass accumulated paths and closed-form variation.

The one-pass jump fold is checked against the fold it replaces (one
``PiecewisePath.step`` + ``__add__`` per jump), kept here as the oracle;
the closed-form variation cells are checked against adaptive quadrature.
"""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import kurzmani.apps as apps
import kurzmani.funcspace as funcspace
from conftest import SADDLE, quadratic_forcing
from kurzmani.apps import IdeSpec, ide_to_context
from kurzmani.cli import load_config, parse_system
from kurzmani.funcspace import (PiecewisePath, Segment, StieltjesMeasure,
                                add_jumps, norm, running_integral,
                                running_stieltjes_integral, total_variation)
from kurzmani.linsys import lambda_from_ide

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def folded(path, jumps, t0=None):
    """The old fold: one step path added per jump, each add re-validated."""
    for t, jump in jumps:
        jump = np.asarray(jump, dtype=float)
        base = -jump if t0 is not None and t < t0 else None
        path = path + PiecewisePath.step(t, jump, base=base)
    return path


def assert_same_path(new, old):
    def close(a, b):
        assert norm(np.asarray(a) - np.asarray(b)) <= 1e-12 * (1.0 + norm(b))

    assert new.shape == old.shape
    np.testing.assert_array_equal(new.times, old.times)
    for bn, bo in zip(new.breakpoints, old.breakpoints):
        close(bn.left_limit, bo.left_limit)
        close(bn.value_at, bo.value_at)
        close(bn.right_limit, bo.right_limit)
    lo, hi = (new.times[0] - 1.0, new.times[-1] + 1.0) if len(new.times) else (-1.0, 1.0)
    ts = np.union1d(np.linspace(lo, hi, 257), new.times)
    for vn, vo in zip(new.sample(ts), old.sample(ts)):
        close(vn, vo)


def test_lambda_from_ide_matches_fold_on_impulsive_saddle():
    cfg = load_config(os.path.join(CONFIG_DIR, "impulsive_saddle.json"))
    spec = parse_system(cfg)
    assert len(spec.impulses) == 39
    lam = lambda_from_ide(spec.A, spec.impulses, 0.0)
    assert_same_path(lam, folded(running_integral(spec.A, 0.0), spec.impulses, t0=0.0))


def test_lambda_from_ide_matches_fold_with_impulses_on_both_sides_of_t0():
    # a kinked matrix generator whose breakpoint coincides with one impulse
    A = PiecewisePath.from_segments(
        [-1.0], [Segment.polynomial([[[0.5, 0.0], [1.0, -1.0]],
                                     [[0.2, 0.1], [0.0, 0.3]]]),
                 Segment.constant([[-1.0, 0.4], [0.0, 2.0]])])
    rng = np.random.default_rng(3)
    impulses = tuple((t, 0.3 * rng.normal(size=(2, 2)))
                     for t in (-2.5, -1.0, -0.25, 0.75, 1.5, 4.0))
    t0 = 0.2
    lam = lambda_from_ide(A, impulses, t0)
    assert_same_path(lam, folded(running_integral(A, t0), impulses, t0=t0))
    # every added step vanishes at t0
    assert norm(lam(t0)) <= 1e-15


def test_impulse_at_t0_still_rejected():
    with pytest.raises(ValueError):
        lambda_from_ide(PiecewisePath.constant(SADDLE),
                        ((0.0, np.eye(2)), (1.0, np.eye(2))), 0.0)


def three_atom_measure():
    density = PiecewisePath.from_segments(
        [1.5], [Segment.polynomial([1.0, 0.5]), Segment.constant(2.0)])
    return StieltjesMeasure(density, [(0.5, 0.3), (1.5, 0.7), (2.25, 1.1)],
                            nondecreasing=True)


def test_running_stieltjes_integral_matches_fold_on_three_atoms():
    mu = three_atom_measure()
    C = PiecewisePath.from_segments(
        [1.0], [Segment.constant([[-1.0, 0.2], [0.0, 0.5]]),
                Segment.constant([[0.3, 0.0], [0.1, -0.4]])])
    t0 = 0.25
    smooth = running_stieltjes_integral(C, StieltjesMeasure(mu.density), t0)
    oracle = folded(smooth, [(t, w * C(t)) for t, w in mu.atoms])
    assert_same_path(running_stieltjes_integral(C, mu, t0), oracle)


def test_distribution_matches_fold_on_three_atoms():
    mu = three_atom_measure()
    oracle = folded(running_integral(mu.density, 0.0), mu.atoms)
    assert_same_path(mu.distribution(0.0), oracle)


def test_add_jumps_sums_unsorted_and_coincident_jumps_like_the_fold():
    path = running_integral(PiecewisePath.polynomial([1.0, -2.0]), 0.0)
    jumps = [(2.0, 0.5), (-1.0, 0.25), (2.0, -1.5), (0.5, 3.0)]
    assert_same_path(add_jumps(path, jumps, t0=0.0), folded(path, jumps, t0=0.0))
    with pytest.raises(ValueError):
        add_jumps(PiecewisePath.constant(np.zeros((2, 2))), [(1.0, np.eye(3))])


@pytest.fixture
def quad_calls(monkeypatch):
    calls = []
    orig = funcspace._quad_cell

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return orig(*args, **kwargs)

    monkeypatch.setattr(funcspace, "_quad_cell", counted)
    return calls


def test_linear_matrix_segments_use_the_closed_form(quad_calls):
    rng = np.random.default_rng(5)
    segs = [Segment.polynomial([rng.normal(size=(2, 2)), rng.normal(size=(2, 2))])
            for _ in range(3)]
    path = PiecewisePath.from_segments([0.4, 1.3], segs)
    window = (0.0, 2.0)
    got = total_variation(path, window)
    assert quad_calls == []
    cuts = [0.0, 0.4, 1.3, 2.0]
    oracle = sum(quad(lambda t, s=s: norm(s.derivative().value(t)), a, b)[0]
                 for s, a, b in zip(segs, cuts, cuts[1:]))
    oracle += sum(norm(bp.right_jump) for bp in path.breakpoints)
    assert got == pytest.approx(oracle, rel=1e-13)


def test_exp_preset_path_still_uses_quadrature(quad_calls):
    path = PiecewisePath.preset("exp", np.diag([1.0, 2.0]), (0.5,))
    got = total_variation(path, (0.0, 1.0))
    assert len(quad_calls) == 1
    # ||d/dt diag(e^{t/2}, 2 e^{t/2})|| = e^{t/2}
    assert got == pytest.approx(2.0 * (math.exp(0.5) - 1.0), rel=1e-12)


def test_measure_variation_closed_form_only_on_constant_density(quad_calls):
    mu = three_atom_measure()
    got = mu.variation((0.0, 3.0))
    assert quad_calls == [(0.0, 1.5)]
    oracle = quad(lambda t: 1.0 + 0.5 * t, 0.0, 1.5)[0] + 2.0 * 1.5 + 0.3 + 0.7 + 1.1
    assert got == pytest.approx(oracle, rel=1e-13)


def test_measure_domination_matches_quadrature():
    # C and the density are both constant only on [2, 3], the closed-form cell
    C = PiecewisePath.from_segments(
        [1.0, 2.0], [Segment.constant([[2.0, 0.0], [0.0, -1.0]]),
                     Segment.polynomial([[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.5, 0.0], [0.0, 0.0]]]),
                     Segment.constant([[0.5, 0.0], [0.0, 3.0]])])
    mu = three_atom_measure()
    got = apps._measure_domination(SimpleNamespace(C=C, u=mu), (0.0, 3.0))
    cuts = [0.0, 1.0, 1.5, 2.0, 3.0]
    oracle = sum(quad(lambda t: norm(C(t)) * float(mu.density(t)), a, b)[0]
                 for a, b in zip(cuts, cuts[1:]))
    oracle += sum(norm(C(t)) * w for t, w in mu.atoms)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_ide_context_checks_regularity_once(monkeypatch):
    calls = []
    orig = apps.check_regularity

    def counted(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(apps, "check_regularity", counted)
    impulses = tuple((float(k), np.diag([0.1, 0.0])) for k in range(1, 6))
    spec = IdeSpec(2, PiecewisePath.constant(SADDLE), impulses,
                   quadratic_forcing(0.05))
    ctx = ide_to_context(spec, s=0.0, T=6.0, grid=np.linspace(0.0, 6.0, 13))
    assert calls == [(0.0, 6.0)]
    assert ctx.regularity.V_Lambda == pytest.approx(6.0 + 0.5, rel=1e-14)
