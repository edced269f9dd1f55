"""Stable-manifold solver for impulsive and measure-driven systems, built on
gauge-limit (Kurzweil) and Perron-Stieltjes integration.

Layer map: ``funcspace`` holds the piecewise-smooth path and measure
primitives, ``kurzweil`` the two integral evaluators, ``linsys`` the
fundamental operator, ``dichotomy`` the hyperbolic-splitting certificates,
``lp_manifold`` the fixed-point manifold solver, ``apps`` the impulsive /
measure-driven front-ends, and ``cli`` the command-line entry point.

The public names below resolve on first access (PEP 562), so importing the
package, or one layer of it, loads no other layer.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "funcspace": ("PiecewisePath", "Segment", "StieltjesMeasure",
                  "TaggedDivision", "norm", "running_integral"),
    "kurzweil": ("IntegralResult", "PointIntervalFn", "cross_check",
                 "ks_integral_ref", "stieltjes_integral"),
    "linsys": ("FundamentalOperator", "LinearSystemSpec", "check_regularity"),
    "dichotomy": ("DichotomyData", "certify", "spectral_projection",
                  "verify_dichotomy"),
    "lp_manifold": ("LPContext", "ManifoldGraph", "NonlinearitySpec",
                    "SolutionPath", "bisect_manifold_oracle",
                    "classify_initial", "contraction_estimate",
                    "invariance_check", "lp_operator_apply",
                    "manifold_graph", "solve_lp"),
    "apps": ("IdeSpec", "MdeSpec", "check_hypotheses", "ide_to_context",
             "mde_to_context"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, or a layer, imported on its first access."""
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
