"""Stable-manifold solver for impulsive and measure-driven systems, built on
gauge-limit (Kurzweil) and Perron-Stieltjes integration.

Layer map: ``funcspace`` holds the piecewise-smooth path and measure
primitives, ``kurzweil`` the two integral evaluators, ``linsys`` the
fundamental operator, ``dichotomy`` the hyperbolic-splitting certificates,
``lp_manifold`` the fixed-point manifold solver, ``apps`` the impulsive /
measure-driven front-ends, and ``cli`` the command-line entry point.
"""

__version__ = "0.1.0"

from .funcspace import (  # noqa: F401
    PiecewisePath,
    Segment,
    StieltjesMeasure,
    TaggedDivision,
    norm,
    running_integral,
    total_variation,
)
from .kurzweil import (  # noqa: F401
    IntegralResult,
    PointIntervalFn,
    cross_check,
    ks_integral_ref,
    stieltjes_integral,
)
from .linsys import (  # noqa: F401
    FundamentalOperator,
    LinearSystemSpec,
    check_regularity,
)
from .dichotomy import (  # noqa: F401
    DichotomyData,
    certify,
    spectral_projection,
    verify_dichotomy,
)
from .lp_manifold import (  # noqa: F401
    LPContext,
    ManifoldGraph,
    NonlinearitySpec,
    SolutionPath,
    bisect_manifold_oracle,
    classify_initial,
    contraction_estimate,
    invariance_check,
    lp_operator_apply,
    manifold_graph,
    solve_lp,
)
from .apps import (  # noqa: F401
    IdeSpec,
    MdeSpec,
    check_hypotheses,
    ide_to_context,
    mde_to_context,
)
