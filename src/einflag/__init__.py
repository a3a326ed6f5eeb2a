"""Invariant Einstein metrics on real flag manifolds of split classical Lie groups.

The package builds the compact symmetry algebra of a flag manifold from
exact integer matrices, decomposes the isotropy representation, spans the
full family of invariant metrics (including intertwined coefficients of
equivalent summands), evaluates Ricci and scalar curvature, and locates
every invariant Einstein metric by exact counts in integer arithmetic,
the diagonal ones and, on a pair of equivalent summands, the ones with a
nonzero mixing coefficient, named by an exact branch catalog where one matches.
Solutions with equal normalized Einstein constants are screened for
genuine isometry by explicit pullback witnesses.
"""

from .algebra import build_algebra
from .curvature import CurvatureReport, curvature, reduced_ricci, u_map
from .einstein import (
    EinsteinSolution,
    EquivalenceGroup,
    SolutionSet,
    StageCertificate,
    TableExpectation,
    TableRow,
    closed_form_solutions,
    equivalence_screen,
    numeric_solutions,
    published_row,
    solve,
    table1_row,
)
from .errors import (
    BadFlag,
    BadPartition,
    EinflagError,
    InvariantViolation,
    NoCatalogEntry,
    NotPositiveDefinite,
    TooManyParameters,
    UnimplementedCase,
    UnsupportedRank,
)
from .flag import (
    Decomposition,
    FlagSpec,
    Submodule,
    decompose_isotropy,
    enumerate_small_flags,
    make_flag,
    manifold_name,
    parse_flag_spec,
)
from .invariant import (
    Frame,
    InvariantMetric,
    MetricSpace,
    make_metric,
    metric_space,
    orthonormal_frame,
)

__version__ = "0.1.0"

# the check suite, einflag.verify, loads at the first read of one of these
_VERIFY_NAMES = ("CHECK_NAMES", "CheckResult", "run_checks")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "build_algebra",
    "CurvatureReport",
    "curvature",
    "reduced_ricci",
    "u_map",
    "EinsteinSolution",
    "EquivalenceGroup",
    "SolutionSet",
    "StageCertificate",
    "TableExpectation",
    "TableRow",
    "closed_form_solutions",
    "equivalence_screen",
    "numeric_solutions",
    "published_row",
    "solve",
    "table1_row",
    "EinflagError",
    "BadFlag",
    "BadPartition",
    "InvariantViolation",
    "NoCatalogEntry",
    "NotPositiveDefinite",
    "TooManyParameters",
    "UnimplementedCase",
    "UnsupportedRank",
    "Decomposition",
    "FlagSpec",
    "Submodule",
    "decompose_isotropy",
    "enumerate_small_flags",
    "make_flag",
    "manifold_name",
    "parse_flag_spec",
    "Frame",
    "InvariantMetric",
    "MetricSpace",
    "make_metric",
    "metric_space",
    "orthonormal_frame",
    "CHECK_NAMES",
    "CheckResult",
    "run_checks",
]
