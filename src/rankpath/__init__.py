"""rankpath: certified on-variety paths between bounded-rank matrices.

The variety of m x n matrices of rank below t carries two metrics: the
outer one inherited from Frobenius distance and the inner one measured
along curves that stay on the variety.  This package constructs explicit
polyline paths witnessing that the two are equivalent, with the certified
ratio bound 2t - 2, and ships the independent estimators, combinators,
counterexample demonstrations and trial harness around that construction.
On glibc, importing it fixes the allocator's mmap and trim thresholds
(see ``_heap``), so large builds reuse freed heap pages.
"""

from .combinators import (
    CertifiedBuilder,
    circle_builder,
    cone_builder,
    flat_builder,
    line_builder,
    product_builder,
    variety_builder,
)
from .harness import (
    RankPairStrategy,
    TrialConfig,
    TrialReport,
    adversarial_pairs,
    emit_report,
    mix_seed,
    run_trials,
)
from .numkernel import (
    DimensionMismatch,
    NormalizationError,
    NoUsableEigenpair,
    ScalarField,
    Side,
    as_matrix,
    frobenius_distance,
    frobenius_inner,
    frobenius_norm,
    leading_nonzero_eigenpair,
    numerical_ranks,
    unitary_completion,
)
from .oracles import OracleConfig, Sandwich, graph_upper_bound, sandwich, shorten
from .paths import (
    BranchKind,
    BranchTag,
    MembershipError,
    ORTHOGONALITY_THRESHOLD,
    PathCertificate,
    PiecewisePath,
    build_path,
    build_paths,
    certify,
    normalize_pair,
)
from .polymap import (
    PolyMap,
    PolyParseError,
    cusp_family_map,
    cusp_ratio_table,
    evaluate,
    fit_loglog_slope,
    format_poly_map,
    parse_poly_map,
    pullback_residual,
    surface_demo,
)
from .variety import (
    DEFAULT_MEMBERSHIP_TOL,
    StratumError,
    VarietyDescriptor,
    codimension,
    is_member,
    membership_residual,
    membership_residuals,
    project,
    projections,
    rank_of,
    sample_stratum,
)

from . import _heap

_heap.fix_heap_thresholds()

__version__ = "0.1.0"
