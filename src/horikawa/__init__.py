"""Exact-arithmetic verification of the elliptic-to-Horikawa blow-down pipeline.

Integer Picard-lattice arithmetic on blown-up Hirzebruch surfaces, the
Hirzebruch-Jung / class-T chain calculus, double-cover invariants, rational
blow-down invariant bookkeeping, the pipeline tying them together, and the
report every run prints.
"""

from .blowdown import (
    ChainContribution,
    ContractionSet,
    SmoothedFiberInvariants,
    branch_compatibility,
    discrepancies,
    k2_correction,
    smoothing_invariants,
)
from .classt import (
    CLASS_T,
    NOT_CLASS_T,
    RATIONAL_DOUBLE_POINT,
    ChainClassification,
    CyclicQuotient,
    ResolutionChain,
    TData,
    expand_t_chain,
    generate_class_t,
    hj_expand,
    hj_value,
    recognize_class_t,
)
from .covers import (
    HIRZEBRUCH_INVARIANTS,
    H1Margin,
    NoetherResult,
    SurfaceInvariants,
    TangencyCount,
    double_cover_invariants,
    h0_hirzebruch,
    h1_vanishing_by_degree,
    noether_check,
    tangency_condition_count,
)
from .lattice import BlownHirzebruch, DivisorClass, NegativityResult
from .pipeline import (
    EnConfiguration,
    build_en_configuration,
    elliptic_surface_invariants,
    horikawa_direct,
    single_contraction_report,
    verify_en_identities,
    w4_example,
)
from .report import EnReport, Identity

__version__ = "0.1.0"

__all__ = [
    "BlownHirzebruch",
    "DivisorClass",
    "NegativityResult",
    "CyclicQuotient",
    "ResolutionChain",
    "TData",
    "ChainClassification",
    "CLASS_T",
    "RATIONAL_DOUBLE_POINT",
    "NOT_CLASS_T",
    "hj_expand",
    "hj_value",
    "expand_t_chain",
    "recognize_class_t",
    "generate_class_t",
    "SurfaceInvariants",
    "H1Margin",
    "NoetherResult",
    "TangencyCount",
    "HIRZEBRUCH_INVARIANTS",
    "h0_hirzebruch",
    "double_cover_invariants",
    "h1_vanishing_by_degree",
    "noether_check",
    "tangency_condition_count",
    "ContractionSet",
    "ChainContribution",
    "SmoothedFiberInvariants",
    "discrepancies",
    "k2_correction",
    "smoothing_invariants",
    "branch_compatibility",
    "EnConfiguration",
    "EnReport",
    "Identity",
    "build_en_configuration",
    "verify_en_identities",
    "horikawa_direct",
    "elliptic_surface_invariants",
    "w4_example",
    "single_contraction_report",
]
