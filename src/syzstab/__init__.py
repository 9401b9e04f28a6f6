"""Slope-semistability of syzygy bundles: exact criteria, bounds and searches."""

from .core import (
    Monomial,
    MonomialFamily,
    Polynomial,
    PolynomialFamily,
    PreconditionError,
    SectionWitness,
    StabilityVerdict,
    SubsetWitness,
    VerdictKind,
    degree,
    is_primary,
    join,
    meet,
)
from .generic_line import LineMap, LineTestResult, LineTestStatus, line_independence_test, restrict_to_line
from .monomial_stability import (
    MaxSlopeResult,
    all_monomials_family,
    family_slope,
    four_monomial_check,
    max_slope,
    max_slope_brute_force,
    oracle_verdict,
    powers_check,
    same_degree_check,
    subset_slope,
    verdict,
)
from .numeric_bounds import (
    BoundsReport,
    GenericFormsStability,
    ResolutionPair,
    ResolutionVerdict,
    bogomolov_min_degree,
    bohnhorst_spindler,
    bounds_report,
    discriminant,
    flenner_restriction_degree,
    generic_forms_predicate,
    necessary_condition,
    parameter_criterion,
    tight_closure_bound,
)
from .search import SearchResult, SearchSpec, SearchStatus, find_semistable_family
from .sections import (
    min_section_degree_monomial,
    monomial_basis,
    rank2_verdict,
    rank3_verdict,
    syzygy_section_dim,
)

__all__ = [name for name in dir() if not name.startswith("_")]
