"""Exact dimensions of syzygy-section spaces and the low-rank verdicts.

A global section of the twisted syzygy sheaf of f_1, ..., f_n at twist m is a
tuple (a_1, ..., a_n) of forms with deg a_i = m - d_i and sum a_i f_i = 0, so
its dimension is the nullity of the evaluation map

    (+) R_{m - d_i}  ->  R_m,    (a_i) |-> sum a_i f_i,

computed here by counting distinct products when every member is a single
term, and otherwise from the exact rank (``_matrix.integer_rank``) of its
integer matrix, whose columns come from the members scaled to integer
coefficients by ``core._integer_terms``.  A section at a twist where the
sheaf degree is already negative spans a destabilizing line subsheaf;
absence of sections below the slope bound certifies semistability for
sheaves of rank 2 and (with a degree hypothesis) rank 3.
"""

from __future__ import annotations

from operator import add
from typing import Optional

from ._matrix import integer_rank
from .core import (
    FamilyLike,
    Monomial,
    MonomialFamily,
    Polynomial,
    PreconditionError,
    SectionWitness,
    StabilityVerdict,
    VerdictKind,
    _as_polynomials,
    _integer_terms,
    _pure_powers,
    _vector_gcd,
    join,
)
from .monomial_stability import degree_vectors


def _require_int_twist(twist: int) -> None:
    if type(twist) is not int:
        raise PreconditionError("twist-integer", f"twist must be an integer, got {twist!r}")


def monomial_basis(N: int, m: int) -> list[Monomial]:
    """All monomials of degree m in N+1 variables; empty for m < 0."""
    _require_int_twist(m)
    if type(N) is not int or N < 0:
        raise PreconditionError("basis-variables", "need an integer N >= 0")
    if m < 0:
        return []
    return [Monomial(v) for v in degree_vectors(N + 1, m)]


def evaluation_matrix(family: FamilyLike, twist: int) -> list[list[int]]:
    """Integer matrix of (a_i) |-> sum a_i f_i at the given twist.

    Rows are indexed by the degree-``twist`` monomials, columns by the basis
    monomials of the component spaces R_{twist - d_i} in member order.  The
    syzygy section dimension is its nullity.
    """
    _require_int_twist(twist)
    polys, nvars = _as_polynomials(family)
    if twist < 0:
        return []
    row_index = {v: i for i, v in enumerate(degree_vectors(nvars, twist))}
    bases = [list(degree_vectors(nvars, twist - p.degree)) for p in polys]
    rows = [[0] * sum(map(len, bases)) for _ in row_index]
    j = 0
    for poly, basis in zip(polys, bases):
        terms = _integer_terms(poly)
        for b in basis:
            for coeff, t in terms:
                rows[row_index[tuple(map(add, b, t))]][j] += coeff
            j += 1
    return rows


def syzygy_section_dim(family: FamilyLike, twist: int) -> int:
    """Dimension of the space of degree-``twist`` syzygies of the family.

    The dimension is the number of columns minus the exact rank of the
    evaluation matrix.  When every member is a single term, each column has
    exactly one nonzero entry, so the rank is the number of distinct products
    b*t of a component basis monomial b with its member's term t, counted
    without building the matrix.  Otherwise ``integer_rank`` decides: a full
    rank mod ``_matrix.PRIME`` is exact, a deficient one is exact once a
    lifted left-kernel certificate checks over the integers, and Bareiss
    elimination runs only when that check fails.
    """
    _require_int_twist(twist)
    polys, nvars = _as_polynomials(family)
    if all(len(p.terms) == 1 for p in polys):
        columns = 0
        products = set()
        for poly in polys:
            t = poly.terms[0][1].exponents
            for b in degree_vectors(nvars, twist - poly.degree):
                products.add(tuple(map(add, b, t)))
                columns += 1
        return columns - len(products)
    rows = evaluation_matrix(polys, twist)
    if not rows or not rows[0]:
        return 0
    return len(rows[0]) - integer_rank(rows)


def min_section_degree_monomial(family: MonomialFamily) -> int:
    """Smallest twist with a nonzero syzygy section, for monomial families.

    The syzygy module of a monomial ideal is generated by the pairwise
    relations (lcm/f_i) f_i - (lcm/f_j) f_j, so the minimum is the smallest
    pairwise lcm degree.
    """
    members = family.members
    best = None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            d = join(members[i], members[j]).degree()
            if best is None or d < best:
                best = d
    assert best is not None
    return best


def _reject_common_monomial_factor(polys: list[Polynomial], criterion: str) -> None:
    """The slope-bound formulas assume no common factor; a shared monomial
    factor is detectable exactly (other shared factors are the caller's
    responsibility)."""
    common = _vector_gcd(m.exponents for p in polys for _, m in p.terms)
    if any(common):
        raise PreconditionError(
            criterion,
            "members share the monomial factor with exponents "
            f"{common}; divide it out first",
        )


def _scan_for_section(polys: list[Polynomial], rank: int) -> Optional[StabilityVerdict]:
    """Unstable, witnessed by the first twist m with a section and
    rank * m < d_1 + ... + d_n, or None when there is no such twist.

    Twists below the smallest member degree have empty component spaces, so
    the scan starts there; negative twists are vacuous by homogeneity.
    """
    total = sum(p.degree for p in polys)
    for m in range(max(0, min(p.degree for p in polys)), -(-total // rank)):
        dim = syzygy_section_dim(polys, m)
        if dim > 0:
            witness = SectionWitness(m, dim, rank * m - total)
            return StabilityVerdict(VerdictKind.UNSTABLE, witness, ("destabilizing-section",))
    return None


def rank2_verdict(f1: Polynomial, f2: Polynomial, f3: Polynomial) -> StabilityVerdict:
    """Verdict for the rank-2 syzygy sheaf of three forms without common factor.

    A section at a twist m with 2m < d1+d2+d3 has positive slope relative to
    the sheaf and certifies Unstable; no section below that bound certifies
    Semistable.  The scan over integer twists covers the bound exactly, so
    the answer is always one of the two.
    """
    polys, nvars = _as_polynomials([f1, f2, f3])
    if nvars < 3:
        raise PreconditionError(
            "rank2-variables", "the rank-2 criterion needs at least 3 variables"
        )
    _reject_common_monomial_factor(polys, "rank2-common-factor")
    return _scan_for_section(polys, 2) or StabilityVerdict(
        VerdictKind.SEMISTABLE, None, ("no-sections-below-slope-bound",)
    )


def rank3_verdict(
    f1: Polynomial, f2: Polynomial, f3: Polynomial, f4: Polynomial
) -> StabilityVerdict:
    """Verdict for the rank-3 syzygy sheaf of four primary forms in 3 variables.

    A section at a twist m with 3m < d1+...+d4 certifies Unstable.  When no
    such section exists and additionally 2*d4 <= d1+d2+d3 (largest degree
    d4), the dual sheaf has no destabilizing cosection either, certifying
    Semistable; without that inequality the scan alone is Inconclusive.

    The Semistable branch needs the members to generate a primary ideal
    (the dual-sequence argument needs an empty common zero locus).  That is
    verified exactly for monomial members; for general polynomials it is the
    caller's responsibility.
    """
    polys, nvars = _as_polynomials([f1, f2, f3, f4])
    if nvars != 3:
        raise PreconditionError(
            "rank3-variables", "the rank-3 criterion is stated for 3 variables"
        )
    _reject_common_monomial_factor(polys, "rank3-common-factor")
    unstable = _scan_for_section(polys, 3)
    if unstable is not None:
        return unstable
    # Monomials have a common zero unless one of them is constant or every
    # variable occurs as a pure power.
    vectors = [p.terms[0][1].exponents for p in polys if len(p.terms) == 1]
    if len(vectors) == 4 and all(map(any, vectors)) and len(_pure_powers(vectors)) < nvars:
        return StabilityVerdict(VerdictKind.INCONCLUSIVE, None, ("not-primary",))
    degs = sorted(p.degree for p in polys)
    if 2 * degs[3] <= degs[0] + degs[1] + degs[2]:
        return StabilityVerdict(
            VerdictKind.SEMISTABLE,
            None,
            ("no-sections-below-slope-bound", "dual-degree-condition"),
        )
    return StabilityVerdict(
        VerdictKind.INCONCLUSIVE, None, ("dual-degree-condition-fails",)
    )
