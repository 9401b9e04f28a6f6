"""Exact dimensions of syzygy-section spaces and the low-rank verdicts.

A global section of the twisted syzygy sheaf of f_1, ..., f_n at twist m is a
tuple (a_1, ..., a_n) of forms with deg a_i = m - d_i and sum a_i f_i = 0, so
its dimension is the nullity of the evaluation map

    (+) R_{m - d_i}  ->  R_m,    (a_i) |-> sum a_i f_i,

computed here by counting distinct products when every member is a single
term, and otherwise from the exact rank (``_matrix.integer_rank``) of its
integer matrix.  That matrix is built as sparse rows straight from the
members' terms, scaled to integer coefficients by ``core._integer_terms``:
column b*f_i holds one entry per term of f_i, so only nonzeros are written.
A section at a twist where the sheaf degree is already negative spans a
destabilizing line subsheaf; absence of sections below the slope bound
certifies semistability for sheaves of rank 2 and (with a degree hypothesis)
rank 3.

Above the Macaulay bound b = (N+1)(D-1)+1 (N+1 variables, largest member
degree D) at most two ranks decide every higher twist.  The nullity at m is
the excess sum dim R_{m-d_i} - dim R_m plus c_m = dim (R/I)_m, the Hilbert
function of the ideal I of the members, and c_m is read off the maps at b and
b + 1.  If c_b = 0, that is I_b = R_b, then I_m contains R_{m-b} I_b = R_m
for every m >= b.  Every primary family has c_b = 0: its ideal contains N+1
general forms of I_D, a regular sequence of degree-D forms, and the complete
intersection they generate contains every form of degree above (N+1)(D-1).
If 0 < c_b <= b and c_{b+1} = c_b, then c_m = c_b for every m >= b by
Gotzmann's persistence theorem (G. Gotzmann, Math. Z. 158, 1978; M. Green,
"Generic initial ideals", 1998, Thm. 3.8): I is generated in degrees
<= D <= b, the b-th Macaulay representation of c <= b is c binomials
C(k, k) = 1, so c^<b> = c, and c_{b+1} = c_b^<b> is the theorem's hypothesis.
Both checks are exact, so the rule is sound for every family.  The second
case needs finitely many common zeros (a constant c is their number, counted
with multiplicity) and at most b of them; any other family, for instance one
with a curve of common zeros, is ranked at the twist.
"""

from __future__ import annotations

from math import comb
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


def evaluation_matrix(family: FamilyLike, twist: int) -> list[dict[int, int]]:
    """Integer matrix of (a_i) |-> sum a_i f_i at the given twist, as sparse
    rows: one ``{column: nonzero entry}`` dict per row.

    Rows are indexed by the degree-``twist`` monomials, columns by the basis
    monomials of the component spaces R_{twist - d_i} in member order.  Each
    column b*f_i holds the integer-scaled coefficients of f_i at the rows of
    the distinct products b*t of its terms t, so only nonzeros are written.
    The syzygy section dimension is the number of columns minus its rank.
    """
    _require_int_twist(twist)
    polys, nvars = _as_polynomials(family)
    if twist < 0:
        return []
    row_index = {v: i for i, v in enumerate(degree_vectors(nvars, twist))}
    rows: list[dict[int, int]] = [{} for _ in row_index]
    j = 0
    for poly in polys:
        terms = _integer_terms(poly)
        for b in degree_vectors(nvars, twist - poly.degree):
            for coeff, t in terms:
                rows[row_index[tuple(map(add, b, t))]][j] = coeff
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

    Above the Macaulay bound b = (N+1)(D-1)+1 (largest member degree D) the
    map at b is ranked first; it misses c = dim R_b - rank dimensions.  With
    c = 0 the map is onto at every twist m >= b, and the dimension is the
    excess sum dim R_{m-d_i} - dim R_m with no map built at m.  With
    0 < c <= b the map at b + 1 is ranked too: at m = b + 1 its nullity is
    the answer, and when it misses c dimensions again the count c persists
    to every higher twist (Gotzmann, module docstring), so the dimension is
    the excess plus c.  Primary families take the first branch; a family
    with at most b common zeros, counted with multiplicity, takes the second
    once its count has settled by b; any other family falls back to the rank
    at the twist.
    """
    _require_int_twist(twist)
    polys, nvars = _as_polynomials(family)
    bound = max(0, nvars * (max(p.degree for p in polys) - 1) + 1)
    if twist > bound:
        gap = _dim(nvars, bound) - _map_rank(polys, nvars, bound)[1]
        persists = gap == 0
        if 0 < gap <= bound:
            columns, rank = _map_rank(polys, nvars, bound + 1)
            if twist == bound + 1:
                return columns - rank
            persists = _dim(nvars, bound + 1) - rank == gap
        if persists:
            return sum(_dim(nvars, twist - p.degree) for p in polys) - _dim(nvars, twist) + gap
    columns, rank = _map_rank(polys, nvars, twist)
    return columns - rank


def _dim(nvars: int, m: int) -> int:
    """dim R_m, the number of degree-m monomials in ``nvars`` variables."""
    return comb(m + nvars - 1, m) if m >= 0 else 0


def _map_rank(polys: list[Polynomial], nvars: int, twist: int) -> tuple[int, int]:
    """Number of columns and exact rank of the evaluation map at ``twist``."""
    columns = sum(_dim(nvars, twist - p.degree) for p in polys)
    if all(len(p.terms) == 1 for p in polys):
        products = {
            tuple(map(add, b, p.terms[0][1].exponents))
            for p in polys
            for b in degree_vectors(nvars, twist - p.degree)
        }
        return columns, len(products)
    return columns, integer_rank(evaluation_matrix(polys, twist))


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
