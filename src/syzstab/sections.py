"""Exact dimensions of syzygy-section spaces and the low-rank verdicts.

A global section of the twisted syzygy sheaf of f_1, ..., f_n at twist m is a
tuple (a_1, ..., a_n) of forms with deg a_i = m - d_i and sum a_i f_i = 0, so
its dimension is the nullity of the evaluation map

    (+) R_{m - d_i}  ->  R_m,    (a_i) |-> sum a_i f_i,

computed here from the Hilbert series of the members' ideal when every
member is a single term, and otherwise from the exact rank
(``_matrix.integer_rank``) of its integer matrix.

For monomial members the image of the map is I_m, the degree-m part of the
monomial ideal I they generate, so the rank is dim R_m - dim (R/I)_m, and
dim (R/I)_m = sum_k K_k dim R_{m-k} for the numerator K(t) of the Hilbert
series K(t) / (1 - t)^(N+1) of R/I.  ``_hilbert_numerator`` computes K by a
pivot recursion (D. Bayer and M. Stillman, J. Symbolic Comput. 14, 1992;
A. M. Bigatti, J. Pure Appl. Algebra 119, 1997), so no basis of R_m is
built and the cost does not grow with m.

The polynomial matrix is built as sparse rows straight from the members'
terms, scaled to integer coefficients by ``core._integer_terms``: column
b*f_i holds one entry per term of f_i, so only nonzeros are written.

A section at a twist where the sheaf degree is already negative spans a
destabilizing line subsheaf; absence of sections below the slope bound
certifies semistability for sheaves of rank 2 and (with a degree hypothesis)
rank 3.

The section dimension never falls as the twist grows, for every family in
at least one variable: multiplying a twist-m syzygy (a_1, ..., a_n) by a
variable x gives the twist-(m+1) syzygy (x a_1, ..., x a_n), and this map
is injective because R is a domain.  The low-rank scans use this lemma:
they rank the lowest twist of their range, then the highest, and bisect
between the two only when the highest has a section and the lowest has
none, so a Semistable scan ranks two twists however long its range is.

When some member has several terms, at most two ranks decide every twist
above the Macaulay bound b = (N+1)(D-1)+1 (N+1 variables, largest member
degree D); single-term families need no such rule, as one Hilbert numerator
at the twist costs the same as one at b.  The nullity at m is the excess
sum dim R_{m-d_i} - dim R_m plus c_m = dim (R/I)_m, the Hilbert function of
the ideal I of the members, and c_m is read off the maps at b and b + 1.
If c_b = 0, that is I_b = R_b, then I_m contains R_{m-b} I_b = R_m for
every m >= b.  Every primary family has c_b = 0: its ideal contains N+1
general forms of I_D, a regular sequence of degree-D forms, and the complete
intersection they generate contains every form of degree above (N+1)(D-1).
If c_b > 0, write it in its b-th Macaulay representation
c_b = sum C(a_i, i), with a_b > a_{b-1} > ... and a_i >= i; Macaulay's
theorem bounds c_{b+1} by c_b^<b> = sum C(a_i + 1, i + 1).  If c_{b+1}
reaches that bound, then c_m = sum C(a_i + m - b, i + m - b) for every
m >= b by Gotzmann's persistence theorem (G. Gotzmann, Math. Z. 158, 1978;
M. Green, "Generic initial ideals", 1998, Thm. 3.8), whose hypothesis that
I is generated in degrees <= b holds as D <= b.  Each term is
C(a_i + t, a_i - i) with a small lower index, so it is cheap at any twist.
A family with finitely many common zeros, at most b of them counted with
multiplicity, is the case where every a_i = i: c_b is their number and
c_b^<b> = c_b.  A family with a curve of common zeros can persist too:
multiples of one linear form in 3 variables have c_m = m + 1 = C(m + 1, m),
the Hilbert function of their line, from b on.  More than b common zeros
never persist from b, since a constant c_b > b has c_b^<b> > c_b.  Both
ranks are exact, so the rule is sound for every family; a family whose
c_{b+1} falls short of the bound is ranked at the twist.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import add, le
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
    evaluation matrix.  When every member is a single term, the image is the
    degree-``twist`` part of the monomial ideal of the members, and its
    dimension is read off the Hilbert numerator of that ideal (module
    docstring), without building the matrix.  Otherwise ``integer_rank``
    decides: a full rank mod ``_matrix.PRIME`` is exact, a deficient one is
    exact once a lifted left-kernel certificate checks over the integers,
    and Bareiss elimination runs only when that check fails.

    When some member has several terms, above the Macaulay bound
    b = (N+1)(D-1)+1 (largest member degree D) the map at b is ranked first;
    it misses c = dim R_b - rank dimensions.  With c = 0 the map is onto at
    every twist m >= b, and the dimension is the excess sum
    dim R_{m-d_i} - dim R_m with no map built at m.  With c > 0 the map at
    b + 1 is ranked too: at m = b + 1 its nullity is the answer, and when it
    misses exactly c^<b> dimensions, the bound of Macaulay's theorem, the
    count grows by Gotzmann persistence to sum C(a_i + m - b, i + m - b)
    for the b-th Macaulay representation c = sum C(a_i, i) (module
    docstring), so the dimension is the excess plus that count.  Primary
    families take the first branch; a family with at most b common zeros,
    or with a line of them, takes the second once its count has settled by
    b; any other family falls back to the rank at the twist.
    A single-term family is ranked at the twist directly: its Hilbert
    numerator answers any twist, so the maps at b and b + 1 would only
    compute it again.
    """
    _require_int_twist(twist)
    polys, nvars = _as_polynomials(family)
    bound = max(0, nvars * (max(p.degree for p in polys) - 1) + 1)
    if twist > bound and any(len(p.terms) > 1 for p in polys):
        c_b = _dim(nvars, bound) - _map_rank(polys, nvars, bound)[1]
        representation = _macaulay_representation(c_b, bound)
        persists = not c_b
        if c_b:
            columns, rank = _map_rank(polys, nvars, bound + 1)
            if twist == bound + 1:
                return columns - rank
            persists = _dim(nvars, bound + 1) - rank == _grown(representation, 1)
        if persists:
            excess = sum(_dim(nvars, twist - p.degree) for p in polys) - _dim(nvars, twist)
            return excess + _grown(representation, twist - bound)
    columns, rank = _map_rank(polys, nvars, twist)
    return columns - rank


def _macaulay_representation(c: int, d: int) -> list[tuple[int, int]]:
    """The d-th Macaulay representation c = sum C(a_i, i) of c >= 0, for
    d >= 1, as its pairs (a_i, i): i runs down from d, a_d > a_{d-1} > ...
    and a_i >= i, and c = 0 has no pairs.

    Each a_i is the largest a with C(a, i) at most what is left of c; what
    then remains is below C(a_i, i - 1), so the next a is below a_i and the
    greedy ends by i = 1, where C(a, 1) = a.
    """
    pairs = []
    i = d
    while c:
        a = i
        while comb(a + 1, i) <= c:
            a += 1
        pairs.append((a, i))
        c -= comb(a, i)
        i -= 1
    return pairs


def _grown(pairs: list[tuple[int, int]], t: int) -> int:
    """sum C(a_i + t, i + t) over the pairs of a d-th Macaulay
    representation of c: c^<d> applied t times, which is the Hilbert
    function t degrees past d once it persists (module docstring)."""
    return sum(comb(a + t, i + t) for a, i in pairs)


def _dim(nvars: int, m: int) -> int:
    """dim R_m, the number of degree-m monomials in ``nvars`` variables."""
    return comb(m + nvars - 1, m) if m >= 0 else 0


def _map_rank(polys: list[Polynomial], nvars: int, twist: int) -> tuple[int, int]:
    """Number of columns and exact rank of the evaluation map at ``twist``.

    Single-term members are ranked by the Hilbert numerator of their ideal
    (module docstring).  Members of degree above the twist add nothing to
    the image, so they are left out of the ideal, which keeps every degree
    in the recursion at most the twist.
    """
    columns = sum(_dim(nvars, twist - p.degree) for p in polys)
    if all(len(p.terms) == 1 for p in polys):
        numerator = _hilbert_numerator(
            [p.terms[0][1].exponents for p in polys if p.degree <= twist]
        )
        quotient = sum(c * _dim(nvars, twist - k) for k, c in numerator.items())
        return columns, _dim(nvars, twist) - quotient
    return columns, integer_rank(evaluation_matrix(polys, twist))


def _hilbert_numerator(vectors: list[tuple[int, ...]]) -> dict[int, int]:
    """The numerator K(t) of the Hilbert series K(t) / (1 - t)^n of R/I, as
    ``{degree: coefficient}``, for the ideal I of the monomials with these
    exponent vectors in n variables (no vectors: I = 0 and K = 1).

    Each step keeps the minimal generators of its ideal.  When they are
    pairwise coprime (they share no variable), K is the product of the
    factors 1 - t^deg g, as for a complete intersection.  Otherwise x_j,
    the variable that the most generators contain, lies in some minimal
    generator g together with another variable; with e the least such
    exponent of x_j, x_j^e is not in I (a generator dividing it would divide
    g properly), and the exact sequence

        0 -> R/(I : x_j^e)(-e) -> R/I -> R/(I + (x_j^e)) -> 0

    gives K(I) = K(I + (x_j^e)) + t^e K(I : x_j^e).  The recursion ends:
    in both branches the sum of the degrees of the minimal generators
    drops, since g gives way to x_j^e in I + (x_j^e) and to g / x_j^e in
    I : x_j^e, and no generator grows.  The branches wait on a stack, so
    depth costs no Python recursion.
    """
    numerator: dict[int, int] = {}
    stack = [(vectors, 0)]
    while stack:
        generators, shift = stack.pop()
        minimal: list[tuple[int, ...]] = []
        for v in sorted(set(generators), key=sum):
            if not any(all(map(le, w, v)) for w in minimal):
                minimal.append(v)
        counts = [len(column) - column.count(0) for column in zip(*minimal)]
        top = max(counts, default=0)
        if top < 2:
            product = {shift: 1}
            for g in minimal:
                d = sum(g)
                for k, c in list(product.items()):
                    product[k + d] = product.get(k + d, 0) - c
            for k, c in product.items():
                numerator[k] = numerator.get(k, 0) + c
            continue
        j = counts.index(top)
        e = min(g[j] for g in minimal if 0 < g[j] < sum(g))
        power = tuple(e if i == j else 0 for i in range(len(counts)))
        stack.append((minimal + [power], shift))
        stack.append(([g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in minimal], shift + e))
    return numerator


def min_section_degree_monomial(family: MonomialFamily) -> int:
    """Smallest twist with a nonzero syzygy section, for monomial families.

    The syzygy module of a monomial ideal is generated by the pairwise
    relations (lcm/f_i) f_i - (lcm/f_j) f_j, so the minimum is the smallest
    pairwise lcm degree.
    """
    return min(sum(map(max, a, b)) for a, b in combinations(family.exponent_vectors(), 2))


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

    The twists run from lo, the smallest member degree (below it every
    component space is empty; negative twists are vacuous by homogeneity),
    to top, the largest m with rank * m < d_1 + ... + d_n.  The section
    dimension never falls as the twist grows (module docstring), so lo is
    ranked first and a section there ends the scan; otherwise top is ranked,
    and no section there means none in the range.  Otherwise the first twist
    with a section lies in (lo, top], and bisection finds it: each step ranks
    the midpoint of an interval with no section at its left end and a
    section at its right end.  So at most 2 + ceil(log2(top - lo)) twists are
    ranked, and a Semistable scan ranks at most 2.  The witness is the first
    twist with a section and its dimension, as a scan of every twist in
    order would find them.
    """
    total = sum(p.degree for p in polys)
    lo, top = max(0, min(p.degree for p in polys)), -(-total // rank) - 1
    if lo > top:
        return None
    m, dim = lo, syzygy_section_dim(polys, lo)
    if not dim and top > lo:
        m, dim = top, syzygy_section_dim(polys, top)
        # no section at lo and dim of them at m: halve (lo, m] until adjacent
        while dim and m - lo > 1:
            mid = (lo + m) // 2
            if mid_dim := syzygy_section_dim(polys, mid):
                m, dim = mid, mid_dim
            else:
                lo = mid
    if not dim:
        return None
    witness = SectionWitness(m, dim, rank * m - total)
    return StabilityVerdict(VerdictKind.UNSTABLE, witness, ("destabilizing-section",))


def rank2_verdict(f1: Polynomial, f2: Polynomial, f3: Polynomial) -> StabilityVerdict:
    """Verdict for the rank-2 syzygy sheaf of three forms without common factor.

    A section at a twist m with 2m < d1+d2+d3 has positive slope relative to
    the sheaf and certifies Unstable; no section below that bound certifies
    Semistable.  The scan over integer twists covers the bound exactly, so
    the answer is always one of the two.  By monotonicity in the twist
    (module docstring) a Semistable answer ranks only the lowest and the top
    twist, and the Unstable witness is the first twist with a section,
    found by bisection when the lowest twist has none.
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
    The scan ranks the lowest and the top twist below 3m < d1+...+d4 and
    bisects between them for the first section only when the top twist has
    one (module docstring), as for ``rank2_verdict``.

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
