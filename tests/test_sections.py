import itertools
import random
from fractions import Fraction
from math import comb, isqrt, lcm, prod
from unittest.mock import patch

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from syzstab import _matrix, sections
from syzstab.core import (
    Monomial,
    MonomialFamily,
    Polynomial,
    PreconditionError,
    SectionWitness,
    StabilityVerdict,
    VerdictKind,
    is_primary,
)
from syzstab.monomial_stability import degree_vectors, verdict
from syzstab.sections import (
    evaluation_matrix,
    min_section_degree_monomial,
    monomial_basis,
    rank2_verdict,
    rank3_verdict,
    syzygy_section_dim,
)
from syzstab._matrix import PRIME, integer_rank
from rank_oracle import bareiss_rank as _bareiss_rank


def poly(*terms):
    return Polynomial(tuple((Fraction(c), Monomial(tuple(v))) for c, v in terms))


def mono_polys(*vectors):
    return [poly((1, v)) for v in vectors]


def sparse(rows):
    """Dense rows as ``{column: nonzero entry}`` dicts, the input of ``integer_rank``."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense_evaluation_matrix(family, twist):
    """``evaluation_matrix`` written out as dense rows over all its columns."""
    N = family[0].nvars - 1
    width = sum(len(monomial_basis(N, twist - p.degree)) for p in family)
    return [[row.get(j, 0) for j in range(width)] for row in evaluation_matrix(family, twist)]


# The mixed degree-10 form with a syzygy of degree 13 against the pure powers.
P_MIXED = poly(
    (1, (9, 1, 0)), (1, (9, 0, 1)), (1, (1, 9, 0)), (1, (0, 9, 1)), (1, (1, 0, 9)), (1, (0, 1, 9))
)
TENTH_POWERS = mono_polys((10, 0, 0), (0, 10, 0), (0, 0, 10))


def test_monomial_basis():
    assert [m.exponents for m in monomial_basis(2, 0)] == [(0, 0, 0)]
    assert monomial_basis(2, -1) == []
    assert len(monomial_basis(1, 3)) == 4
    # 1201 variables: the enumeration does not recurse once per variable
    basis = monomial_basis(1200, 1)
    assert len(basis) == 1201 and basis[0].exponents == (1,) + (0,) * 1200


# A bool twist used to be read as twist 1, a float one raised a bare
# TypeError from range.
@pytest.mark.parametrize("twist", [True, 2.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: monomial_basis(2, m),
        lambda m: evaluation_matrix([poly((1, (1, 0, 0)), (1, (0, 1, 0))), poly((1, (0, 0, 1)))], m),
        lambda m: syzygy_section_dim([poly((1, (1, 0, 0)), (1, (0, 1, 0))), poly((1, (0, 0, 1)))], m),
        lambda m: syzygy_section_dim(mono_polys((1, 0, 0), (0, 1, 0)), m),
    ],
    ids=["monomial_basis", "evaluation_matrix", "section_dim", "section_dim_monomial"],
)
def test_non_int_twist_is_rejected(call, twist):
    with pytest.raises(PreconditionError) as info:
        call(twist)
    assert info.value.criterion == "twist-integer"


# A bool N was read as 1 and a float one gave the basis of N = 2.
@pytest.mark.parametrize("N", [True, 2.0])
def test_non_int_basis_variables_are_rejected(N):
    with pytest.raises(PreconditionError) as info:
        monomial_basis(N, 2)
    assert info.value.criterion == "basis-variables"


def test_koszul_syzygy_dimension():
    assert syzygy_section_dim(mono_polys((1, 0), (0, 1)), 2) == 1


def test_degree13_syzygy_of_mixed_family():
    family = TENTH_POWERS + [P_MIXED]
    # XYZ * P lies in the pure-power ideal, giving one syzygy; the exact
    # dimension of the twist-13 section space is 1 (frozen from the nullity
    # computation).
    assert syzygy_section_dim(family, 13) == 1
    assert syzygy_section_dim(family, 12) == 0


def test_section_dim_of_explicit_syzygy():
    family = mono_polys((3, 0, 0), (1, 2, 0), (0, 2, 1))
    assert syzygy_section_dim(family, 4) == 1  # the section (0, Z, -X)
    assert syzygy_section_dim(family, 3) == 0


def test_min_section_degree_examples():
    assert min_section_degree_monomial(
        MonomialFamily.from_exponents([(3, 0, 0), (1, 2, 0), (0, 2, 1)])
    ) == 4
    assert min_section_degree_monomial(
        MonomialFamily.from_exponents([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ) == 2
    for d in (1, 2, 5):
        F = MonomialFamily.from_exponents([(d, 0, 0), (0, d, 0), (0, 0, d)])
        assert min_section_degree_monomial(F) == 2 * d


def test_koszul_floor_for_pairwise_coprime():
    rng = random.Random(3)
    for _ in range(40):
        ds = [rng.randint(1, 5) for _ in range(3)]
        F = MonomialFamily.from_exponents(
            [tuple(d if j == i else 0 for j in range(3)) for i, d in enumerate(ds)]
        )
        expected = min(ds[i] + ds[j] for i, j in itertools.combinations(range(3), 2))
        assert min_section_degree_monomial(F) == expected


def first_section_twist_by_scan(family, upper):
    for m in range(0, upper + 1):
        if syzygy_section_dim(family, m) > 0:
            return m
    return None


def test_fast_path_matches_nullity_scan_samples():
    rng = random.Random(14)
    pool = [v for v in itertools.product(range(5), repeat=3) if sum(v) > 0]
    for _ in range(25):
        vectors = rng.sample(pool, 3)
        F = MonomialFamily.from_exponents(vectors, 3)
        fast = min_section_degree_monomial(F)
        assert first_section_twist_by_scan(F, fast) == fast


def test_section_dim_matches_combinatorial_count_for_monomials():
    # for monomial members the image of the evaluation map is spanned by the
    # degree-m monomials divisible by some member, so the nullity equals
    # sum(dim R_{m-d_i}) minus that count: an independent oracle for the
    # term count, which counts distinct products instead
    rng = random.Random(21)
    for _ in range(60):
        nvars = rng.choice([2, 3])
        n = rng.randint(2, 5)
        vectors = set()
        while len(vectors) < n:
            v = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(v) > 0:
                vectors.add(v)
        family = MonomialFamily.from_exponents(sorted(vectors, reverse=True), nvars)
        m = rng.randint(0, 8)
        computed = syzygy_section_dim(family, m)
        components = sum(
            len(monomial_basis(nvars - 1, m - mem.degree())) for mem in family
        )
        in_ideal = sum(
            1
            for mono in monomial_basis(nvars - 1, m)
            if any(mem.divides(mono) for mem in family)
        )
        assert computed == components - in_ideal, (family.exponent_vectors(), m)


@st.composite
def single_term_families(draw):
    """1-5 single-term members in 1-3 variables (constants and repeated
    members included) with nonzero integer or rational coefficients, and a
    twist in 0..6."""
    nvars = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    members = draw(st.lists(st.tuples(coeff, vector), min_size=1, max_size=4))
    if draw(st.booleans()):
        members.append(members[0])
    return [poly(term) for term in members], draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(single_term_families())
def test_term_count_matches_bareiss_nullity(case):
    # single-term members skip the matrix; the nullity of the evaluation
    # matrix computed by Bareiss is the independent slow path
    family, m = case
    assert syzygy_section_dim(family, m) == direct_nullity(family, m)


def product_count_nullity(family, twist):
    """Oracle for single-term families: each column b*t of the evaluation map
    has one nonzero entry, at the row of the product b*t, so the rank is the
    number of distinct products of a component basis monomial b with its
    member's term t."""
    nvars = family[0].nvars
    products = {
        tuple(x + y for x, y in zip(b, p.terms[0][1].exponents))
        for p in family
        for b in degree_vectors(nvars, twist - p.degree)
    }
    columns = sum(len(monomial_basis(nvars - 1, twist - p.degree)) for p in family)
    return columns - len(products)


@st.composite
def monomial_families_around_the_bound(draw):
    """1-4 single-term members in 1-5 variables with nonzero integer or
    rational coefficients, sometimes with the pure powers of every variable
    (a primary family), a constant member or a repeated member added, and a
    twist anywhere from 0 to three above the Macaulay bound b.  Degrees
    shrink as variables grow, so the product count stays cheap."""
    nvars = draw(st.integers(1, 5))
    top = (5, 5, 4, 3, 2)[nvars - 1]
    coeff = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    vector = st.integers(1, top).flatmap(lambda d: st.sampled_from(list(degree_vectors(nvars, d))))
    family = [poly((draw(coeff), v)) for v in draw(st.lists(vector, min_size=1, max_size=4))]
    if draw(st.booleans()):
        family += [
            poly((draw(coeff), tuple(e if i == j else 0 for i in range(nvars))))
            for j, e in enumerate(draw(st.lists(st.integers(1, top), min_size=nvars, max_size=nvars)))
        ]
    if draw(st.integers(0, 5)) == 0:
        family.append(poly((draw(coeff), (0,) * nvars)))
    if draw(st.booleans()):
        family.append(draw(st.sampled_from(family)))
    family = draw(st.permutations(family))
    b = macaulay_bound(family)
    return family, draw(st.one_of(st.integers(0, b), st.integers(b - 1, b + 3).filter(lambda m: m >= 0)))


# X^2, X*Y, Y^2 in 3 variables: twists b = 4 and b + 1 count the point
# (0:0:1) three times; a constant member makes the map onto at every twist.
@example(([poly((1, (2, 0, 0))), poly((1, (1, 1, 0))), poly((1, (0, 2, 0)))], 6))
@example(([poly((1, (0, 0))), poly((Fraction(1, 2), (1, 1)))], 2))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(monomial_families_around_the_bound())
def test_section_dim_of_single_terms_matches_the_product_count(case):
    family, m = case
    assert syzygy_section_dim(family, m) == product_count_nullity(family, m)


def test_single_term_families_compute_one_hilbert_numerator(monkeypatch):
    # 100 distinct sextics in 5 variables at twist 40, above the Macaulay
    # bound 26: one numerator at the twist answers it, so the maps at the
    # bound are not ranked (that rule read the same 7245767 from two).
    rng = random.Random(1)
    family = mono_polys(*rng.sample(list(degree_vectors(5, 6)), 100))
    sizes = []
    original = sections._hilbert_numerator

    def counted(vectors):
        sizes.append(len(vectors))
        return original(vectors)

    monkeypatch.setattr(sections, "_hilbert_numerator", counted)
    assert syzygy_section_dim(family, 40) == 7245767
    assert sizes == [100]


def divides_one_minus_t_power(numerator, k):
    """Whether (1 - t)^k divides the polynomial ``{degree: coefficient}``."""
    coeffs = [numerator.get(i, 0) for i in range(max(numerator, default=0) + 1)]
    for _ in range(k):
        if sum(coeffs):
            return False
        coeffs = list(itertools.accumulate(coeffs))[:-1]  # the quotient by 1 - t
    return True


@st.composite
def monomial_families(draw):
    """2-6 distinct nonconstant monomials in 1-5 variables, half of the time
    with pure powers of some variables added (all of them, a primary family,
    in half of those)."""
    nvars = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    vectors = set(draw(st.lists(vector, min_size=1, max_size=5)))
    if draw(st.booleans()):
        chosen = range(nvars) if draw(st.booleans()) else draw(st.sets(st.integers(0, nvars - 1)))
        vectors |= {tuple(draw(st.integers(1, 3)) if i == j else 0 for i in range(nvars)) for j in chosen}
    assume(len(vectors) >= 2)
    return MonomialFamily.from_exponents(draw(st.permutations(sorted(vectors))), nvars)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_families())
def test_hilbert_numerator_has_the_full_power_of_one_minus_t_when_primary(family):
    # R/I has finite length exactly when I is primary to the irrelevant
    # ideal, and then the Hilbert series K(t) / (1 - t)^(N+1) is a polynomial
    numerator = sections._hilbert_numerator(list(family.exponent_vectors()))
    assert divides_one_minus_t_power(numerator, family.variables) == is_primary(family)


@st.composite
def primary_lowrank_families(draw):
    """Pure powers of X, Y, Z, plus one other distinct nonconstant monomial
    for a rank-3 (four-member) family, in random order."""
    powers = [
        tuple(e if i == j else 0 for i in range(3))
        for j, e in enumerate(draw(st.lists(st.integers(1, 5), min_size=3, max_size=3)))
    ]
    if draw(st.booleans()):
        extra = st.tuples(*[st.integers(0, 4)] * 3).filter(lambda v: sum(v) and v not in powers)
        powers.append(draw(extra))
    return draw(st.permutations(powers))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(primary_lowrank_families())
def test_lowrank_verdicts_agree_with_the_subset_engine(vectors):
    # two independent engines: section scans (through the Hilbert numerator) and
    # the subset-slope criterion on the same primary monomial family
    lowrank = (rank2_verdict if len(vectors) == 3 else rank3_verdict)(*mono_polys(*vectors))
    assume(lowrank.kind != VerdictKind.INCONCLUSIVE)
    subset = verdict(MonomialFamily.from_exponents(vectors))
    semistable = subset.kind in (VerdictKind.STABLE, VerdictKind.SEMISTABLE_NOT_STABLE)
    assert lowrank.kind == (VerdictKind.SEMISTABLE if semistable else VerdictKind.UNSTABLE)


def column_dict_evaluation_matrix(family, twist):
    """Oracle for ``evaluation_matrix``: one dict per column, copied into
    dense rows at the end."""
    nvars = family[0].nvars
    if twist < 0:
        return []
    row_index = {v: i for i, v in enumerate(degree_vectors(nvars, twist))}
    columns = []
    for p in family:
        denom = lcm(*(c.denominator for c, _ in p.terms))
        terms = [(int(c * denom), m.exponents) for c, m in p.terms]
        for b in degree_vectors(nvars, twist - p.degree):
            col = {}
            for coeff, t in terms:
                row = row_index[tuple(x + y for x, y in zip(b, t))]
                col[row] = col.get(row, 0) + coeff
            columns.append(col)
    rows = [[0] * len(columns) for _ in range(len(row_index))]
    for j, col in enumerate(columns):
        for i, value in col.items():
            rows[i][j] = value
    return rows


@st.composite
def polynomial_families(draw):
    """1-4 members in 2-4 variables, each of degree 1-4 with 1-3 distinct
    terms and nonzero integer or rational coefficients of either sign, and
    a twist in -1..8."""
    nvars = draw(st.integers(2, 4))
    coeff = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    family = []
    for _ in range(draw(st.integers(1, 4))):
        vectors = list(degree_vectors(nvars, draw(st.integers(1, 4))))
        chosen = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3, unique=True))
        family.append(poly(*((draw(coeff), v) for v in chosen)))
    return family, draw(st.integers(-1, 8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polynomial_families())
def test_evaluation_matrix_matches_column_dict_oracle(case):
    family, m = case
    assert all(all(row.values()) for row in evaluation_matrix(family, m))
    assert dense_evaluation_matrix(family, m) == column_dict_evaluation_matrix(family, m)


def times_x0_minus_x1(*terms):
    """(X_0 - X_1) g for the form g with the given (coefficient, exponents) terms."""
    product = {}
    for c, v in terms:
        for sign, j in ((1, 0), (-1, 1)):
            w = tuple(e + (i == j) for i, e in enumerate(v))
            product[w] = product.get(w, 0) + sign * c
    return poly(*((c, w) for w, c in product.items() if c))


def macaulay_bound(family):
    """b = (N+1)(D-1)+1 for N+1 variables and largest member degree D."""
    return max(0, family[0].nvars * (max(p.degree for p in family) - 1) + 1)


@st.composite
def families_near_the_macaulay_bound(draw):
    """1-4 members in 1-4 variables of mixed degrees, either single terms or
    forms of 1-3 terms with integer or rational coefficients; optionally the
    pure powers of every variable (a primary family), a repeated member,
    every member vanishing at (1:...:1) (a common zero), every member also
    free of the pure power of the first variable (two common zeros, the
    second at (1:0:...:0)), or every member a multiple of X_0 - X_1 (a common
    linear factor).  The twist lies in b-1..b+6 for the Macaulay bound b,
    b-1..b+3 in 4 variables.  Degrees shrink as variables grow, so the
    direct nullity stays cheap."""
    nvars = draw(st.integers(1, 4))
    top = (4, 3, 2, 2)[nvars - 1]
    coeff = st.one_of(
        st.integers(-5, 5).filter(bool),
        st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    )
    shapes = ["monomial", "polynomial", "common-zero"]
    shape = draw(st.sampled_from(shapes + ["two-zeros", "linear-factor"] * (nvars > 1)))
    vanishing = shape in ("common-zero", "two-zeros")
    family = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, top))
        if shape == "linear-factor":
            # (X_0 - X_1) g for a form g of degree d - 1 with 1-3 terms
            vectors = list(degree_vectors(nvars, d - 1))
            chosen = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3, unique=True))
            family.append(times_x0_minus_x1(*((draw(coeff), v) for v in chosen)))
            continue
        vectors = list(degree_vectors(nvars, d))
        if shape == "two-zeros":
            vectors = vectors[1:]  # drops X_0^d, the only term nonzero at (1:0:...:0)
        if shape == "monomial" or len(vectors) == 1:
            family.append(poly((draw(coeff), draw(st.sampled_from(vectors)))))
            continue
        least = 2 if vanishing else 1
        chosen = draw(st.lists(st.sampled_from(vectors), min_size=least, max_size=3, unique=True))
        terms = [(draw(coeff), v) for v in chosen]
        if vanishing:
            rest = sum(c for c, _ in terms[1:])
            if not rest:
                terms[1] = (2 * terms[1][0], terms[1][1])
                rest = sum(c for c, _ in terms[1:])
            terms[0] = (-rest, terms[0][1])
        family.append(poly(*terms))
    if shape in ("monomial", "polynomial") and draw(st.booleans()):
        family += mono_polys(*(
            tuple(e if i == j else 0 for i in range(nvars))
            for j, e in enumerate(draw(st.lists(st.integers(1, top), min_size=nvars, max_size=nvars)))
        ))
    if draw(st.booleans()):
        family.append(draw(st.sampled_from(family)))
    return family, macaulay_bound(family) + draw(st.integers(-1, 6 if nvars < 4 else 3))


def direct_nullity(family, twist):
    rows = dense_evaluation_matrix(family, twist)
    return len(rows[0]) - _bareiss_rank(rows) if rows and rows[0] else 0


# One variable, where b = D and twist b - 1 is below the top member's degree;
# X - Y and Y - Z, which vanish at (1:1:1) and are onto nowhere; the same
# with Z^2 added, primary, onto from twist 2 on.
@example(([poly((1, (3,))), poly((2, (1,)))], 2))
@example(([poly((1, (1, 0, 0)), (-1, (0, 1, 0))), poly((1, (0, 1, 0)), (-1, (0, 0, 1)))], 3))
@example(([poly((1, (1, 0, 0)), (-1, (0, 1, 0))), poly((1, (0, 1, 0)), (-1, (0, 0, 1))), poly((1, (0, 0, 2)))], 5))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(families_near_the_macaulay_bound())
def test_section_dim_around_the_macaulay_bound_matches_direct_nullity(case):
    """Above b the dimension is the excess plus c_m = dim (R/I)_m, grown
    from c_b by its Macaulay representation once c_{b+1} reaches Macaulay's
    bound; the nullity of the evaluation matrix computed by Bareiss is the
    oracle.

    The comparison at b + 1 is the hypothesis of Gotzmann's persistence
    theorem, and it stays in ``syzygy_section_dim`` although no family drawn
    here trips it: a copy of the rule without it passes this property (the
    ``fallback`` case of ``test_families_near_the_bound_reach_every_branch``
    fails it), while a copy that keeps c_m = c_b, as when c_b <= b, fails it.
    """
    family, m = case
    assert syzygy_section_dim(family, m) == direct_nullity(family, m)


def quotient_dim(family, d):
    """dim (R/I)_d for the ideal I of the members, with the rank from Bareiss."""
    rows = dense_evaluation_matrix(family, d)
    return len(rows) - _bareiss_rank(rows)


def branch_above(case):
    """Which rule of ``syzygy_section_dim`` decides a twist m > b + 1."""
    family, m = case
    b = macaulay_bound(family)
    if m <= b + 1:
        return None
    c = quotient_dim(family, b)
    if c == 0:
        return "onto"
    grown = sections._grown(sections._macaulay_representation(c, b), 1)
    return "persists" if quotient_dim(family, b + 1) == grown else "fallback"


@pytest.mark.parametrize("branch", ["onto", "persists", "fallback"])
def test_families_near_the_bound_reach_every_branch(branch):
    family, m = find(
        families_near_the_macaulay_bound(),
        lambda case: branch_above(case) == branch,
        settings=settings(max_examples=1000, derandomize=True, database=None, phases=[Phase.generate]),
    )
    assert syzygy_section_dim(family, m) == direct_nullity(family, m)


def ranked_row_counts(monkeypatch) -> list:
    ranked = []

    def counted(rows):
        ranked.append(len(rows))
        return integer_rank(rows)

    monkeypatch.setattr(sections, "integer_rank", counted)
    return ranked


def test_primary_quintics_rank_only_the_map_at_the_bound(monkeypatch):
    # These quintics have no common zero, so the 105-row map at b = 13 is
    # onto, and twist 22 (276 rows) is read off the excess.
    family = [
        poly((1, (5, 0, 0)), (-1, (1, 2, 2)), (2, (0, 4, 1))),
        poly((1, (0, 5, 0)), (3, (2, 2, 1)), (-1, (4, 0, 1))),
        poly((1, (0, 0, 5)), (1, (3, 1, 1)), (-2, (1, 4, 0))),
        poly((1, (2, 2, 1)), (-1, (1, 1, 3)), (1, (3, 0, 2))),
    ]
    ranked = ranked_row_counts(monkeypatch)
    dim = syzygy_section_dim(family, 22)
    assert ranked == [105]
    assert dim == 4 * comb(19, 2) - comb(24, 2)
    assert dim == direct_nullity(family, 22)


# Every member vanishes at (1:1:1), and nowhere else.
ONE_POINT_QUINTICS = [
    poly((1, (5, 0, 0)), (-1, (0, 5, 0))),
    poly((1, (0, 5, 0)), (-1, (0, 0, 5)), (2, (2, 2, 1)), (-2, (1, 2, 2))),
    poly((1, (3, 2, 0)), (-1, (0, 0, 5))),
    poly((1, (1, 4, 0)), (-1, (2, 0, 3))),
]


def test_quintics_with_one_common_zero_persist_from_the_bound(monkeypatch):
    # The maps at b = 13 (105 rows) and b + 1 (120 rows) both miss one
    # dimension, so that count persists: twist 22 (276 rows) is the excess
    # plus 1, and at twist 14 the second map is the one asked for.
    for twist in (14, 22):
        ranked = ranked_row_counts(monkeypatch)
        dim = syzygy_section_dim(ONE_POINT_QUINTICS, twist)
        assert ranked == [105, 120]
        assert dim == 4 * comb(twist - 3, 2) - comb(twist + 2, 2) + 1
        assert dim == direct_nullity(ONE_POINT_QUINTICS, twist)


# Every member is a multiple of X - Y, so they vanish on the line X = Y.
LINEAR_FACTOR_QUINTICS = [
    times_x0_minus_x1((1, (4, 0, 0)), (2, (0, 2, 2))),
    times_x0_minus_x1((1, (0, 4, 0)), (-1, (0, 0, 4)), (1, (1, 1, 2))),
    times_x0_minus_x1((1, (0, 0, 4)), (3, (2, 1, 1))),
    times_x0_minus_x1((1, (3, 1, 0)), (-1, (1, 0, 3))),
]


def test_quintics_with_a_common_linear_factor_persist_from_the_bound(monkeypatch):
    # dim (R/I)_13 = 14 + dim (R/J)_12 for the ideal J of the quartic
    # cofactors, and J_12 = R_12, so c_13 = 14 = C(14, 13) is above b = 13.
    # The map at b + 1 (120 rows) misses c_14 = 15 = C(15, 14), Macaulay's
    # bound, so c_m = C(m + 1, m) = m + 1, the Hilbert function of the line,
    # and twist 22 (276 rows) is the excess plus 23.
    ranked = ranked_row_counts(monkeypatch)
    dim = syzygy_section_dim(LINEAR_FACTOR_QUINTICS, 22)
    assert ranked == [105, 120]
    assert dim == 4 * comb(19, 2) - comb(24, 2) + 23
    assert dim == direct_nullity(LINEAR_FACTOR_QUINTICS, 22)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 13])
def test_macaulay_representation_is_the_greedy_one(d):
    # c = sum C(a_i, i) with i from d down, a_d > a_{d-1} > ... and a_i >= i
    # determines the pairs, so these properties check every representation.
    for c in range(200):
        pairs = sections._macaulay_representation(c, d)
        assert sum(comb(a, i) for a, i in pairs) == c
        assert [i for _, i in pairs] == list(range(d, d - len(pairs), -1))
        assert all(a >= i for a, i in pairs)
        assert all(a > b for (a, _), (b, _) in zip(pairs, pairs[1:]))
    # c <= d is c binomials C(i, i), which c -> c^<d> keeps at c
    for c in range(d + 1):
        pairs = sections._macaulay_representation(c, d)
        assert all(a == i for a, i in pairs)
        assert sections._grown(pairs, 7) == c
    # the dimensions of a degree-d space of forms grow as its next one
    for nvars in range(1, 4):
        pairs = sections._macaulay_representation(comb(d + nvars - 1, d), d)
        assert sections._grown(pairs, 1) == comb(d + nvars, d + 1)


@st.composite
def families_with_a_curve_of_common_zeros(draw):
    """2-4 forms with a common zero set of positive dimension: multiples of
    X_0 - X_1 in 3 or 4 variables, which vanish on a hyperplane, or, in 4
    variables, forms of 2-3 terms each divisible by X_0 or X_1, which vanish
    on the line X_0 = X_1 = 0.  Degrees 1-3 in 3 variables and 1-2 in 4, so
    the map at the Macaulay bound b + 4 stays small."""
    nvars = draw(st.integers(3, 4))
    top = 3 if nvars == 3 else 2
    on_a_line = nvars == 4 and draw(st.booleans())
    coeff = st.integers(-3, 3).filter(bool)
    family = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, top))
        if on_a_line:
            vectors = [v for v in degree_vectors(nvars, d) if v[0] or v[1]]
            chosen = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=3, unique=True))
            family.append(poly(*((draw(coeff), v) for v in chosen)))
        else:
            vectors = list(degree_vectors(nvars, d - 1))
            chosen = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3, unique=True))
            family.append(times_x0_minus_x1(*((draw(coeff), v) for v in chosen)))
    return family


@example(LINEAR_FACTOR_QUINTICS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(families_with_a_curve_of_common_zeros())
def test_section_dim_past_the_bound_with_a_curve_of_zeros_matches_the_rank_at_the_twist(family):
    """The rule above b against the nullity of the map ranked at each twist
    b + 1 .. b + 4; ``integer_rank`` is checked against Bareiss elsewhere."""
    b = macaulay_bound(family)
    N = family[0].nvars - 1
    for m in range(b + 1, b + 5):
        columns = sum(len(monomial_basis(N, m - p.degree)) for p in family)
        assert syzygy_section_dim(family, m) == columns - integer_rank(evaluation_matrix(family, m))


def test_section_dim_monotone_once_positive():
    family = mono_polys((3, 0, 0), (1, 2, 0), (0, 2, 1))
    dims = [syzygy_section_dim(family, m) for m in range(0, 9)]
    started = False
    last = 0
    for d in dims:
        if started:
            assert d >= last
        if d > 0:
            started = True
        last = d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(families_near_the_macaulay_bound())
def test_section_dim_never_falls_as_the_twist_grows(case):
    # x times a twist-m syzygy is a twist-(m+1) syzygy, nonzero as R is a
    # domain; the drawn families include non-primary ones (common zeros)
    # and ones with a common linear factor, and the twists run past b
    family, _ = case
    dims = [syzygy_section_dim(family, m) for m in range(macaulay_bound(family) + 3)]
    assert dims == sorted(dims)


def linear_scan_for_section(polys, rank):
    """Oracle for ``sections._scan_for_section``: rank every twist from the
    smallest member degree up to the slope bound, in order, and stop at the
    first section."""
    total = sum(p.degree for p in polys)
    for m in range(max(0, min(p.degree for p in polys)), -(-total // rank)):
        dim = syzygy_section_dim(polys, m)
        if dim > 0:
            witness = SectionWitness(m, dim, rank * m - total)
            return StabilityVerdict(VerdictKind.UNSTABLE, witness, ("destabilizing-section",))
    return None


def recording(twists):
    """``syzygy_section_dim`` that also appends each twist it ranks to ``twists``."""
    original = sections.syzygy_section_dim

    def counted(family, twist):
        twists.append(twist)
        return original(family, twist)

    return counted


def lowrank_outcome(family):
    """The verdict of ``rank2_verdict`` or ``rank3_verdict``, or the
    criterion of the precondition it refuses."""
    try:
        return (rank2_verdict if len(family) == 3 else rank3_verdict)(*family)
    except PreconditionError as error:
        return error.criterion


@st.composite
def lowrank_families(draw):
    """3-4 members in 3 variables, each of degree 1-5 with coefficients in
    +-1..+-3: forms of 1-4 terms; forms of 2-4 terms that all vanish at
    (1:1:1) (a common zero); forms plus a multiple of a lowest-degree member
    (a section at the lowest twist of the scan); or single terms (a monomial
    family), half of those starting with pure powers of X, Y and Z."""
    shape = draw(st.sampled_from(["polynomial", "common-zero", "lowest-twist", "monomial"]))
    size = draw(st.integers(3, 4))
    coeff = st.integers(-3, 3).filter(bool)
    family = []
    if shape == "monomial" and draw(st.booleans()):
        family = [
            poly((draw(coeff), tuple(e if i == j else 0 for i in range(3))))
            for j, e in enumerate(draw(st.lists(st.integers(1, 5), min_size=3, max_size=3)))
        ]
    while len(family) < size - (shape == "lowest-twist"):
        vectors = list(degree_vectors(3, draw(st.integers(1, 5))))
        least = 2 if shape == "common-zero" else 1
        most = 1 if shape == "monomial" else 4
        chosen = draw(st.lists(st.sampled_from(vectors), min_size=least, max_size=most, unique=True))
        terms = [(draw(coeff), v) for v in chosen]
        if shape == "common-zero":
            rest = sum(c for c, _ in terms[1:])
            if not rest:
                terms[1] = (2 * terms[1][0], terms[1][1])
                rest = sum(c for c, _ in terms[1:])
            terms[0] = (-rest, terms[0][1])
        family.append(poly(*terms))
    if shape == "lowest-twist":
        low = min(family, key=lambda p: p.degree)
        scale = draw(coeff)
        family.append(poly(*((scale * c, m.exponents) for c, m in low.terms)))
    return draw(st.permutations(family))


# X^2 - YZ, its double and Z^3: a section at the lowest twist 2
@example([poly((1, (2, 0, 0)), (-1, (0, 1, 1))), poly((2, (2, 0, 0)), (-2, (0, 1, 1))), poly((1, (0, 0, 3)))])
@example(mono_polys((3, 0, 0), (1, 2, 0), (0, 2, 1)))
@example(TENTH_POWERS + [P_MIXED])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(lowrank_families())
def test_lowrank_verdicts_match_the_linear_scan(family):
    """The bisecting scan gives the verdict, notes and witness (twist,
    section dimension, sheaf degree) of the scan of every twist in order,
    and ranks at most 2 + ceil(log2(top - lo)) twists, at most 2 when it
    finds no section.

    In a copy of ``_scan_for_section`` that returns the top twist as the
    witness, that skips the lowest twist, or that stops bisecting one twist
    early, this property fails."""
    with patch.object(sections, "_scan_for_section", linear_scan_for_section):
        expected = lowrank_outcome(family)
    ranked = []
    with patch.object(sections, "syzygy_section_dim", recording(ranked)):
        assert lowrank_outcome(family) == expected
    if isinstance(expected, str):
        return
    lo = min(p.degree for p in family)
    top = -(-sum(p.degree for p in family) // (len(family) - 1)) - 1
    assert len(ranked) <= 2 + max(top - lo - 1, 0).bit_length()
    if expected.witness is None:
        assert len(ranked) <= 2


def test_semistable_scan_ranks_the_lowest_and_the_top_twist(monkeypatch):
    # X^20, Y^21, Z^22: the twists 20..31 lie below the slope bound 63/2 and
    # have no section (the first, the Koszul relation of X^20 and Y^21, is
    # at 41); a scan of every twist ranks all 12
    twists = []
    monkeypatch.setattr(sections, "syzygy_section_dim", recording(twists))
    v = rank2_verdict(*mono_polys((20, 0, 0), (0, 21, 0), (0, 0, 22)))
    assert v.kind == VerdictKind.SEMISTABLE
    assert twists == [20, 31]


def test_section_at_the_lowest_twist_ranks_one_twist(monkeypatch):
    # X^2 - YZ and its double have the syzygy (2, -1, 0) at twist 2
    twists = []
    monkeypatch.setattr(sections, "syzygy_section_dim", recording(twists))
    f = [(1, (2, 0, 0)), (-1, (0, 1, 1))]
    v = rank2_verdict(poly(*f), poly(*((2 * c, e) for c, e in f)), poly((1, (0, 0, 3))))
    assert v.kind == VerdictKind.UNSTABLE
    assert v.witness == SectionWitness(2, 1, -3)
    assert twists == [2]


def test_rank_nullity_cross_check():
    # columns = sum of component dimensions; nullity = columns - rank
    family = TENTH_POWERS + [P_MIXED]
    for m in (11, 12, 13):
        rows = evaluation_matrix(family, m)
        comp = sum(len(monomial_basis(2, m - p.degree)) for p in family)
        assert set().union(*rows) == set(range(comp))
        assert len(rows) == len(monomial_basis(2, m))
        rank = integer_rank(rows)
        assert syzygy_section_dim(family, m) + rank == comp


def test_rank2_verdicts():
    v = rank2_verdict(*mono_polys((3, 0, 0), (1, 2, 0), (0, 2, 1)))
    assert v.kind == VerdictKind.UNSTABLE
    assert v.witness.twist == 4 and v.witness.sheaf_degree == -1
    v = rank2_verdict(*mono_polys((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert v.kind == VerdictKind.SEMISTABLE
    # regular sequence with d3 <= d1 + d2
    v = rank2_verdict(*mono_polys((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    assert v.kind == VerdictKind.SEMISTABLE


def test_rank2_needs_three_variables():
    with pytest.raises(PreconditionError):
        rank2_verdict(*mono_polys((1, 0), (0, 1), (1, 1)))


def test_lowrank_rejects_common_monomial_factor():
    # X^2 * (X, Y, Z) is a twist of a semistable bundle; the raw slope-bound
    # formula would misread its sections, so shared monomial factors are
    # rejected up front
    with pytest.raises(PreconditionError):
        rank2_verdict(*mono_polys((3, 0, 0), (2, 1, 0), (2, 0, 1)))
    with pytest.raises(PreconditionError):
        rank3_verdict(*mono_polys((3, 0, 0), (2, 1, 0), (2, 0, 1), (2, 1, 1)))


def test_rank3_verdicts():
    family = TENTH_POWERS + [P_MIXED]
    v = rank3_verdict(*family)
    assert v.kind == VerdictKind.UNSTABLE
    assert v.witness.twist == 13 and v.witness.sheaf_degree == -1
    v = rank3_verdict(*mono_polys((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)))
    assert v.kind == VerdictKind.SEMISTABLE
    # degree hypothesis 2*d4 <= d1+d2+d3 fails and no destabilizing section
    # exists below the slope bound (pairwise relations start at degree 6)
    v = rank3_verdict(*mono_polys((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 2, 1)))
    assert v.kind == VerdictKind.INCONCLUSIVE


def test_rank3_without_primary_members_is_inconclusive():
    # monomial members are checked for primariness exactly; no pure power of
    # Z here, and no destabilizing section either
    v = rank3_verdict(*mono_polys((3, 0, 0), (0, 3, 0), (2, 0, 1), (1, 1, 1)))
    assert v.kind == VerdictKind.INCONCLUSIVE
    assert "not-primary" in v.notes


def test_rank3_checks_primariness_of_repeated_and_constant_monomials():
    # (X, Y, X^2, X^2) vanishes at (0:0:1); a repeated member used to skip the
    # primary check and give Semistable
    v = rank3_verdict(*mono_polys((1, 0, 0), (0, 1, 0), (2, 0, 0), (2, 0, 0)))
    assert v.kind == VerdictKind.INCONCLUSIVE and v.notes == ("not-primary",)
    # a constant member leaves no common zero, so the check passes
    v = rank3_verdict(*mono_polys((0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)))
    assert v.kind == VerdictKind.SEMISTABLE


def test_rank3_needs_three_variables_exactly():
    quads = mono_polys((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    with pytest.raises(PreconditionError):
        rank3_verdict(*quads)


def test_integer_rank_basics():
    assert integer_rank(sparse([[1, 2], [2, 4]])) == 1
    assert integer_rank(sparse([[1, 2], [3, 4]])) == 2
    assert integer_rank(sparse([[0, 0], [0, 0]])) == 0
    assert integer_rank([]) == 0
    # rectangular with dependent columns
    assert integer_rank(sparse([[1, 0, 1], [0, 1, 1]])) == 2


def test_integer_rank_never_returns_a_deficient_modular_rank():
    assert integer_rank(sparse([[2, 0], [0, 2]])) == 2  # rank 0 mod 2
    assert integer_rank(sparse([[PRIME, 0], [0, 2]])) == 2  # rank 1 mod 2 and mod PRIME
    assert integer_rank(sparse([[PRIME]])) == 1
    assert integer_rank(sparse([[2 * PRIME]])) == 1  # rank 0 mod 2 and mod PRIME
    assert integer_rank(sparse([[PRIME, 1], [0, 1]])) == 2  # rank 2 mod 2, rank 1 mod PRIME


def test_modulus_is_prime():
    # the certificate rank mod p <= rank over Q holds for a prime modulus only
    assert PRIME > 2 and all(PRIME % d for d in range(2, isqrt(PRIME) + 1))


def _grid(entries, nrows, ncols):
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@st.composite
def integer_matrices(draw):
    """0-8 x 0-8 integer matrices whose ranks mod 2 and mod PRIME often fall
    short: all-even entries, entries that are even or multiples of PRIME,
    entries beyond 64 bits, and products through 0-3 inner dimensions; plus
    tall and wide thin products (up to 8 x 16 or 16 x 8) whose rank falls
    short of the smaller side, so that both orientations need a certificate."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    small = st.integers(-3, 3)
    kind = draw(st.sampled_from(["small", "even", "prime", "huge", "product", "tall", "wide"]))
    if kind in ("tall", "wide"):
        short = draw(st.integers(1, 8))
        long = draw(st.integers(short + 1, 16))
        nrows, ncols = (long, short) if kind == "tall" else (short, long)
        k = draw(st.integers(0, short - 1))
    elif kind == "product":
        k = draw(st.integers(0, 3))
    if kind in ("product", "tall", "wide"):
        left, right = draw(_grid(small, nrows, k)), draw(_grid(small, k, ncols))
        return [[sum(row[t] * right[t][j] for t in range(k)) for j in range(ncols)] for row in left]
    entries = {
        "small": small,
        "even": small.map(lambda x: 2 * x),
        "prime": st.one_of(small.map(lambda x: PRIME * x), small.map(lambda x: 2 * x)),
        "huge": st.builds(lambda a, b: a * 2**70 + b, small, small),
    }[kind]
    return draw(_grid(entries, nrows, ncols))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_integer_rank_matches_bareiss(rows):
    assert integer_rank(sparse(rows)) == _bareiss_rank(rows)


@st.composite
def forms_through_ones(draw):
    """Two quadrics in 3 variables, each a sum of three terms c (X^a - X^b)
    with c in +-1, +-2, so both vanish at (1:1:1), and a twist in 6..9.
    There their maps are deficient, and many have a left-kernel vector
    beyond the one-prime lift bound, so their certificates take several
    primes."""
    quadrics = list(degree_vectors(3, 2))
    family = []
    for _ in range(2):
        terms = {}
        for _ in range(3):
            a, b = draw(st.lists(st.sampled_from(quadrics), min_size=2, max_size=2, unique=True))
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            terms[a], terms[b] = terms.get(a, 0) + c, terms.get(b, 0) - c
        terms = [(c, v) for v, c in terms.items() if c]
        assume(terms)
        family.append(poly(*terms))
    return family, draw(st.integers(6, 9))


@st.composite
def sparse_maps(draw):
    """Sparse rows and their dense form: a matrix of ``integer_matrices``
    (tall and wide, negative entries, multiples of PRIME, entries beyond 64
    bits) with rows repeated or added as combinations of two rows, with
    multipliers past the lift bound isqrt(PRIME // 2) or PRIME added in one
    column, empty rows and all-zero columns put in, and the rows shuffled;
    or, one time in four, the evaluation map of ``forms_through_ones``."""
    if draw(st.integers(0, 3)) == 0:
        family, m = draw(forms_through_ones())
        return evaluation_matrix(family, m), dense_evaluation_matrix(family, m)
    dense = draw(integer_matrices())
    width = len(dense[0]) if dense else 0
    multiplier = st.sampled_from([0, 1, -1, 2, 10**6, -(10**6) - 1])
    for _ in range(draw(st.integers(0, 3)) if dense else 0):
        a, b = draw(st.sampled_from(dense)), draw(st.sampled_from(dense))
        s, t = draw(multiplier), draw(multiplier)
        row = [s * x + t * y for x, y in zip(a, b)]
        if width and draw(st.booleans()):
            # dependent mod PRIME only, off by PRIME in one column
            row[draw(st.integers(0, width - 1))] += PRIME
        dense.append(row)
    dense += [[0] * width for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, width))
        dense = [row[:j] + [0] + row[j:] for row in dense]
        width += 1
    dense = draw(st.permutations(dense))
    return sparse(dense), dense


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sparse_maps())
def test_integer_rank_of_sparse_rows_matches_bareiss_of_dense_rows(case):
    rows, dense = case
    with patch.object(_matrix, "_kernel_vector_mod_p", wraps=_matrix._kernel_vector_mod_p) as certified:
        rank = integer_rank(rows)
    assert rank == _bareiss_rank(dense)
    # A rank equal to min(rows, nonzero columns) whose minors are all below
    # PRIME (Hadamard: each is at most the product of its rows' norms) is
    # also the rank mod PRIME, so it returns without a certificate; all-zero
    # columns count for nothing.
    full = min(len(rows), len(set().union(*rows)))
    norms = sorted((sum(x * x for x in row.values()) for row in rows), reverse=True)
    if rank == full and prod(norms[:full]) < PRIME**2:
        assert not certified.called


def count_primes(monkeypatch) -> list:
    """The prime of every elimination ``integer_rank`` runs from here on."""
    primes = []

    def counted(rows, full, slots=None, p=PRIME):
        primes.append(p)
        return rank_mod_p(rows, full, slots, p)

    rank_mod_p = _matrix._rank_mod_p
    monkeypatch.setattr(_matrix, "_rank_mod_p", counted)
    return primes


def test_section_scan_through_the_bareiss_fallback(monkeypatch):
    # X - Y and Y - Z vanish at (1:1:1) in every characteristic, so from
    # twist 2 on the evaluation map misses R_m by one dimension mod 2, mod
    # PRIME and over Q.  The syzygy module is free on the Koszul relation of
    # degree 2, so the twist-m sections are R_{m-2}.
    primes = count_primes(monkeypatch)
    family = [poly((1, (1, 0, 0)), (-1, (0, 1, 0))), poly((1, (0, 1, 0)), (-1, (0, 0, 1)))]
    for m in range(1, 7):
        assert syzygy_section_dim(family, m) == comb(m, 2)
    # Evaluation at (1:1:1), the all-ones left-kernel vector, certifies each
    # deficient rank at the first prime.
    assert set(primes) == {PRIME}


def thin_product(nrows, ncols, k, seed):
    rng = random.Random(seed)
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def test_deficient_rank_is_certified_in_both_orientations(monkeypatch):
    primes = count_primes(monkeypatch)
    wide = thin_product(6, 11, 3, seed=5)
    tall = [list(col) for col in zip(*wide)]
    assert _bareiss_rank(wide) == 3
    assert integer_rank(sparse(wide)) == integer_rank(sparse(tall)) == 3
    assert primes == [PRIME, PRIME]


def test_kernel_entries_beyond_one_prime_lift_take_a_second_prime(monkeypatch):
    # the left kernel is spanned by (-N, 1); N exceeds isqrt(PRIME // 2), so
    # no lift of -N mod PRIME checks, and it lifts mod the product of two
    # primes near 2^30
    primes = count_primes(monkeypatch)
    N = 10**6
    assert integer_rank(sparse([[1, 2, 3], [N, 2 * N, 3 * N]])) == 1
    assert len(primes) == 2


def test_kernel_entries_of_forty_digits_lift_over_nine_primes(monkeypatch):
    # -N lifts once isqrt(M // 2) >= N = 10^40, that is M > 2 * 10^80, which
    # takes the product of 9 primes below 2^30 (2^267 > 2 * 10^80 > 2^266)
    primes = count_primes(monkeypatch)
    N = 10**40
    assert integer_rank(sparse([[1, 2, 3], [N, 2 * N, 3 * N]])) == 1
    assert len(primes) == 9 and len(set(primes)) == 9


def test_unlucky_prime_is_dropped_for_the_next_prime(monkeypatch):
    # the first row vanishes mod PRIME, so the rank mod PRIME is 1 and the
    # would-be kernel vector (1, 0) fails the exact check; the next prime
    # gives the full rank 2
    primes = count_primes(monkeypatch)
    assert integer_rank(sparse([[PRIME, 2 * PRIME, 0], [0, 0, 2]])) == 2
    assert len(primes) == 2


def test_unlucky_prime_between_lucky_ones_is_not_combined(monkeypatch):
    # Rows 0 and 1 are the pivots over Q and row 2 = N * row 1.  Mod PRIME
    # the kernel vector (0, -N, 1) does not lift; the first row vanishes mod
    # the second prime, whose rank 1 is dropped; the third prime's residues,
    # combined with PRIME's, lift to (0, -N, 1).
    primes = count_primes(monkeypatch)
    second = (1 << 30) - 41
    N = 10**6
    rows = [[second, 0, 0, 0], [0, 1, 2, 3], [0, N, 2 * N, 3 * N]]
    assert integer_rank(sparse(rows)) == 2
    assert [(1 << 30) - p for p in primes] == [35, 41, 83]


def test_same_rank_with_earlier_dependent_rows_restarts_the_combination(monkeypatch):
    # Row 0 = PRIME * row 1: mod PRIME row 0 is the dependent one, and its
    # kernel vector (1, 0) fails the check.  Every other prime takes row 0 as
    # the pivot, a later dependent row, which starts a new combination:
    # (-1/PRIME, 1) lifts once isqrt(M // 2) >= PRIME, after 3 more primes.
    primes = count_primes(monkeypatch)
    assert integer_rank(sparse([[PRIME, PRIME], [1, 1]])) == 1
    assert [(1 << 30) - p for p in primes] == [35, 41, 83, 101]


# A quartic monomial and two linear forms in 4 variables, with common zeros
# such as (0 : -15 : 8 : -21): from twist 4 on the kernel entries of their
# evaluation maps outgrow the one-prime lift bound.
FOUR_POINTS = [
    poly((-3, (1, 0, 2, 1))),
    poly(
        (Fraction(-1), (1, 0, 0, 0)),
        (Fraction(-1, 3), (0, 1, 0, 0)),
        (Fraction(-1, 3), (0, 0, 0, 1)),
        (Fraction(-3, 2), (0, 0, 1, 0)),
    ),
    poly((1, (1, 0, 0, 0)), (-3, (0, 1, 0, 0)), (1, (0, 0, 0, 1)), (-3, (0, 0, 1, 0))),
]


@pytest.mark.parametrize("twist, dim, most_primes", [(4, 10, 2), (10, 242, 4), (13, 574, 5)])
def test_four_common_points_rank_over_a_few_primes(monkeypatch, twist, dim, most_primes):
    primes = count_primes(monkeypatch)
    assert syzygy_section_dim(FOUR_POINTS, twist) == dim
    assert len(primes) <= most_primes


def test_rational_family_deficient_mod_2_is_certified_mod_p(monkeypatch):
    # scaled to integers, X/2 + Y/2 and X/3 - Y/3 become X + Y and X - Y,
    # equal mod 2; over Q the family is a change of coordinates of (X, Y, Z)
    primes = count_primes(monkeypatch)
    family = [
        poly((Fraction(1, 2), (1, 0, 0)), (Fraction(1, 2), (0, 1, 0))),
        poly((Fraction(1, 3), (1, 0, 0)), (Fraction(-1, 3), (0, 1, 0))),
        poly((1, (0, 0, 1))),
    ]
    coordinates = mono_polys((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for m in range(1, 6):
        assert syzygy_section_dim(family, m) == syzygy_section_dim(coordinates, m)
    assert set(primes) == {PRIME}


def test_rational_coefficient_family():
    f = poly((Fraction(1, 2), (2, 0, 0)), (1, (0, 2, 0)))
    g = poly((1, (0, 2, 0)))
    h = poly((1, (0, 0, 2)))
    # kernel dimension is invariant under scaling members
    assert syzygy_section_dim([f, g, h], 2) == 0
    assert syzygy_section_dim([f, g, h], 4) == syzygy_section_dim(
        [poly((1, (2, 0, 0)), (2, (0, 2, 0))), g, h], 4
    )
