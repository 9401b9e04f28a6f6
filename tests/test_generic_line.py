import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syzstab.core import (
    Monomial,
    MonomialFamily,
    Polynomial,
    PreconditionError,
    VerdictKind,
    _integer_terms,
)
from syzstab.generic_line import (
    LineMap,
    LineTestStatus,
    _candidates,
    _nonzero_minor,
    _rank_at,
    _symbolic_rows,
    line_independence_test,
    restrict_to_line,
)
from syzstab.monomial_stability import degree_vectors, verdict
from syzstab.core import is_primary
from rank_oracle import bareiss_rank as _bareiss_rank


CUBICS = MonomialFamily.from_exponents([(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)])
DEPENDENT = MonomialFamily.from_exponents(
    [(4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 1, 0), (3, 0, 1)]
)


def _scaled_rank(rows):
    """Oracle: Bareiss rank of the rational rows, each scaled by the lcm of
    its denominators."""
    scaled = []
    for row in rows:
        m = lcm(*(c.denominator for c in row))
        scaled.append([int(c * m) for c in row])
    return _bareiss_rank(scaled)


def test_line_map_rejects_proportional_vectors():
    with pytest.raises(ValueError):
        LineMap((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    with pytest.raises(ValueError):
        LineMap((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    LineMap((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_restrict_to_line_substitution():
    # Z -> X + Y restriction of Example family: all four rows independent
    line = LineMap((Fraction(1), Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(1)))
    rows = restrict_to_line(CUBICS, line)
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    assert _scaled_rank(rows) == 4
    # X^3 -> U^3, Y^3 -> V^3 under the identity-like projection
    proj = LineMap((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))
    rows = restrict_to_line(CUBICS, proj)
    assert rows[0] == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    assert rows[1] == [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert rows[2] == [Fraction(0)] * 4


def test_restriction_of_shared_power_rows_is_degenerate():
    line = LineMap(
        (Fraction(2), Fraction(1), Fraction(-1)), (Fraction(1), Fraction(3), Fraction(2))
    )
    rows = restrict_to_line(DEPENDENT, line)
    sub = [rows[0], rows[3], rows[4]]  # X^4, X^3*Y, X^3*Z
    assert _scaled_rank(sub) <= 2


def test_certified_yes_for_independent_family():
    result = line_independence_test(CUBICS)
    assert result.status == LineTestStatus.CERTIFIED_YES
    assert result.witness is not None
    assert _scaled_rank(restrict_to_line(CUBICS, result.witness)) == 4


def test_probably_no_then_certified_no():
    result = line_independence_test(DEPENDENT, trials=64, seed=0)
    assert result.status == LineTestStatus.PROBABLY_NO
    assert result.trials_used == 64
    exact = line_independence_test(DEPENDENT, exhaustive=True)
    assert exact.status == LineTestStatus.CERTIFIED_NO


def test_two_variable_basis_family_uses_identity():
    F = MonomialFamily.from_exponents([(3, 0), (2, 1), (1, 2), (0, 3)])
    result = line_independence_test(F)
    assert result.status == LineTestStatus.CERTIFIED_YES
    assert result.witness.u == (Fraction(1), Fraction(0))
    assert result.witness.v == (Fraction(0), Fraction(1))
    assert result.trials_used == 0


def test_drop_last_variable_witness():
    # members restrict to the full binary basis once Z is sent to 0
    F = MonomialFamily.from_exponents([(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    result = line_independence_test(F)
    assert result.status == LineTestStatus.CERTIFIED_YES
    assert result.witness.u[2] == 0 and result.witness.v[2] == 0


def test_more_members_than_binary_forms_is_certified_no():
    F = MonomialFamily.from_exponents([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])
    result = line_independence_test(F)
    assert result.status == LineTestStatus.CERTIFIED_NO


def test_determinism_under_fixed_seed():
    results = [line_independence_test(DEPENDENT, trials=16, seed=5) for _ in range(3)]
    assert results[0] == results[1] == results[2]
    # the sampled trial count is exactly the requested number on failure
    assert results[0].trials_used == 16


def test_exhaustive_size_limits():
    big = MonomialFamily.from_exponents(
        [(5, 0, 0), (0, 5, 0), (0, 0, 5), (4, 1, 0), (4, 0, 1), (3, 2, 0)]
    )
    with pytest.raises(PreconditionError):
        line_independence_test(big, exhaustive=True)


def test_certified_yes_implies_not_unstable_for_full_count_families():
    # the semistability implication needs n = d+1: the images then form a
    # basis of the degree-d binary forms
    from syzstab.monomial_stability import all_monomials_family

    rng = random.Random(62)
    checked = 0
    while checked < 12:
        d = rng.randint(3, 5)
        monos = list(all_monomials_family(2, d).exponent_vectors())
        pure = {i for i, v in enumerate(monos) if sum(1 for e in v if e) == 1}
        chosen = set(pure)
        while len(chosen) < d + 1:
            chosen.add(rng.randrange(len(monos)))
        F = MonomialFamily.from_exponents([monos[i] for i in sorted(chosen)], 3)
        assert is_primary(F)
        result = line_independence_test(F, trials=32, seed=9)
        if result.status != LineTestStatus.CERTIFIED_YES:
            continue
        checked += 1
        assert any("semistable" in note for note in result.notes)
        assert verdict(F).kind != VerdictKind.UNSTABLE


def test_independence_below_full_count_does_not_certify_semistability():
    # independent images exist for this 4-member degree-5 family, yet the
    # pair {X^5, X^4*Z} destabilizes it: slope -6 > -20/3
    F = MonomialFamily.from_exponents([(5, 0, 0), (4, 0, 1), (0, 5, 0), (0, 0, 5)])
    result = line_independence_test(F)
    assert result.status == LineTestStatus.CERTIFIED_YES
    assert result.notes == ()
    assert verdict(F).kind == VerdictKind.UNSTABLE


def test_one_variable_family_is_a_precondition_violation():
    # every map of one variable is proportional, so no line can be sampled
    family = [Polynomial(((Fraction(c), Monomial((2,))),)) for c in (1, 2)]
    with pytest.raises(PreconditionError) as info:
        line_independence_test(family)
    assert info.value.criterion == "line-variables"


def test_negative_trials_are_a_precondition_violation():
    with pytest.raises(PreconditionError) as info:
        line_independence_test(CUBICS, trials=-5)
    assert info.value.criterion == "line-trials"
    result = line_independence_test(DEPENDENT, trials=0)
    assert result.status == LineTestStatus.PROBABLY_NO and result.trials_used == 0


# 2.5 trials used to raise a bare TypeError from range, True ran one trial.
@pytest.mark.parametrize("trials", [2.5, True])
def test_non_int_trials_are_a_precondition_violation(trials):
    with pytest.raises(PreconditionError) as info:
        line_independence_test(DEPENDENT, trials=trials)
    assert info.value.criterion == "line-trials"


# random.Random took these: True as seed 1, a float or a string by its hash.
@pytest.mark.parametrize("seed", [True, 1.5, "x"])
def test_non_int_seed_is_a_precondition_violation(seed):
    with pytest.raises(PreconditionError) as info:
        line_independence_test(DEPENDENT, trials=4, seed=seed)
    assert info.value.criterion == "line-seed"


@st.composite
def polynomial_families(draw, max_members=4, max_terms=4):
    """1-``max_members`` forms of one degree 1-4 in 2-4 variables, rational coefficients."""
    nvars, d = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    monos = list(degree_vectors(nvars, d))
    coeff = st.fractions(-9, 9, max_denominator=6).filter(bool)

    def member():
        exps = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
        return Polynomial(tuple((draw(coeff), Monomial(e)) for e in exps))

    return [member() for _ in range(draw(st.integers(1, max_members)))]


def _value(terms, point):
    """Sum of c * prod(x^e) over (exponents, c) terms, straight from the terms."""
    return sum(c * prod(x**e for x, e in zip(point, exps)) for exps, c in terms)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polynomial_families(), st.data())
def test_one_expansion_matches_substitution(family, data):
    nvars, d = family[0].nvars, family[0].degree
    coords = st.lists(st.integers(-4, 4), min_size=nvars, max_size=nvars)
    u, v = data.draw(coords), data.draw(coords)
    assume(any(u[i] * v[j] != u[j] * v[i] for i in range(nvars) for j in range(nvars)))
    rows = restrict_to_line(family, LineMap(u, v))
    assert all(type(c) is Fraction for row in rows for c in row)
    # the image at (U, V) is the member at X_j = u_j*U + v_j*V; d+2 points pin it
    for U, V in ((1, 0), (0, 1), (1, 1), (2, -1), (-3, 2), (1, 3)):
        x = [a * U + b * V for a, b in zip(u, v)]
        for f, row in zip(family, rows):
            terms = [(m.exponents, c) for c, m in f.terms]
            assert sum(r * U**k * V ** (d - k) for k, r in enumerate(row)) == _value(terms, x)
    # the symbolic rows of the integer members in a_0..a_N, b_0..b_N,
    # evaluated at (u, v), are the numeric rows scaled per member
    symbolic = _symbolic_rows([_integer_terms(f) for f in family], d, nvars)
    scales = [lcm(*(c.denominator for c, _ in f.terms)) for f in family]
    assert [[_value(entry.items(), u + v) for entry in row] for row in symbolic] == [
        [c * s for c in row] for s, row in zip(scales, rows)
    ]


def _projections(nvars):
    return [line for line, _ in _candidates(nvars, 0, 0, None)]


def _combination(f, g, a, b):
    """The polynomial a*f + b*g, or None when it is zero."""
    coeffs = {}
    for scale, member in ((a, f), (b, g)):
        for c, m in member.terms:
            coeffs[m.exponents] = coeffs.get(m.exponents, 0) + scale * c
    terms = tuple((c, Monomial(e)) for e, c in coeffs.items() if c)
    return Polynomial(terms) if terms else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polynomial_families(max_members=4), st.data())
def test_integer_rank_at_matches_the_fraction_images(family, data):
    nvars, d = family[0].nvars, family[0].degree
    # a rational combination of two members makes the rank deficient
    if len(family) > 1 and data.draw(st.booleans()):
        ratio = st.fractions(-5, 5, max_denominator=7).filter(bool)
        extra = _combination(family[0], family[-1], data.draw(ratio), data.draw(ratio))
        assume(extra is not None)
        family = family + [extra]
    coords = st.lists(st.integers(-9, 9), min_size=nvars, max_size=nvars)
    u, v = data.draw(coords), data.draw(coords)
    assume(any(u[i] * v[j] != u[j] * v[i] for i in range(nvars) for j in range(nvars)))
    members = [_integer_terms(f) for f in family]
    for line in [LineMap(u, v)] + _projections(nvars):
        assert _rank_at(members, d, line) == _scaled_rank(restrict_to_line(family, line))


def test_exhaustive_witness_is_read_off_the_minor():
    # every coordinate projection loses a member of X^3, Y^3, Z^3, X^2*Y
    assert all(_scaled_rank(restrict_to_line(CUBICS, m)) <= 3 for m in _projections(3))
    results = [line_independence_test(CUBICS, trials=0, seed=s, exhaustive=True) for s in (0, 5)]
    assert results[0] == results[1]
    assert results[0].status == LineTestStatus.CERTIFIED_YES
    assert results[0].trials_used == 0
    assert results[0].witness == LineMap((0, 1, 1), (1, 0, 1))


def test_exhaustive_witness_of_a_single_product():
    # X*Y*Z vanishes under every projection; without the factor a_0*b_1 - a_1*b_0
    # the minor alone would be read off at u = 0, a proportional map
    family = [Polynomial.from_monomial(Monomial((1, 1, 1)))]
    assert all(_scaled_rank(restrict_to_line(family, m)) == 0 for m in _projections(3))
    result = line_independence_test(family, trials=0, exhaustive=True)
    assert result.status == LineTestStatus.CERTIFIED_YES
    assert result.trials_used == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polynomial_families(max_members=5, max_terms=2), st.integers(0, 2), st.integers(0, 99))
def test_exhaustive_mode_is_decisive(family, trials, seed):
    result = line_independence_test(family, trials=trials, seed=seed, exhaustive=True)
    assert result.status != LineTestStatus.PROBABLY_NO
    if trials == 0:
        assert line_independence_test(family, trials=0, seed=seed + 1, exhaustive=True) == result
    if result.status == LineTestStatus.CERTIFIED_YES:
        assert result.trials_used <= trials
        assert _scaled_rank(restrict_to_line(family, result.witness)) == len(family)


def _leibniz_minor(rows, n, d):
    """First nonzero maximal minor, each a Leibniz sum over all n! permutations."""
    for cols in itertools.combinations(range(d + 1), n):
        det = rows[0][0] * 0
        for perm in itertools.permutations(range(n)):
            product = (-1) ** sum(p > q for p, q in itertools.combinations(perm, 2))
            for i, pi in enumerate(perm):
                product = rows[i][cols[pi]] * product
            det = det + product
        if det:
            return det
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polynomial_families(max_members=5, max_terms=2), st.booleans())
def test_shared_laplace_minor_matches_leibniz(family, repeat):
    if repeat:  # a repeated member: every maximal minor vanishes
        family = family[:4] + family[:1]
    nvars, d, n = family[0].nvars, family[0].degree, len(family)
    rows = _symbolic_rows([_integer_terms(f) for f in family], d, nvars)
    minor = _nonzero_minor(rows, n, d)
    assert minor == _leibniz_minor(rows, n, d)
    if repeat:
        assert minor is None
