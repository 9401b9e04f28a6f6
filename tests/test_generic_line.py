import random
from fractions import Fraction

import pytest

from syzstab._matrix import rational_rank
from syzstab.core import Monomial, MonomialFamily, Polynomial, PreconditionError, VerdictKind
from syzstab.generic_line import (
    LineMap,
    LineTestStatus,
    line_independence_test,
    restrict_to_line,
)
from syzstab.monomial_stability import verdict
from syzstab.core import is_primary


CUBICS = MonomialFamily.from_exponents([(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)])
DEPENDENT = MonomialFamily.from_exponents(
    [(4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 1, 0), (3, 0, 1)]
)


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
    assert rational_rank(rows) == 4
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
    assert rational_rank(sub) <= 2


def test_certified_yes_for_independent_family():
    result = line_independence_test(CUBICS)
    assert result.status == LineTestStatus.CERTIFIED_YES
    assert result.witness is not None
    assert rational_rank(restrict_to_line(CUBICS, result.witness)) == 4


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
