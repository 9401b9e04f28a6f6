import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syzstab.core import Monomial, MonomialFamily, PreconditionError, VerdictKind, is_primary
from syzstab.monomial_stability import (
    _brute_extrema,
    _pruned_extrema,
    all_monomials_family,
    family_slope,
    four_monomial_check,
    max_slope,
    max_slope_brute_force,
    oracle_verdict,
    powers_check,
    same_degree_check,
    slope_summary,
    subset_slope,
    verdict,
)
from syzstab.numeric_bounds import necessary_condition


def fam(*vectors):
    return MonomialFamily.from_exponents(vectors)


SQUARES = fam((2, 0, 0), (0, 2, 0), (0, 0, 2))
SIX_A = fam((6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (1, 2, 3))
SIX_B = fam((6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (3, 0, 3))
FIVE = fam((5, 0, 0), (4, 0, 1), (0, 5, 0), (0, 4, 1), (0, 0, 5))


def random_primary_family(rng, nvars, n, maxexp=6):
    vectors = set()
    for j in range(nvars):
        v = [0] * nvars
        v[j] = rng.randint(1, maxexp)
        vectors.add(tuple(v))
    while len(vectors) < n:
        v = tuple(rng.randint(0, maxexp // 2) for _ in range(nvars))
        if sum(v) > 0:
            vectors.add(v)
    return MonomialFamily.from_exponents(sorted(vectors, reverse=True), nvars)


def test_subset_slope_examples():
    assert subset_slope(FIVE, [0, 1]) == Fraction(-6)
    coprime = fam((3, 0), (0, 4))
    assert subset_slope(coprime, [0, 1]) == Fraction(-7)
    assert subset_slope(SIX_A, [3, 4]) == Fraction(-7)


def test_family_slope_examples():
    assert family_slope(SIX_A) == Fraction(-30, 4)
    assert family_slope(FIVE) == Fraction(-25, 4)
    assert family_slope(SQUARES, twist=3) == 0


def test_max_slope_brute_force_examples():
    r = max_slope_brute_force(SIX_A)
    assert r.max_slope == Fraction(-7) and r.witness.indices == (3, 4)
    r = max_slope_brute_force(SQUARES)
    assert r.max_slope == Fraction(-3) and r.witness.indices == (0, 1, 2)
    assert r.max_proper_slope == Fraction(-4)
    r = max_slope_brute_force(FIVE)
    assert r.max_slope == Fraction(-6) and r.witness.indices == (0, 1)


def test_max_slope_agrees_with_oracle_on_examples():
    for family in (SIX_A, SIX_B, FIVE, SQUARES):
        a, b = max_slope(family), max_slope_brute_force(family)
        assert a == b


def test_max_slope_requires_primary():
    nonprimary = fam((3, 0, 0), (1, 2, 0), (0, 2, 1))
    with pytest.raises(PreconditionError):
        max_slope(nonprimary)
    with pytest.raises(PreconditionError):
        max_slope_brute_force(nonprimary)


def test_oracle_ceiling():
    with pytest.raises(PreconditionError):
        max_slope_brute_force(all_monomials_family(2, 5), ceiling=10)


def test_slope_summary_brute_respects_oracle_ceiling(monkeypatch):
    monkeypatch.delenv("SYZSTAB_ORACLE_CEILING", raising=False)
    family = all_monomials_family(2, 5)  # 21 members, one above the default ceiling
    with pytest.raises(PreconditionError) as info:
        slope_summary(family, brute=True)
    assert info.value.criterion == "oracle-ceiling"
    assert slope_summary(family) == slope_summary(family, brute=False)


@st.composite
def exponent_families(draw):
    """Primary, arbitrary and equal-degree families of 2-10 distinct members.

    Exponents stay in 0..4 so that degrees repeat and every tie-break fires.
    """
    nvars = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["primary", "any", "equal-degree"]))
    if kind == "equal-degree":
        d = draw(st.integers(1, 4))
        vector = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
            lambda picks: tuple(picks.count(j) for j in range(nvars))
        )
    else:
        vector = st.tuples(*[st.integers(0, 4)] * nvars).filter(lambda v: sum(v) > 0)
    powers = []
    if kind == "primary":
        for j, e in enumerate(draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))):
            powers.append(tuple(e if i == j else 0 for i in range(nvars)))
    rest = draw(st.lists(vector, unique=True, max_size=10 - len(powers)))
    members = list(dict.fromkeys(powers + rest))
    assume(len(members) >= 2)
    return draw(st.permutations(members))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exponent_families())
def test_pruned_extrema_match_brute_force(vectors):
    degrees = [sum(v) for v in vectors]
    fast, slow = _pruned_extrema(vectors, degrees), _brute_extrema(vectors, degrees)
    assert fast.max_slope == slow.max_slope
    assert fast.max_indices == slow.max_indices
    assert fast.proper_slope == slow.proper_slope
    assert fast.proper_indices == slow.proper_indices


@st.composite
def primary_families_with_factor(draw):
    """A primary family of 3-8 members in 2-4 variables and a nonconstant monomial."""
    nvars = draw(st.integers(2, 4))
    powers = [
        tuple(e if i == j else 0 for i in range(nvars))
        for j, e in enumerate(draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars)))
    ]
    vector = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda v: sum(v) > 0)
    rest = draw(st.lists(vector, unique=True, max_size=8 - nvars))
    members = list(dict.fromkeys(powers + rest))
    assume(len(members) >= 3)
    factor = draw(st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda v: sum(v) > 0))
    return draw(st.permutations(members)), factor


def reported_slopes(family):
    """Every slope the verdict and the summary report, with their witnesses."""
    v, s = verdict(family), slope_summary(family)
    w = v.witness
    return (
        v.kind,
        w and (w.indices, w.slope),
        family_slope(family),
        (s.witness.indices, s.max_slope),
        (s.proper_witness.indices, s.max_proper_slope),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(primary_families_with_factor())
def test_common_factor_shifts_every_slope(case):
    vectors, factor = case
    c = sum(factor)
    plain = fam(*vectors)
    scaled = fam(*(tuple(x + f for x, f in zip(v, factor)) for v in vectors))
    kind, w, whole, top, proper = reported_slopes(plain)
    assert verdict(plain).notes == ("subset-slope-criterion",)
    assert verdict(scaled).notes == ("common-factor-reduction", "subset-slope-criterion")
    shifted = reported_slopes(scaled)
    assert shifted == (
        kind,
        w and (w[0], w[1] - c),
        whole - c,
        (top[0], top[1] - c),
        (proper[0], proper[1] - c),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exponent_families(), st.randoms(use_true_random=False))
def test_verdict_is_invariant_under_permuting_variables(vectors, rnd):
    assume(len(vectors) >= 3)
    order = list(range(len(vectors[0])))
    rnd.shuffle(order)
    permuted = fam(*(tuple(v[j] for j in order) for v in vectors))
    a, b = verdict(fam(*vectors)), verdict(permuted)
    assert a.notes == b.notes
    assert reported_slopes(fam(*vectors)) == reported_slopes(permuted)


@st.composite
def primary_families(draw):
    """A primary family of 3-8 distinct members in 2-4 variables, exponents 0-3."""
    nvars = draw(st.integers(2, 4))
    powers = [
        tuple(e if i == j else 0 for i in range(nvars))
        for j, e in enumerate(draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars)))
    ]
    vector = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda v: sum(v) > 0)
    members = list(dict.fromkeys(powers + draw(st.lists(vector, max_size=8 - nvars))))
    assume(len(members) >= 3)
    return draw(st.permutations(members))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(primary_families(), st.randoms(use_true_random=False))
def test_witnesses_follow_a_reordering_of_the_members(vectors, rnd):
    order = list(range(len(vectors)))
    rnd.shuffle(order)  # member i of the reordered family is member order[i]
    family, reordered = fam(*vectors), fam(*(vectors[i] for i in order))
    a, b = verdict(family), verdict(reordered)
    s, t = slope_summary(family), slope_summary(reordered)
    assert (a.kind, a.notes) == (b.kind, b.notes)
    assert family_slope(family) == family_slope(reordered)
    assert (s.max_slope, s.max_proper_slope) == (t.max_slope, t.max_proper_slope)
    pairs = ((a.witness, b.witness), (s.witness, t.witness), (s.proper_witness, t.proper_witness))
    for w, x in pairs:
        assert (w is None) == (x is None)
        if w is None:
            continue
        back = tuple(sorted(order[i] for i in x.indices))
        assert (len(back), subset_slope(family, back), x.slope) == (len(w.indices), w.slope, w.slope)
        ties = sum(
            subset_slope(family, c) == w.slope
            for c in itertools.combinations(range(len(vectors)), len(back))
        )
        if ties == 1:
            assert back == w.indices


def test_one_variable_family_is_primary_without_reduction_note():
    # X^2, X^3, X^5 has gcd X^2 but is already primary: no reduction note
    family = MonomialFamily.from_exponents([(2,), (3,), (5,)], 1)
    assert is_primary(family)
    v = verdict(family)
    assert v.notes == ("subset-slope-criterion",)


def test_oracle_equivalence_randomized():
    rng = random.Random(424242)
    for _ in range(150):
        nvars = rng.choice([3, 4])
        n = rng.randint(nvars, 12)
        F = random_primary_family(rng, nvars, n)
        a, b = max_slope(F), max_slope_brute_force(F)
        assert a.max_slope == b.max_slope
        assert a.witness == b.witness
        assert a.max_proper_slope == b.max_proper_slope
        assert a.proper_witness == b.proper_witness


def test_verdict_examples():
    assert verdict(fam((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 2))).kind == VerdictKind.STABLE
    assert verdict(fam((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 0, 3))).kind == VerdictKind.UNSTABLE
    assert verdict(SIX_B).kind == VerdictKind.STABLE
    v = verdict(fam((4, 2, 0), (4, 0, 2), (0, 3, 3), (0, 5, 0), (0, 0, 5), (7, 0, 0)))
    assert v.kind == VerdictKind.SEMISTABLE_NOT_STABLE
    assert v.witness.indices == (0, 1, 2, 3, 4)
    assert v.witness.slope == Fraction(-7)


def test_verdict_unstable_carries_destabilizer():
    v = verdict(SIX_A)
    assert v.kind == VerdictKind.UNSTABLE
    assert v.witness.indices == (3, 4) and v.witness.slope == Fraction(-7)
    v = verdict(FIVE)
    assert v.kind == VerdictKind.UNSTABLE
    assert v.witness.slope == Fraction(-6) > family_slope(FIVE)


def test_verdict_two_members_is_stable():
    assert verdict(fam((3, 0), (0, 4))).kind == VerdictKind.STABLE


def test_verdict_nonprimary_paths():
    # reduction by the common factor X^3 leaves a primary family
    v = verdict(fam((5, 0), (4, 1), (3, 2)))
    assert v.kind == VerdictKind.SEMISTABLE_NOT_STABLE
    assert "common-factor-reduction" in v.notes
    # not primary, no reduction, no violating subfamily
    v = verdict(fam((3, 0, 0), (0, 3, 0), (1, 1, 1)))
    assert v.kind == VerdictKind.INCONCLUSIVE
    # not primary but a subfamily violates the necessary condition
    v = verdict(fam((3, 0, 0), (1, 2, 0), (0, 2, 1)))
    assert v.kind == VerdictKind.UNSTABLE
    assert "subset-slope-necessity" in v.notes


def test_max_slope_vs_family_slope_iff_semistable():
    rng = random.Random(99)
    for _ in range(80):
        nvars = 3
        F = random_primary_family(rng, nvars, rng.randint(3, 9))
        r = max_slope(F)
        fs = family_slope(F)
        assert r.max_slope >= fs
        v = verdict(F)
        if v.kind in (VerdictKind.STABLE, VerdictKind.SEMISTABLE_NOT_STABLE):
            assert r.max_slope == fs
        else:
            assert r.max_slope > fs


def test_stable_family_has_strictly_smaller_proper_subsets():
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        F = random_primary_family(rng, 3, rng.randint(3, 7))
        if verdict(F).kind != VerdictKind.STABLE:
            continue
        checked += 1
        fs = family_slope(F)
        n = len(F)
        for k in range(2, n):
            for combo in itertools.combinations(range(n), k):
                assert subset_slope(F, combo) < fs


def test_necessary_condition_consistency():
    rng = random.Random(17)
    for _ in range(120):
        F = random_primary_family(rng, 3, rng.randint(3, 8))
        if verdict(F).kind != VerdictKind.UNSTABLE:
            holds, _ = necessary_condition(sorted(F.degrees()))
            assert holds


def test_same_degree_check_examples():
    ok, nu = same_degree_check(fam((4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 1, 0), (3, 0, 1)))
    assert not ok and nu == Monomial((3, 0, 0))
    for d in range(1, 6):
        ok, _ = same_degree_check(all_monomials_family(2, d))
        assert ok
    # two-variable full families
    for d in range(1, 8):
        ok, _ = same_degree_check(all_monomials_family(1, d))
        assert ok


def test_same_degree_check_requires_constant_degree():
    with pytest.raises(PreconditionError):
        same_degree_check(fam((2, 0), (0, 3)))


def test_same_degree_check_matches_verdict():
    rng = random.Random(31337)
    checked = 0
    while checked < 60:
        d = rng.randint(2, 5)
        pool = [v for v in all_monomials_family(2, d).exponent_vectors()]
        n = rng.randint(4, min(9, len(pool)))
        chosen = set(rng.sample(range(len(pool)), n))
        chosen |= {0}
        vectors = [pool[i] for i in sorted(chosen)]
        try:
            F = MonomialFamily.from_exponents(vectors, 3)
        except ValueError:
            continue
        if not is_primary(F):
            continue
        checked += 1
        ok, _ = same_degree_check(F)
        assert ok == (verdict(F).kind != VerdictKind.UNSTABLE)


def test_powers_check_examples():
    assert powers_check([2, 2, 2])
    assert not powers_check([1, 1, 3])
    for n in range(2, 6):
        assert powers_check([4] * n)
    with pytest.raises(PreconditionError):
        powers_check([3, 1])
    with pytest.raises(PreconditionError):
        powers_check([0, 1])


def test_powers_check_matches_verdict_small_grid():
    for N in (1, 2, 3):
        for ds in itertools.combinations_with_replacement(range(1, 5), N + 1):
            family = MonomialFamily.from_exponents(
                [tuple(d if j == i else 0 for j in range(N + 1)) for i, d in enumerate(ds)],
                N + 1,
            )
            assert powers_check(list(ds)) == (verdict(family).kind != VerdictKind.UNSTABLE)


def test_four_monomial_check_examples():
    assert four_monomial_check(4, 4, 4, (1, 1, 2))
    assert not four_monomial_check(4, 4, 4, (1, 0, 3))
    assert not four_monomial_check(3, 3, 3, (1, 2, 2))
    with pytest.raises(PreconditionError):
        four_monomial_check(3, 3, 3, (3, 0, 0))


def test_four_monomial_check_matches_verdict_small_grid():
    for d1, d2, d3 in itertools.product(range(1, 4), repeat=3):
        for a in itertools.product(range(0, 3), repeat=3):
            if sum(a) == 0 or any(x >= d for x, d in zip(a, (d1, d2, d3))):
                continue
            family = MonomialFamily.from_exponents(
                [(d1, 0, 0), (0, d2, 0), (0, 0, d3), a], 3
            )
            expected = verdict(family).kind != VerdictKind.UNSTABLE
            assert four_monomial_check(d1, d2, d3, a) == expected


def test_all_monomials_family():
    F = all_monomials_family(1, 2)
    assert F.exponent_vectors() == ((2, 0), (1, 1), (0, 2))
    assert all_monomials_family(2, 1).exponent_vectors() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(all_monomials_family(2, 2)) == 6
    with pytest.raises(PreconditionError):
        all_monomials_family(0, 3)


def test_verdicts_match_oracle_on_nonprimary_samples():
    rng = random.Random(808)
    for _ in range(120):
        nvars = rng.choice([2, 3])
        n = rng.randint(2, 7)
        vectors = set()
        while len(vectors) < n:
            v = tuple(rng.randint(0, 4) for _ in range(nvars))
            if sum(v) > 0:
                vectors.add(v)
        F = MonomialFamily.from_exponents(sorted(vectors, reverse=True), nvars)
        assert verdict(F) == oracle_verdict(F)
