import gc
import io
import itertools
import sys
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from syzstab.cli import run
from syzstab.core import (
    MonomialFamily,
    PreconditionError,
    VerdictKind,
    _pure_powers,
    _vector_gcd,
    is_primary,
)
from syzstab.monomial_stability import (
    _meet_closure,
    _PathClosure,
    _vmeet,
    degree_vectors,
    oracle_verdict,
    verdict,
)
from syzstab.search import (
    DEFAULT_BUDGET,
    SearchResult,
    SearchSpec,
    SearchStatus,
    find_semistable_family,
)
from strategies import degree_vector
from test_monomial_stability import _divides

ACCEPTED = {
    "semistable": (VerdictKind.STABLE, VerdictKind.SEMISTABLE_NOT_STABLE),
    "stable": (VerdictKind.STABLE,),
}


def _partial_violates(chosen, d, n):
    """From-scratch necessity prune, the oracle of the state carried by the DFS.

    The subfamily of multiples of a gcd nu has slope (e - s*d)/(s - 1), which
    is nondecreasing in s; the final family slope is at most
    (deg gcd(partial) - n*d)/(n - 1) because the overall gcd only shrinks.
    """
    if len(chosen) < 2:
        return False
    closure = _meet_closure(chosen)
    base = chosen[0]
    for v in chosen[1:]:
        base = _vmeet(base, v)
    cap = Fraction(sum(base) - n * d, n - 1)
    for g in closure:
        s = sum(1 for v in chosen if _divides(g, v))
        if s >= 2 and Fraction(sum(g) - s * d, s - 1) > cap:
            return True
    return False


def test_two_variable_consecutive_family_is_found():
    result = find_semistable_family(SearchSpec(variables=2, degree=5, count=3))
    assert result.status == SearchStatus.FOUND
    assert result.family.exponent_vectors() == ((5, 0), (4, 1), (3, 2))
    assert verdict(result.family).kind == VerdictKind.SEMISTABLE_NOT_STABLE


def test_all_monomials_is_found_at_full_count():
    result = find_semistable_family(SearchSpec(variables=3, degree=2, count=6))
    assert result.status == SearchStatus.FOUND
    assert len(result.family) == 6


def test_found_families_reverify_under_oracle():
    for (variables, degree, count) in [(2, 4, 3), (3, 2, 4), (3, 4, 5), (3, 3, 7)]:
        result = find_semistable_family(SearchSpec(variables, degree, count))
        assert result.status == SearchStatus.FOUND
        v = oracle_verdict(result.family)
        assert v.kind in (VerdictKind.STABLE, VerdictKind.SEMISTABLE_NOT_STABLE)


def test_stable_requirement():
    result = find_semistable_family(
        SearchSpec(variables=3, degree=2, count=3, require="stable")
    )
    assert result.status == SearchStatus.FOUND
    assert verdict(result.family).kind == VerdictKind.STABLE


def test_primary_only_flag():
    result = find_semistable_family(
        SearchSpec(variables=3, degree=4, count=4, primary_only=True)
    )
    assert result.status == SearchStatus.FOUND
    assert is_primary(result.family)
    # no primary family of three degree-5 monomials in two variables works
    result = find_semistable_family(
        SearchSpec(variables=2, degree=5, count=3, primary_only=True)
    )
    assert result.status == SearchStatus.EXHAUSTED


def test_budget_exceeded():
    result = find_semistable_family(SearchSpec(variables=3, degree=4, count=8, budget=3))
    assert result.status == SearchStatus.BUDGET_EXCEEDED
    assert result.family is None
    assert result.nodes == 3


def test_budget_counts_explored_nodes_only():
    full = find_semistable_family(SearchSpec(3, 4, 5))
    assert full.status == SearchStatus.FOUND
    exact = find_semistable_family(SearchSpec(3, 4, 5, budget=full.nodes))
    assert exact == full
    short = find_semistable_family(SearchSpec(3, 4, 5, budget=full.nodes - 1))
    assert short.status == SearchStatus.BUDGET_EXCEEDED
    assert short.nodes == full.nodes - 1


@pytest.mark.parametrize("budget", [0, -7])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(PreconditionError) as exc:
        SearchSpec(variables=3, degree=4, count=5, budget=budget)
    assert exc.value.criterion == "search-budget"
    argv = ["search", "--vars", "3", "--degree", "4", "--count", "5", "--budget", str(budget)]
    assert run(argv, stdout=io.StringIO()) == 2


# A float degree used to raise a bare TypeError from comb; a float count or
# budget, and a bool degree, were accepted as numbers.
@pytest.mark.parametrize(
    "fields, criterion",
    [
        ({"variables": 3.0}, "search-range"),
        ({"degree": 2.0}, "search-range"),
        ({"degree": True}, "search-range"),
        ({"count": 3.0}, "search-count"),
        ({"budget": 2.5}, "search-budget"),
    ],
)
def test_non_int_spec_fields_are_rejected(fields, criterion):
    with pytest.raises(PreconditionError) as exc:
        SearchSpec(**{"variables": 3, "degree": 2, "count": 3, **fields})
    assert exc.value.criterion == criterion


# (variables, degree, count, require, primary_only) -> (status, nodes) of the
# four heaviest vetted benchmark specs; a prune that stays sound but loses
# exactness changes these counts.
@pytest.mark.parametrize(
    "spec, nodes",
    [
        ((3, 5, 6, "stable", True), 2794),
        ((3, 6, 6, "stable", True), 2338),
        ((3, 6, 8, "semistable", True), 355),
        ((3, 8, 30, "semistable", False), 41),
    ],
)
def test_pinned_node_counts(spec, nodes):
    variables, degree, count, require, primary_only = spec
    result = find_semistable_family(
        SearchSpec(variables, degree, count, require=require, primary_only=primary_only)
    )
    assert (result.status, result.nodes) == (SearchStatus.FOUND, nodes)


@st.composite
def push_sequences(draw):
    """Distinct members of one degree d in 1-6 variables: d up to 1000, so
    that slot widths vary and exponents reach d, or small, so that meets
    repeat."""
    variables = draw(st.integers(1, 6))
    degree = draw(st.one_of(st.integers(1, 6), st.integers(1, 1000)))
    n = draw(st.integers(2, 10))
    vectors = degree_vector(variables, degree)
    chosen = draw(st.lists(vectors, min_size=1, max_size=n, unique=True))
    return variables, degree, n, chosen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(push_sequences())
def test_path_closure_matches_from_scratch_prune(case):
    variables, d, n, sequence = case
    state = _PathClosure.root(variables, d)
    for k, v in enumerate(sequence, start=1):
        state = state.push(state.pack(v))
        chosen = sequence[:k]
        assert [state.unpack(c) for c in state.chosen] == chosen
        closure = {state.unpack(g): mask for g, mask in state.closure.items()}
        assert set(closure) == set(_meet_closure(chosen))
        for g, mask in closure.items():
            assert mask == sum(1 << i for i, c in enumerate(chosen) if _divides(g, c))
        assert state.violates(n) == _partial_violates(chosen, d, n)


@st.composite
def packed_pairs(draw):
    variables, d = draw(st.integers(1, 6)), draw(st.integers(1, 1000))
    # a gcd of members has degree at most d, and so every exponent
    g = draw(degree_vector(variables, draw(st.integers(0, d))))
    return variables, d, g, draw(degree_vector(variables, d))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(packed_pairs())
def test_packed_words_match_tuples(case):
    variables, d, g, v = case
    state = _PathClosure.root(variables, d)
    pg, pv = state.pack(g), state.pack(v)
    assert state.unpack(pg) == g and state.unpack(pv) == v
    assert state.unpack(state.meet(pg, pv)) == _vmeet(g, v)
    assert state.degree(pg) == sum(g) and state.degree(pv) == d
    assert (pg < pv) == (g < v)


@st.composite
def equal_degree_families(draw):
    """2-10 distinct members of one degree d <= 6 in 2-4 variables: a common
    factor g of degree e < d times monomials of degree d - e, with some of
    their pure powers, so that every verdict kind occurs."""
    variables, d = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    e = draw(st.integers(0, d - 1))
    g = draw(st.sampled_from(list(degree_vectors(variables, e))))
    monos = list(degree_vectors(variables, d - e))
    pure = [v for v in monos if v.count(0) == variables - 1]
    top = min(10, len(monos))
    n = top - draw(st.integers(0, top - 2))  # shrinks towards many members
    chosen = draw(st.lists(st.sampled_from(pure), max_size=n, unique=True))
    k = n - len(chosen)
    if k:
        rest = st.sampled_from([v for v in monos if v not in chosen])
        chosen += draw(st.lists(rest, min_size=k, max_size=k, unique=True))
    members = [tuple(a + b for a, b in zip(g, v)) for v in draw(st.permutations(chosen))]
    return d, members


@settings(max_examples=300, deadline=None, derandomize=True)
@given(equal_degree_families())
def test_leaf_rule_matches_verdict(case):
    d, members = case
    root = _PathClosure.root(len(members[0]), d)
    state = reduce(_PathClosure.push, map(root.pack, members), root)
    kind = verdict(MonomialFamily.from_exponents(members)).kind
    for require, accepted in ACCEPTED.items():
        assert state.accepts(require == "stable") == (kind in accepted)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(equal_degree_families(), push_sequences().map(lambda c: (c[1], c[3]))))
def test_packed_primary_test_matches_pure_powers(case):
    d, members = case
    root = _PathClosure.root(len(members[0]), d)
    state = reduce(_PathClosure.push, map(root.pack, members), root)
    base = _vector_gcd(members)
    reduced = [tuple(x - b for x, b in zip(v, base)) for v in members]
    assert state.primary() == (len(_pure_powers(reduced)) == len(base))


@st.composite
def search_paths(draw):
    """A target count n and a path of 1 to n - 1 distinct members of one
    degree d <= 6 in 2-4 variables, so that values often tie with caps."""
    variables, d = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    monos = list(degree_vectors(variables, d))
    n = draw(st.integers(2, min(10, len(monos))))
    path = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=n - 1, unique=True))
    return variables, d, n, path


def _capped_children(case):
    """(state, packed candidate, n) for every candidate ``capped`` rules out
    at any state along the path."""
    variables, d, n, path = case
    state = _PathClosure.root(variables, d)
    monos = [state.pack(v) for v in degree_vectors(variables, d)]
    for v in path:
        state = state.push(state.pack(v))
        for m in monos:
            if m not in state.chosen and state.capped(m, n):
                yield state, m, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(search_paths())
def test_capped_child_violates(case):
    for state, m, n in _capped_children(case):
        assert state.push(m).violates(n)


def test_capped_fires_on_some_path():
    once = settings(max_examples=300, derandomize=True, database=None)
    find(search_paths(), lambda case: any(_capped_children(case)), settings=once)


def test_budget_bounds_candidate_packing(monkeypatch):
    # 2,003,001 candidates of degree 2000 in 3 variables, and a family after
    # 4 nodes: only the candidates the loop reaches are packed
    packed = []
    pack = _PathClosure.pack
    monkeypatch.setattr(_PathClosure, "pack", lambda self, v: packed.append(v) or pack(self, v))
    result = find_semistable_family(SearchSpec(3, 2000, 3, budget=5))
    assert (result.status, result.nodes) == (SearchStatus.FOUND, 4)
    assert result.family.exponent_vectors() == ((2000, 0, 0), (1999, 1, 0), (1999, 0, 1))
    assert packed == list(result.family.exponent_vectors())


@pytest.mark.parametrize(
    "spec",
    [SearchSpec(3, 4, 5), SearchSpec(3, 4, 8, budget=3), SearchSpec(2, 5, 3, primary_only=True)],
    ids=["found", "budget", "exhausted"],
)
def test_search_leaves_no_reference_cycle(spec):
    # the DFS recurses through a closure, a cycle that would hold the
    # candidate generator and lists until the cycle collector ran
    gc.collect()
    gc.disable()
    try:
        find_semistable_family(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_spec_validation():
    with pytest.raises(PreconditionError):
        SearchSpec(variables=3, degree=2, count=7)  # only 6 monomials exist
    with pytest.raises(PreconditionError):
        SearchSpec(variables=3, degree=2, count=1)
    with pytest.raises(PreconditionError):
        SearchSpec(variables=3, degree=2, count=3, require="very-stable")


def _first_accepted(spec):
    """First n-subset in combinations order whose verdict is acceptable."""
    for combo in itertools.combinations(degree_vectors(spec.variables, spec.degree), spec.count):
        family = MonomialFamily.from_exponents(combo, spec.variables)
        if spec.primary_only and not is_primary(family):
            continue
        if verdict(family).kind in ACCEPTED[spec.require]:
            return family
    return None


def _assert_matches_plain_scan(spec):
    family = _first_accepted(spec)
    status = SearchStatus.EXHAUSTED if family is None else SearchStatus.FOUND
    result = find_semistable_family(spec)
    assert (result.status, result.family) == (status, family), spec
    return result


def test_pruning_skips_no_acceptable_family():
    for degree in (1, 2, 3):
        for count in range(2, comb(degree + 2, 2) + 1):
            _assert_matches_plain_scan(SearchSpec(3, degree, count))


# (variables, degree) with at most 10 monomials, so the plain subset scan stays small
SMALL_RANGES = [(2, d) for d in range(1, 10)] + [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@st.composite
def small_specs(draw):
    variables, degree = draw(st.sampled_from(SMALL_RANGES))
    count = draw(st.integers(2, comb(variables - 1 + degree, degree)))
    require = draw(st.sampled_from(["semistable", "stable"]))
    return SearchSpec(variables, degree, count, require=require, primary_only=draw(st.booleans()),
                      budget=draw(st.integers(1, 60)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_specs())
def test_prune_is_sound_property(spec):
    # a budget only cuts the same node sequence short
    full = _assert_matches_plain_scan(replace(spec, budget=DEFAULT_BUDGET))
    result = find_semistable_family(spec)
    if full.nodes <= spec.budget:
        assert result == full
    else:
        assert result == SearchResult(SearchStatus.BUDGET_EXCEEDED, None, spec.budget)


def test_search_returns_the_first_subset_the_verdict_accepts():
    # the leaf rule replaces the verdict engine in the search, so the DFS is
    # checked against a plain scan over subsets
    for variables, degree in SMALL_RANGES:
        for count in range(2, comb(variables - 1 + degree, degree) + 1):
            for require, primary_only in itertools.product(ACCEPTED, (False, True)):
                _assert_matches_plain_scan(
                    SearchSpec(variables, degree, count, require=require, primary_only=primary_only)
                )


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # a family of 300 members is a path of 300 nodes below the root
    spec = SearchSpec(3, 24, 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        result = find_semistable_family(spec)
    finally:
        sys.setrecursionlimit(limit)
    assert result.status == SearchStatus.FOUND and len(result.family) == 300


def test_determinism():
    a = find_semistable_family(SearchSpec(3, 3, 5))
    b = find_semistable_family(SearchSpec(3, 3, 5))
    assert a == b
