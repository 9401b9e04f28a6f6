"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact arithmetic; tolerances are zero throughout.
"""

import io
import itertools
import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from syzstab.cli import run as cli_run
from syzstab.core import Monomial, MonomialFamily, Polynomial, VerdictKind
from syzstab.generic_line import LineTestStatus, line_independence_test
from syzstab.monomial_stability import (
    all_monomials_family,
    family_slope,
    four_monomial_check,
    max_slope,
    max_slope_brute_force,
    oracle_verdict,
    powers_check,
    verdict,
)
from syzstab.numeric_bounds import (
    bogomolov_min_degree,
    bohnhorst_spindler,
    discriminant,
    flenner_restriction_degree,
    necessary_condition,
    parameter_criterion,
    tight_closure_bound,
    ResolutionPair,
)
from syzstab.search import SearchSpec, SearchStatus, find_semistable_family
from syzstab.sections import (
    min_section_degree_monomial,
    rank2_verdict,
    rank3_verdict,
    syzygy_section_dim,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


def fam(*vectors):
    return MonomialFamily.from_exponents(vectors)


def cli(argv, stdin=None):
    buf = io.StringIO()
    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        rc = cli_run(argv, stdout=buf)
    finally:
        sys.stdin = old
    return rc, buf.getvalue()


SEMISTABLE_KINDS = (VerdictKind.STABLE, VerdictKind.SEMISTABLE_NOT_STABLE)


def test_criterion_1_regression_examples():
    with criterion(1, "worked-example regression suite (exact)"):
        assert verdict(fam((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 2))).kind in SEMISTABLE_KINDS
        assert verdict(fam((4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 0, 3))).kind == VerdictKind.UNSTABLE
        # {X^3,Y^3,Z^3,X*Y^2*Z^2} fails the max-degree condition while the
        # pairwise condition still holds
        assert not four_monomial_check(3, 3, 3, (1, 2, 2))
        assert 3 * max(3, 3, 3, 5) > 3 + 3 + 3 + 5
        assert 3 * min(1 + 2 + 3, 1 + 3 + 2, 3 + 2 + 2, 6, 6, 6) >= 14

        six_a = fam((6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (1, 2, 3))
        v = verdict(six_a)
        assert v.kind == VerdictKind.UNSTABLE
        assert max_slope(six_a).max_slope == Fraction(-7)
        six_b = fam((6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2), (3, 0, 3))
        assert verdict(six_b).kind == VerdictKind.STABLE

        five = fam((5, 0, 0), (4, 0, 1), (0, 5, 0), (0, 4, 1), (0, 0, 5))
        r = max_slope(five)
        assert verdict(five).kind == VerdictKind.UNSTABLE
        assert r.max_proper_slope == Fraction(-6)
        assert family_slope(five) == Fraction(-25, 4)

        mixed = fam((4, 2, 0), (4, 0, 2), (0, 3, 3), (0, 5, 0), (0, 0, 5), (7, 0, 0))
        assert verdict(mixed).kind == VerdictKind.SEMISTABLE_NOT_STABLE


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


def test_criterion_2_oracle_equivalence():
    with criterion(2, "pruned max slope == brute force on 500 random primary families"):
        rng = random.Random(20260810)
        for _ in range(500):
            nvars = rng.choice([3, 4])
            n = rng.randint(nvars, 10)
            family = random_primary_family(rng, nvars, n)
            fast = max_slope(family)
            slow = max_slope_brute_force(family)
            assert fast.max_slope == slow.max_slope
            assert fast.witness == slow.witness
            assert fast.max_proper_slope == slow.max_proper_slope
            assert fast.proper_witness == slow.proper_witness


def test_criterion_3_all_monomials_semistable():
    with criterion(3, "family of all degree-d monomials is semistable (N <= 3, d <= 5)"):
        count = 0
        for N in (1, 2, 3):
            for d in range(1, 6):
                family = all_monomials_family(N, d)
                doc = {
                    "variables": N + 1,
                    "monomials": [list(m.exponents) for m in family.members],
                }
                rc, out = cli(["check", "--json"], stdin=json.dumps(doc))
                assert rc == 0
                kind = json.loads(out)["result"]["verdict"]["kind"]
                assert kind in ("Stable", "SemistableNotStable"), (N, d, kind)
                count += 1
        assert count == 15


def test_criterion_4_closed_form_criteria_agree_with_verdict():
    with criterion(4, "pure-power and four-monomial criteria match the verdict on grids"):
        for N in (1, 2, 3, 4):
            for ds in itertools.combinations_with_replacement(range(1, 7), N + 1):
                family = MonomialFamily.from_exponents(
                    [tuple(d if j == i else 0 for j in range(N + 1)) for i, d in enumerate(ds)],
                    N + 1,
                )
                assert powers_check(list(ds)) == (verdict(family).kind != VerdictKind.UNSTABLE)
        for d1, d2, d3 in itertools.product(range(1, 6), repeat=3):
            for a in itertools.product(range(0, 5), repeat=3):
                if sum(a) == 0 or any(x >= d for x, d in zip(a, (d1, d2, d3))):
                    continue
                family = MonomialFamily.from_exponents(
                    [(d1, 0, 0), (0, d2, 0), (0, 0, d3), a], 3
                )
                expected = verdict(family).kind != VerdictKind.UNSTABLE
                assert four_monomial_check(d1, d2, d3, a) == expected, (d1, d2, d3, a)


def _mono_polys(*vectors):
    return [Polynomial.from_monomial(Monomial(v)) for v in vectors]


def test_criterion_5_sections():
    with criterion(5, "section dimensions, low-rank verdicts and the lcm fast path"):
        mixed = Polynomial(
            tuple(
                (Fraction(1), Monomial(v))
                for v in ((9, 1, 0), (9, 0, 1), (1, 9, 0), (0, 9, 1), (1, 0, 9), (0, 1, 9))
            )
        )
        tenth = _mono_polys((10, 0, 0), (0, 10, 0), (0, 0, 10))
        assert syzygy_section_dim(tenth + [mixed], 13) >= 1
        assert rank3_verdict(*(tenth + [mixed])).kind == VerdictKind.UNSTABLE

        toxic = fam((3, 0, 0), (1, 2, 0), (0, 2, 1))
        assert min_section_degree_monomial(toxic) == 4
        assert rank2_verdict(*_mono_polys((3, 0, 0), (1, 2, 0), (0, 2, 1))).kind == VerdictKind.UNSTABLE
        assert rank2_verdict(*_mono_polys((2, 0, 0), (0, 2, 0), (0, 0, 2))).kind == VerdictKind.SEMISTABLE

        # fast-path validation against the nullity scan: the complete set of
        # two-variable triples with exponents <= 4, plus a seeded sample of
        # three-variable triples (the full three-variable set is ~3e5 triples,
        # far beyond the runtime budget).
        pool2 = [v for v in itertools.product(range(5), repeat=2) if sum(v) > 0]
        for vectors in itertools.combinations(pool2, 3):
            family = MonomialFamily.from_exponents(vectors, 2)
            expected = min_section_degree_monomial(family)
            for m in range(0, expected):
                assert syzygy_section_dim(family, m) == 0, (vectors, m)
            assert syzygy_section_dim(family, expected) >= 1, vectors

        rng = random.Random(5)
        pool3 = [v for v in itertools.product(range(5), repeat=3) if sum(v) > 0]
        for _ in range(120):
            vectors = rng.sample(pool3, 3)
            family = MonomialFamily.from_exponents(vectors, 3)
            expected = min_section_degree_monomial(family)
            start = max(0, min(family.degrees()))
            for m in range(start, expected):
                assert syzygy_section_dim(family, m) == 0, (vectors, m)
            assert syzygy_section_dim(family, expected) >= 1, vectors


def test_criterion_6_bounds():
    with criterion(6, "restriction thresholds, discriminant and the degree-bound table"):
        assert [flenner_restriction_degree(2, r) for r in (2, 3, 4)] == [2, 4, 7]
        assert bogomolov_min_degree([2, 2, 2]) == 7
        rng = random.Random(77)
        for _ in range(100):
            d1, d2, d3 = (rng.randint(1, 40) for _ in range(3))
            closed = 2 * d1 * d2 + 2 * d1 * d3 + 2 * d2 * d3 - d1 ** 2 - d2 ** 2 - d3 ** 2
            assert discriminant([d1, d2, d3]) == closed
        table = {
            3: Fraction(45), 4: Fraction(40), 5: Fraction(75, 2), 6: Fraction(36),
            7: Fraction(35), 9: Fraction(135, 4), 11: Fraction(33), 16: Fraction(32),
            31: Fraction(31),
        }
        for n, expected in table.items():
            assert tight_closure_bound([30] * n) == expected


def test_criterion_7_degree_condition_equivalence():
    with criterion(7, "master degree inequality iff every r-condition (exhaustive n <= 7)"):
        for n in range(3, 8):
            for ds in itertools.combinations_with_replacement(range(1, 11), n):
                ds = list(ds)
                holds, _ = necessary_condition(ds)
                every_r = all(
                    (n - r - 1) * sum(ds[: r + 1]) >= r * sum(ds[r + 1 :])
                    for r in range(1, n - 1)
                )
                assert holds == every_r, ds


def test_criterion_8_generic_line():
    with criterion(8, "line-independence certificates and determinism"):
        independent = fam((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0))
        assert line_independence_test(independent).status == LineTestStatus.CERTIFIED_YES
        dependent = fam((4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 1, 0), (3, 0, 1))
        probed = line_independence_test(dependent, trials=64, seed=0)
        assert probed.status == LineTestStatus.PROBABLY_NO
        assert line_independence_test(dependent, exhaustive=True).status == LineTestStatus.CERTIFIED_NO
        args = ["line-test", "--monomials", "X^4,Y^4,Z^4,X^3*Y,X^3*Z", "--json"]
        outputs = {cli(args)[1] for _ in range(3)}
        assert len(outputs) == 1


def test_criterion_9_resolution_criterion():
    with criterion(9, "parameter criterion == resolution test (exhaustive N <= 4, d <= 6)"):
        for N in (2, 3, 4):
            for ds in itertools.combinations_with_replacement(range(1, 7), N + 1):
                desc = tuple(sorted(ds, reverse=True))
                pair = ResolutionPair((0,), desc, N)
                assert parameter_criterion(N, list(desc)) == bohnhorst_spindler(pair).semistable
            assert parameter_criterion(N, [4] * (N + 1))
            assert bohnhorst_spindler(ResolutionPair((0,), (4,) * (N + 1), N)).semistable


def test_criterion_10_search():
    with criterion(10, "search finds semistable families across both sweeps"):
        for d in range(1, 8):
            for n in range(2, d + 2):
                result = find_semistable_family(SearchSpec(2, d, n))
                assert result.status == SearchStatus.FOUND, (1, d, n)
                assert verdict(result.family).kind in SEMISTABLE_KINDS
                assert oracle_verdict(result.family).kind in SEMISTABLE_KINDS
        start = time.monotonic()
        for d in range(1, 5):
            for n in range(2, comb(d + 2, 2) + 1):
                result = find_semistable_family(SearchSpec(3, d, n))
                assert result.status == SearchStatus.FOUND, (2, d, n)
                assert oracle_verdict(result.family).kind in SEMISTABLE_KINDS
        assert time.monotonic() - start < 60
