import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab.core import PreconditionError
from syzstab.numeric_bounds import (
    GenericFormsStability,
    ResolutionPair,
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


def all_r_conditions_hold(ds):
    n = len(ds)
    for r in range(1, n - 1):
        if (n - r - 1) * sum(ds[: r + 1]) < r * sum(ds[r + 1 :]):
            return False
    return True


def test_necessary_condition_examples():
    assert necessary_condition([10, 10, 10, 10]) == (True, None)
    holds, r = necessary_condition([1, 1, 3])
    assert not holds and r == 1
    for n in (3, 4, 7):
        assert necessary_condition([4] * n) == (True, None)
    assert necessary_condition([2, 5]) == (True, None)


def test_necessary_condition_validation():
    with pytest.raises(PreconditionError):
        necessary_condition([3, 1, 2])
    with pytest.raises(PreconditionError):
        necessary_condition([0, 1, 2])


def test_master_inequality_equivalence_small():
    for n in range(3, 6):
        for ds in itertools.combinations_with_replacement(range(1, 7), n):
            holds, failing = necessary_condition(list(ds))
            assert holds == all_r_conditions_hold(list(ds))
            if not holds:
                assert failing is not None and not (
                    (n - failing - 1) * sum(ds[: failing + 1])
                    >= failing * sum(ds[failing + 1 :])
                )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 40), max_size=12).map(sorted))
def test_necessary_condition_is_the_master_inequality(ds):
    n = len(ds)
    holds, failing = necessary_condition(ds)
    assert holds == (n < 3 or sum(ds[:-1]) >= (n - 2) * ds[-1])
    scan = [r for r in range(1, n - 1) if (n - r - 1) * sum(ds[: r + 1]) < r * sum(ds[r + 1 :])]
    assert failing == (scan[0] if scan else None)


def test_flenner_thresholds_on_the_plane():
    assert [flenner_restriction_degree(2, r) for r in (2, 3, 4)] == [2, 4, 7]
    with pytest.raises(PreconditionError):
        flenner_restriction_degree(1, 2)
    with pytest.raises(PreconditionError):
        flenner_restriction_degree(2, 1)


def test_flenner_nonincreasing_in_dimension():
    for r in range(2, 9):
        values = [flenner_restriction_degree(N, r) for N in range(2, 7)]
        assert values == sorted(values, reverse=True)


def test_discriminant():
    for d in (1, 2, 5):
        assert discriminant([d, d, d]) == 3 * d * d
    rng = random.Random(23)
    for _ in range(100):
        d1, d2, d3 = (rng.randint(1, 30) for _ in range(3))
        closed = (
            2 * d1 * d2 + 2 * d1 * d3 + 2 * d2 * d3 - d1 * d1 - d2 * d2 - d3 * d3
        )
        assert discriminant([d1, d2, d3]) == closed
    assert discriminant([1, 1]) == 2


def test_bogomolov_min_degree():
    assert bogomolov_min_degree([2, 2, 2]) == 7
    # constant degrees: smallest k with 2k > n' * d^2 + 1 for ranks 2 and 3
    for d in (1, 2, 3):
        assert bogomolov_min_degree([d] * 3) == (3 * d * d + 1) // 2 + 1
        assert bogomolov_min_degree([d] * 4) == (4 * d * d + 1) // 2 + 1
    with pytest.raises(PreconditionError):
        bogomolov_min_degree([3, 3])


def test_tight_closure_bound_table():
    table = {3: 45, 4: 40, 5: Fraction(75, 2), 6: 36, 7: 35, 9: Fraction(135, 4),
             11: 33, 16: 32, 31: 31}
    for n, expected in table.items():
        assert tight_closure_bound([30] * n) == Fraction(expected)
    for d in (2, 3, 10):
        assert tight_closure_bound([d, d, d]) == Fraction(3 * d, 2)
        assert tight_closure_bound([d] * (d + 1)) == Fraction(d + 1)


def test_generic_forms_predicate():
    assert generic_forms_predicate(2, 30, 25) == GenericFormsStability.STABLE_PLANE_QUARTIC
    assert generic_forms_predicate(2, 30, 31) == GenericFormsStability.SEMISTABLE
    assert generic_forms_predicate(2, 1, 4) == GenericFormsStability.NONE
    assert generic_forms_predicate(3, 3, 6) == GenericFormsStability.STABLE_GENUS_TWO
    assert generic_forms_predicate(3, 1, 3) == GenericFormsStability.SEMISTABLE
    with pytest.raises(PreconditionError):
        generic_forms_predicate(1, 3, 3)


def test_bohnhorst_spindler():
    v = bohnhorst_spindler(ResolutionPair((0,), (4, 4, 4), 2))
    assert v.admissible and v.semistable and v.mu == Fraction(6)
    v = bohnhorst_spindler(ResolutionPair((0,), (3, 1, 1), 2))
    assert v.admissible and not v.semistable
    v = bohnhorst_spindler(ResolutionPair((0,), (2, 1, 0), 2))
    assert not v.admissible and not v.semistable
    with pytest.raises(PreconditionError):
        ResolutionPair((0,), (3, 3), 2)
    with pytest.raises(PreconditionError):
        ResolutionPair((0,), (1, 2, 3), 2)


def test_parameter_criterion_examples():
    assert parameter_criterion(2, [3, 2, 2])
    assert not parameter_criterion(2, [3, 1, 1])
    for N in (2, 3, 4):
        assert parameter_criterion(N, [5] * (N + 1))
    with pytest.raises(PreconditionError):
        parameter_criterion(2, [1, 2, 3])


def test_parameter_criterion_equals_resolution_test():
    for N in (2, 3, 4):
        for ds in itertools.combinations_with_replacement(range(1, 7), N + 1):
            desc = sorted(ds, reverse=True)
            pair = ResolutionPair((0,), tuple(desc), N)
            assert parameter_criterion(N, desc) == bohnhorst_spindler(pair).semistable


def test_bounds_report():
    rep = bounds_report([2, 2, 2], 2)
    assert rep.flenner_degree == 2
    assert rep.bogomolov_min_degree == 7
    assert rep.tight_closure_bound == 3
    assert rep.discriminant == 12
    assert rep.generic_forms == GenericFormsStability.SEMISTABLE
    assert rep.generic_forms_applicable
    assert not bounds_report([2, 3, 4], 2).generic_forms_applicable
    assert "tight closure" in rep.statement()
    # rank 1: no restriction thresholds apply
    rep2 = bounds_report([3, 4], 2)
    assert rep2.flenner_degree is None and rep2.bogomolov_min_degree is None
    # constant-degree plane family quotes the closed-form bound
    for d in (2, 3, 4):
        rep3 = bounds_report([d, d, d], 2)
        assert rep3.bogomolov_min_degree == (3 * d * d + 1) // 2 + 1
        assert rep3.tight_closure_bound == Fraction(3 * d, 2)
    # the five-generator threshold note is surfaced
    rep5 = bounds_report([2] * 5, 2)
    assert any("R/r" in note for note in rep5.notes)


@pytest.mark.parametrize(
    "entry",
    [
        lambda ds: necessary_condition(sorted(ds)),
        discriminant,
        lambda ds: bogomolov_min_degree(list(ds) + [4]),
        tight_closure_bound,
        lambda ds: generic_forms_predicate(2, ds[0], 3),
        lambda ds: ResolutionPair((0,), tuple(sorted(ds, reverse=True)), 1),
        lambda ds: ResolutionPair((ds[0],), (6, 6), 1),
        lambda ds: parameter_criterion(2, sorted(list(ds) + [4], reverse=True)),
        lambda ds: bounds_report(ds, 2),
    ],
    ids=[
        "necessary_condition",
        "discriminant",
        "bogomolov_min_degree",
        "tight_closure_bound",
        "generic_forms_predicate",
        "ResolutionPair_b",
        "ResolutionPair_a",
        "parameter_criterion",
        "bounds_report",
    ],
)
def test_non_integral_degrees_are_refused(entry):
    # each entry accepts the integer pair, so only the type of a value differs
    entry([2, 3])
    for bad in ([2.5, 3], [2.0, 3], [True, 3], [Fraction(2), 3]):
        with pytest.raises(PreconditionError) as err:
            entry(bad)
        assert err.value.criterion == "degrees-integer"
