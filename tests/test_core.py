import random

import pytest

from syzstab.core import (
    Monomial,
    MonomialFamily,
    Polynomial,
    StabilityVerdict,
    SubsetWitness,
    VerdictKind,
    degree,
    is_primary,
    join,
    meet,
)
from fractions import Fraction


def M(*exps):
    return Monomial(tuple(exps))


def test_degree_examples():
    assert degree(M(4, 0, 0)) == 4
    assert degree(M(0, 0, 0)) == 0
    assert degree(M(1, 1, 2)) == 4


def test_meet_examples():
    assert meet(M(5, 0, 0), M(4, 0, 1)) == M(4, 0, 0)
    assert meet(M(3, 1), M(3, 1)) == M(3, 1)
    assert meet(M(2, 2, 2), M(3, 0, 3)) == M(2, 0, 2)
    assert meet(M(2, 2, 2), M(3, 0, 3)).degree() == 4


def test_join_examples():
    assert join(M(1, 2, 0), M(0, 2, 1)) == M(1, 2, 1)
    assert join(M(2, 1, 0), M(0, 0, 0)) == M(2, 1, 0)
    assert join(M(3, 0, 0), M(0, 3, 0)) == M(3, 3, 0)


def test_meet_join_reject_length_mismatch():
    with pytest.raises(ValueError):
        meet(M(1, 0), M(1, 0, 0))
    with pytest.raises(ValueError):
        join(M(1, 0), M(1, 0, 0))


def test_lattice_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        nv = rng.randint(1, 4)
        a = M(*(rng.randint(0, 5) for _ in range(nv)))
        b = M(*(rng.randint(0, 5) for _ in range(nv)))
        c = M(*(rng.randint(0, 5) for _ in range(nv)))
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(a, a) == a and join(a, a) == a
        assert meet(a, b).divides(a) and meet(a, b).divides(b)
        assert meet(a, b).degree() <= min(a.degree(), b.degree())


def test_is_primary():
    F = MonomialFamily.from_exponents([(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 2)])
    assert is_primary(F)
    G = MonomialFamily.from_exponents([(3, 0, 0), (1, 2, 0), (0, 2, 1)])
    assert not is_primary(G)
    H = MonomialFamily.from_exponents([(1,), (2,)], 1)
    assert is_primary(H)


def test_monomial_rejects_negative():
    with pytest.raises(ValueError):
        M(-1, 2)


@pytest.mark.parametrize("exps", [(2.0, 1), (2.9, 0), (True, 2), (1, "2"), (None,)])
def test_monomial_rejects_non_integer_exponents(exps):
    # refused rather than truncated: 2.9 would silently become 2, True 1
    with pytest.raises(ValueError):
        Monomial(exps)
    with pytest.raises(ValueError):
        MonomialFamily.from_exponents([exps, (0,) * (len(exps) - 1) + (3,)])


def test_family_rejects_truncated_exponent_vectors():
    with pytest.raises(ValueError):
        MonomialFamily.from_exponents([[2.9, 0], [0, 2.2], [1, 1]])


def test_family_rejects_duplicates_and_small():
    with pytest.raises(ValueError):
        MonomialFamily.from_exponents([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        MonomialFamily.from_exponents([(1, 0)])
    with pytest.raises(ValueError):
        MonomialFamily.from_exponents([(1, 0), (0, 0)])


def test_polynomial_invariants():
    with pytest.raises(ValueError):
        Polynomial(((Fraction(1), M(2, 0)), (Fraction(1), M(1, 0))))  # not homogeneous
    with pytest.raises(ValueError):
        Polynomial(((Fraction(0), M(2, 0)),))  # zero coefficient
    with pytest.raises(ValueError):
        Polynomial(((Fraction(1), M(2, 0)), (Fraction(2), M(2, 0))))  # duplicate
    p = Polynomial(((Fraction(1, 2), M(1, 1)), (Fraction(-3), M(2, 0))))
    assert p.degree == 2 and p.nvars == 2


def test_slope_comparison_is_cross_multiplication():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randint(-40, 40), rng.randint(1, 12)
        c, d = rng.randint(-40, 40), rng.randint(1, 12)
        assert (Fraction(a, b) < Fraction(c, d)) == (a * d < c * b)
        assert (Fraction(a, b) == Fraction(c, d)) == (a * d == c * b)


def test_witness_invariants():
    F = MonomialFamily.from_exponents([(5, 0, 0), (4, 0, 1), (0, 5, 0)])
    w = SubsetWitness.for_subset(F, [1, 0])
    assert w.indices == (0, 1)
    assert w.gcd_monomial == M(4, 0, 0)
    assert w.slope == Fraction(-6)
    with pytest.raises(ValueError):
        SubsetWitness(indices=(1,), gcd_monomial=M(0, 0, 0), gcd_degree=0, slope=Fraction(0))


def test_verdict_requires_witness_when_unstable():
    with pytest.raises(ValueError):
        StabilityVerdict(VerdictKind.UNSTABLE, None)
    v = StabilityVerdict(VerdictKind.STABLE, None, ("x",))
    assert v.is_semistable
