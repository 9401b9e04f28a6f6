"""Shared exact-arithmetic vocabulary: monomials, families, polynomials, slopes, verdicts.

Everything in this module is immutable after construction and all operations
are pure, so the types are safe to share between threads.  Slopes are
``fractions.Fraction`` values; comparisons reduce to integer
cross-multiplication, so there is no rounding anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain.

    ``criterion`` is a short machine-readable name for the violated
    precondition; the CLI reports it and exits with status 2.
    """

    def __init__(self, criterion: str, message: str):
        super().__init__(message)
        self.criterion = criterion


_VAR_NAMES = ("X", "Y", "Z", "W")

# Exponent vectors are dense, one entry per variable, so the CLI and
# ``SearchSpec`` refuse a larger variable count before building any vector.
MAX_VARIABLES = 256


def variable_name(index: int, nvars: int) -> str:
    """Display name of a variable: X, Y, Z, W for up to four, else X0, X1, ..."""
    if nvars <= len(_VAR_NAMES):
        return _VAR_NAMES[index]
    return f"X{index}"


@dataclass(frozen=True)
class Monomial:
    """A monomial as its exponent vector over a fixed tuple of variables."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        if any(type(e) is not int for e in exps):
            raise ValueError(f"non-integer exponent in {exps!r}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        object.__setattr__(self, "exponents", exps)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: Monomial) -> bool:
        _require_same_nvars(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.exponents) if e > 0)

    def __mul__(self, other: Monomial) -> Monomial:
        _require_same_nvars(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        if self.degree() == 0:
            return "1"
        parts = []
        for j, e in enumerate(self.exponents):
            if e == 0:
                continue
            name = variable_name(j, self.nvars)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


def _require_same_nvars(a: Monomial, b: Monomial) -> None:
    if a.nvars != b.nvars:
        raise ValueError(f"variable count mismatch: {a.nvars} vs {b.nvars}")


def degree(m: Monomial) -> int:
    """Total degree, the sum of the exponents."""
    return m.degree()


def meet(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise minimum; the greatest common divisor of two monomials."""
    _require_same_nvars(a, b)
    return Monomial(tuple(min(x, y) for x, y in zip(a.exponents, b.exponents)))


def join(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise maximum; the least common multiple of two monomials."""
    _require_same_nvars(a, b)
    return Monomial(tuple(max(x, y) for x, y in zip(a.exponents, b.exponents)))


@dataclass(frozen=True)
class MonomialFamily:
    """An ordered family of distinct monomials in a fixed number of variables.

    Members are indexed from 0 and all reported witnesses refer to these
    original indices.  Duplicates are a construction error: the equal-degree
    criterion divides by degree differences that degenerate for duplicates.
    """

    variables: int
    members: tuple[Monomial, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if self.variables < 1:
            raise ValueError("variables must be >= 1")
        if len(members) < 2:
            raise ValueError("a family needs at least 2 members")
        seen = set()
        for m in members:
            if not isinstance(m, Monomial):
                raise ValueError("family members must be Monomial instances")
            if m.nvars != self.variables:
                raise ValueError(
                    f"member {m} has {m.nvars} variables, family declares {self.variables}"
                )
            if m.degree() == 0:
                raise ValueError("family members must have positive degree")
            if m.exponents in seen:
                raise ValueError(f"duplicate monomial {m}")
            seen.add(m.exponents)

    @classmethod
    def from_exponents(
        cls, vectors: Iterable[Sequence[int]], variables: Optional[int] = None
    ) -> MonomialFamily:
        members = tuple(Monomial(tuple(v)) for v in vectors)
        if variables is None:
            if not members:
                raise ValueError("empty family")
            variables = members[0].nvars
        return cls(variables, members)

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree() for m in self.members)

    def exponent_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.exponents for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Monomial:
        return self.members[i]


def _vector_gcd(vectors: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Componentwise minimum of nonempty exponent vectors: their gcd."""
    return tuple(map(min, zip(*vectors)))


def _pure_powers(vectors: Iterable[Sequence[int]]) -> set[int]:
    """The variables j such that some vector is a positive power of X_j alone.

    Monomials generate an ideal primary to the irrelevant ideal exactly when
    this is every variable.
    """
    found = set()
    for v in vectors:
        support = [j for j, e in enumerate(v) if e]
        if len(support) == 1:
            found.add(support[0])
    return found


def is_primary(family: MonomialFamily) -> bool:
    """Whether the family generates an ideal primary to the irrelevant ideal.

    Holds exactly when every variable occurs as a pure power of some member.
    """
    return len(_pure_powers(family.exponent_vectors())) == family.variables


@dataclass(frozen=True)
class Polynomial:
    """Sparse homogeneous polynomial with exact rational coefficients."""

    terms: tuple[tuple[Fraction, Monomial], ...]

    def __post_init__(self):
        terms = tuple((Fraction(c), m) for c, m in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("the zero polynomial is not allowed")
        nvars = terms[0][1].nvars
        deg = terms[0][1].degree()
        seen = set()
        for c, m in terms:
            if c == 0:
                raise ValueError("zero coefficient in term list")
            if m.nvars != nvars:
                raise ValueError("mixed variable counts in one polynomial")
            if m.degree() != deg:
                raise ValueError(
                    f"not homogeneous: term {m} has degree {m.degree()}, expected {deg}"
                )
            if m.exponents in seen:
                raise ValueError(f"duplicate monomial {m} in term list")
            seen.add(m.exponents)

    @property
    def nvars(self) -> int:
        return self.terms[0][1].nvars

    @property
    def degree(self) -> int:
        return self.terms[0][1].degree()

    @classmethod
    def from_monomial(cls, m: Monomial) -> Polynomial:
        return cls(((Fraction(1), m),))

    def __str__(self) -> str:
        parts = []
        for c, m in self.terms:
            if c == 1:
                parts.append(str(m))
            else:
                parts.append(f"{c}*{m}")
        return " + ".join(parts)


@dataclass(frozen=True)
class PolynomialFamily:
    """Ordered family of homogeneous polynomials in a fixed number of variables."""

    variables: int
    members: tuple[Polynomial, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 2:
            raise ValueError("a family needs at least 2 members")
        for p in members:
            if p.nvars != self.variables:
                raise ValueError("member variable count does not match family")

    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Polynomial:
        return self.members[i]


def _integer_terms(poly: Polynomial) -> list[tuple[int, tuple[int, ...]]]:
    """The (coefficient, exponents) terms of ``poly`` times the lcm of its
    denominators; a member times a nonzero constant spans the same line."""
    denom = lcm(*(c.denominator for c, _ in poly.terms))
    return [(int(c * denom), m.exponents) for c, m in poly.terms]


FamilyLike = Union[MonomialFamily, PolynomialFamily, Sequence[Polynomial]]


def _as_polynomials(family: FamilyLike) -> tuple[list[Polynomial], int]:
    """Members as polynomials, with their common variable count."""
    if isinstance(family, MonomialFamily):
        return [Polynomial.from_monomial(m) for m in family.members], family.variables
    if isinstance(family, PolynomialFamily):
        return list(family.members), family.variables
    polys = list(family)
    if not polys:
        raise ValueError("empty family")
    nvars = polys[0].nvars
    for p in polys:
        if p.nvars != nvars:
            raise ValueError("mixed variable counts in family")
    return polys, nvars


@dataclass(frozen=True)
class SubsetWitness:
    """A subfamily together with its gcd and twisted-sheaf slope.

    The slope is (gcd degree - sum of member degrees) / (|J| - 1) at twist 0,
    the slope of the syzygy subsheaf generated by the indexed members.
    """

    indices: tuple[int, ...]
    gcd_monomial: Monomial
    gcd_degree: int
    slope: Fraction

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 2 or list(idx) != sorted(set(idx)):
            raise ValueError("witness indices must be a sorted set of size >= 2")

    @classmethod
    def for_subset(
        cls, family: MonomialFamily, indices: Iterable[int], twist: int = 0
    ) -> SubsetWitness:
        idx = tuple(sorted(set(indices)))
        if len(idx) < 2:
            raise PreconditionError("subset-size", "subsets need at least 2 members")
        if idx[0] < 0 or idx[-1] >= len(family):
            raise PreconditionError("subset-indices", f"indices out of range: {idx}")
        g = Monomial(_vector_gcd(family[i].exponents for i in idx))
        total = sum(family[i].degree() for i in idx)
        r = len(idx) - 1
        slope = Fraction(r * twist + g.degree() - total, r)
        return cls(idx, g, g.degree(), slope)


@dataclass(frozen=True)
class SectionWitness:
    """A destabilizing global section: a twist where the section space is
    nonzero while the twisted sheaf already has negative degree."""

    twist: int
    section_dim: int
    sheaf_degree: int


class VerdictKind(Enum):
    STABLE = "Stable"
    SEMISTABLE_NOT_STABLE = "SemistableNotStable"
    SEMISTABLE = "Semistable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


Witness = Union[SubsetWitness, SectionWitness]


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a (semi)stability test.

    ``Semistable`` is the certificate produced by section-vanishing criteria,
    which establish semistability without deciding strictness.  Unstable and
    SemistableNotStable verdicts always carry a witness: a destabilizing
    subfamily or section, respectively an equality subfamily.
    """

    kind: VerdictKind
    witness: Optional[Witness] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.kind in (VerdictKind.UNSTABLE, VerdictKind.SEMISTABLE_NOT_STABLE):
            if self.witness is None:
                raise ValueError(f"{self.kind.value} verdicts must carry a witness")

    @property
    def is_semistable(self) -> bool:
        return self.kind in (
            VerdictKind.STABLE,
            VerdictKind.SEMISTABLE_NOT_STABLE,
            VerdictKind.SEMISTABLE,
        )
