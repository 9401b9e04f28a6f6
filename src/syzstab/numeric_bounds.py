"""Closed-form degree conditions, restriction-theorem thresholds and the
tight-closure degree bound.

All comparisons are exact rational arithmetic; "smallest integer" extractions
take the least integer strictly satisfying the underlying inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Optional, Sequence

from .core import PreconditionError


def _degrees(values: Sequence[int], name: str = "degrees") -> list[int]:
    """``values`` as a list, refusing any value whose type is not ``int``: a
    float would be truncated or compared inexactly, a bool read as 0 or 1."""
    ds = list(values)
    if any(type(x) is not int for x in ds):
        raise PreconditionError("degrees-integer", f"{name} must be integers; got {ds!r}")
    return ds


def necessary_condition(degrees: Sequence[int]) -> tuple[bool, Optional[int]]:
    """Necessary degree condition for a semistable syzygy sheaf.

    For sorted degrees d_1 <= ... <= d_n the ladder
    (n-r-1)(d_1+...+d_{r+1}) >= r(d_{r+2}+...+d_n) must hold for r = 1..n-2.
    Its last rung is the master inequality d_1 + ... + d_{n-1} >= (n-2) d_n,
    which implies the others.  Returns (holds, smallest violated r or None).
    Vacuously true for n < 3.
    """
    ds = _degrees(degrees)
    if any(x < 1 for x in ds):
        raise PreconditionError("degrees-positive", "degrees must be >= 1")
    if ds != sorted(ds):
        raise PreconditionError("degrees-sorted", "degrees must be sorted ascending")
    n = len(ds)
    ladder = range(1, n - 1)
    r = next((r for r in ladder if (n - r - 1) * sum(ds[: r + 1]) < r * sum(ds[r + 1 :])), None)
    return r is None, r


def flenner_restriction_degree(N: int, r: int) -> int:
    """Smallest k so that restriction to generic degree-k complete intersection
    curves preserves semistability of rank-r sheaves on N-dimensional space:

        (C(k+N, N) - (N-1)k - 1) / k  >  max((r^2 - 1)/4, 1).
    """
    if N < 2 or r < 2:
        raise PreconditionError("flenner-range", "need N >= 2 and r >= 2")
    threshold = max(Fraction(r * r - 1, 4), Fraction(1))
    k = 1
    while Fraction(comb(k + N, N) - (N - 1) * k - 1, k) <= threshold:
        k += 1
    return k


def discriminant(degrees: Sequence[int]) -> int:
    """(sum d_i)^2 - (n-1) * sum d_i^2, the restriction-theorem input."""
    ds = _degrees(degrees)
    total = sum(ds)
    return total * total - (len(ds) - 1) * sum(d * d for d in ds)


def bogomolov_min_degree(degrees: Sequence[int]) -> int:
    """Smallest curve degree k with 2k > (R/r) * discriminant + 1, where
    r = n - 1 and R = C(r, floor(r/2)) * C(r-2, floor(r/2) - 1).

    Restriction of a stable rank-r sheaf on the plane to every smooth curve
    of degree >= k stays stable.
    """
    ds = _degrees(degrees)
    n = len(ds)
    if n < 3:
        raise PreconditionError("bogomolov-size", "need at least 3 degrees (rank >= 2)")
    r = n - 1
    big_r = comb(r, r // 2) * comb(r - 2, r // 2 - 1)
    q = Fraction(big_r, r) * discriminant(ds) + 1
    return max(1, floor(q / 2) + 1)


def tight_closure_bound(degrees: Sequence[int]) -> Fraction:
    """The degree threshold sum(d_i)/(n-1) in the tight-closure inclusion."""
    ds = _degrees(degrees)
    if len(ds) < 2:
        raise PreconditionError("bound-size", "need at least 2 degrees")
    return Fraction(sum(ds), len(ds) - 1)


class GenericFormsStability:
    """Conclusions available for n generic forms of one degree d."""

    NONE = "none"
    SEMISTABLE = "semistableGeneric"
    STABLE_PLANE_QUARTIC = "stableGenericPlaneQuartic"
    STABLE_GENUS_TWO = "stableGenericGenusTwo"


def generic_forms_predicate(N: int, d: int, n: int) -> str:
    """Strongest known conclusion for n generic degree-d forms in N+1 variables.

    Stability of the generic syzygy bundle holds for N = 2 when
    n <= 4d/5 + 1 (restriction to a plane quartic) and for N >= 3 when
    n <= (N+2)d/3 + 1 (restriction to a genus-two curve); semistability
    holds whenever n <= d(N+1).
    """
    _degrees([d], "d")
    if N < 2 or d < 1 or n < 2:
        raise PreconditionError("generic-forms-range", "need N >= 2, d >= 1, n >= 2")
    if N == 2 and Fraction(n) <= Fraction(4 * d, 5) + 1:
        return GenericFormsStability.STABLE_PLANE_QUARTIC
    if N >= 3 and Fraction(n) <= Fraction((N + 2) * d, 3) + 1:
        return GenericFormsStability.STABLE_GENUS_TWO
    if n <= d * (N + 1):
        return GenericFormsStability.SEMISTABLE
    return GenericFormsStability.NONE


@dataclass(frozen=True)
class ResolutionPair:
    """Degree data (a, b) of a two-term resolution of a rank-N bundle.

    ``a`` has length k and ``b`` length N + k, both sorted descending;
    the pair is admissible when a_i < b_{N+i} for i = 1..k.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    N: int

    def __post_init__(self):
        a = tuple(_degrees(self.a, "a"))
        b = tuple(_degrees(self.b, "b"))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.N < 1:
            raise PreconditionError("resolution-dimension", "need N >= 1")
        if len(b) != self.N + len(a):
            raise PreconditionError(
                "resolution-lengths", f"need len(b) == N + len(a); got {len(b)} vs {self.N}+{len(a)}"
            )
        if list(a) != sorted(a, reverse=True) or list(b) != sorted(b, reverse=True):
            raise PreconditionError("resolution-sorted", "a and b must be sorted descending")


@dataclass(frozen=True)
class ResolutionVerdict:
    admissible: bool
    semistable: bool
    mu: Fraction


def bohnhorst_spindler(pair: ResolutionPair) -> ResolutionVerdict:
    """Semistability test for bundles with a two-term resolution.

    Admissible means a_i < b_{N+i} for all i; an admissible bundle is
    semistable exactly when b_1 <= mu = (sum b - sum a)/N.
    """
    a, b, N = pair.a, pair.b, pair.N
    admissible = all(a[i] < b[N + i] for i in range(len(a)))
    mu = Fraction(sum(b) - sum(a), N)
    semistable = admissible and b[0] <= mu
    return ResolutionVerdict(admissible, semistable, mu)


def parameter_criterion(N: int, degrees_desc: Sequence[int]) -> bool:
    """Semistability of the syzygy bundle of N+1 parameters of degrees
    d_1 >= ... >= d_{N+1}: holds iff d_1 <= (d_2 + ... + d_{N+1})/(N-1).

    Equivalent to the resolution test with a = (0), b = degrees.
    """
    ds = _degrees(degrees_desc)
    if N < 2:
        raise PreconditionError("parameter-dimension", "need N >= 2")
    if len(ds) != N + 1:
        raise PreconditionError("parameter-length", f"need exactly N+1 = {N + 1} degrees")
    if ds != sorted(ds, reverse=True):
        raise PreconditionError("parameter-sorted", "degrees must be sorted descending")
    if any(x < 1 for x in ds):
        raise PreconditionError("parameter-positive", "degrees must be >= 1")
    return Fraction(ds[0]) <= Fraction(sum(ds[1:]), N - 1)


@dataclass(frozen=True)
class BoundsReport:
    """Aggregated thresholds for one degree sequence on N-dimensional space."""

    variables: int
    degrees: tuple[int, ...]
    rank: int
    tight_closure_bound: Fraction
    flenner_degree: Optional[int]
    discriminant: int
    bogomolov_min_degree: Optional[int]
    generic_forms: Optional[str]
    notes: tuple[str, ...]

    @property
    def generic_forms_applicable(self) -> bool:
        """Whether a generic-forms conclusion applies (constant degrees and
        within one of the known ranges)."""
        return self.generic_forms is not None and self.generic_forms != GenericFormsStability.NONE

    def statement(self) -> str:
        bound = self.tight_closure_bound
        lines = [
            "assuming the syzygy bundle of the family is semistable:",
            f"  tight closure = ideal + all forms of degree >= {bound}",
        ]
        if self.flenner_degree is not None:
            lines.append(
                "  valid on generic complete-intersection curves of degree >= "
                f"{self.flenner_degree}"
            )
        if self.bogomolov_min_degree is not None:
            lines.append(
                "  valid on every smooth plane curve of degree >= "
                f"{self.bogomolov_min_degree} (needs a stable bundle)"
            )
        return "\n".join(lines)


def bounds_report(degrees: Sequence[int], N: int) -> BoundsReport:
    """Populate every threshold that applies to the degree sequence.

    The plane-restriction threshold (via the discriminant) is populated only
    for N = 2 and rank >= 2, the generic-forms conclusion only for constant
    degrees.
    """
    ds = tuple(sorted(_degrees(degrees)))
    if any(x < 1 for x in ds):
        raise PreconditionError("degrees-positive", "degrees must be >= 1")
    if N < 1:
        raise PreconditionError("report-dimension", "need N >= 1")
    n = len(ds)
    if n < 2:
        raise PreconditionError("report-size", "need at least 2 degrees")
    r = n - 1
    notes: list[str] = []
    flenner = flenner_restriction_degree(N, r) if (N >= 2 and r >= 2) else None
    disc = discriminant(ds)
    bogomolov = bogomolov_min_degree(ds) if (N == 2 and n >= 3) else None
    generic = None
    if len(set(ds)) == 1 and N >= 2:
        generic = generic_forms_predicate(N, ds[0], n)
    if n == 5:
        notes.append(
            "five generators: the plane-restriction threshold uses R/r = 3; "
            "quotes of 60d^2+1 elsewhere use R in place of R/r"
        )
    notes.append(
        "in large positive characteristic the inclusion holds for degrees "
        "strictly above the bound; at the boundary degree membership can differ"
    )
    return BoundsReport(
        variables=N + 1,
        degrees=ds,
        rank=r,
        tight_closure_bound=tight_closure_bound(ds),
        flenner_degree=flenner,
        discriminant=disc,
        bogomolov_min_degree=bogomolov,
        generic_forms=generic,
        notes=tuple(notes),
    )
