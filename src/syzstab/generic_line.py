"""Restriction of equal-degree families to lines and the independence certificate.

A linear map X_j -> a_j*U + b_j*V sends each degree-d form to a binary form;
the test decides whether some map makes the n images linearly independent in
the (d+1)-dimensional space of degree-d binary forms.  Independence at one
exact-rank sample is a certificate that holds forever (CertifiedYes); failure
of all samples is only evidence (ProbablyNo).  One expansion gives both the
numeric images and the symbolic ones, whose map coefficients are polynomials
in a_j, b_j.  The optional exhaustive mode expands every n x n minor of the
symbolic rows: if all vanish identically no map can work (CertifiedNo);
otherwise the first nonzero one, times a_0*b_1 - a_1*b_0, is read off at a
point with small integer coordinates, a witness found without sampling.

When n = d+1, CertifiedYes makes the images a basis of the binary forms, so
the restriction of the syzygy bundle to a generic line is a twist of the
trivial bundle and the bundle is semistable.  For n < d+1 independence says
nothing about semistability (a family can be certified independent and still
be unstable), so results carry a note only in the n = d+1 case.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from typing import Optional, Sequence

from ._matrix import rational_rank
from .core import FamilyLike, Polynomial, PreconditionError, _as_polynomials

_BASE_RANGE = 3
_DOUBLE_EVERY = 8
_EXHAUSTIVE_MAX_MEMBERS = 5
_EXHAUSTIVE_MAX_N = 3


@dataclass(frozen=True)
class LineMap:
    """A linear specialization X_j -> u[j]*U + v[j]*V with exact coefficients."""

    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]

    def __post_init__(self):
        u = tuple(Fraction(x) for x in self.u)
        v = tuple(Fraction(x) for x in self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if len(u) != len(v) or not u:
            raise ValueError("coefficient vectors must share a positive length")
        if not any(
            u[i] * v[j] - u[j] * v[i] != 0
            for i in range(len(u))
            for j in range(i + 1, len(u))
        ):
            raise ValueError("coefficient vectors are proportional; image is a single variable")

    @property
    def nvars(self) -> int:
        return len(self.u)


class LineTestStatus:
    CERTIFIED_YES = "CertifiedYes"
    PROBABLY_NO = "ProbablyNo"
    CERTIFIED_NO = "CertifiedNo"


@dataclass(frozen=True)
class LineTestResult:
    status: str
    witness: Optional[LineMap]
    trials_used: int
    notes: tuple[str, ...] = ()


def _common_degree(polys: Sequence[Polynomial]) -> int:
    d = polys[0].degree
    if any(p.degree != d for p in polys):
        raise PreconditionError(
            "equal-degrees", "line restriction needs all members of one degree"
        )
    return d


def _binary_image(poly: Polynomial, u: Sequence, v: Sequence) -> list:
    """Coefficients of the image in the basis U^k V^(d-k), k = 0..d.

    The map coefficients u, v may be Fractions or ``_Poly``: anything that adds and multiplies.
    """
    zero, one = u[0] * 0, u[0] ** 0
    out = [zero] * (poly.degree + 1)
    for coeff, mono in poly.terms:
        conv = [one]
        for j, e in enumerate(mono.exponents):
            if e == 0:
                continue
            base = [comb(e, s) * u[j] ** s * v[j] ** (e - s) for s in range(e + 1)]
            nxt = [zero] * (len(conv) + e)
            for i, c1 in enumerate(conv):
                if not c1:
                    continue
                for s, c2 in enumerate(base):
                    nxt[i + s] += c1 * c2
            conv = nxt
        for k, c in enumerate(conv):
            out[k] += coeff * c
    return out


def restrict_to_line(family: FamilyLike, line: LineMap) -> list[list[Fraction]]:
    """The n x (d+1) matrix of image coefficients of an equal-degree family."""
    polys, nvars = _as_polynomials(family)
    if line.nvars != nvars:
        raise PreconditionError(
            "line-variables", "map and family disagree on the variable count"
        )
    _common_degree(polys)
    return [_binary_image(p, line.u, line.v) for p in polys]


def _rank_at(polys: Sequence[Polynomial], line: LineMap) -> int:
    return rational_rank([_binary_image(p, line.u, line.v) for p in polys])


def _sample_line(rng: random.Random, nvars: int, span: int) -> LineMap:
    while True:
        u = tuple(Fraction(rng.randint(-span, span)) for _ in range(nvars))
        v = tuple(Fraction(rng.randint(-span, span)) for _ in range(nvars))
        try:
            return LineMap(u, v)
        except ValueError:
            continue


class _Poly(dict):
    """Polynomial in a_0..a_N, b_0..b_N: exponent tuple -> nonzero Fraction."""

    def _accumulate(self, terms) -> "_Poly":
        for e, c in terms:
            if e in self:
                c += self.pop(e)
            if c:
                self[e] = c
        return self

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly(self)._accumulate(other.items())

    def __mul__(self, other) -> "_Poly":
        if not isinstance(other, _Poly):
            return _Poly({e: c * other for e, c in self.items()} if other else {})
        return _Poly()._accumulate(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.items()
            for e2, c2 in other.items()
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "_Poly":
        out = _Poly({(0,) * len(next(iter(self))): Fraction(1)})
        for _ in range(k):
            out = out * self
        return out

    def at(self, j: int, t: int) -> "_Poly":
        """The polynomial with coordinate ``j`` set to ``t``."""
        return _Poly()._accumulate(
            (e[:j] + (0,) + e[j + 1 :], c * t ** e[j]) for e, c in self.items()
        )


def _coordinates(nvars: int) -> list[_Poly]:
    """The map coefficients a_0..a_N, b_0..b_N as polynomials."""
    n2 = 2 * nvars
    return [_Poly({tuple(int(i == k) for i in range(n2)): Fraction(1)}) for k in range(n2)]


def _symbolic_rows(polys: Sequence[Polynomial], nvars: int) -> list[list[_Poly]]:
    """Restriction rows with the coordinates a_j, b_j as map coefficients."""
    x = _coordinates(nvars)
    return [_binary_image(p, x[:nvars], x[nvars:]) for p in polys]


def _nonzero_minor(rows: list[list[_Poly]], n: int, d: int) -> Optional[_Poly]:
    """The first maximal minor, in column order, that is not identically zero."""
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


def _witness_line(minor: _Poly, nvars: int) -> LineMap:
    """The map at a point where ``minor * (a_0*b_1 - a_1*b_0)`` is nonzero.

    Each coordinate in turn takes the first value in 0..deg that keeps the
    polynomial nonzero: of degree deg in that coordinate, it has at most deg
    roots there.  The second factor keeps u and v from being proportional.
    """
    x = _coordinates(nvars)
    poly = minor * (x[0] * x[nvars + 1] + x[1] * x[nvars] * -1)
    point = []
    for j in range(2 * nvars):
        point.append(next(t for t in range(max(e[j] for e in poly) + 1) if poly.at(j, t)))
        poly = poly.at(j, point[-1])
    return LineMap(tuple(point[:nvars]), tuple(point[nvars:]))


def _candidates(nvars: int, trials: int, seed: int, minor: Optional[_Poly]):
    """Candidate lines with the number of random samples drawn so far, projections first."""
    # a projection sends one variable to U, another to V and the rest to 0
    units = [tuple(int(j == k) for j in range(nvars)) for k in range(nvars)]
    for p, q in itertools.combinations(range(nvars), 2):
        yield LineMap(units[p], units[q]), 0
    rng = random.Random(seed)
    for t in range(trials):
        yield _sample_line(rng, nvars, _BASE_RANGE << (t // _DOUBLE_EVERY)), t + 1
    if minor is not None:
        yield _witness_line(minor, nvars), trials


def line_independence_test(
    family: FamilyLike,
    trials: int = 64,
    seed: int = 0,
    exhaustive: bool = False,
) -> LineTestResult:
    """Search for a line map making the images linearly independent.

    Deterministic for a fixed seed.  The candidates are the coordinate
    projections, then ``trials`` random integer samples whose span starts at
    +-3 and doubles every 8 trials, then (exhaustive mode only) the point read
    off the first nonzero minor; ``trials_used`` counts the samples drawn up
    to the witness: 0 for a projection, ``trials`` for the minor's point.
    CertifiedYes results are sound (the rank at the witness is computed
    exactly); ProbablyNo is one-sided.  With ``exhaustive=True`` (at most 5
    members in at most 4 variables) the answer is CertifiedYes or CertifiedNo,
    and with ``trials=0`` it does not depend on ``seed``.  A family in fewer
    than 2 variables (every map is then proportional) and a negative
    ``trials`` violate the preconditions.
    """
    if trials < 0:
        raise PreconditionError("line-trials", f"trials must be >= 0, got {trials}")
    polys, nvars = _as_polynomials(family)
    if nvars < 2:
        raise PreconditionError("line-variables", "line restriction needs at least 2 variables")
    n = len(polys)
    d = _common_degree(polys)
    yes_notes: tuple[str, ...] = ()
    if n == d + 1:
        yes_notes = ("images form a basis of binary forms: the syzygy bundle is semistable",)
    if n > d + 1:
        return LineTestResult(
            LineTestStatus.CERTIFIED_NO,
            None,
            0,
            ("more members than the dimension of degree-d binary forms",),
        )
    minor = None
    if exhaustive:
        if n > _EXHAUSTIVE_MAX_MEMBERS or nvars - 1 > _EXHAUSTIVE_MAX_N:
            raise PreconditionError(
                "exhaustive-size",
                "exhaustive mode handles at most 5 members in at most 4 variables",
            )
        minor = _nonzero_minor(_symbolic_rows(polys, nvars), n, d)
        if minor is None:
            return LineTestResult(
                LineTestStatus.CERTIFIED_NO,
                None,
                0,
                ("every maximal minor of the restriction matrix vanishes identically",),
            )
    for line, used in _candidates(nvars, trials, seed, minor):
        if _rank_at(polys, line) == n:
            return LineTestResult(LineTestStatus.CERTIFIED_YES, line, used, yes_notes)
    return LineTestResult(LineTestStatus.PROBABLY_NO, None, trials)
