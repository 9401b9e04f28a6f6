"""Restriction of equal-degree families to lines and the independence certificate.

A linear map X_j -> a_j*U + b_j*V sends each degree-d form to a binary form;
the test decides whether some map makes the n images linearly independent in
the (d+1)-dimensional space of degree-d binary forms.  Independence at one
exact-rank sample is a certificate that holds forever (CertifiedYes); failure
of all samples is only evidence (ProbablyNo).  The optional exhaustive mode
expands every n x n minor of the restriction matrix symbolically in the map
coefficients: if all minors vanish identically no map can work (CertifiedNo),
otherwise a sample with nonzero minor exists and the search will find one.

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


def _binary_image(poly: Polynomial, line: LineMap) -> list[Fraction]:
    """Coefficients of the image in the basis U^k V^(d-k), k = 0..d."""
    d = poly.degree
    out = [Fraction(0)] * (d + 1)
    for coeff, mono in poly.terms:
        conv = [Fraction(1)]
        for j, e in enumerate(mono.exponents):
            if e == 0:
                continue
            a, b = line.u[j], line.v[j]
            base = [comb(e, s) * a**s * b ** (e - s) for s in range(e + 1)]
            nxt = [Fraction(0)] * (len(conv) + e)
            for i, c1 in enumerate(conv):
                if c1 == 0:
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
    return [_binary_image(p, line) for p in polys]


def _rank_at(polys: Sequence[Polynomial], line: LineMap) -> int:
    return rational_rank([_binary_image(p, line) for p in polys])


def _coordinate_maps(nvars: int):
    """Projections sending one variable to U, another to V, the rest to 0."""
    for p, q in itertools.combinations(range(nvars), 2):
        u = [Fraction(0)] * nvars
        v = [Fraction(0)] * nvars
        u[p] = Fraction(1)
        v[q] = Fraction(1)
        yield LineMap(tuple(u), tuple(v))


def _sample_line(rng: random.Random, nvars: int, span: int) -> LineMap:
    while True:
        u = tuple(Fraction(rng.randint(-span, span)) for _ in range(nvars))
        v = tuple(Fraction(rng.randint(-span, span)) for _ in range(nvars))
        try:
            return LineMap(u, v)
        except ValueError:
            continue


# Sparse polynomials in the 2*(N+1) map coefficients, used by the exhaustive
# mode: keys are exponent tuples (a_0..a_N, b_0..b_N), values are Fractions.
_Sym = dict


def _sym_mul(p: _Sym, q: _Sym) -> _Sym:
    out: _Sym = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _sym_add_into(acc: _Sym, p: _Sym, scale: Fraction) -> None:
    for e, c in p.items():
        value = acc.get(e, 0) + scale * c
        if value:
            acc[e] = value
        elif e in acc:
            del acc[e]


def _symbolic_rows(polys: Sequence[Polynomial], nvars: int) -> list[list[_Sym]]:
    d = polys[0].degree
    zero = tuple([0] * (2 * nvars))
    rows: list[list[_Sym]] = []
    for poly in polys:
        row: list[_Sym] = [{} for _ in range(d + 1)]
        for coeff, mono in poly.terms:
            conv: list[_Sym] = [{zero: Fraction(1)}]
            for j, e in enumerate(mono.exponents):
                if e == 0:
                    continue
                base: list[_Sym] = []
                for s in range(e + 1):
                    key = list(zero)
                    key[j] = s
                    key[nvars + j] = e - s
                    base.append({tuple(key): Fraction(comb(e, s))})
                nxt: list[_Sym] = [{} for _ in range(len(conv) + e)]
                for i, c1 in enumerate(conv):
                    for s, c2 in enumerate(base):
                        _sym_add_into(nxt[i + s], _sym_mul(c1, c2), Fraction(1))
                conv = nxt
            for k, c in enumerate(conv):
                _sym_add_into(row[k], c, coeff)
        rows.append(row)
    return rows


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _some_minor_nonzero(rows: list[list[_Sym]], n: int, d: int) -> bool:
    for cols in itertools.combinations(range(d + 1), n):
        det: _Sym = {}
        for perm in itertools.permutations(range(n)):
            product: Optional[_Sym] = None
            for i, pi in enumerate(perm):
                entry = rows[i][cols[pi]]
                if not entry:
                    product = None
                    break
                product = entry if product is None else _sym_mul(product, entry)
            if product:
                _sym_add_into(det, product, Fraction(_perm_sign(perm)))
        if det:
            return True
    return False


def line_independence_test(
    family: FamilyLike,
    trials: int = 64,
    seed: int = 0,
    exhaustive: bool = False,
) -> LineTestResult:
    """Search for a line map making the images linearly independent.

    Deterministic for a fixed seed: a pass over coordinate projections comes
    first, then ``trials`` random integer samples whose coordinate span starts
    at +-3 and doubles every 8 trials.  CertifiedYes results carry the witness
    map and are sound (the rank at the witness is computed exactly);
    ProbablyNo is one-sided.  With ``exhaustive=True`` (and at most 5 members
    in at most 4 variables) an identically-vanishing minor expansion upgrades
    the negative answer to CertifiedNo.  A family in fewer than 2 variables
    (every map is then proportional) and a negative ``trials`` violate the
    preconditions.
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
    if exhaustive:
        if n > _EXHAUSTIVE_MAX_MEMBERS or nvars - 1 > _EXHAUSTIVE_MAX_N:
            raise PreconditionError(
                "exhaustive-size",
                "exhaustive mode handles at most 5 members in at most 4 variables",
            )
        if not _some_minor_nonzero(_symbolic_rows(polys, nvars), n, d):
            return LineTestResult(
                LineTestStatus.CERTIFIED_NO,
                None,
                0,
                ("every maximal minor of the restriction matrix vanishes identically",),
            )

    for line in _coordinate_maps(nvars):
        if _rank_at(polys, line) == n:
            return LineTestResult(LineTestStatus.CERTIFIED_YES, line, 0, yes_notes)

    rng = random.Random(seed)
    budget = trials if not exhaustive else max(trials, 10_000)
    for t in range(budget):
        span = _BASE_RANGE << (t // _DOUBLE_EVERY)
        line = _sample_line(rng, nvars, span)
        if _rank_at(polys, line) == n:
            return LineTestResult(LineTestStatus.CERTIFIED_YES, line, t + 1, yes_notes)
    if exhaustive:
        raise RuntimeError("a nonzero minor exists but no sample certified it")
    return LineTestResult(LineTestStatus.PROBABLY_NO, None, trials)
