"""Backtracking search for n monomials of one degree with semistable syzygy bundle.

Candidates are enumerated in descending lexicographic order of exponent
vectors and n-subsets in lexicographic order of index tuples, so outcomes are
deterministic.  Partial families are pruned by a necessity check: for each
gcd g of an already-chosen subfamily, the s chosen multiples of g form a
subfamily of slope at least (deg g - s*d)/(s - 1), a value that only grows as
members are added; the family slope of any completion is at most
(deg gcd(chosen) - n*d)/(n - 1), a cap that only shrinks.  A partial family
whose largest value beats the cap rules out every completion.  A completed
family is accepted exactly when the verdict engine certifies it.

The prune state rides down the DFS stack: each node holds the meet closure of
its chosen members as a map g -> s(g), the running gcd, and the largest value
so far.  Pushing v bumps s(g) for the elements dividing v, adds v and the new
meets g ^ v with their counts, and folds only those changed entries into the
maximum.  That is exact: an unchanged entry keeps its value, and a changed
one can only rise, so the old maximum is still a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .core import MonomialFamily, PreconditionError, VerdictKind, _pure_powers, is_primary
from .monomial_stability import degree_vectors, verdict

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search: degree-d monomials in N+1 variables, pick n."""

    variables: int
    degree: int
    count: int
    budget: int = DEFAULT_BUDGET
    require: str = "semistable"
    primary_only: bool = False

    def __post_init__(self):
        if self.variables < 2 or self.degree < 1:
            raise PreconditionError("search-range", "need >= 2 variables and degree >= 1")
        if self.require not in ("semistable", "stable"):
            raise PreconditionError("search-require", "require must be semistable or stable")
        if self.budget < 1:
            raise PreconditionError("search-budget", "budget must be at least 1 node")
        available = comb(self.variables - 1 + self.degree, self.variables - 1)
        if not 2 <= self.count <= available:
            raise PreconditionError(
                "search-count",
                f"count must be between 2 and {available} for this degree",
            )


class SearchStatus:
    FOUND = "Found"
    EXHAUSTED = "Exhausted"
    BUDGET_EXCEEDED = "BudgetExceeded"


@dataclass(frozen=True)
class SearchResult:
    status: str
    family: Optional[MonomialFamily]
    nodes: int


class _BudgetExceeded(Exception):
    pass


class _PathClosure:
    """Necessity-prune state of one DFS node: immutable, shared by its children.

    ``closure`` maps each gcd g of a nonempty chosen subfamily to s(g), the
    number of chosen members divisible by g; ``base`` is the gcd of all chosen
    members; ``num``/``den`` is the largest (deg g - s*d)/(s - 1) over entries
    with s >= 2 (``den`` is 0 while there is none).
    """

    __slots__ = ("chosen", "closure", "base", "num", "den")

    def __init__(self, chosen=(), closure=None, base=None, num=0, den=0):
        self.chosen = chosen
        self.closure = {} if closure is None else closure
        self.base = base
        self.num, self.den = num, den

    def push(self, v: tuple[int, ...], d: int) -> "_PathClosure":
        """State after choosing the degree-``d`` exponent vector ``v``.

        ``v`` is not yet chosen, so it is new to the closure: a gcd of degree
        d is a chosen member.
        """
        old = self.closure
        closure = dict(old)
        closure[v] = 0
        num, den = self.num, self.den
        fresh, bumped = [v], []
        for g in old:
            m = tuple(map(min, g, v))  # the meet of g and v
            if m == g:
                closure[g] = old[g] + 1
                bumped.append(g)
            elif m not in closure:
                closure[m] = 0
                fresh.append(m)
        for h in fresh:  # h divides v; count its multiples among the others
            closure[h] = 1 + sum(1 for c in self.chosen if all(map(int.__le__, h, c)))
        for g in bumped + fresh:
            s = closure[g]
            if s >= 2:
                a, b = sum(g) - s * d, s - 1
                if den == 0 or a * den > num * b:
                    num, den = a, b
        base = v if self.base is None else tuple(map(min, self.base, v))
        return _PathClosure(self.chosen + (v,), closure, base, num, den)

    def violates(self, d: int, n: int) -> bool:
        """Some chosen subfamily beats the family slope cap of every completion."""
        return self.den > 0 and self.num * (n - 1) > (sum(self.base) - n * d) * self.den


def find_semistable_family(spec: SearchSpec, prune: bool = True) -> SearchResult:
    """First acceptable family in lexicographic order, or Exhausted/BudgetExceeded.

    Acceptable means the verdict is Stable or SemistableNotStable (Stable only
    when ``require`` is "stable"), so every returned family carries a sound
    certificate.  ``prune=False`` disables the necessity prune and is only
    useful to cross-check that pruning skips no acceptable family.
    """
    monos = list(degree_vectors(spec.variables, spec.degree))
    total = len(monos)
    n = spec.count
    accepted = (
        (VerdictKind.STABLE,)
        if spec.require == "stable"
        else (VerdictKind.STABLE, VerdictKind.SEMISTABLE_NOT_STABLE)
    )
    pure_power_idx = {i for i, v in enumerate(monos) if _pure_powers([v])}
    nodes = 0
    found: Optional[MonomialFamily] = None

    def visit(chosen_idx: list[int], state: _PathClosure, start: int) -> bool:
        nonlocal nodes, found
        if nodes >= spec.budget:
            raise _BudgetExceeded
        nodes += 1
        chosen = state.chosen
        if len(chosen) == n:
            family = MonomialFamily.from_exponents(chosen, spec.variables)
            if spec.primary_only and not is_primary(family):
                return False
            v = verdict(family)
            if v.kind in accepted:
                found = family
                return True
            return False
        slots = n - len(chosen)
        if spec.primary_only:
            missing = [i for i in pure_power_idx if i not in chosen_idx]
            if any(i < start for i in missing) or len(missing) > slots:
                return False
        for i in range(start, total - slots + 1):
            if prune:
                child = state.push(monos[i], spec.degree)
                if child.violates(spec.degree, n):
                    continue
            else:  # carry the members only
                child = _PathClosure(chosen + (monos[i],))
            chosen_idx.append(i)
            if visit(chosen_idx, child, i + 1):
                return True
            chosen_idx.pop()
        return False

    try:
        if visit([], _PathClosure(), 0):
            return SearchResult(SearchStatus.FOUND, found, nodes)
        return SearchResult(SearchStatus.EXHAUSTED, None, nodes)
    except _BudgetExceeded:
        return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, nodes)
