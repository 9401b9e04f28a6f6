"""Backtracking search for n monomials of one degree with semistable syzygy bundle.

Candidates are enumerated in descending lexicographic order of exponent
vectors and n-subsets in lexicographic order of index tuples, so outcomes are
deterministic.  Partial families are pruned by a necessity check: for each
gcd g of an already-chosen subfamily, the s chosen multiples of g form a
subfamily of slope at least (deg g - s*d)/(s - 1), a value that only grows as
members are added; the family slope of any completion is at most
(deg gcd(chosen) - n*d)/(n - 1), a cap that only shrinks.  A partial family
whose largest value beats the cap rules out every completion.

That state rides down the DFS stack as a ``monomial_stability._PathClosure``
(the map g -> the bitmask of chosen members g divides, the running gcd and
the largest value so far), and a completed family is decided from it by
``_PathClosure.accepts``, not by the verdict engine.  That is exact: the
family gcd is the only entry with s = n and its value is the family slope,
and every other entry is best at k = s.

Most pruned children are ruled out before they are built.  The child that
adds v has gcd meet(base, v), so its cap is known from the parent's running
gcd, and a push keeps every entry and only adds members to masks, so the
parent's largest value is a lower bound for the child's.  When it already
beats the child's cap (``_PathClosure.capped``, a few word operations), the
child violates and is skipped without a push.  The other children are
pushed and tested in full, so the search visits exactly the nodes it would
without this shortcut.

Candidates are packed into the closure's word layout as the loop first
reaches them, so the set-up grows with the part of the list the search
reaches, not with its length C(N + d, N).  One int holds an exponent vector,
w = d.bit_length() + 1 bits per variable, so a meet and a degree are a few
word operations, and choosing v costs one pass over the closure with no
rescan of the chosen members (the mask of a new meet is the union of the
masks that produce it).

The DFS is one loop over an explicit stack of per-node child generators,
not a recursion, so its depth (the count n) is not limited by the
interpreter's recursion limit.  Each level on the stack holds its node's
closure, so memory grows with the depth times the closure size: about
350 MiB at n = 1100 in 3 variables and degree 50.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .core import MAX_VARIABLES, MonomialFamily, PreconditionError
from .monomial_stability import _PathClosure, degree_vectors

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
        ints = type(self.variables) is int and type(self.degree) is int
        if not ints or not 2 <= self.variables <= MAX_VARIABLES or self.degree < 1:
            raise PreconditionError(
                "search-range",
                f"need integers: 2 to {MAX_VARIABLES} variables, degree >= 1",
            )
        if self.require not in ("semistable", "stable"):
            raise PreconditionError("search-require", "require must be semistable or stable")
        if type(self.budget) is not int or self.budget < 1:
            raise PreconditionError("search-budget", "budget must be an integer >= 1")
        available = comb(self.variables - 1 + self.degree, self.variables - 1)
        if type(self.count) is not int or not 2 <= self.count <= available:
            raise PreconditionError(
                "search-count",
                f"count must be an integer between 2 and {available} for this degree",
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


def find_semistable_family(spec: SearchSpec) -> SearchResult:
    """First acceptable family in lexicographic order, or Exhausted/BudgetExceeded.

    Acceptable means ``verdict`` would be Stable or SemistableNotStable (Stable
    only when ``require`` is "stable"), so every returned family carries a
    sound certificate.
    """
    variables, d, n = spec.variables, spec.degree, spec.count
    root = _PathClosure.root(variables, d)
    total = comb(variables - 1 + d, variables - 1)
    stable = spec.require == "stable"
    # candidates are packed as the loop index first reaches them
    vectors = map(root.pack, degree_vectors(variables, d))
    monos: list[int] = []
    # X_j^d is preceded by every vector with a nonzero slot before j; the
    # sentinel ``total`` stands for "every pure power is chosen"
    pure_at = [total - comb(d + variables - 1 - j, variables - 1 - j) for j in range(variables)]
    pure_at.append(total)

    def children(state: _PathClosure, start: int, have: int):
        slots = n - len(state.chosen)
        for i in range(start, total - slots + 1):
            if i == len(monos):
                monos.append(next(vectors))
            if state.capped(monos[i], n):
                continue
            child = state.push(monos[i])
            if not child.violates(n):
                yield child, i + 1, have + (i == pure_at[have])

    # ``have`` counts the chosen pure powers: a node that keeps the
    # primary-only rule holds exactly X_0^d, ..., X_(have-1)^d of them
    nodes = 0
    stack = []
    node = (root, 0, 0)
    while True:
        if node is not None:
            if nodes >= spec.budget:
                return SearchResult(SearchStatus.BUDGET_EXCEEDED, None, nodes)
            nodes += 1
            state, start, have = node
            slots = n - len(state.chosen)
            # primary only: no pure power below ``start`` is lost, and the
            # rest still fit
            if not spec.primary_only or (variables - have <= slots and pure_at[have] >= start):
                if slots:
                    stack.append(children(state, start, have))
                elif state.accepts(stable):
                    members = map(state.unpack, state.chosen)
                    family = MonomialFamily.from_exponents(members, variables)
                    return SearchResult(SearchStatus.FOUND, family, nodes)
        if not stack:
            return SearchResult(SearchStatus.EXHAUSTED, None, nodes)
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
