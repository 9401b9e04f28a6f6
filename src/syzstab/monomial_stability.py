"""Maximal subset slopes and semistability verdicts for monomial families.

For a family of monomials generating a primary ideal, the maximal slope of
the syzygy sheaf equals the maximum over subfamilies J with |J| >= 2 of

    (deg gcd(J) - sum of degrees over J) / (|J| - 1),

so (semi)stability is decided by comparing that maximum against the slope of
the full family.  Each extremum (over all subfamilies, and over proper ones)
comes with a witness: among maximizing subfamilies, the smallest size wins,
then the lexicographically smallest index tuple.  Two engines compute both:

* ``max_slope_brute_force`` walks all 2^n - n - 1 admissible subsets and is
  the reference oracle (refused above a fixed ceiling of 20 members);
* ``max_slope`` scans the meet-closure of the family once.  For a closure
  element g, sort the multiples of g by (degree, index); their first k form
  the candidate S(g, k) of value

      (deg g - sum of the k smallest degrees among multiples of g) / (k - 1).

  Candidates compare by value (higher wins), then k (smaller wins), then the
  sorted index tuple of S(g, k) (smaller wins).

The scan is exact.  S(g, k) has a gcd divisible by g, so its slope is at
least its value, and no value exceeds the maximum.  A maximizing J has
g = gcd(J) in the closure and consists of multiples of g, so its slope is at
most the value of (g, |J|): the best value is the maximum, and J has the
least degree sum of any |J| multiples of g.  When S(g, k) reaches the
maximum, a gcd larger than g would beat it, so its gcd is exactly g and
S(g, k) is itself a maximizer.  Among the k-subsets of multiples of g with
least degree sum, S(g, k) has the smallest index tuple, so the best candidate
is the witness.  Restricting to k < n gives the proper extremum.
The meet-closure is far smaller than 2^n in practice.

The scan reads S(g, k) off bitsets.  The members are ranked once by
(degree, index), and bit r of a mask stands for the member of rank r.  For
each variable j and each exponent e that some member has there, ``masks[j][e]``
is the mask of the members whose j-th exponent is at least e (a suffix OR
over the sorted distinct values).  Meets take minima, so every coordinate g_j
of a closure element is some member's exponent and has a mask, and the
multiples of g are the AND of ``masks[j][g_j]`` over j.  Its set bits come in
rank order, so S(g, k) is its k lowest set bits: one walk up the bits lowers
the excess deg g - (sum of degrees) by one member at a time.  The masks are
dicts keyed by exponent, not lists, so exponents far past any list size cost
nothing.  A key (value, -k) is compared with the best so far by integer
cross-multiplication (every k - 1 is positive), and the index tuple is built
only for a candidate that ties or wins; the final proper-versus-whole test is
an integer comparison too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    Monomial,
    MonomialFamily,
    PreconditionError,
    StabilityVerdict,
    SubsetWitness,
    VerdictKind,
    _pure_powers,
    _vector_gcd,
    is_primary,
)

ORACLE_CEILING = 20

Vec = tuple[int, ...]


@dataclass(frozen=True)
class MaxSlopeResult:
    """Maximal slope over all subfamilies and over proper subfamilies.

    ``max_proper_slope`` and ``proper_witness`` are None for two-member
    families, which have no proper subfamilies of size >= 2.
    """

    max_slope: Fraction
    witness: SubsetWitness
    max_proper_slope: Optional[Fraction]
    proper_witness: Optional[SubsetWitness]


def subset_slope(family: MonomialFamily, indices: Iterable[int], twist: int = 0) -> Fraction:
    """Slope of the twisted syzygy subsheaf of the indexed subfamily.

    The sheaf has rank r = |J| - 1 and degree r*m + deg gcd(J) - sum of the
    member degrees, where m is the twist.
    """
    return SubsetWitness.for_subset(family, indices, twist).slope


def family_slope(family: MonomialFamily, twist: int = 0) -> Fraction:
    """Slope of the twisted syzygy sheaf of the whole family."""
    return subset_slope(family, range(len(family)), twist)


def _vmeet(a: Vec, b: Vec) -> Vec:
    return tuple(x if x < y else y for x, y in zip(a, b))


def _meet_closure(vectors: Sequence[Vec]) -> list[Vec]:
    """All gcds of subfamilies: the fixpoint of pairwise componentwise minima."""
    closure = set(vectors)
    frontier = list(closure)
    while frontier:
        fresh = []
        snapshot = list(closure)
        for g in frontier:
            for h in snapshot:
                m = _vmeet(g, h)
                if m not in closure:
                    closure.add(m)
                    fresh.append(m)
        frontier = fresh
    return sorted(closure)


class _PathClosure:
    """Meet closure of a growing family of distinct degree-d members: immutable.

    Word layout: an exponent vector is one int in which each variable's
    exponent fills a slot of w = d.bit_length() + 1 bits, the first variable
    in the top slot, so int order is lexicographic tuple order.  Every
    exponent, and the degree of every gcd, of a degree-d family is at most
    d < 2^(w - 1), so the top (guard) bit of each slot is free and slot-wise
    arithmetic never borrows or carries across slots.  With H the guard bits,
    t = ((g | H) - v) & H keeps the guard bit of each slot where g >= v, so
    g ^ ((g ^ v) & (t - (t >> (w - 1)))) takes v's exponent there: the meet.
    With K the low bit of every slot, each slot of g * K sums the exponents
    from the bottom slot up to it, at most d, so its top slot is deg g.
    ``root`` fixes the layout from (variables, d); ``pack`` and ``unpack``
    convert.

    ``closure`` maps each gcd g of a nonempty chosen subfamily to the bitmask
    of the chosen members g divides (bit k for the k-th pushed), so s(g) is
    its bit count; ``base`` is the gcd of all chosen members; ``num``/``den``
    is the largest (deg g - s*d)/(s - 1) over entries with s >= 2 (``den`` is
    0 while there is none).  A search node shares it with its children, and
    ``same_degree_check`` folds it over a family.

    ``capped`` rules a child out before ``push`` builds it.  A push keeps
    every entry and only adds members to masks, so ``num/den`` never falls,
    while the cap (deg gcd - n*d)/(n - 1) of ``violates`` never rises, as
    the gcd only shrinks.  Once ``num/den`` beats the cap at meet(base, v),
    the child violates, and so does every state below it.

    ``children`` is the search's whole candidate scan at one node: the cap
    test, then ``push`` and the child's ``violates`` for the candidates it
    keeps.  It reads the layout words and the parent's ``num``, ``den`` and
    ``base`` into locals once, so a ruled-out candidate, most of the scan,
    costs a few integer operations with no method call or allocation.
    ``capped``, ``push`` and ``violates`` are its per-candidate form.
    """

    __slots__ = ("layout", "chosen", "closure", "base", "num", "den")

    def __init__(self, layout, chosen, closure, base, num, den):
        self.layout = layout
        self.chosen, self.closure, self.base = chosen, closure, base
        self.num, self.den = num, den

    @classmethod
    def root(cls, variables: int, d: int) -> "_PathClosure":
        """The empty family of degree-``d`` members in ``variables`` variables."""
        w = d.bit_length() + 1
        ones = sum(1 << (w * i) for i in range(variables))
        # variables, d, w, the guard (top) bit and the low bit of every slot,
        # the shift of the top slot and the mask of one slot
        layout = (variables, d, w, ones << (w - 1), ones, w * (variables - 1), (1 << w) - 1)
        return cls(layout, (), {}, None, 0, 0)

    def pack(self, v: Vec) -> int:
        w = self.layout[2]
        return reduce(lambda acc, e: (acc << w) | e, v, 0)

    def unpack(self, g: int) -> Vec:
        _, _, w, _, _, top, slot = self.layout
        return tuple((g >> s) & slot for s in range(top, -1, -w))

    def degree(self, g: int) -> int:
        _, _, _, _, ones, top, slot = self.layout
        return ((g * ones) >> top) & slot

    def meet(self, g: int, v: int) -> int:
        w, guard = self.layout[2], self.layout[3]
        t = ((g | guard) - v) & guard  # guard bits of the slots where g >= v
        return g ^ ((g ^ v) & (t - (t >> (w - 1))))

    def push(self, v: int) -> "_PathClosure":
        """State after choosing the packed degree-d member ``v``.

        An entry g dividing v gains v's bit.  A new meet m of g and v gets
        v's bit and the union of the masks of every old g meeting v in m,
        which is exactly the old members m divides: their gcd G is an old
        entry, m divides G and G divides each such g, so G meets v in m, and
        G's mask is those members.  Only the changed entries are folded into
        the maximum: an unchanged entry keeps its value, and a changed one
        can only rise.  ``v`` is new to the closure, as a gcd of degree d is
        a chosen member.
        """
        _, d, w, guard, ones, top, slot = self.layout
        old = self.closure
        bit = 1 << len(self.chosen)
        closure = dict(old)
        closure[v] = bit
        changed = {}
        shift = w - 1
        for g, mask in old.items():
            t = ((g | guard) - v) & guard  # ``meet`` inlined
            m = g ^ ((g ^ v) & (t - (t >> shift)))
            if m == g:
                changed[g] = mask | bit
            elif m not in old:
                changed[m] = changed.get(m, bit) | mask
        closure.update(changed)
        num, den = self.num, self.den
        for g, mask in changed.items():
            s = mask.bit_count()  # >= 2: v's bit and an old member's
            a, b = (((g * ones) >> top) & slot) - s * d, s - 1
            if den == 0 or a * den > num * b:
                num, den = a, b
        base = v if self.base is None else self.meet(self.base, v)
        return _PathClosure(self.layout, self.chosen + (v,), closure, base, num, den)

    def counts(self) -> Iterator[tuple[int, int]]:
        """(g, s(g)) for every closure entry."""
        return ((g, mask.bit_count()) for g, mask in self.closure.items())

    def violates(self, n: int) -> bool:
        """Some chosen subfamily beats the family slope cap of every completion."""
        d = self.layout[1]
        return self.den > 0 and self.num * (n - 1) > (self.degree(self.base) - n * d) * self.den

    def capped(self, v: int, n: int) -> bool:
        """Whether ``push(v).violates(n)`` is certain without building the
        child: the largest value so far beats the cap at the child's gcd
        meet(base, v) (see the class docstring).  A few word operations."""
        if not self.den:
            return False
        cap = self.degree(self.meet(self.base, v)) - n * self.layout[1]
        return self.num * (n - 1) > cap * self.den

    def children(
        self, monos: list[int], more: Iterator[int], start: int, stop: int, n: int
    ) -> Iterator[tuple[int, "_PathClosure"]]:
        """(i, push(monos[i])) for each i in range(start, stop), in order,
        whose child does not violate ``n``: the search's scan at this node.

        ``monos`` holds the packed candidates so far and ``more`` packs the
        rest; ``monos[i]`` is taken from ``more`` when the scan first reaches
        i, so ``start`` is at most ``len(monos)``.  The child's gcd is
        m = meet(base, v), so its cap deg m - n*d serves both the ``capped``
        test and, after the push, the child's ``violates``.  At the root,
        ``base`` is the word with every slot at 2^(w - 1) - 1, which meets v
        in v, and num = den = 0, so no candidate is capped.
        """
        _, d, w, guard, ones, top, slot = self.layout
        num, den, base = self.num, self.den, self.base
        if base is None:
            base = guard - ones
        n1, nd, shift = n - 1, n * d, w - 1
        bound = num * n1
        push = self.push
        for i in range(start, stop):
            try:
                v = monos[i]
            except IndexError:
                v = next(more)
                monos.append(v)
            t = ((base | guard) - v) & guard  # ``meet`` inlined
            m = base ^ ((base ^ v) & (t - (t >> shift)))
            cap = (((m * ones) >> top) & slot) - nd
            if bound > cap * den:  # ``capped``
                continue
            child = push(v)
            if child.num * n1 <= cap * child.den:  # not ``violates``
                yield i, child

    def primary(self) -> bool:
        """Whether the reduction of the chosen members by ``base`` is primary
        (the word-level test of ``accepts``)."""
        guard, ones = self.layout[3], self.layout[4]
        covered = 0
        for v in self.chosen:
            nz = (((v - self.base) | guard) - ones) & guard  # nonzero slots
            if not nz & (nz - 1):  # a pure power
                covered |= nz
        return covered == guard

    def accepts(self, stable: bool) -> bool:
        """Whether ``verdict`` would call the chosen family Stable or (unless
        ``stable``) SemistableNotStable.

        Two members are Stable.  Otherwise the reduction by ``base`` must be
        primary, and the best proper subfamily meets the family slope, the
        value of ``base``, the only entry with s = n.  While deg g <= d,
        (deg g - k*d)/(k - 1) is nondecreasing in k, so every other entry is
        best at k = s; k = n - 1 under ``base`` stays below the family slope,
        as deg base < d.  So ``violates`` means Unstable, and an entry with
        2 <= s < n at the family slope means SemistableNotStable.

        Primality is read off the words by ``primary``.  base divides each
        member v, so v - base is the packed reduction with no borrow, and
        with K the low bit of every slot, ((v - base) | H) - K keeps the
        guard bit of exactly the nonzero slots: nz.  The reduction is a pure
        power when nz has one bit, and the family is primary when the pure
        powers' nz cover H, one per variable.
        """
        d, n = self.layout[1], len(self.chosen)
        if n == 2:
            return True
        if self.violates(n) or not self.primary():
            return False
        cap = self.degree(self.base) - n * d
        return not stable or all(
            (self.degree(g) - s * d) * (n - 1) != cap * (s - 1)
            for g, s in self.counts()
            if 2 <= s < n
        )


def _brute_extrema(
    vectors: Sequence[Vec], degrees: Sequence[int]
) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
    """Witness indices of both extrema from every admissible subset."""
    n = len(vectors)
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    proper: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for k in range(2, n + 1):
        for combo in itertools.combinations(range(n), k):
            g = vectors[combo[0]]
            total = 0
            for i in combo:
                g = _vmeet(g, vectors[i])
                total += degrees[i]
            val = Fraction(sum(g) - total, k - 1)
            if best is None or val > best[0]:
                best = (val, combo)
            if k < n and (proper is None or val > proper[0]):
                proper = (val, combo)
    assert best is not None
    return best[1], None if proper is None else proper[1]


def _pruned_extrema(
    vectors: Sequence[Vec], degrees: Sequence[int]
) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
    """Witness indices of both extrema from one scan of the meet closure.

    Bit r of a mask stands for the member of rank r in (degree, index)
    order, and ``masks[j][e]`` is the mask of the members whose j-th exponent
    is at least e, so the multiples of g are one AND (module docstring).  The
    best proper candidate so far is S(g, den + 1) of value num/den, with
    index tuple ``indices``; ``den`` is 0 until there is one.
    """
    n = len(vectors)
    order = sorted(range(n), key=lambda i: (degrees[i], i))
    ranked = [degrees[i] for i in order]
    masks = []
    for column in zip(*(vectors[i] for i in order)):
        at_least: dict[int, int] = {}
        for r, e in enumerate(column):
            at_least[e] = at_least.get(e, 0) | 1 << r
        acc = 0
        for e in sorted(at_least, reverse=True):  # suffix OR
            acc = at_least[e] = acc | at_least[e]
        masks.append(at_least)
    num = den = 0
    indices: tuple[int, ...] = ()
    for g in _meet_closure(vectors):
        multiples = reduce(int.__and__, map(dict.__getitem__, masks, g))
        rest = multiples & (multiples - 1)  # all but the lowest rank
        excess = sum(g) - ranked[(multiples ^ rest).bit_length() - 1]
        for k in range(2, n):
            if not rest:
                break
            low = rest & -rest
            rest ^= low
            excess -= ranked[low.bit_length() - 1]
            lhs, rhs = excess * den, num * (k - 1)
            if den and (lhs < rhs or lhs == rhs and k - 1 > den):
                continue
            chosen = multiples & ((low << 1) - 1)  # the ranks of S(g, k)
            ranks = (r for r in range(chosen.bit_length()) if chosen >> r & 1)
            candidate = tuple(sorted(order[r] for r in ranks))
            if not den or lhs > rhs or k - 1 < den or candidate < indices:
                num, den, indices = excess, k - 1, candidate
    everything = tuple(range(n))
    if not den:
        return everything, None
    whole = sum(_vector_gcd(vectors)) - sum(degrees)
    return (indices if num * (n - 1) >= whole * den else everything), indices


def _summary(family: MonomialFamily, brute: bool) -> MaxSlopeResult:
    """Extrema and witnesses from one run of the selected engine.

    The exhaustive engine refuses families above ``ORACLE_CEILING`` before
    enumerating any subset.  Each slope is read off its witness: the best
    candidate's gcd is exactly g (see the module docstring), so the witness
    slope is the engine's extremum.
    """
    if brute and len(family) > ORACLE_CEILING:
        raise PreconditionError(
            "oracle-ceiling",
            f"family of size {len(family)} exceeds the brute-force ceiling {ORACLE_CEILING}",
        )
    engine = _brute_extrema if brute else _pruned_extrema
    max_indices, proper_indices = engine(family.exponent_vectors(), family.degrees())
    witness = SubsetWitness.for_subset(family, max_indices)
    if proper_indices is None:
        return MaxSlopeResult(witness.slope, witness, None, None)
    proper = SubsetWitness.for_subset(family, proper_indices)
    return MaxSlopeResult(witness.slope, witness, proper.slope, proper)


def max_slope_brute_force(family: MonomialFamily) -> MaxSlopeResult:
    """Exhaustive maximal slope over all subfamilies of a primary family."""
    if not is_primary(family):
        raise PreconditionError(
            "primary-family", "the exhaustive slope formula needs a primary family"
        )
    return _summary(family, brute=True)


def max_slope(family: MonomialFamily) -> MaxSlopeResult:
    """Maximal slope via the meet-closure scan; agrees with the oracle."""
    if not is_primary(family):
        raise PreconditionError(
            "primary-family", "the maximal slope formula needs a primary family"
        )
    return _summary(family, brute=False)


def _classify(family: MonomialFamily, summary: MaxSlopeResult) -> StabilityVerdict:
    """Verdict from the family's subset-slope extrema, computed once by the caller."""
    if len(family) == 2:
        return StabilityVerdict(VerdictKind.STABLE, None, ("rank-one",))
    fam = family_slope(family)
    proper, witness = summary.max_proper_slope, summary.proper_witness
    assert proper is not None and witness is not None
    # Dividing out the family gcd twists the syzygy sheaf and shifts every
    # subset slope by the same constant, so a primary reduction is decided by
    # the same subset criterion.
    vectors = family.exponent_vectors()
    base = _vector_gcd(vectors)
    primary = is_primary(family)
    reduced = (tuple(x - b for x, b in zip(v, base)) for v in vectors)
    if primary or len(_pure_powers(reduced)) == family.variables:
        notes = ("subset-slope-criterion",)
        if not primary:
            notes = ("common-factor-reduction",) + notes
        if proper > fam:
            return StabilityVerdict(VerdictKind.UNSTABLE, witness, notes)
        if proper == fam:
            return StabilityVerdict(VerdictKind.SEMISTABLE_NOT_STABLE, witness, notes)
        return StabilityVerdict(VerdictKind.STABLE, None, notes)
    if proper > fam:
        return StabilityVerdict(
            VerdictKind.UNSTABLE, witness, ("subset-slope-necessity",)
        )
    return StabilityVerdict(VerdictKind.INCONCLUSIVE, None, ("not-primary",))


def verdict(family: MonomialFamily) -> StabilityVerdict:
    """Semistability verdict for a monomial family.

    Families that are primary (or become primary after dividing out a common
    factor) are fully classified: unstable when some proper subfamily has
    larger slope than the family, stable when all are strictly smaller, and
    semistable-but-not-stable on equality, with the extremal subfamily as
    witness.  Other families are declared Unstable when a subfamily violates
    the necessary slope condition, otherwise Inconclusive.
    """
    return _classify(family, _summary(family, brute=False))


def oracle_verdict(family: MonomialFamily) -> StabilityVerdict:
    """Same verdict computed with the exhaustive subset engine."""
    return _classify(family, _summary(family, brute=True))


def slope_summary(family: MonomialFamily, brute: bool = False) -> MaxSlopeResult:
    """Subset-slope extrema without the primality requirement.

    The subset slope formula describes actual subsheaves for any monomial
    family, so the maximum reported here is always a lower bound for the
    maximal slope, and it is exact whenever the family or its reduction is
    primary.  With ``brute`` the exhaustive engine is used, subject to the
    same oracle ceiling as ``oracle_verdict``.
    """
    return _summary(family, brute)


def same_degree_check(family: MonomialFamily) -> tuple[bool, Optional[Monomial]]:
    """Equal-degree semistability test: (s_nu - 1)/(d - e) <= (n - 1)/d.

    Checks every subfamily gcd nu of degree e = |nu| < d, with s_nu its number
    of multiples in the family, and returns a violating nu of maximal degree
    on failure.  For any other divisor the gcd of its multiples gives an equal
    count at larger or equal degree, so checking gcds suffices.  The gcds and
    their member masks come from a ``_PathClosure`` folded over the packed
    members, and the violating nu is unpacked from its word.  For primary
    families of constant degree this is equivalent to the verdict not being
    Unstable.
    """
    n, d = len(family), family.degrees()[0]
    if set(family.degrees()) != {d}:
        raise PreconditionError("constant-degree", "the equal-degree check needs equal degrees")
    root = _PathClosure.root(family.variables, d)
    state = reduce(_PathClosure.push, map(root.pack, family.exponent_vectors()), root)
    # a gcd of degree d is a member, counted once, so s >= 2 implies |nu| < d
    violations = [
        g for g, s in state.counts() if s >= 2 and (s - 1) * d > (n - 1) * (d - state.degree(g))
    ]
    if not violations:
        return True, None
    # int order of packed vectors is lexicographic tuple order
    return False, Monomial(state.unpack(min(violations, key=lambda g: (-state.degree(g), g))))


def powers_check(degrees: Sequence[int]) -> bool:
    """Semistability of pure-power families X_i^{d_i}: (N-1)*d_N <= d_0+...+d_{N-1}."""
    ds = list(degrees)
    if len(ds) < 2:
        raise PreconditionError("powers-length", "need at least two degrees")
    if any(type(x) is not int or x < 1 for x in ds):
        raise PreconditionError("powers-positive", "degrees must be integers >= 1")
    if ds != sorted(ds):
        raise PreconditionError("powers-sorted", "degrees must be sorted ascending")
    N = len(ds) - 1
    return (N - 1) * ds[-1] <= sum(ds[:-1])


def four_monomial_check(d1: int, d2: int, d3: int, a: Sequence[int] | Monomial) -> bool:
    """Semistability of {X^d1, Y^d2, Z^d3, X^a1*Y^a2*Z^a3} with a_j < d_j.

    Two numerical conditions: (i) 3*max of the four degrees is at most their
    sum; (ii) every two-member subfamily has degree sum minus gcd degree at
    least one third of the total.
    """
    exps = tuple(a.exponents) if isinstance(a, Monomial) else tuple(a)
    if len(exps) != 3:
        raise PreconditionError("four-monomial-shape", "the mixed monomial needs 3 exponents")
    ds = (d1, d2, d3)
    if any(type(x) is not int or x < 1 for x in ds):
        raise PreconditionError(
            "four-monomial-degrees", "pure-power degrees must be integers >= 1"
        )
    if any(type(e) is not int or e < 0 for e in exps):
        raise PreconditionError("four-monomial-exponents", "exponents must be integers >= 0")
    if not all(e < dd for e, dd in zip(exps, ds)):
        raise PreconditionError(
            "four-monomial-exponents", "need a_j < d_j for all three variables"
        )
    d4 = sum(exps)
    if d4 < 1:
        raise PreconditionError("four-monomial-exponents", "the mixed monomial must be nonconstant")
    total = d1 + d2 + d3 + d4
    if 3 * max(d1, d2, d3, d4) > total:
        return False
    a1, a2, a3 = exps
    pair_min = min(a1 + a2 + d3, a1 + d2 + a3, d1 + a2 + a3, d1 + d2, d1 + d3, d2 + d3)
    return 3 * pair_min >= total


def degree_vectors(nvars: int, d: int):
    """All exponent vectors of total degree d, in descending lexicographic order.

    The successor of v lowers the last nonzero slot j before the final one by
    1 and moves the final slot's value plus 1 into slot j + 1; with no such
    j, v = (0, ..., 0, d) is the last vector.
    """
    if d < 0 or nvars < 1:
        return
    v = [d] + [0] * (nvars - 1)
    last = nvars - 1
    while True:
        yield tuple(v)
        j = last - 1
        while j >= 0 and not v[j]:
            j -= 1
        if j < 0:
            return
        tail, v[last] = v[last], 0
        v[j] -= 1
        v[j + 1] = tail + 1


def all_monomials_family(N: int, d: int) -> MonomialFamily:
    """The family of all monomials of degree d in N+1 variables."""
    if N < 1 or d < 1:
        raise PreconditionError("all-monomials-range", "need N >= 1 and d >= 1")
    return MonomialFamily.from_exponents(degree_vectors(N + 1, d), N + 1)
