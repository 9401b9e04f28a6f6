"""Exact rank computation for integer matrices: ``integer_rank`` is the
package's one rank entry point, and rational input reaches it already scaled
to integers by ``core._integer_terms``.

A matrix is given as sparse rows, each a ``{column: nonzero entry}`` dict;
the evaluation maps of ``sections`` are a few percent nonzero or less.  A
column that is zero in every row takes no part: it adds nothing to the rank
and gets no slot below.

The rank is certified by reduction modulo primes.  Reducing an integer matrix
modulo a prime p cannot raise its rank, and no rank exceeds the number of
rows or of nonzero columns, so

    rank mod p  <=  rank over Q  <=  min(rows, nonzero columns).

A modular rank equal to that minimum is therefore the exact rank.
``integer_rank`` eliminates modulo the primes p = 2^30 - c, c = 35, 41, 83,
101, ... below 2^28 (``PRIME`` = 2^30 - 35 first), on the matrix oriented to
have no more rows than nonzero columns (a tall one is turned into its column
dicts), and a full rank returns at once.

Modulo p each row is one integer with a 64-bit slot per nonzero column: the
row's residues are written into a zeroed array at the slots of its own
nonzeros, and the array's bytes are read as one integer.  Slots follow the
order in which the rows, taken as given, first reach the columns (within a
row, in the row's own order, which is column order for every matrix built in
this package), the first column reached in the top slot.  The rank does not
depend on that order, but the work does: the evaluation maps of ``sections``
number their columns member by member, so in column order every row spans
every member's block and each row operation carries fill across the whole
width, while in first-appearance order the columns b*f_i are interleaved by
the row of their leading product, which brings the map much nearer echelon
form.  A row operation is one multiply-add on whole integers:
v = (v - s * 2^(64 k)) + (p - g) * tail clears leading slot k (value s)
against the residues of the pivot row leading in slot k, where
g = s / (that row's leading entry) mod p.  Each operation adds less than
(p - 1)^2 < 2^60 to a slot, so slots never carry into each other if they are
folded every 15 operations.  Since 2^30 = c (mod p), a fold
v -> (v mod 2^30) + c * (v >> 30), slot by slot, takes slots below B to below
2^30 + c * ((B - 1) >> 30).  From B = 2^64, 2 folds end below 2p for
c < 2^13, 3 up to c = 416017 and 18 at the end of the supply (p > 3 * 2^28
keeps their fixed point 2^60 / p below 2p); one conditional subtraction of p
per slot then makes the residues canonical.

A rank rho below that minimum is certified from the eliminations.  Each row
that reduced to zero mod p yields a left-kernel vector mod p,
y = e_i - sum c_r e_r over the pivot rows r, by back-substitution through the
recorded row operations.  The vectors of the primes that agree on (rho,
dependent rows) are combined by Chinese remaindering modulo the product M of
those primes, lifted by rational reconstruction (Wang-Guy-Davenport) with
numerators and denominators at most isqrt(M // 2), and y^T A = 0 is checked
exactly, each column over its own nonzeros.  Each y is 1 at its own
dependent row and 0 at the others, so verified vectors show rank <= rho.
Until they check, primes are added: one with a smaller (rank, dependent
rows) is dropped, and one with a larger pair starts a new combination.

The loop ends.  Let r be the rank over Q, R the rows the elimination over Q
takes as pivots, and D a nonzero r x r minor on them.  Modulo a prime that
keeps the rows R independent, as every prime not dividing D does, each other
row stays a combination of the rows of R before it (a denominator divisible
by p would make those dependent mod p): the elimination takes the pivots R,
and its kernel vectors are the rational ones reduced.  No prefix of the rows
has a larger rank mod p than over Q, so any other prime has a lower rank or,
at rank r, its k-th dependent row no later: the pair of such a lucky prime
is the largest.  At most log2|D| / 29 primes of the supply divide D.  By
Cramer's rule each entry of a rational kernel vector is a ratio of two
minors, both at most H, the product of the r largest row norms (Hadamard),
and |D| <= H; once M > 2 H^2 every entry lifts to its value.  So at most
(3 log2 H + 1) / 29 + 1 primes are eliminated.  log2 H is at most the total
bit length of the entries, and the supply of 12994889 primes covers every
matrix whose entries total under 10^8 bits.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import isqrt, lcm
from operator import mul
from typing import Iterator, Mapping, Optional, Sequence

# The largest prime below 2^30, the first of the supply; the certificate
# above holds for a prime only.
PRIME = 1_073_741_789

# Rows mod p are packed one entry per 64-bit slot.  A slot starts below 2^31
# and a row operation adds less than (p - 1)^2 to it, so for every p < 2^30
# it cannot carry into the next slot within _FOLD_EVERY operations; then
# every slot is folded back to a residue by 2^30 = c (mod p).
_FOLD_EVERY = 15
assert (1 << 31) + _FOLD_EVERY * ((1 << 30) - 1) ** 2 < 1 << 64

# One reduced row: the (pivot number, f) multipliers subtracted from it, and
# the inverse of the leading entry it was scaled by (0 if it reduced to zero).
_Step = tuple[list[tuple[int, int]], int]


def integer_rank(rows: Sequence[Mapping[int, int]]) -> int:
    """Exact rank of an integer matrix given as sparse rows, each a
    ``{column: nonzero entry}`` dict: a full rank modulo a prime at once, a
    deficient one once the combined, lifted left-kernel vectors of the
    primes that agree on it check exactly (module docstring)."""
    slots = _slots(rows)
    full = min(len(rows), len(slots))
    if not full:
        return 0
    if len(rows) > len(slots):
        columns = _columns(rows)
        rows = [columns[j] for j in sorted(columns)]
        slots = _slots(rows)
    best = checked = None
    for p in _primes():
        rank, steps = _rank_mod_p(rows, full, slots, p)
        if rank == full:
            return rank
        dependent = [i for i, (_, inv) in enumerate(steps) if not inv]
        if best and (rank, dependent) < best:
            continue  # p divides every minor on the pivot rows over Q
        pivot_rows = [i for i, (_, inv) in enumerate(steps) if inv]
        residues = [_kernel_vector_mod_p(steps, pivot_rows, i, p) for i in dependent]
        if (rank, dependent) == best:
            # y_M + M ((y_p - y_M) / M mod p) is y_M mod M and y_p mod p
            scale = pow(modulus, -1, p)
            kernel = [
                [a + modulus * ((b - a) * scale % p) for a, b in zip(old, new)]
                for old, new in zip(kernel, residues)
            ]
            modulus *= p
        else:
            best, modulus, kernel = (rank, dependent), p, residues
        lifted = [_lift(y, modulus) for y in kernel]
        if None in lifted:
            continue
        checked = checked or _columns(rows).values()
        if not any(
            sum(map(mul, map(y.__getitem__, col), col.values())) for y in lifted for col in checked
        ):
            return rank
    raise OverflowError("matrix entries beyond the prime supply (about 10^8 bits)")


def _columns(rows: Sequence[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The nonzero columns of sparse rows, each a ``{row: entry}`` dict."""
    columns: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    return columns


def _slots(rows: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """Slot of each nonzero column, in the order the rows first reach it
    (within a row, in the row's order), which keeps the packed rows near
    echelon form (module docstring); all-zero columns take none."""
    columns = dict.fromkeys(chain.from_iterable(rows))
    return dict(zip(columns, range(len(columns))))


def _is_prime(n: int) -> bool:
    """Strong probable prime to bases 2, 7, 61: exact for odd 61 < n < 4759123141."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    return all(
        pow(a, d, n) in (1, n - 1) or any(pow(a, d << k, n) == n - 1 for k in range(1, s))
        for a in (2, 7, 61)
    )


def _primes() -> Iterator[int]:
    """The supply: the primes 2^30 - c, c < 2^28, by increasing c."""
    return chain([PRIME], filter(_is_prime, range(PRIME - 2, 3 << 28, -2)))


def _folds(p: int) -> int:
    """How many folds v -> (v mod 2^30) + c * (v >> 30), c = 2^30 - p, take
    every slot below 2^64 to below 2p (module docstring)."""
    bound, folds = 1 << 64, 0
    while bound > 2 * p:
        bound, folds = (1 << 30) + ((1 << 30) - p) * ((bound - 1) >> 30), folds + 1
    return folds


def _rank_mod_p(
    rows: Sequence[Mapping[int, int]], full: int, slots: Optional[Mapping[int, int]] = None, p: int = PRIME
) -> tuple[int, list[_Step]]:
    """Rank modulo the prime p = 2^30 - c of sparse rows, stopping once it
    reaches ``full``, and the row operations that found it, one ``_Step``
    per row reduced.

    Each row is packed into one integer, its residues written into a zeroed
    64-bit array at the ``slots`` of its nonzero columns (by default
    ``_slots(rows)``, in the order the rows first reach them), so its
    leading column is read off its bit length.  A row is reduced at its
    leading slot against the pivot row that leads there, if any, by one
    multiply-add on the whole integer.  A pivot row is kept as residues
    below p without its leading entry, next to that entry's inverse, and
    the multiplier recorded is the one of the pivot row scaled to a
    leading 1.
    """
    if slots is None:
        slots = _slots(rows)
    width = len(slots)
    c = (1 << 30) - p
    folds = range(_folds(p))
    # One 1 per slot: (2^(64 w) - 1) / (2^64 - 1) = sum of 2^(64 k), k < w.
    ones = ((1 << 64 * width) - 1) // ((1 << 64) - 1)
    low30 = ones * ((1 << 30) - 1)
    low34 = ones * ((1 << 34) - 1)
    under = ones * c
    zeros = array("Q", bytes(8 * width))
    swap = sys.byteorder == "little"

    def residues(v: int) -> int:
        # The folds take each slot below 2p, and p is subtracted where
        # slot + c reaches 2^30.
        for _ in folds:
            v = (v & low30) + c * ((v >> 30) & low34)
        return v - p * (((v + under) >> 30) & ones)

    pivots: dict[int, tuple[int, int, int]] = {}
    steps: list[_Step] = []
    for row in rows:
        # The first column reached goes to the top slot, the first word of
        # the big-endian bytes.
        words = array("Q", zeros)
        for j, x in row.items():
            words[slots[j]] = x % p
        if swap:
            words.byteswap()
        v = int.from_bytes(words, "big")
        mults = []
        ops = 0
        while v:
            shift = (v.bit_length() - 1) >> 6 << 6
            s = v >> shift
            f = s % p
            if not f:
                v ^= s << shift
                continue
            pivot = pivots.get(shift)
            if pivot is None:
                break
            k, inv, tail = pivot
            v = (v ^ (s << shift)) + (p - f * inv % p) * tail
            mults.append((k, f))
            ops += 1
            if ops == _FOLD_EVERY:
                v, ops = residues(v), 0
        if not v:
            steps.append((mults, 0))
            continue
        inv = pow(f, -1, p)
        steps.append((mults, inv))
        pivots[shift] = (len(pivots), inv, residues(v) ^ (f << shift))
        if len(pivots) == full:
            break
    return len(pivots), steps


def _kernel_vector_mod_p(steps: list[_Step], pivot_rows: list[int], i: int, p: int) -> list[int]:
    """The left-kernel vector mod the prime p of dependent row i.

    Row i reduced to zero as A_i - sum c_k P_k, where pivot row k is
    P_k = inv_k (A_{r_k} - sum f_j P_j) over earlier pivots j; substituting
    from the last pivot down leaves y = e_i - sum c_r e_r over pivot rows r.
    """
    c = [0] * len(pivot_rows)
    for k, f in steps[i][0]:
        c[k] = f
    y = [0] * len(steps)
    y[i] = 1
    for k in range(len(pivot_rows) - 1, -1, -1):
        if c[k]:
            r = pivot_rows[k]
            mults, inv = steps[r]
            g = c[k] * inv % p
            y[r] = p - g
            for j, f in mults:
                c[j] = (c[j] - g * f) % p
    return y


def _lift(residues: list[int], modulus: int) -> Optional[list[int]]:
    """Integer multiple of the rational vector whose entries reduce to
    ``residues`` mod the odd ``modulus``, with numerators and denominators at
    most isqrt(modulus // 2), which makes the lift unique when it exists;
    None when an entry has no such lift."""
    bound = isqrt(modulus // 2)
    fractions = []
    for a in residues:
        # Extended Euclid on (modulus, a), stopped at the first remainder
        # within the bound: then r = t * a mod modulus.
        r0, r1, t0, t1 = modulus, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound:
            return None
        fractions.append((r1, t1))
    denom = lcm(*(abs(t) for _, t in fractions))
    return [r * (denom // t) for r, t in fractions]
