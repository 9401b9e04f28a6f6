"""Exact rank computation for integer matrices: ``integer_rank`` is the
package's one rank entry point, and rational input reaches it already scaled
to integers by ``core._integer_terms``.

A matrix is given as sparse rows, each a ``{column: nonzero entry}`` dict;
the evaluation maps of ``sections`` are a few percent nonzero or less.  A
column that is zero in every row takes no part: it adds nothing to the rank
and gets no slot below.

The rank is certified by reduction modulo a prime.  Reducing an integer matrix
modulo a prime p cannot raise its rank, and no rank exceeds the number of
rows or of nonzero columns, so

    rank mod p  <=  rank over Q  <=  min(rows, nonzero columns).

A modular rank equal to that minimum is therefore the exact rank.
``integer_rank`` eliminates once, modulo the prime ``PRIME`` = 2^30 - 35, on
the matrix oriented to have no more rows than nonzero columns (a tall one is
turned into its column dicts).

Modulo ``PRIME`` each row is one integer with a 64-bit slot per nonzero
column: the row's residues are written into a zeroed array at the slots of
its own nonzeros, and the array's bytes are read as one integer.  Slots
follow the order in which the rows, taken as given, first reach the columns
(within a row, in the row's own order, which is column order for every
matrix built in this package), the first column reached in the top slot.  The
rank does not depend on that order, but the work does: the evaluation maps
of ``sections`` number their columns member by member, so in column order
every row spans every member's block and each row operation carries fill
across the whole width, while in first-appearance order the columns b*f_i
are interleaved by the row of their leading product, which brings the map
much nearer echelon form.  A row operation is one multiply-add on whole
integers: v = (v - s * 2^(64 k)) + (PRIME - g) * tail clears leading slot k
(value s) against the residues of the pivot row leading in slot k, where
g = s / (that row's leading entry) mod PRIME.  Each operation adds less than
(PRIME - 1)^2 < 2^60 to a slot, so slots never carry into each other if they
are folded every 15 operations; since 2^30 = 35 (mod PRIME),
v -> (v mod 2^30) + 35 * (v >> 30) slot by slot, twice, leaves every slot
below 2^30 + 2^16 < 2 * PRIME, and one conditional subtraction of PRIME per
slot makes the residues canonical.

A rank rho mod ``PRIME`` below that minimum is certified from the same
elimination.  Each of the rows - rho rows that reduced to zero yields a
left-kernel vector mod p, y = e_i - sum c_r e_r over the pivot rows r, by
back-substitution through the recorded row operations.  Its entries are
lifted to rationals by rational reconstruction (Wang-Guy-Davenport) and
y^T A = 0 is checked exactly over the integers, each column over its own
nonzeros.  Each y is 1 at its own dependent row and 0 at the others, so
verified vectors are independent over Q and rank <= rho, while the modular
rank gives rank >= rho.  Only when a lift or a check fails (kernel entries
beyond the one-prime bound, or an unlucky prime whose modular rank is below
the rank over Q) does fraction-free Gaussian elimination over the integers
(single-step Bareiss) decide, on the rows written out as dense lists over
their nonzero columns: every division is exact by the Sylvester determinant
identity, so entries stay integers and never lose precision.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import isqrt, lcm
from operator import mul
from typing import Mapping, Optional, Sequence

# The largest prime below 2^30; the certificate above holds for a prime only.
PRIME = 1_073_741_789

# Numerators and denominators of a lifted entry are at most this, which makes
# the rational reconstruction of a residue unique when it exists.
_LIFT_BOUND = isqrt(PRIME // 2)

# Rows mod PRIME are packed one entry per 64-bit slot.  A slot starts below
# 2^31 and a row operation adds less than (PRIME - 1)^2 to it, so it cannot
# carry into the next slot within _FOLD_EVERY operations; then every slot is
# folded back to a residue by 2^30 = 35 (mod PRIME).
_FOLD_EVERY = 15
assert PRIME < 1 << 30 and (1 << 31) + _FOLD_EVERY * (PRIME - 1) ** 2 < 1 << 64

# One reduced row: the (pivot number, f) multipliers subtracted from it, and
# the inverse of the leading entry it was scaled by (0 if it reduced to zero).
_Step = tuple[list[tuple[int, int]], int]


def integer_rank(rows: Sequence[Mapping[int, int]]) -> int:
    """Exact rank of an integer matrix given as sparse rows, each a
    ``{column: nonzero entry}`` dict.

    A full rank modulo ``PRIME`` is returned at once.  A deficient one is
    returned once a left-kernel certificate lifted from the same elimination
    checks exactly; otherwise fraction-free elimination decides.
    """
    slots = _slots(rows)
    full = min(len(rows), len(slots))
    if not full:
        return 0
    if len(rows) > len(slots):
        columns = _columns(rows)
        rows = [columns[j] for j in sorted(columns)]
        slots = _slots(rows)
    rank, steps = _rank_mod_p(rows, full, slots)
    if rank == full or _kernel_certified(rows, steps):
        return rank
    return _bareiss_rank(_dense(rows, slots))


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


def _rank_mod_p(
    rows: Sequence[Mapping[int, int]], full: int, slots: Optional[Mapping[int, int]] = None
) -> tuple[int, list[_Step]]:
    """Rank modulo ``PRIME`` of sparse rows, stopping once it reaches
    ``full``, and the row operations that found it, one ``_Step`` per row
    reduced.

    Each row is packed into one integer, its residues written into a zeroed
    64-bit array at the ``slots`` of its nonzero columns (by default
    ``_slots(rows)``, in the order the rows first reach them), so its
    leading column is read off its bit length.  A row is reduced at its
    leading slot against the pivot row that leads there, if any, by one
    multiply-add on the whole integer.  A pivot row is kept as residues
    below ``PRIME`` without its leading entry, next to that entry's inverse,
    and the multiplier recorded is the one of the pivot row scaled to a
    leading 1.
    """
    p = PRIME
    if slots is None:
        slots = _slots(rows)
    width = len(slots)
    # One 1 per slot: (2^(64 w) - 1) / (2^64 - 1) = sum of 2^(64 k), k < w.
    ones = ((1 << 64 * width) - 1) // ((1 << 64) - 1)
    low30 = ones * ((1 << 30) - 1)
    low34 = ones * ((1 << 34) - 1)
    under = ones * 35
    zeros = array("Q", bytes(8 * width))
    swap = sys.byteorder == "little"

    def residues(v: int) -> int:
        # Two folds take each slot below 2^30 + 2^16 < 2 * PRIME, and PRIME
        # is subtracted where slot + 35 reaches 2^30.
        v = (v & low30) + 35 * ((v >> 30) & low34)
        v = (v & low30) + 35 * ((v >> 30) & low34)
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


def _kernel_certified(rows: Sequence[Mapping[int, int]], steps: list[_Step]) -> bool:
    """Whether every row that reduced to zero mod ``PRIME`` lifts to a
    rational left-kernel vector y with y^T A = 0 exactly.

    All vectors are lifted before any is checked: a lift costs O(rows), a
    check O(nonzeros), summing y over the nonzeros of each column.
    """
    pivot_rows = [i for i, (_, inv) in enumerate(steps) if inv]
    lifted = [
        _lift(_kernel_vector_mod_p(steps, pivot_rows, i))
        for i, (_, inv) in enumerate(steps)
        if not inv
    ]
    if None in lifted:
        return False
    columns = _columns(rows).values()
    return not any(
        sum(map(mul, map(y.__getitem__, col), col.values())) for y in lifted for col in columns
    )


def _kernel_vector_mod_p(steps: list[_Step], pivot_rows: list[int], i: int) -> list[int]:
    """The left-kernel vector mod ``PRIME`` of dependent row i.

    Row i reduced to zero as A_i - sum c_k P_k, where pivot row k is
    P_k = inv_k (A_{r_k} - sum f_j P_j) over earlier pivots j; substituting
    from the last pivot down leaves y = e_i - sum c_r e_r over pivot rows r.
    """
    p = PRIME
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


def _lift(residues: list[int]) -> Optional[list[int]]:
    """Integer multiple of the rational vector whose entries reduce to
    ``residues`` mod ``PRIME``, with numerators and denominators at most
    ``_LIFT_BOUND``; None when an entry has no such lift."""
    fractions = []
    for a in residues:
        # Extended Euclid on (PRIME, a), stopped at the first remainder
        # within the bound: then r = t * a mod PRIME.
        r0, r1, t0, t1 = PRIME, a, 0, 1
        while r1 > _LIFT_BOUND:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > _LIFT_BOUND:
            return None
        fractions.append((r1, t1))
    denom = lcm(*(abs(t) for _, t in fractions))
    return [r * (denom // t) for r, t in fractions]


def _dense(rows: Sequence[Mapping[int, int]], slots: Mapping[int, int]) -> list[list[int]]:
    """Sparse rows as dense lists over their nonzero columns, in slot order."""
    dense = [[0] * len(slots) for _ in rows]
    for out, row in zip(dense, rows):
        for j, x in row.items():
            out[slots[j]] = x
    return dense


def _bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    pr = 0
    for c in range(nc):
        piv_row = None
        for i in range(pr, nr):
            if m[i][c]:
                piv_row = i
                break
        if piv_row is None:
            continue
        m[pr], m[piv_row] = m[piv_row], m[pr]
        piv = m[pr][c]
        pivot_row = m[pr]
        for i in range(pr + 1, nr):
            row = m[i]
            f = row[c]
            if f:
                for j in range(c + 1, nc):
                    row[j] = (piv * row[j] - f * pivot_row[j]) // prev
                row[c] = 0
            elif prev != piv:
                for j in range(c + 1, nc):
                    row[j] = (piv * row[j]) // prev
        prev = piv
        rank += 1
        pr += 1
        if pr == nr:
            break
    return rank
