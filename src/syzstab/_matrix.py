"""Exact rank computation for integer and rational matrices.

The rank is certified by reduction modulo primes.  Reducing an integer matrix
modulo a prime p cannot raise its rank, and no rank exceeds the matrix's
smaller dimension, so

    rank mod p  <=  rank over Q  <=  min(rows, cols).

A modular rank equal to min(rows, cols) is therefore the exact rank.
``integer_rank`` eliminates modulo 2 first, on bit-packed rows where a row
operation is one XOR, and then modulo the prime ``PRIME`` = 2^30 - 35, on the
matrix oriented to have no more rows than columns (transposed if needed).

Modulo ``PRIME`` each row is one integer with a 64-bit slot per column,
column 0 in the top slot, and a row operation is one multiply-add on whole
integers: v = (v - s * 2^(64 k)) + (PRIME - g) * tail clears leading slot k
(value s) against the residues of the pivot row leading in slot k, where
g = s / (that row's leading entry) mod PRIME.  Each operation adds less than
(PRIME - 1)^2 < 2^60 to a slot, so slots never carry into each other if they
are folded every 15 operations; since 2^30 = 35 (mod PRIME),
v -> (v mod 2^30) + 35 * (v >> 30) slot by slot, twice, leaves every slot
below 2^30 + 2^16 < 2 * PRIME, and one conditional subtraction of PRIME per
slot makes the residues canonical.

A rank rho mod ``PRIME`` below min(rows, cols) is certified from the same
elimination.  Each of the rows - rho rows that reduced to zero yields a
left-kernel vector mod p, y = e_i - sum c_r e_r over the pivot rows r, by
back-substitution through the recorded row operations.  Its entries are lifted to rationals by
rational reconstruction (Wang-Guy-Davenport) and y^T A = 0 is checked exactly
over the integers.  Each y is 1 at its own dependent row and 0 at the others,
so verified vectors are independent over Q and rank <= rho, while the modular
rank gives rank >= rho.  Only when a lift or a check fails (kernel entries
beyond the one-prime bound, or an unlucky prime whose modular rank is below
the rank over Q) does fraction-free Gaussian elimination over the integers (single-step
Bareiss) decide: every division is exact by the Sylvester determinant
identity, so entries stay integers and never lose precision.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Optional, Sequence

# The largest prime below 2^30; the certificate above holds for a prime only.
PRIME = 1_073_741_789

# Numerators and denominators of a lifted entry are at most this, which makes
# the rational reconstruction of a residue unique when it exists.
_LIFT_BOUND = isqrt(PRIME // 2)

# Maps each byte to the base-2 digit of its parity, and the offset of the
# lowest byte within a native 64-bit array item.
_PARITY = bytes(b"01"[b & 1] for b in range(256))
_LOW_BYTE = 0 if sys.byteorder == "little" else 7

# Rows mod PRIME are packed one entry per 64-bit slot.  A slot starts below
# 2^31 and a row operation adds less than (PRIME - 1)^2 to it, so it cannot
# carry into the next slot within _FOLD_EVERY operations; then every slot is
# folded back to a residue by 2^30 = 35 (mod PRIME).
_FOLD_EVERY = 15
assert PRIME < 1 << 30 and (1 << 31) + _FOLD_EVERY * (PRIME - 1) ** 2 < 1 << 64

# One reduced row: the (pivot number, f) multipliers subtracted from it, and
# the inverse of the leading entry it was scaled by (0 if it reduced to zero).
_Step = tuple[list[tuple[int, int]], int]


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix.

    A full rank modulo 2 or modulo ``PRIME`` is returned at once.  A rank
    deficient modulo both is returned once a left-kernel certificate lifted
    from the mod-``PRIME`` elimination checks exactly; otherwise fraction-free
    elimination decides.
    """
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    if _rank_mod2(rows, full) == full:
        return full
    if len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    rank, steps = _rank_mod_p(rows, full)
    if rank == full or _kernel_certified(rows, steps):
        return rank
    return _bareiss_rank(rows)


def _rank_mod2(rows: Sequence[Sequence[int]], full: int) -> int:
    """Rank modulo 2, stopping once it reaches ``full``.

    Each row is packed into one integer, one bit per entry, set where the
    entry is odd; rows reduce by XOR against a basis keyed by leading bit.
    """
    basis: dict[int, int] = {}
    for row in rows:
        v = _parity_bits(row)
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if len(basis) == full:
                    return full
                break
            v ^= b
    return len(basis)


def _parity_bits(row: Sequence[int]) -> int:
    """The integer whose bit j (from the top) is the parity of entry j."""
    try:
        # The lowest byte of a two's-complement word has the entry's parity.
        low = array("q", row).tobytes()[_LOW_BYTE::8]
    except OverflowError:  # an entry does not fit in 64 bits
        low = bytes([x & 1 for x in row])
    return int(low.translate(_PARITY), 2)


def _rank_mod_p(rows: Sequence[Sequence[int]], full: int) -> tuple[int, list[_Step]]:
    """Rank modulo ``PRIME``, stopping once it reaches ``full``, and the
    row operations that found it, one ``_Step`` per row reduced.

    Each row is packed into one integer (``_pack``), so its leading column
    is read off its bit length.  A row is reduced at its leading slot
    against the pivot row that leads there, if any, by one multiply-add on
    the whole integer.  A pivot row is kept as residues below ``PRIME``
    without its leading entry, next to that entry's inverse, and the
    multiplier recorded is the one of the pivot row scaled to a leading 1.
    """
    p = PRIME
    ones = _pack([1] * len(rows[0]))
    low30 = ones * ((1 << 30) - 1)
    low34 = ones * ((1 << 34) - 1)
    under = ones * 35

    def residues(v: int) -> int:
        # Two folds take each slot below 2^30 + 2^16 < 2 * PRIME, and PRIME
        # is subtracted where slot + 35 reaches 2^30.
        v = (v & low30) + 35 * ((v >> 30) & low34)
        v = (v & low30) + 35 * ((v >> 30) & low34)
        return v - p * (((v + under) >> 30) & ones)

    pivots: dict[int, tuple[int, int, int]] = {}
    steps: list[_Step] = []
    for row in rows:
        v = _pack([x % p for x in row])
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


def _pack(entries: list[int]) -> int:
    """The integer with one 64-bit slot per entry (each below 2^64), the
    first entry in the top slot."""
    words = array("Q", entries)
    if sys.byteorder == "little":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "big")


def _kernel_certified(rows: Sequence[Sequence[int]], steps: list[_Step]) -> bool:
    """Whether every row that reduced to zero mod ``PRIME`` lifts to a
    rational left-kernel vector y with y^T A = 0 exactly.

    All vectors are lifted before any is checked: a lift costs O(rows), a
    check O(rows * cols).
    """
    pivot_rows = [i for i, (_, inv) in enumerate(steps) if inv]
    lifted = [
        _lift(_kernel_vector_mod_p(steps, pivot_rows, i))
        for i, (_, inv) in enumerate(steps)
        if not inv
    ]
    if None in lifted:
        return False
    columns = list(zip(*rows))
    return not any(sum(map(mul, y, col)) for y in lifted for col in columns)


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


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix; rows are scaled to integers first."""
    scaled = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        denom = lcm(*(f.denominator for f in fracs)) if fracs else 1
        scaled.append([int(f * denom) for f in fracs])
    return integer_rank(scaled)
