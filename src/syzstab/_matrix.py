"""Exact rank computation for integer and rational matrices.

The rank is certified by reduction modulo primes.  Reducing an integer matrix
modulo a prime p cannot raise its rank, and no rank exceeds the matrix's
smaller dimension, so

    rank mod p  <=  rank over Q  <=  min(rows, cols).

A modular rank equal to min(rows, cols) is therefore the exact rank.
``integer_rank`` eliminates modulo 2 first, on bit-packed rows where a row
operation is one XOR, and then modulo the prime ``PRIME`` below 2^30, on the
matrix oriented to have no more rows than columns (transposed if needed).

A rank rho mod ``PRIME`` below that is certified from the same elimination.
Each of the rows - rho rows that reduced to zero yields a left-kernel vector
mod p, y = e_i - sum c_r e_r over the pivot rows r, by back-substitution
through the recorded row operations.  Its entries are lifted to rationals by
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
from itertools import islice
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

    Each row is reduced against the pivot rows found so far, in the order
    they were found; a pivot row is kept from its leading column on and
    scaled to a leading 1.  Entries of the row being reduced are taken
    modulo ``PRIME`` only where a pivot reads them and once at the end.
    """
    p = PRIME
    pivots: list[tuple[int, list[int]]] = []
    steps: list[_Step] = []
    for row in rows:
        v = list(row)
        mults = []
        for k, (c, tail) in enumerate(pivots):
            f = v[c] % p
            if f:
                v[c:] = [a - f * b for a, b in zip(islice(v, c, None), tail)]
                mults.append((k, f))
        v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            steps.append((mults, 0))
            continue
        inv = pow(v[lead], -1, p)
        steps.append((mults, inv))
        pivots.append((lead, [x * inv % p for x in islice(v, lead, None)]))
        if len(pivots) == full:
            break
    return len(pivots), steps


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
