"""Exact rank computation for integer and rational matrices.

The rank is certified by reduction modulo primes.  Reducing an integer matrix
modulo a prime p cannot raise its rank, and no rank exceeds the matrix's
smaller dimension, so

    rank mod p  <=  rank over Q  <=  min(rows, cols).

A modular rank equal to min(rows, cols) is therefore the exact rank.
``integer_rank`` eliminates modulo 2 first, on bit-packed rows where a row
operation is one XOR, and then modulo the prime ``PRIME`` below 2^30.  Only
when neither modular rank is full does it run fraction-free Gaussian
elimination over the integers (single-step Bareiss): every division is exact
by the Sylvester determinant identity, so entries stay integers and never
lose precision.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Sequence

# The largest prime below 2^30; the certificate above holds for a prime only.
PRIME = 1_073_741_789

# Maps each byte to the base-2 digit of its parity, and the offset of the
# lowest byte within a native 64-bit array item.
_PARITY = bytes(b"01"[b & 1] for b in range(256))
_LOW_BYTE = 0 if sys.byteorder == "little" else 7


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix.

    A full rank modulo 2 or modulo ``PRIME`` is returned at once; a matrix
    deficient modulo both goes through fraction-free elimination.
    """
    if not rows or not rows[0]:
        return 0
    full = min(len(rows), len(rows[0]))
    if _rank_mod2(rows, full) == full or _rank_mod_p(rows, full) == full:
        return full
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


def _rank_mod_p(rows: Sequence[Sequence[int]], full: int) -> int:
    """Rank modulo ``PRIME``, stopping once it reaches ``full``.

    Each row is reduced against the pivot rows found so far, in the order
    they were found; a pivot row is kept from its leading column on and
    scaled to a leading 1.  Entries of the row being reduced are taken
    modulo ``PRIME`` only where a pivot reads them and once at the end.
    """
    p = PRIME
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        v = list(row)
        for c, tail in pivots:
            f = v[c] % p
            if f:
                v[c:] = [a - f * b for a, b in zip(islice(v, c, None), tail)]
        v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        pivots.append((lead, [x * inv % p for x in islice(v, lead, None)]))
        if len(pivots) == full:
            break
    return len(pivots)


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
