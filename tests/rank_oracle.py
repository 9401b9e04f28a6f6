"""The exact-rank oracle of the tests: fraction-free Gaussian elimination over
the integers (single-step Bareiss) on dense rows.  Every division is exact by
the Sylvester determinant identity, so entries stay integers and never lose
precision; it shares no code with ``syzstab._matrix``."""


def bareiss_rank(rows):
    """Rank of an integer matrix given as dense rows, via fraction-free
    elimination."""
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
