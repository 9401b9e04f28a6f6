"""The word-packed elimination mod PRIME against a plain list elimination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab._matrix import PRIME, _kernel_vector_mod_p, _rank_mod_p


def reference_rank_mod_p(rows) -> int:
    """Rank mod PRIME by Gaussian elimination with column pivoting on lists
    of residues."""
    m = [[x % PRIME for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, PRIME)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % PRIME
            if f:
                m[i] = [(a - f * b) % PRIME for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def assert_steps_give_kernel_vectors(rows, steps):
    """Each row that reduced to zero gives y with y^T A = 0 mod PRIME, 1 at
    that row, whether or not y lifts to a rational vector."""
    pivot_rows = [i for i, (_, inv) in enumerate(steps) if inv]
    for i, (_, inv) in enumerate(steps):
        if not inv:
            y = _kernel_vector_mod_p(steps, pivot_rows, i)
            assert y[i] == 1
            for col in zip(*rows[: len(steps)]):
                assert sum(a * b for a, b in zip(y, col)) % PRIME == 0


ENTRIES = [0, 1, -1, PRIME, -PRIME, PRIME - 1, 2 * PRIME, 2**63, -(2**63), 10**20]


@st.composite
def residue_matrices(draw):
    """1-9 x 1-9 matrices of entries that are 0, +-1 or large mod PRIME
    while large or of either sign as integers."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.sampled_from(ENTRIES)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(residue_matrices())
def test_packed_rank_matches_the_reference(rows):
    full = min(len(rows), len(rows[0]))
    rank, steps = _rank_mod_p(rows, full)
    assert rank == reference_rank_mod_p(rows)
    assert_steps_give_kernel_vectors(rows, steps)


@pytest.mark.parametrize("ops", [14, 15, 16, 31])
def test_fold_boundaries_under_worst_case_growth(ops):
    # Pivot row i is 1 at column i and PRIME - 1 after it.  The entry 1 - j
    # of the last rows makes every leading residue 1 when it is read, so each
    # of the `ops` operations before the lead adds (PRIME - 1)^2 to every
    # later slot, the most a row operation can add.
    n = ops + 3
    rows = [[0] * i + [1] + [PRIME - 1] * (n - i - 1) for i in range(ops)]
    rows.append([(1 - j) % PRIME for j in range(n)])
    rows.append(rows[-1])
    rows.append([3 * x for x in rows[-1]])
    rank, steps = _rank_mod_p(rows, n)
    assert rank == reference_rank_mod_p(rows) == ops + 1
    assert [len(mults) for mults, _ in steps[ops:]] == [ops, ops + 1, ops + 1]
    assert all(f == 1 for _, f in steps[ops][0])
    assert_steps_give_kernel_vectors(rows, steps)


def test_dense_deficient_products_with_residues_near_prime():
    # rank-k products L R with factors near PRIME, 20-60 rows, compared with
    # the reference; every dependent row gives a kernel vector mod PRIME
    values = [PRIME - 1, PRIME - 2, PRIME - 3, 1, 2, 0]
    for size in (20, 41, 60):
        k = size // 3
        left = [[values[(3 * i + 5 * r) % 6] for r in range(k)] for i in range(size)]
        right = [[values[(7 * r + j * j) % 6] for j in range(size - 7)] for r in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        rank, steps = _rank_mod_p(rows, min(size, size - 7))
        assert rank == reference_rank_mod_p(rows) <= k
        assert_steps_give_kernel_vectors(rows, steps)
