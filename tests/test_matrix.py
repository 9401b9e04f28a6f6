"""The word-packed elimination mod a prime, on sparse rows, against a plain
list elimination on the same rows written out densely, at both ends of the
prime supply; and the supply itself."""

from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab._matrix import PRIME, _folds, _kernel_vector_mod_p, _primes, _rank_mod_p, integer_rank
from rank_oracle import bareiss_rank as _bareiss_rank

# The last prime of the supply, 2^30 - c with the largest c < 2^28: the
# folds are tightest there.
LAST_PRIME = (1 << 30) - 268_435_367


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_supply_starts_at_the_largest_primes_below_2_to_the_30():
    first = list(islice(_primes(), 40))
    assert [(1 << 30) - p for p in first[:6]] == [35, 41, 83, 101, 105, 107]
    assert first == [p for p in range(PRIME, first[-1] - 1, -2) if is_prime(p)]


def test_supply_ends_below_2_to_the_28():
    end = (1 << 30) - (1 << 28)
    assert is_prime(LAST_PRIME)
    assert not any(is_prime(p) for p in range(end + 1, LAST_PRIME))


def test_fold_counts_are_those_of_the_module_docstring():
    # 2 folds for c < 2^13, 3 up to c = 416017, 18 at the last prime
    counts = [_folds((1 << 30) - c) for c in (35, 8191, 8192, 416017, 416018)]
    assert counts == [2, 2, 3, 3, 4]
    assert _folds(LAST_PRIME) == 18


def sparse(rows):
    """Dense rows as ``{column: nonzero entry}`` dicts."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def reference_rank_mod_p(rows, p=PRIME) -> int:
    """Rank mod p by Gaussian elimination with column pivoting on lists of
    residues."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def assert_steps_give_kernel_vectors(rows, steps, p=PRIME):
    """Each row that reduced to zero gives y with y^T A = 0 mod p, 1 at that
    row, whether or not y lifts to a rational vector."""
    pivot_rows = [i for i, (_, inv) in enumerate(steps) if inv]
    for i, (_, inv) in enumerate(steps):
        if not inv:
            y = _kernel_vector_mod_p(steps, pivot_rows, i, p)
            assert y[i] == 1
            for col in zip(*rows[: len(steps)]):
                assert sum(a * b for a, b in zip(y, col)) % p == 0


def entries(p):
    return [0, 1, -1, p, -p, p - 1, 2 * p, 2**63, -(2**63), 10**20]


@st.composite
def residue_matrices(draw, p=PRIME):
    """1-9 x 1-9 matrices of entries that are 0, +-1 or large mod p while
    large or of either sign as integers."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.sampled_from(entries(p))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.sampled_from([PRIME, LAST_PRIME]), st.data())
def test_packed_rank_matches_the_reference(p, data):
    rows = data.draw(residue_matrices(p))
    full = min(len(rows), len(rows[0]))
    rank, steps = _rank_mod_p(sparse(rows), full, p=p)
    assert rank == reference_rank_mod_p(rows, p)
    assert_steps_give_kernel_vectors(rows, steps, p)


@st.composite
def relabelled_residue_matrices(draw):
    """A matrix of ``residue_matrices`` with its rows permuted, and its
    sparse rows with the column keys relabelled by a random injection into
    0..10^6, so keys have gaps and their order is not the order in which the
    rows first reach the columns."""
    rows = draw(st.permutations(draw(residue_matrices())))
    width = len(rows[0])
    keys = draw(st.lists(st.integers(0, 10**6), min_size=width, max_size=width, unique=True))
    return rows, [{keys[j]: x for j, x in enumerate(row) if x} for row in rows]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(relabelled_residue_matrices())
def test_packed_rank_does_not_depend_on_column_keys_or_row_order(case):
    rows, relabelled = case
    full = min(len(rows), len(rows[0]))
    rank, steps = _rank_mod_p(relabelled, full)
    assert rank == reference_rank_mod_p(rows)
    assert_steps_give_kernel_vectors(rows, steps)
    # wide and tall alike: 1-9 rows against 1-9 columns
    assert integer_rank(relabelled) == _bareiss_rank(rows)


# Plain ids are the first prime's, "last-" ones the last prime's.
@pytest.mark.parametrize(
    "ops, p",
    [pytest.param(ops, PRIME, id=str(ops)) for ops in (14, 15, 16, 31)]
    + [pytest.param(ops, LAST_PRIME, id=f"last-{ops}") for ops in (14, 15, 16, 31)],
)
def test_fold_boundaries_under_worst_case_growth(ops, p):
    # Pivot row i is 1 at column i and p - 1 after it.  The entry 1 - j of
    # the last rows makes every leading residue 1 when it is read, so each of
    # the `ops` operations before the lead adds (p - 1)^2 to every later
    # slot, the most a row operation can add.
    n = ops + 3
    rows = [[0] * i + [1] + [p - 1] * (n - i - 1) for i in range(ops)]
    rows.append([(1 - j) % p for j in range(n)])
    rows.append(rows[-1])
    rows.append([3 * x for x in rows[-1]])
    rank, steps = _rank_mod_p(sparse(rows), n, p=p)
    assert rank == reference_rank_mod_p(rows, p) == ops + 1
    assert [len(mults) for mults, _ in steps[ops:]] == [ops, ops + 1, ops + 1]
    assert all(f == 1 for _, f in steps[ops][0])
    assert_steps_give_kernel_vectors(rows, steps, p)


def test_dense_deficient_products_with_residues_near_prime():
    # rank-k products L R with factors near PRIME, 20-60 rows, compared with
    # the reference; every dependent row gives a kernel vector mod PRIME
    values = [PRIME - 1, PRIME - 2, PRIME - 3, 1, 2, 0]
    for size in (20, 41, 60):
        k = size // 3
        left = [[values[(3 * i + 5 * r) % 6] for r in range(k)] for i in range(size)]
        right = [[values[(7 * r + j * j) % 6] for j in range(size - 7)] for r in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        rank, steps = _rank_mod_p(sparse(rows), min(size, size - 7))
        assert rank == reference_rank_mod_p(rows) <= k
        assert_steps_give_kernel_vectors(rows, steps)
