"""Exact rank, row reduction and modular products over F_p, cross-checked
against an independent division-free elimination oracle."""

import numpy as np
import pytest

from ulrich_forge.cohomology import build_map_matrix, section_space
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import _ROWOPS_MAX_CELLS, matmul_mod, rank_dense, rref
from ulrich_forge.poly import dim_forms
from ulrich_forge.presentation import UlrichPresentation

P = DEFAULT_PRIME
F = PrimeField(P)


def null_vectors(red: np.ndarray, pivots: list[int], n: int, p: int) -> list[np.ndarray]:
    """One null vector per free column, read off a reduced row-echelon form."""
    out = []
    for f in (j for j in range(n) if j not in pivots):
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for i, pj in enumerate(pivots):
            v[pj] = (-int(red[i, f])) % p
        out.append(v)
    return out


def division_free_rank(a: np.ndarray, p: int) -> int:
    """Oracle: fraction-free row elimination, never computing an inverse.

    row_i <- pivot * row_i - a[i, j] * row_pivot keeps everything integral;
    rank over F_p is the pivot count."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for j in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, j])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, j])
        for i in range(r + 1, m):
            if a[i, j]:
                a[i] = (piv * a[i] - int(a[i, j]) * a[r]) % p
        r += 1
    return r


def test_rank_identity_and_zero():
    assert rank_dense(np.eye(5, dtype=np.int64), P) == 5
    assert rank_dense(np.zeros((4, 7), dtype=np.int64), P) == 0
    assert rank_dense(np.zeros((0, 3), dtype=np.int64), P) == 0


def test_rank_against_independent_oracle():
    rng = np.random.default_rng(0)
    a = rng.integers(0, P, size=(50, 50))
    assert rank_dense(a, P) == division_free_rank(a, P)


# shapes on both sides of the row-op cutoff (4096 cells and fewer take the
# row-op loop, 4097 and more the blocked path)
CUTOFF_SHAPES = [(64, 64), (17, 241), (241, 17), (1, 4096), (4097, 1), (40, 100)]


def low_rank(rng, m: int, n: int, k: int, p: int) -> np.ndarray:
    return (rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))) % p


@pytest.mark.parametrize("seed", range(12))
def test_rank_randomized_against_oracle(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 120, size=2)
    a = rng.integers(0, P, size=(m, n))
    if seed % 3 == 0:
        k = int(rng.integers(1, min(m, n) + 1))
        a = low_rank(rng, m, n, k, P)
    if seed % 4 == 0:
        a[:, int(rng.integers(0, n))] = 0
    assert rank_dense(a, P) == division_free_rank(a, P)
    # one rank-deficient case at p = 7 next to the row-op cutoff
    m, n = CUTOFF_SHAPES[seed % len(CUTOFF_SHAPES)]
    b = low_rank(rng, m, n, max(1, min(m, n) - 1 - seed % 3), 7)
    assert rank_dense(b, 7) == division_free_rank(b, 7)


def test_rank_crosses_block_boundaries():
    # deficiency that spans the 256-column panel edge
    rng = np.random.default_rng(1)
    a = (rng.integers(0, P, size=(600, 258)) @ rng.integers(0, P, size=(258, 600))) % P
    assert rank_dense(a, P) == 258


def test_rank_small_prime():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(0, 7, size=(40, 40))
        assert rank_dense(a, 7) == division_free_rank(a, 7)
    cells = {m * n for m, n in CUTOFF_SHAPES}
    assert {_ROWOPS_MAX_CELLS, _ROWOPS_MAX_CELLS + 1} <= cells
    for m, n in CUTOFF_SHAPES:
        for a in (rng.integers(0, 7, size=(m, n)), low_rank(rng, m, n, min(m, n) // 2 + 1, 7)):
            assert rank_dense(a, 7) == division_free_rank(a, 7)


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(3)
    for _ in range(8):
        m, n = rng.integers(1, 90, size=2)
        a = rng.integers(0, P, size=(m, n))
        assert rank_dense(a, P) == rank_dense(a.T.copy(), P)


@pytest.mark.parametrize("n", [200, 600])
def test_rank_sparse_profile_against_oracle(n):
    # 3 nonzeros per column, the multiplication-map block profile
    rng = np.random.default_rng(n)
    a = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        rows = rng.choice(n, size=3, replace=False)
        a[rows, j] = rng.integers(1, P, size=3)
    assert rank_dense(a, P) == division_free_rank(a, P)


def test_kernel_identity_empty():
    red, pivots = rref(np.eye(4, dtype=np.int64), P)
    assert pivots == [0, 1, 2, 3]
    assert null_vectors(red, pivots, 4, P) == []


def test_kernel_zero_matrix_full():
    red, pivots = rref(np.zeros((3, 3), dtype=np.int64), P)
    assert pivots == [] and red.shape == (0, 3)
    vecs = null_vectors(red, pivots, 3, P)
    assert rank_dense(np.stack(vecs), P) == 3


def test_kernel_of_injective_multiplication():
    # multiplication by x from degree 2 to degree 3 is injective: the x block
    # of the Euler column (x, y, z) has full column rank
    euler = UlrichPresentation(F, 2, 2, np.eye(3, dtype=np.int64)[:, None, :])
    block = build_map_matrix(euler, 2)[: dim_forms(3)]
    assert rank_dense(block, P) == dim_forms(2)


def test_kernel_vectors_annihilate():
    # rref is row-equivalent to its input: the null vectors it exposes
    # annihilate the original matrix, and there are cols - rank of them
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, n = rng.integers(2, 40, size=2)
        k = int(rng.integers(1, min(m, n) + 1))
        a = (rng.integers(0, P, size=(m, k)) @ rng.integers(0, P, size=(k, n))) % P
        red, pivots = rref(a, P)
        vecs = null_vectors(red, pivots, n, P)
        assert len(vecs) == n - rank_dense(a, P)
        for v in vecs:
            assert not ((a @ v) % P).any()


def test_solve_identity():
    # rref of the augmented system [I | b] reads off x = b
    b = np.array([3, 1, 4], dtype=np.int64)
    red, pivots = rref(np.concatenate([np.eye(3, dtype=np.int64), b[:, None]], axis=1), P)
    assert pivots == [0, 1, 2]
    assert (red[:, 3] == b).all()


def test_solve_inconsistent():
    # 0 = 1 shows up as a pivot in the right-hand-side column
    aug = np.array([[0, 0, 1], [0, 0, 0]], dtype=np.int64)
    assert rref(aug, P)[1] == [2]


def test_solve_dimension_mismatch():
    pres = UlrichPresentation(F, 2, 2, np.eye(3, dtype=np.int64)[:, None, :])
    space = section_space(pres, 0)
    with pytest.raises(ValueError, match="ambient dimension"):
        space.project_columns(np.zeros((space.ambient_dim + 1, 2), dtype=np.int64))


def test_solve_random_consistent_exact_residual():
    rng = np.random.default_rng(6)
    a = rng.integers(0, P, size=(20, 30))
    x0 = rng.integers(0, P, size=30)
    b = (a @ x0) % P
    red, pivots = rref(np.concatenate([a, b[:, None]], axis=1), P)
    assert 30 not in pivots
    x = np.zeros(30, dtype=np.int64)
    x[pivots] = red[:, 30]
    assert not ((a @ x - b) % P).any()
    assert 30 - len(pivots) == 30 - rank_dense(a, P)


def test_rref_reduces_pivot_columns():
    rng = np.random.default_rng(7)
    a = rng.integers(0, P, size=(8, 12))
    red, pivots = rref(a, P)
    for i, j in enumerate(pivots):
        col = red[:, j]
        assert col[i] == 1 and np.count_nonzero(col) == 1


def test_matrix_container_validation():
    # rank_dense takes any integer 2-d array and reduces it mod p first
    with pytest.raises(ValueError):
        rank_dense(np.arange(6), P)  # not 2-d
    assert rank_dense(np.array([[-P, 2 * P], [P, 0]]), P) == 0
    assert rank_dense(np.array([[-1, P + 3]]), P) == 1


def test_matmul_mod_exact_for_largest_prime():
    # at p = 2^31 - 1 one product term is about 2^62, so a plain int64
    # matmul of inner length 3 wraps; compare against Python integers
    p = 2**31 - 1
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 7):
        a = rng.integers(p - 1000, p, size=(4, k), dtype=np.int64)
        b = rng.integers(p - 1000, p, size=(k, 5), dtype=np.int64)
        want = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p
                 for j in range(5)] for i in range(4)]
        assert matmul_mod(a, b, p).tolist() == want
