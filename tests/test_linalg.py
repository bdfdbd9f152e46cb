"""Exact rank, row reduction and modular products over F_p, cross-checked
against an independent division-free elimination oracle."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge import linalg
from ulrich_forge.cohomology import build_map_matrix
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import matmul_mod, rank_dense, rref
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


# shapes on both sides of the row-op rule k(3L - k) <= 6 * 9216, k the short
# and L the long side.  64 x 64, 1 x 4096 and 40 x 100 took the row-op loop
# under the old 4096-cell cutoff too; 166 x 166 / 167 x 167 and 1 x 18432 /
# 1 x 18433 sit on the boundary.
ROWOPS_SHAPES = [(64, 64), (17, 241), (241, 17), (1, 4096), (4097, 1), (40, 100),
                 (166, 166), (48, 384), (1, 18432)]
BLOCKED_SHAPES = [(167, 167), (64, 400), (400, 64), (24, 800), (1, 18433)]
CUTOFF_SHAPES = ROWOPS_SHAPES + BLOCKED_SHAPES


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


def test_rank_small_prime(monkeypatch):
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(0, 7, size=(40, 40))
        assert rank_dense(a, 7) == division_free_rank(a, 7)
    looped = []
    rowops = linalg._row_echelon
    monkeypatch.setattr(linalg, "_row_echelon",
                        lambda a, p: looped.append(a.shape) or rowops(a, p))
    for m, n in CUTOFF_SHAPES:
        for a in (rng.integers(0, 7, size=(m, n)), low_rank(rng, m, n, min(m, n) // 2 + 1, 7)):
            assert rank_dense(a, 7) == division_free_rank(a, 7)
    assert looped == [shape for shape in ROWOPS_SHAPES for _ in range(2)]


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


# the blocked path on shapes small enough for the oracle: every shape goes
# blocked, a 40-column panel is leaves of 16, 16 and 8 columns (32 and 16
# at p = 4194301, whose block is 32), each leaf starts at a multiple of 8,
# and a stripe holds at most 24 cells, so most stripes are one row
STRIPED = {"_STRIPE_CELLS": 24, "_ROWOPS_MAX_AREA": 0, "_DEFAULT_BLOCK": 40}
PRIMES = [7, P, 4194301]


@st.composite
def _kernel_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(["plain", "zero_columns", "duplicate_rows", "zero_run",
                                 "deep_pivot", "rows_run_out"]))
    if kind == "rows_run_out":  # m ends inside a leaf, before the last column
        m = draw(st.integers(1, 59).filter(lambda x: x % 8))
        n = draw(st.integers(m + 1, 60))
    elif kind in ("zero_run", "deep_pivot"):  # past the first panel's second leaf
        m, n = draw(st.integers(17, 60)), draw(st.integers(33, 60))
    else:
        m, n = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = low_rank(rng, m, n, draw(st.integers(1, min(m, n))), p)
    else:
        a = rng.integers(0, p, size=(m, n))
    if kind == "zero_columns":
        a[:, rng.integers(0, n, size=draw(st.integers(1, n)))] = 0
    if kind == "duplicate_rows":
        a[rng.integers(0, m, size=m // 2)] = a[rng.integers(0, m)]
    if kind == "zero_run":  # leaf 16..31 has no pivot; below p = 4194301 the
        # pivots around it are not consecutive, so they are gathered
        a[:, draw(st.sampled_from([8, 16])) : 32] = 0
    if kind == "deep_pivot":  # zero leading rows: pivots found deep, rows swapped
        w = draw(st.integers(0, n - 1))
        a[: w + draw(st.integers(1, m)), w:] = 0
    return a, p


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_striped_blocked_path_against_oracle(case):
    a, p = case
    plain = rank_dense(a, p)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in STRIPED.items():
            mp.setattr(linalg, name, value)
        assert rank_dense(a, p) == plain == division_free_rank(a, p)


def test_striped_slack_reset_large_prime(monkeypatch):
    # p = 4194301 allows 32-column blocks, and the trailing matrix is reset
    # mod p before every seventh trailing update: 13 panels cross one reset
    p = 4194301
    rng = np.random.default_rng(9)
    monkeypatch.setattr(linalg, "_STRIPE_CELLS", 1000)
    for a in (rng.integers(0, p, size=(400, 400)), low_rank(rng, 400, 420, 390, p)):
        assert rank_dense(a, p) == division_free_rank(a, p)


@pytest.mark.parametrize("shape", [(30, 40), (200, 300)])  # row-op, blocked
def test_rank_leaves_input_untouched(shape):
    rng = np.random.default_rng(10)
    base = rng.integers(-3 * P, 3 * P, size=shape)
    inputs = [base, (base % 50000).astype(np.int32), (base % 60000).astype(np.uint16)]
    for a in inputs:
        before = a.tobytes()
        rank_dense(a, P)
        rref(a, P)
        assert a.tobytes() == before
    nested = base.tolist()
    kept = copy.deepcopy(nested)
    assert rank_dense(nested, P) == rank_dense(base, P)
    assert nested == kept


@pytest.mark.parametrize("p, gather", [pytest.param(P, False, id=str(P)),
                                       pytest.param(4194301, False, id="4194301"),
                                       pytest.param(P, True, id="gather")])
def test_rank_memory_one_float_copy(monkeypatch, p, gather):
    # beyond one float64 copy of the matrix, every buffer is a stripe of at
    # most 2^20 cells (8 MiB), a few of them alive at once, a column at most
    # one 16-column leaf wide, or the panel's 256 x 256 L^{-1}
    a = np.random.default_rng(0).integers(0, p, size=(2000, 2000))
    bound = 8 * a.size + 24 * 2**20
    if gather:
        # a zero column in every leaf, so multiplier columns are gathered;
        # with 512 KiB stripes one unstriped 2000 x 255 gather (4 MB) would
        # break the bound of L^{-1} plus four stripes
        monkeypatch.setattr(linalg, "_STRIPE_CELLS", 2**16)
        a[:, 5::16] = 0
        bound = 8 * a.size + 8 * 256**2 + 4 * 8 * 2**16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert rank_dense(a, p) == (1875 if gather else 2000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


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
    for a in (rng.integers(0, P, size=(8, 12)), low_rank(rng, 12, 9, 5, P),
              low_rank(rng, 6, 14, 4, P) * (np.arange(14) % 3 > 0)):
        red, pivots = rref(a, P)
        assert len(pivots) == rank_dense(a, P)
        for i, j in enumerate(pivots):
            col = red[:, j]
            assert col[i] == 1 and np.count_nonzero(col) == 1
            assert not red[i, :j].any()


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
