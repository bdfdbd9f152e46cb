"""Exact rank, row reduction and modular products over F_p, cross-checked
against an independent division-free elimination oracle."""

import copy
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge import linalg
from ulrich_forge.cohomology import build_map_matrix
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import matmul_mod, null_space, rank_dense, rref
from ulrich_forge.poly import dim_forms

P = DEFAULT_PRIME
F = PrimeField(P)


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


# shapes on both sides of the row-op rule k(3L - k)/6 <= 1024 (5 + k/L), k
# the short and L the long side.  64 x 64, 1 x 4096 and 40 x 100 took the
# row-op loop under the old 4096-cell cutoff too; 135 x 135 / 136 x 136,
# 32 x 300 / 48 x 256 and 1 x 10240 / 1 x 10241 sit on the boundary.
ROWOPS_SHAPES = [(64, 64), (17, 241), (241, 17), (1, 4096), (4097, 1), (40, 100),
                 (135, 135), (32, 300), (1, 10240)]
BLOCKED_SHAPES = [(136, 136), (48, 256), (48, 384), (64, 400), (400, 64), (24, 800),
                  (1, 10241)]
CUTOFF_SHAPES = ROWOPS_SHAPES + BLOCKED_SHAPES


def low_rank(rng, m: int, n: int, k: int, p: int) -> np.ndarray:
    return matmul_mod(rng.integers(0, p, size=(m, k)), rng.integers(0, p, size=(k, n)), p)


def last_row_pivots(rng, n: int, p: int) -> np.ndarray:
    """An upper-triangular matrix with nonzero diagonal, rows rotated up by
    one (its first row last): every pivot lies in the last row, so every
    pivot but the last swaps rows, and the rank is n."""
    a = rng.integers(1, p, size=(n, n))
    for i in range(n - 1):
        a[i, : i + 1] = 0
    return a


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
# a stripe holds at most 24 cells and a matrix of more than 24 cells gets
# threads, so most stripes are one row and every stripe loop of more than
# one row is split over the threads
STRIPED = {"_STRIPE_CELLS": 24, "_INLINE_CELLS": 24, "_ROWOPS_MAX_AREA": 0,
           "_DEFAULT_BLOCK": 40}
PRIMES = [7, P, 4194301]
# stripe loops run serially, on two threads, and on three, which share the
# stripes unevenly whenever their count is not a multiple of three
THREADS = [1, 2, 3]


KINDS = ["plain", "zero_columns", "duplicate_rows", "zero_run", "deep_pivot",
         "rows_run_out", "tall", "wide", "carried_swap"]


@st.composite
def _kernel_cases(draw, primes=PRIMES, kinds=KINDS):
    p = draw(st.sampled_from(primes))
    kind = draw(st.sampled_from(kinds))
    if kind == "rows_run_out":  # m ends inside a leaf, before the last column
        m = draw(st.integers(1, 59).filter(lambda x: x % 8))
        n = draw(st.integers(m + 1, 60))
    elif kind in ("zero_run", "deep_pivot"):  # past the first panel's second leaf
        m, n = draw(st.integers(17, 60)), draw(st.integers(33, 60))
    elif kind in ("tall", "wide"):  # the short side spans up to two panels,
        # the long side up to four; a tall matrix is eliminated transposed
        m, n = draw(st.integers(1, 80)), draw(st.integers(81, 160))
        if kind == "tall":
            m, n = n, m
    elif kind == "carried_swap":  # a later panel reaches the carried rows
        m, n = draw(st.integers(50, 100)), draw(st.integers(50, 130))
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
    if kind == "carried_swap":
        # rows t..t+d are combinations of rows 0..t: they carry nonzero
        # multipliers of the panels before column t and have nothing left
        # from there on, so the panels past t find their pivots d rows deep
        # and swap the carried rows down, stored multipliers and all
        t = draw(st.integers(41, min(m, n) - 1))
        d = draw(st.integers(1, m - t))
        a[t : t + d] = matmul_mod(rng.integers(0, p, size=(d, t)), a[:t] % p, p)
    return a, p


@settings(max_examples=300, deadline=None)
@given(_kernel_cases())
def test_striped_blocked_path_against_oracle(case):
    a, p = case
    want = division_free_rank(a, p)
    assert rank_dense(a, p) == want
    for threads in THREADS:
        with pytest.MonkeyPatch.context() as mp:
            for name, value in STRIPED.items():
                mp.setattr(linalg, name, value)
            mp.setattr(linalg, "_cpus", lambda: threads)
            assert rank_dense(a, p) == want, threads


def test_residue_dtype_is_the_narrowest_unsigned_type():
    primes = [7, 251, 257, 32003, 65521, 65537, 8388593]
    assert [linalg.residue_dtype(p) for p in primes] == [
        np.uint8, np.uint8, np.uint16, np.uint16, np.uint16, np.uint32, np.uint32]


# primes at the store's dtype boundaries: 251 keeps its panels, multipliers
# and L^{-1}s in uint8, 257 (p - 1 = 2^8) and 65521 in uint16, 65537
# (p - 1 = 2^16) and 8388593, the last prime below 2^23, in uint32.
# 8388593 allows 8-column panels and catch-up GEMMs of at most 47 pivots,
# so its catch-ups run in several chunks
@settings(max_examples=150, deadline=None)
@given(_kernel_cases([251, 257, 65521, 65537, 8388593],
                     ["duplicate_rows", "deep_pivot", "tall", "wide", "carried_swap"]))
def test_narrow_store_at_dtype_boundaries_against_oracle(case):
    a, p = case
    want = division_free_rank(a, p)
    for threads in THREADS:
        with pytest.MonkeyPatch.context() as mp:
            for name, value in STRIPED.items():
                mp.setattr(linalg, name, value)
            mp.setattr(linalg, "_cpus", lambda: threads)
            assert rank_dense(a, p) == want, threads


def p_minus_one_below(rng, p: int, lead: int) -> np.ndarray:
    """120 x 120 of rank lead + (120 - lead) / 2: an identity over zero
    rows in the first lead columns, whose pivots leave the rows below them
    as they are, then generic rows and columns of that rank, except that
    row lead has a 1 in column lead and every row below it p - 1 there."""
    n = 120 - lead
    g = rng.integers(0, p, size=(n // 2, n))
    g[:, 0] = 0
    g[0, 0] = 1
    c = rng.integers(0, p, size=(n, n // 2))
    c[:, 0] = p - 1
    c[0] = 0
    c[0, 0] = 1
    a = np.zeros((120, 120), dtype=np.int64)
    a[:lead, :lead] = np.eye(lead, dtype=np.int64)
    a[:lead, lead:] = rng.integers(0, p, size=(lead, n))
    a[lead:, lead:] = matmul_mod(c, g, p)
    return a


@pytest.mark.parametrize("p", [251, 257, 65521, 65537])
def test_store_keeps_p_minus_one(monkeypatch, p):
    # rank 60 in 120 x 120: row 0 has a 1 in column 0 and every other row
    # p - 1 there, so every row below the first pivot stores p - 1, the
    # largest residue, as its multiplier for it, and the panels after the
    # first read it back.  A store one bit too narrow (uint8 at 257,
    # uint16 at 65537) wraps it to 0 and the rank comes out too high
    a = p_minus_one_below(np.random.default_rng(14), p, 0)
    assert (a[1:, 0] == p - 1).all() and division_free_rank(a, p) == 60
    for name, value in STRIPED.items():
        monkeypatch.setattr(linalg, name, value)
    for threads in THREADS:
        monkeypatch.setattr(linalg, "_cpus", lambda: threads)
        assert rank_dense(a, p) == 60, threads


@pytest.mark.parametrize("p", [251, 257, 65521, 65537])
def test_panels_keep_p_minus_one(monkeypatch, p):
    # rank 80 in 120 x 120, three 40-column panels: panel 0 is an identity
    # over zero rows, and rows and columns 40.. are the case above at
    # 80 x 80, so panel 1 holds p - 1 in every row below 40 from its
    # look-ahead on, and its leaf reads it back.  Panels one bit too narrow
    # (uint8 at 257, uint16 at 65537) wrap it to 0, and the rank comes out
    # too high
    a = p_minus_one_below(np.random.default_rng(16), p, 40)
    assert (a[41:, 40] == p - 1).all() and division_free_rank(a, p) == 80
    for name, value in STRIPED.items():
        monkeypatch.setattr(linalg, name, value)
    for threads in THREADS:
        monkeypatch.setattr(linalg, "_cpus", lambda: threads)
        assert rank_dense(a, p) == 80, threads


@pytest.mark.parametrize("p", [251, P, 65537])
def test_single_panel_stays_float64(monkeypatch, p):
    # a rank with one panel factors it in float64, with no store to read
    # and nothing to convert; a rank with a second panel keeps its panels
    # narrow, in residue_dtype(p), and widens a leaf at a time
    seen = []
    eliminate = linalg._eliminate_panel

    def panel(a, *args):
        seen.append(a.dtype)
        return eliminate(a, *args)

    monkeypatch.setattr(linalg, "_eliminate_panel", panel)
    rng = np.random.default_rng(17)
    for shape, panels in (((234, 234), 1), ((180, 81), 1), ((300, 300), 2)):
        seen.clear()
        a = rng.integers(0, p, size=shape)
        assert rank_dense(a, p) == min(shape)
        want = np.float64 if panels == 1 else linalg.residue_dtype(p)
        assert seen == [want] * panels, shape


def test_striped_slack_reset_large_prime(monkeypatch):
    # p = 4194301 allows 32-column panels, and a catch-up GEMM at most 192
    # pivots: from the ninth panel on, a panel catches up with more pivots
    # than that, in two chunks, with its rows reduced mod p between them
    p = 4194301
    rng = np.random.default_rng(9)
    monkeypatch.setattr(linalg, "_STRIPE_CELLS", 1000)
    monkeypatch.setattr(linalg, "_INLINE_CELLS", 1000)
    # threads switch every microsecond, so a stripe missed, repeated or
    # updated before its multipliers are final shows up as a wrong rank
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for a in (rng.integers(0, p, size=(400, 400)), low_rank(rng, 400, 420, 390, p),
                  last_row_pivots(rng, 400, p)):
            want = division_free_rank(a, p)
            for threads in THREADS:
                monkeypatch.setattr(linalg, "_cpus", lambda: threads)
                assert rank_dense(a, p) == want, threads
    finally:
        sys.setswitchinterval(interval)


def deep_pivots_from(rng, panel: int, p: int) -> np.ndarray:
    """150 x 130, rank 110 (under STRIPED: 40-column panels 0 to 3): 110
    generic rows, the first 40 * panel of them on top, then 20 zero rows,
    then the rest, then 20 random combinations of all 110.  Every pivot from
    panel `panel` on is found 20 rows deep, and a row that misses an update
    or takes one twice leaves a combination nonzero, raising the rank."""
    rows = rng.integers(0, p, size=(110, 130))
    top = 40 * panel
    return np.vstack([rows[:top], np.zeros((20, 130), dtype=np.int64), rows[top:],
                      matmul_mod(rng.integers(0, p, size=(20, 110)), rows, p)])


# panels 1 and 2 swap rows while the helpers catch up the next panel
@pytest.mark.parametrize("case", ["last_row_pivots", "deep_pivot_0", "deep_pivot_1",
                                  "deep_pivot_2"])
def test_striped_swaps_against_oracle(monkeypatch, case):
    # a panel swaps rows in its own buffer while the helpers read the next
    # panel in the old row order and catch it up; after the join its swaps
    # move the stored multipliers, the row order in which later panels are
    # read and the rows of the next panel.  A swap missed in any of the
    # three, or made in the next panel before the join, shows up as a
    # wrong rank
    rng = np.random.default_rng(12)
    if case == "last_row_pivots":
        a, want = last_row_pivots(rng, 130, P), 130
    else:
        a, want = deep_pivots_from(rng, int(case[-1]), P), 110
    assert division_free_rank(a, P) == want
    for name, value in STRIPED.items():
        monkeypatch.setattr(linalg, name, value)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in THREADS:
            monkeypatch.setattr(linalg, "_cpus", lambda: threads)
            assert rank_dense(a, P) == want, threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("thread", ["caller", "helper", "helper_during_panel", "panel",
                                    "catch_up"])
def test_failing_stripe_raises(monkeypatch, thread):
    # a stripe that fails on either thread of a split loop fails the rank,
    # and so do a helper's stripe that fails while the caller factors the
    # panel, a panel that fails while a helper takes the next panel's
    # stripes, and a leaf's catch-up with the panel's own pivots that fails
    # while a helper catches up the next panel; the other thread is joined
    # first
    for name, value in STRIPED.items():
        monkeypatch.setattr(linalg, name, value)
    monkeypatch.setattr(linalg, "_cpus", lambda: 2)
    if thread in ("caller", "helper"):
        residues = linalg._residues

        def failing(a, p, out):
            if (threading.current_thread() is threading.main_thread()) == (thread == "caller"):
                raise MemoryError
            return residues(a, p, out)

        monkeypatch.setattr(linalg, "_residues", failing)
    else:
        in_stripes = linalg._in_stripes
        lookaheads = []
        panel_started, helper_started, failed = (threading.Event() for _ in range(3))

        def lookahead(body, lo, hi, cols, scratch, own=None):
            if own is None:
                return in_stripes(body, lo, hi, cols, scratch)
            lookaheads.append(hi - lo)

            def stripe(i, j, buf):
                if threading.current_thread() is not threading.main_thread():
                    helper_started.set()
                    if thread == "helper_during_panel":
                        assert panel_started.wait(10)
                        failed.set()
                        raise MemoryError
                body(i, j, buf)

            def panel():
                panel_started.set()
                assert helper_started.wait(10)
                if thread == "panel":
                    raise MemoryError
                if thread == "helper_during_panel":
                    assert failed.wait(10)
                return own()

            return in_stripes(stripe, lo, hi, cols, scratch, panel)

        monkeypatch.setattr(linalg, "_in_stripes", lookahead)
    if thread == "catch_up":
        catch_up = linalg._catch_up

        def failing_leaf(*args, **kwargs):
            # a leaf's catch-up, one leaf wide, with the panel's own pivots
            if args[0].shape[1] <= linalg._PANEL_LEAF and panel_started.is_set():
                assert threading.current_thread() is threading.main_thread()
                raise MemoryError
            return catch_up(*args, **kwargs)

        monkeypatch.setattr(linalg, "_catch_up", failing_leaf)
    running = threading.active_count()
    with pytest.raises(MemoryError):
        rank_dense(np.random.default_rng(11).integers(0, P, size=(120, 120)), P)
    assert threading.active_count() == running
    if thread not in ("caller", "helper"):
        # the first look-ahead, reading panel 1 while the caller factors
        # panel 0, failed
        assert lookaheads == [120]


def test_one_stripe_lookahead_runs_beside_the_panel(monkeypatch):
    # under STRIPED a look-ahead stripe is one row; the last look-ahead of
    # this 81 x 160 matrix, which reads panel 3 while the caller factors
    # panel 2, has the one row left below the pivots.  Once both threads
    # have solved their blocks of panel 3's pivot rows, a helper takes that
    # row while the caller factors the panel; on one CPU no thread starts
    for name, value in STRIPED.items():
        monkeypatch.setattr(linalg, name, value)
    in_stripes = linalg._in_stripes
    lookaheads = []

    def lookahead(body, lo, hi, cols, scratch, own=None):
        if own is None:
            return in_stripes(body, lo, hi, cols, scratch)
        on_main = []
        lookaheads.append((hi - lo, on_main))

        def stripe(i, j, buf):
            on_main.append(threading.current_thread() is threading.main_thread())
            body(i, j, buf)

        return in_stripes(stripe, lo, hi, cols, scratch, own)

    monkeypatch.setattr(linalg, "_in_stripes", lookahead)
    a = np.random.default_rng(13).integers(0, P, size=(81, 160))
    want = division_free_rank(a, P)
    monkeypatch.setattr(linalg, "_cpus", lambda: 2)
    assert rank_dense(a, P) == want
    assert [rows for rows, _ in lookaheads] == [81, 41, 1]
    assert lookaheads[-1][1] == [False]
    started = []
    monkeypatch.setattr(threading.Thread, "start", started.append)
    monkeypatch.setattr(linalg, "_cpus", lambda: 1)
    assert rank_dense(a, P) == want
    assert started == []


def test_catch_up_solves_pivot_rows_then_stripes(monkeypatch):
    # under STRIPED on two CPUs, 120 x 120 is three 40-column panels.  A
    # catch-up with pivot rows is two joins: first over the panel's
    # columns, one 20-column block per thread, both threads in a block at
    # once, then over the rows below the pivots, beside the look-ahead
    # panel if there is one.  A catch-up without pivot rows only loads its
    # rows.  Loops on the calling thread alone (a panel's leaves) are not
    # recorded
    for name, value in STRIPED.items():
        monkeypatch.setattr(linalg, name, value)
    monkeypatch.setattr(linalg, "_cpus", lambda: 2)
    catch_up, in_stripes = linalg._catch_up, linalg._in_stripes
    catch_ups = []  # (shape of b, end of its pivot rows, own given, loops)

    def recording_catch_up(b, p, l21, pivots, scratch, own=None, load=None):
        if len(scratch) == 2:
            r1 = pivots[-1][0] + len(pivots[-1][1]) if pivots else 0
            catch_ups.append((b.shape, r1, own is not None, []))
        return catch_up(b, p, l21, pivots, scratch, own, load)

    def recording_in_stripes(body, lo, hi, rows, scratch, own=None):
        if len(scratch) < 2:
            return in_stripes(body, lo, hi, rows, scratch, own)
        tasks = []  # (start, end, thread) per stripe or block
        loops = catch_ups[-1][3]
        # in the first loop of a catch-up with pivot rows the column blocks
        # wait for each other, so one thread cannot take both; a serial
        # pass breaks the barrier and fails the rank
        first = lo == 0 and catch_ups[-1][1] and not loops
        both = threading.Barrier(2, timeout=10) if first else None
        loops.append((lo, hi, own is not None, tasks))

        def task(i, j, buf):
            tasks.append((i, j, threading.get_ident()))
            if both:
                both.wait()
            body(i, j, buf)

        return in_stripes(task, lo, hi, rows, scratch, own)

    monkeypatch.setattr(linalg, "_catch_up", recording_catch_up)
    monkeypatch.setattr(linalg, "_in_stripes", recording_in_stripes)
    a = np.random.default_rng(15).integers(0, P, size=(120, 120))
    assert rank_dense(a, P) == division_free_rank(a, P) == 120
    assert [(r1, own) for _, r1, own, _ in catch_ups if r1] == [(40, False), (40, True),
                                                                (80, False)]
    for (m, w), r1, own, loops in catch_ups:
        if not r1:
            assert [loop[:3] for loop in loops] == [(0, m, own)]
            continue
        assert [loop[:3] for loop in loops] == [(0, w, False), (r1, m, own)]
        blocks = loops[0][3]
        assert sorted((i, j) for i, j, _ in blocks) == [(0, 20), (20, 40)]
        assert len({thread for _, _, thread in blocks}) == 2


# both primes take the row-op loop, where an entry absorbs 131071 and 2
# unreduced rank-1 updates: at 2^31 - 1 the trailing block is reduced
# before every other update, and one more update would wrap int64
@settings(max_examples=200, deadline=None)
@given(_kernel_cases([8388617, 2**31 - 1]))
def test_rowops_large_prime_against_oracle(case):
    a, p = case
    rank = division_free_rank(a, p)
    assert rank_dense(a, p) == rank
    red, pivots = rref(a, p)
    assert len(pivots) == rank and ((red >= 0) & (red < p)).all()
    for i, j in enumerate(pivots):
        assert red[i, j] == 1 and np.count_nonzero(red[:, j]) == 1
        assert not red[i, :j].any()


@pytest.mark.parametrize("shape", [(30, 40), (200, 300)])  # row-op, blocked
def test_rank_leaves_input_untouched(shape):
    rng = np.random.default_rng(10)
    base = rng.integers(-3 * P, 3 * P, size=shape)
    inputs = [base, (base % 50000).astype(np.int32), (base % 60000).astype(np.uint16),
              (base % 256).astype(np.uint8), base.astype(object)]
    for a in inputs:
        before = a.tobytes()
        rank_dense(a, P)
        rref(a, P)
        assert a.tobytes() == before
    nested = base.tolist()
    kept = copy.deepcopy(nested)
    assert rank_dense(nested, P) == rank_dense(base, P)
    assert nested == kept


@pytest.mark.parametrize("p, gather, threads, shape", [
    pytest.param(P, False, 1, (2000, 2000), id=str(P)),
    pytest.param(4194301, False, 1, (2000, 2000), id="4194301"),
    pytest.param(P, True, 1, (2000, 2000), id="gather"),
    pytest.param(P, False, 2, (2000, 2000), id=f"{P}-split"),
    pytest.param(P, True, 2, (2000, 2000), id="gather-split"),
    pytest.param(P, False, 2, (3000, 800), id="tall"),
    pytest.param(P, False, 2, (800, 3000), id="wide"),
])
def test_rank_memory_triangle_and_panels(monkeypatch, p, gather, threads, shape):
    # beyond the input the kernel holds the store of multipliers, at most
    # k(k+1)/2 + 128 k cells for short side k, the L^{-1} of every panel
    # (k x B cells in all for panel width B) and two k x B panels, all in
    # the store's narrow dtype; in float64 the k x 16 leaf being factored,
    # the stripe buffers (2^18 cells), the conversion blocks beyond them
    # (at most 3 x 2^17 cells, and no more than one 256-row band of
    # min(k, chunk) pivots) and the L^{-1} of the panel being factored;
    # and one stripe budget (2^17 cells) each of the input as loaded, in
    # int64, and of gathered multipliers and other temporaries, shared by
    # the threads.  No copy of the matrix, so a tall matrix costs what its
    # transpose does, and neither a float64 store nor float64 panels fit,
    # except float64 panels at p = 4194301, whose panels are 32 wide
    monkeypatch.setattr(linalg, "_cpus", lambda: threads)
    a = np.random.default_rng(0).integers(0, p, size=shape)
    k = min(shape)
    peaks, grown = [], []  # the peak before each panel, the growth within it
    if gather:
        # a zero column in every leaf, so a leaf's catch-up gathers the
        # panel's multiplier columns.  An unstriped gather (up to 2000 x 225
        # cells in panel 0) hardly moves the whole rank's peak, which comes
        # when every panel's L^{-1} is held, but on one thread the panel
        # alone may grow the traced memory by its L^{-1} and one stripe
        # budget of multipliers, with one more for columns and other
        # temporaries
        a[:, 5::16] = 0
        eliminate = linalg._eliminate_panel

        def panel(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = eliminate(*args)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(linalg, "_eliminate_panel", panel)
    b = linalg._block(p)
    narrow = np.min_scalar_type(p - 1).itemsize * (k * (k + 1) // 2 + 128 * k + 3 * b * k)
    conv = min(3 * 2**17, 256 * min(k, linalg._chunk(p)))
    bound = narrow + 8 * (16 * k + 2**18 + conv + b * b + 2 * 2**17)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert rank_dense(a, p) == (k - k // 16 if gather else k)
        peak = max(peaks + [tracemalloc.get_traced_memory()[1]]) - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    if gather and threads == 1:
        assert max(grown) <= 8 * (256**2 + 2 * 2**17), grown


def test_kernel_identity_empty():
    red, pivots = rref(np.eye(4, dtype=np.int64), P)
    assert pivots == [0, 1, 2, 3]
    assert null_space(red, pivots, P).shape == (0, 4)


def test_kernel_zero_matrix_full():
    red, pivots = rref(np.zeros((3, 3), dtype=np.int64), P)
    assert pivots == [] and red.shape == (0, 3)
    assert rank_dense(null_space(red, pivots, P), P) == 3


def test_kernel_of_injective_multiplication():
    # multiplication by x from degree 2 to degree 3 is injective: the map
    # matrix of the 1 x 1 matrix of linear forms (x) has full column rank
    block = build_map_matrix(np.array([[[1, 0, 0]]], dtype=np.int64), 2)
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
        null = null_space(red, pivots, P)
        assert len(null) == n - rank_dense(a, P)
        assert not ((a @ null.T) % P).any()


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


def gauss_jordan(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Oracle: textbook Gauss-Jordan on Python integers; returns the nonzero
    rows of the reduced row-echelon form, which is unique, and its pivots."""
    a = [[v % p for v in row] for row in rows]
    n = len(a[0]) if a else 0
    pivots: list[int] = []
    for j in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][j]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][j], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(j)
    return a[: len(pivots)], pivots


@st.composite
def _rref_cases(draw):
    """Matrices up to 12 x 30 or 30 x 12, with zero rows and columns,
    duplicated rows and deficient rank."""
    p = draw(st.sampled_from([3, 7, 32003, 2**31 - 1]))
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=30))
    if draw(st.booleans()):
        m, n = n, m                         # tall
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "low_rank", "zero_lines", "duplicates", "zero"]))
    if kind == "low_rank":
        a = low_rank(rng, m, n, int(rng.integers(1, min(m, n) + 1)), p)
    else:
        a = rng.integers(0, p, size=(m, n))
    if kind == "zero_lines":
        a[rng.random(m) < 0.3] = 0
        a[:, rng.random(n) < 0.3] = 0
    elif kind == "duplicates":
        a[rng.integers(0, m, size=m // 2)] = a[0]
    elif kind == "zero":
        a[:] = 0
    return a, p


@settings(max_examples=300, deadline=None)
@given(_rref_cases())
def test_rref_matches_gauss_jordan_oracle(case):
    a, p = case
    want, want_pivots = gauss_jordan(a.tolist(), p)
    red, pivots = rref(a, p)
    assert pivots == want_pivots
    assert red.tolist() == want


@settings(max_examples=300, deadline=None)
@given(_rref_cases())
def test_null_space_of_rref(case):
    # one row per free column, each annihilating a, reduced, and the free
    # columns hold an identity
    a, p = case
    red, pivots = rref(a, p)
    null = null_space(red, pivots, p)
    free = [j for j in range(a.shape[1]) if j not in pivots]
    assert null.shape == (a.shape[1] - rank_dense(a, p), a.shape[1])
    assert ((null >= 0) & (null < p)).all()
    assert (null[:, free] == np.eye(len(free), dtype=np.int64)).all()
    assert not matmul_mod(a, null.T, p).any()


def test_matrix_container_validation():
    # rank_dense takes any integer 2-d array and reduces it mod p first
    with pytest.raises(ValueError):
        rank_dense(np.arange(6), P)  # not 2-d
    assert rank_dense(np.array([[-P, 2 * P], [P, 0]]), P) == 0
    assert rank_dense(np.array([[-1, P + 3]]), P) == 1


# matmul_mod's int64 chunk of the inner dimension is 8 at 1073741789 and 2
# at 2^31 - 1 (131071 at 8388617 and 2047 at 67108879), so inner lengths up
# to 9 cross it; entries drawn from the top of [0, p) make every term near
# (p - 1)^2.  The 3-d left operand is _pivot_pencil's layout
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([7, P, 8388617, 67108879, 1073741789, 2**31 - 1]),
       st.integers(1, 9), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_matmul_mod_against_python_ints(p, k, three_d, top, seed):
    rng = np.random.default_rng(seed)
    low = max(0, p - 1000) if top else 0
    a = rng.integers(low, p, size=(2, 3, k) if three_d else (4, k))
    b = rng.integers(low, p, size=(k, 5))
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
            for row in a.reshape(-1, k).tolist()]
    out = matmul_mod(a, b, p)
    assert out.shape == a.shape[:-1] + (5,)
    assert out.reshape(-1, 5).tolist() == want


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
