"""Exact rank, row reduction and modular products over F_p.

This is the computational workhorse: every cohomology dimension in the
package reduces to the rank of an explicit matrix over F_p.  Matrices are
plain numpy arrays; the modulus is passed alongside.

The dense elimination is blocked, with delayed reduction in float64 (the
FFLAS-FFPACK design), and left-looking by one rule: columns catch up with
the pivots they have not yet seen, by one GEMM pair (u = L^{-1} times the
pivot rows, then the rows below minus L21 u), before they are eliminated.
A panel of up to 256 columns is eliminated one 16-column leaf at a time:
the leaf catches up with the panel's earlier pivots and is reduced mod p;
each of its columns then takes one GEMV with the leaf's own earlier pivots
and is reduced, in int64, before its pivot search.  Multipliers are stored
in the eliminated positions; each pivot appends its row -(l L^{-1}) mod p
to the panel's unit-lower inverse L^{-1}, which later columns catch up by.

The float path is exact because no magnitude exceeds 2^52.  The block B
satisfies 8 B (p - 1)^2 <= 2^52, and every product is taken of reduced
factors in [0, p) with at most B terms, so it adds at most
S = B (p - 1)^2: u, a row of L^{-1}, a GEMV (at most 15 terms) and a leaf
GEMM.  The trailing submatrix accumulates updates unreduced and is reduced
mod p once, before an update, when fewer than 2S + p of the 2^52 budget
are left; after every update each entry is thus at most 2^52 - S, room
for the leaf GEMM that precedes the leaf's reduction.  Moduli too large
for an 8-column block (p - 1 > 2^23) go to a row-op elimination in int64,
where a rank-1 update of reduced factors adds at most (p - 1)^2, so the
trailing block is reduced only every (2^63 - p) // (p - 1)^2 updates
(8.9e9 at p = 32003, 2 at 2^31 - 1).  That loop also takes every shape
whose elimination updates at most 6144 trailing cells per pivot, on
average k(3L - k)/6 for short side k and long side L: there the blocked
path's per-column overhead costs more than it saves.  That covers squares
up to 135 x 135 and every matrix of at most 12288 cells.

The blocked path holds the caller's input, one float64 working copy and
one pair of stripe buffers per thread, allocated once per rank; every
other buffer is a single row, a block at most one leaf (16 columns) wide,
or a panel's L^{-1} (at most 256 x 256), whatever the size of the matrix.
Non-consecutive multiplier columns are gathered into one buffer of the
pair and each stripe's products go into the other, so helper threads
allocate no stripe of their own; u needs no buffer, as it overwrites its
pivot rows in place.  A matrix of at most 2^20 cells is eliminated on the
calling thread alone.  A larger one gets T threads, the CPUs of the
process's affinity mask, which share the 2^20-cell (8 MiB) stripe budget:
each buffer holds 2^20 // T cells.  Stripe loops (the float64 fill, the
update of _apply_pivots, the reduction of _reduce_inplace) run through
_in_stripes, which hands the stripes, and a panel run alongside them as
one more task, to at most T threads taking stripes from one queue (numpy
drops the GIL in BLAS and ufuncs); a lone stripe with no panel runs
inline.  Panels are factored on the calling thread with a look-ahead of
depth one: a panel first catches up with the last panel's pivots on its
own columns, then leaf by leaf with its own, while the helper threads
apply the last panel's pivots to the columns right of it; the caller then
takes the stripes that are left.  A panel swaps rows only within its own
columns, so no row moves under the concurrent update; its swaps are
replayed on the columns right of it after the join, and the columns left
of it, dead multipliers, are never swapped.  The stripes cover disjoint
rows, the catch-up and the update disjoint columns, the multiplier columns
they read lie left of the columns they update, and every product is exact,
so every value, hence every pivot and the rank, is the same for every T.

``matmul_mod`` is the one integer matrix product mod p: it splits the
inner dimension so that no int64 partial sum overflows for any p < 2^31.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial
from typing import Any, Callable

import numpy as np

from .field import inverse_mod

# Unreduced magnitudes are capped at 2^52, not 2^53: the quotient estimate
# q = floor(x * (1/p)) is then off by at most one and q*p is still exactly
# representable, so one branchless correction restores the true residue.
_FLOAT_EXACT = 2**52
_DEFAULT_BLOCK = 256
_PANEL_LEAF = 16
# Mean trailing cells updated per pivot, k(3L - k)/6, up to which the row-op
# loop beats the blocked path.  Measured at p = 32003 on one core: break-even
# near 6000 for thin shapes (180 x 81, 32 x 400, 24 x 520) and near 7500-8000
# for squares (150 x 150 to 155 x 155).
_ROWOPS_MAX_AREA = 6144
# Cells in the stripe buffers of the blocked path (8 MiB), shared by all the
# threads of one rank.
_STRIPE_CELLS = 2**20


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_stripes(body: Callable[[int, int, np.ndarray], None], lo: int, hi: int, cols: int,
                scratch: np.ndarray, own: Callable[[], Any] | None = None) -> Any:
    """Call body(i, j, buf) on row stripes [i, j) that tile rows [lo, hi),
    cols wide; then, or meanwhile, run own() if given and return its result.

    scratch holds one pair of stripe buffers per thread, the caller's
    first, each of scratch.shape[2] cells; a stripe has as many rows as
    fit in one buffer (at least one) and gets its thread's pair as buf.
    T = min(stripes + 1 if own else stripes, len(scratch)) threads take
    the stripes from one queue.  With T = 1 the caller runs them all and
    then own().  Otherwise T - 1 helper threads start at once, and the
    caller runs own() first and then takes the stripes that are left.
    After an exception no stripe is started; all threads are joined before
    the first exception any of them raised is re-raised here."""
    rows = max(1, scratch.shape[2] // cols)
    threads = min(-(-(hi - lo) // rows) + (own is not None), len(scratch))
    if threads <= 1:
        for i in range(lo, hi, rows):
            body(i, min(i + rows, hi), scratch[0])
        return own() if own else None
    starts = iter(range(lo, hi, rows))
    lock = threading.Lock()
    done: list[Any] = []
    errors: list[BaseException] = []

    def work(t: int, first: Callable[[], Any] | None = None) -> None:
        try:
            if first is not None:
                done.append(first())
            while not errors:
                with lock:
                    i = next(starts, None)
                if i is None:
                    return
                body(i, min(i + rows, hi), scratch[t])
        except BaseException as exc:
            errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for t in range(1, threads):
            helper = threading.Thread(target=work, args=(t,))
            helper.start()
            helpers.append(helper)
        work(0, own)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return done[0] if done else None


def _buffer(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The first cells of a stripe buffer as an array of this shape, or a
    new array where they do not fit (a single row wider than the buffer)."""
    size = math.prod(shape)
    return flat[:size].reshape(shape) if size <= flat.size else np.empty(shape)


def _reduce_inplace(a: np.ndarray, p: float, scratch: np.ndarray) -> None:
    """Exact in-place reduction of an integral float64 matrix (|x| <= 2^52)
    to [0, p), in row stripes."""

    def reduce(i: int, j: int, buf: np.ndarray) -> None:
        a[i:j] = _residues(a[i:j], p, _buffer(buf[0], j - i, a.shape[1]))

    _in_stripes(reduce, 0, len(a), a.shape[1], scratch)


def _residues(a: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """a mod p, exactly, computed in out (which is not a) and returned.  a
    is only read, so a strided leaf of a few columns costs few passes."""
    q = np.multiply(a, 1.0 / p, out=out)
    np.floor(q, out=q)
    q *= p
    np.subtract(a, q, out=q)
    np.add(q, p, out=q, where=q < 0)
    np.subtract(q, p, out=q, where=q >= p)
    return q


def rank_dense(a: np.ndarray, p: int) -> int:
    """Rank over F_p by blocked Gaussian elimination with delayed reduction.

    The working matrix is one float64 copy holding exact integers, filled
    in row stripes; the input is never modified.  Each panel is eliminated
    leaf by leaf on the calling thread, and its pivots are applied to the
    trailing submatrix, which accumulates GEMM updates unreduced until the
    2^52 exactness budget would be exceeded.  The next panel applies them
    to its own columns before its first leaf, while the helper threads
    apply them to the columns right of it: one update call per panel.  The
    last panel has no columns right of it and runs alone.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("rank_dense expects a 2-d array")
    m, n = a.shape
    max_block = _FLOAT_EXACT // (8 * (p - 1) ** 2)
    k, long_side = min(m, n), max(m, n)
    if max_block < 8 or k * (3 * long_side - k) <= 6 * _ROWOPS_MAX_AREA:
        w = np.array(a, dtype=np.int64)
        w %= p
        return len(_row_echelon(w, p))
    block = int(min(_DEFAULT_BLOCK, max_block))
    step_growth = block * (p - 1) ** 2  # max magnitude added per block step
    # the working copy and each thread's pair of stripe buffers, in one
    # allocation that the allocator can reuse from one rank to the next; a
    # pair holds no more cells than the matrix
    threads = 1 if m * n <= _STRIPE_CELLS else _cpus()
    cells = max(1, min(m * n // 2, _STRIPE_CELLS // threads))
    mem = np.empty(m * n + threads * 2 * cells)
    w = mem[: m * n].reshape(m, n)
    scratch = mem[m * n :].reshape(threads, 2, cells)

    def fill(i: int, j: int, buf: np.ndarray) -> None:
        np.remainder(np.asarray(a[i:j], dtype=np.int64), p, out=w[i:j])

    _in_stripes(fill, 0, m, n, scratch)
    r = c = 0
    slack = float(_FLOAT_EXACT)  # remaining unreduced-accumulation budget
    pf = float(p)
    lead: tuple[int, list[int], np.ndarray] | None = None  # the last panel
    while r < m and c < n:
        cb = min(block, n - c)
        panel = partial(_eliminate_panel, w, p, r, c, cb, scratch[:1], lead)
        piv, linv, swaps = (_apply_pivots(w, p, *lead, c + cb, n, scratch, own=panel)
                            if lead and c + cb < n else panel())
        if c + cb < n:  # the panel swapped rows in its own columns only
            for x, y in swaps:
                w[[x, y], c + cb :] = w[[y, x], c + cb :]
        k = len(piv)
        lead = None
        if k and c + cb < n and r + k < m:
            if slack < 2 * step_growth + p:
                _reduce_inplace(w[r:m, c + cb : n], pf, scratch)
                slack = float(_FLOAT_EXACT)
            slack -= step_growth
            lead = (r, piv, linv)
        r += k
        c += cb
    return r


def _eliminate_panel(a: np.ndarray, p: int, r: int, c: int, cb: int, scratch: np.ndarray,
                     lead: tuple[int, list[int], np.ndarray] | None
                     ) -> tuple[list[int], np.ndarray, list[tuple[int, int]]]:
    """Eliminate columns c..c+cb below row r in place, left-looking, from
    entries of magnitude at most 2^52 - S once up to date.  Returns the
    pivot columns, the inverse mod p of the pivots' unit lower triangle L,
    and the row swaps, in order, which it made in these columns only.

    These columns first take lead, the last panel's (r, pivot columns,
    L^{-1}), by _apply_pivots on scratch, the caller's stripe pair.  Then
    each leaf of _PANEL_LEAF columns takes the panel's earlier pivots alike
    and is reduced; each of its columns then takes a GEMV with the leaf's
    own earlier pivots, is reduced, and is searched for a pivot.  A pivot
    appends the row -(l L^{-1}) mod p and a unit diagonal to L^{-1}, where
    l holds its row's stored multipliers, kept in the eliminated positions.
    The elimination never updates a pivot row; _apply_pivots reads its
    stale values once, through L^{-1}, and leaves u in their place.
    """
    m = a.shape[0]
    pf = float(p)
    piv: list[int] = []
    swaps: list[tuple[int, int]] = []
    linv = np.zeros((min(cb, m - r), min(cb, m - r)))
    buf = scratch[0, 0]  # free once a leaf is up to date
    if lead:
        _apply_pivots(a, p, *lead, c, c + cb, scratch)
    for j0 in range(c, c + cb, _PANEL_LEAF):
        j1, t0 = min(c + cb, j0 + _PANEL_LEAF), len(piv)
        if t0:
            _apply_pivots(a, p, r, piv, linv[:t0, :t0], j0, j1, scratch)
        _reduce_inplace(a[r + t0 : m, j0:j1], pf, scratch)
        for j in range(j0, j1):
            t = len(piv)
            rr = r + t
            col = a[rr:m, j]
            if t > t0:  # up to date with the leaf's own pivots
                v = linv[t0:t, t0:t] @ a[r + t0 : rr, j] % pf
                col = col - _gather(a[rr:m], piv[t0:], buf) @ v
            col = col.astype(np.int64) % p  # exact: every |entry| <= 2^52
            i = int((col != 0).argmax())  # the first nonzero, if any
            if not col[i]:
                continue
            inv = inverse_mod(int(col[i]), p)
            if i:
                a[[rr, rr + i], c : c + cb] = a[[rr + i, rr], c : c + cb]
                swaps.append((rr, rr + i))
                col[i] = col[0]
            a[rr + 1 : m, j] = col[1:] * inv % p
            if t:
                linv[t, :t] = -(_gather(a[rr], piv, buf) @ linv[:t, :t]) % pf
            linv[t, t] = 1.0
            piv.append(j)
            if rr + 1 == m:
                return piv, linv, swaps
    return piv, linv[: len(piv), : len(piv)], swaps


def _gather(a: np.ndarray, cols: list[int], buf: np.ndarray) -> np.ndarray:
    """Columns cols (increasing, on the last axis) of a: a view when they
    are consecutive, else a copy in buf."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return a[..., cols[0] : cols[-1] + 1]
    return np.take(a, cols, axis=-1, out=_buffer(buf, *a.shape[:-1], len(cols)), mode="clip")


def _apply_pivots(a: np.ndarray, p: int, r: int, piv_cols: list[int], linv: np.ndarray,
                  s0: int, s1: int, scratch: np.ndarray,
                  own: Callable[[], Any] | None = None) -> Any:
    """Apply the k pivots of rows r..r+k (multipliers L21 stored at
    piv_cols, unit lower triangle inverted in linv) to the non-empty
    column range [s0, s1) of every row below row r+k, through _in_stripes
    with own, and return own's result; the update is left unreduced.

    The first stripe forward-substitutes the pivot rows in place, one
    column block at a time, u = L^{-1} times their values reduced mod p,
    then reduced again, while the other threads wait for it: every stripe
    then reads u there, and nothing reads those stored values again.  Each
    row stripe then gathers its multiplier columns once, into its first
    buffer when they are not consecutive, and takes one GEMM per column
    block into its second; stripe rows and block width are sized so that
    both fit."""
    k = len(piv_cols)
    pf = float(p)
    width = max(1, scratch.shape[2] // k)
    blocks = range(s0, s1, width)
    lock = threading.Lock()
    solved = False

    def update(i: int, j: int, buf: np.ndarray) -> None:
        nonlocal solved
        with lock:
            if not solved:
                for c0 in blocks:
                    u = a[r : r + k, c0 : min(s1, c0 + width)]
                    x, y = _buffer(buf[0], *u.shape), _buffer(buf[1], *u.shape)
                    np.copyto(x, u)
                    np.matmul(linv, _residues(x, pf, y), out=x)
                    u[...] = _residues(x, pf, y)
                solved = True
        l21 = _gather(a[i:j], piv_cols, buf[0])
        for c0 in blocks:
            c1 = min(s1, c0 + width)
            a[i:j, c0:c1] -= np.matmul(l21, a[r : r + k, c0:c1],
                                       out=_buffer(buf[1], j - i, c1 - c0))

    return _in_stripes(update, r + k, a.shape[0], max(k, min(width, s1 - s0)), scratch, own)


def _row_echelon(a: np.ndarray, p: int) -> list[int]:
    """In-place forward elimination of int64 entries in [0, p), any p < 2^31,
    with delayed reduction; returns the pivot columns, and the first
    len(pivots) rows are then in echelon form, reduced, with zeros left of
    each pivot.  The rank path for large p and small or thin matrices, and
    rref's forward pass.  Each pivot reduces its column and its whole row, so
    the rank-1 update subtracts products of reduced factors; the trailing
    block is reduced only before an update that could pass -2^63."""
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    limit = (2**63 - p) // (p - 1) ** 2
    for j in range(n):
        if r == m:
            break
        col = a[r:m, j]
        col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], :] = a[[pr, r], :]
        a[r] %= p
        if r + 1 < m:
            if r and r % limit == 0:  # limit updates since the last reduction
                a[r + 1 : m, j:] %= p
            f = col[1:] * inverse_mod(int(col[0]), p) % p
            a[r + 1 : m, j:] -= f[:, None] * a[r, j:]
        pivots.append(j)
        r += 1
    return pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p; returns (R, pivot column list).
    After the forward pass each pivot row, last first, is scaled to a
    leading 1 and cleared from the rows above it, on slices: every factor
    is reduced, so no magnitude passes (p - 1)^2 + p < 2^63."""
    a = np.array(a, dtype=np.int64)
    a %= p
    pivots = _row_echelon(a, p)
    for i in reversed(range(len(pivots))):
        j = pivots[i]
        a[i, j:] = a[i, j:] * inverse_mod(int(a[i, j]), p) % p
        a[:i, j:] -= a[:i, j, None] * a[i, j:]
        a[:i, j:] %= p
    return a[: len(pivots)], pivots


def null_space(reduced: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """The null space of rref's (R, pivots): one row per free column f, with
    1 at f, 0 at the other free columns and -R[:, f] mod p at the pivots."""
    free = np.flatnonzero(np.bincount(pivots, minlength=reduced.shape[1]) == 0)
    null = np.zeros((free.size, reduced.shape[1]), dtype=np.int64)
    null[np.arange(free.size), free] = 1
    null[:, pivots] = -reduced[:, free].T % p
    return null


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact for int64 operands with entries in [0, p).

    One product term is at most (p-1)^2, so the inner dimension is cut into
    chunks whose partial sums, plus the running residue, stay below 2^63.
    For p = 32003 that is a single chunk.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    chunk = (2**63 - p) // (p - 1) ** 2
    out = (a[..., :chunk] @ b[:chunk]) % p
    for s in range(chunk, a.shape[-1], chunk):
        out = (out + a[..., s : s + chunk] @ b[s : s + chunk]) % p
    return out
