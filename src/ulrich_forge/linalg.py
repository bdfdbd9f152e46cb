"""Exact rank, row reduction and modular products over F_p.

This is the computational workhorse: every cohomology dimension in the
package reduces to the rank of an explicit matrix over F_p.  Matrices are
plain numpy arrays; the modulus is passed alongside.

The dense elimination is blocked, with delayed reduction in float64 (the
FFLAS-FFPACK design).  A panel of up to 256 columns is eliminated
left-looking, one 16-column leaf at a time.  The leaf is brought up to
date with the panel's earlier pivots by one GEMM pair (u = L^{-1} times
the pivot rows, then the rows below minus L21 u) and reduced mod p; each
of its columns then takes one GEMV with the leaf's own earlier pivots and
is reduced, in int64, before its pivot search.  Multipliers are stored in
the eliminated positions, and each pivot appends its row -(l L^{-1}) mod p
to the panel's running unit-lower inverse L^{-1}.  The panel hands L^{-1}
to the trailing update, the same GEMM pair over every later column.

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

The blocked path holds the caller's input and one float64 working copy.
Every other buffer is a row stripe, at most one leaf (16 columns) wide,
or the panel's L^{-1} (at most 256 x 256), whatever the size of the
matrix; non-consecutive multiplier columns are gathered one row stripe at
a time.  Its three row-stripe loops (the float64 fill, the update of
_apply_pivots and the reduction of _reduce_inplace) run through
_in_stripes: a loop of one 2^20-cell stripe runs inline, a longer one is
split over T = min(stripes, CPUs of the process's affinity mask) threads
(numpy drops the GIL in BLAS and ufuncs), and the T threads share the one
2^20-cell (8 MiB) budget, each taking stripes of 2^20 // T cells.  The
stripes cover disjoint rows and the multiplier columns they read lie left
of the columns they update, so every float operation, and the rank, is
the same for every T.

``matmul_mod`` is the one integer matrix product mod p: it splits the
inner dimension so that no int64 partial sum overflows for any p < 2^31.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

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
# Cells in the row stripes of the blocked path's temporaries (8 MiB), shared
# by all the threads of one stripe loop.
_STRIPE_CELLS = 2**20


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_stripes(body: Callable[[int, int], None], lo: int, hi: int, cols: int) -> None:
    """Call body(i, j) on row stripes [i, j) that tile rows [lo, hi), cols wide.

    Rows that fit in one stripe of _STRIPE_CELLS cells go to one inline
    call.  Otherwise T = min(stripes, _cpus()) threads, the caller one of
    them, share that budget: thread t takes every T-th stripe of
    _STRIPE_CELLS // T cells from the t-th on, and all are joined before
    the first exception any of them raised is re-raised here."""
    rows = max(1, _STRIPE_CELLS // cols)
    if hi - lo <= rows:
        body(lo, hi)
        return
    threads = min(-(-(hi - lo) // rows), _cpus())
    rows = max(1, _STRIPE_CELLS // threads // cols)
    starts = range(lo, hi, rows)
    errors: list[BaseException] = []

    def work(t: int) -> None:
        try:
            for i in starts[t::threads]:
                body(i, min(i + rows, hi))
        except BaseException as exc:
            errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for t in range(1, threads):
            helper = threading.Thread(target=work, args=(t,))
            helper.start()
            helpers.append(helper)
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _reduce_inplace(a: np.ndarray, p: float) -> None:
    """Exact in-place reduction of an integral float64 matrix (|x| <= 2^52)
    to [0, p), in row stripes."""
    _in_stripes(lambda i, j: _reduce_rows(a[i:j], p), 0, len(a), a.shape[1])


def _reduce_rows(a: np.ndarray, p: float) -> None:
    """_reduce_inplace on one row stripe."""
    q = a * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    a -= q
    np.add(a, p, out=a, where=a < 0)
    np.subtract(a, p, out=a, where=a >= p)


def rank_dense(a: np.ndarray, p: int) -> int:
    """Rank over F_p by blocked Gaussian elimination with delayed reduction.

    The working matrix is one float64 copy holding exact integers, filled
    in row stripes; the input is never modified.  Each panel is eliminated
    leaf by leaf and its pivots are applied to the trailing submatrix, which
    accumulates GEMM updates unreduced until the 2^52 exactness budget
    would be exceeded.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("rank_dense expects a 2-d array")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    max_block = _FLOAT_EXACT // (8 * (p - 1) ** 2)
    k, long_side = min(m, n), max(m, n)
    if max_block < 8 or k * (3 * long_side - k) <= 6 * _ROWOPS_MAX_AREA:
        w = np.array(a, dtype=np.int64)
        w %= p
        return len(_row_echelon(w, p))
    block = int(min(_DEFAULT_BLOCK, max_block))
    step_growth = block * (p - 1) ** 2  # max magnitude added per block step
    w = np.empty((m, n))

    def fill(i: int, j: int) -> None:
        w[i:j] = np.asarray(a[i:j], dtype=np.int64) % p

    _in_stripes(fill, 0, m, n)
    r = c = rank = 0
    slack = float(_FLOAT_EXACT)  # remaining unreduced-accumulation budget
    pf = float(p)
    while r < m and c < n:
        cb = min(block, n - c)
        piv_cols, linv = _eliminate_panel(w, p, r, c, cb)
        k = len(piv_cols)
        rank += k
        if k and c + cb < n and r + k < m:
            if slack < 2 * step_growth + p:
                _reduce_inplace(w[r:m, c + cb : n], pf)
                slack = float(_FLOAT_EXACT)
            _apply_pivots(w, p, r, piv_cols, linv, c + cb, n)
            slack -= step_growth
        r += k
        c += cb
    return rank


def _eliminate_panel(a: np.ndarray, p: int, r: int, c: int,
                     cb: int) -> tuple[list[int], np.ndarray]:
    """Eliminate columns c..c+cb below row r in place, left-looking, from
    entries of magnitude at most 2^52 - S.  Returns the pivot columns and
    the inverse mod p of the pivots' unit lower triangle L.

    Multipliers are stored in the eliminated positions.  Each leaf of
    _PANEL_LEAF columns takes the panel's earlier pivots (_apply_pivots)
    and is reduced; each of its columns then takes a GEMV with the leaf's
    own earlier pivots, is reduced, and is searched for a pivot.  A pivot
    appends the row -(l L^{-1}) mod p and a unit diagonal to L^{-1}, where
    l holds its row's stored multipliers.  Pivot rows are never updated
    in place; their stale values are read only through L^{-1}.
    """
    m = a.shape[0]
    pf = float(p)
    piv: list[int] = []
    linv = np.zeros((min(cb, m - r), min(cb, m - r)))
    for j0 in range(c, c + cb, _PANEL_LEAF):
        j1, t0 = min(c + cb, j0 + _PANEL_LEAF), len(piv)
        if t0:
            _apply_pivots(a, p, r, piv, linv[:t0, :t0], j0, j1)
        _reduce_inplace(a[r + t0 : m, j0:j1], pf)
        for j in range(j0, j1):
            t = len(piv)
            rr = r + t
            col = a[rr:m, j]
            if t > t0:  # up to date with the leaf's own pivots
                v = linv[t0:t, t0:t] @ a[r + t0 : rr, j] % pf
                col = col - a[rr:m, _columns(piv[t0:])] @ v
            col = col.astype(np.int64) % p  # exact: every |entry| <= 2^52
            i = int((col != 0).argmax())  # the first nonzero, if any
            if not col[i]:
                continue
            inv = inverse_mod(int(col[i]), p)
            if i:
                a[[rr, rr + i], :] = a[[rr + i, rr], :]
                col[i] = col[0]
            a[rr + 1 : m, j] = col[1:] * inv % p
            if t:
                linv[t, :t] = -(a[rr, _columns(piv)] @ linv[:t, :t]) % pf
            linv[t, t] = 1.0
            piv.append(j)
            if rr + 1 == m:
                return piv, linv
    return piv, linv[: len(piv), : len(piv)]


def _columns(cols: list[int]) -> slice | list[int]:
    """Index for columns cols (increasing): a slice, so a view, when they
    are consecutive, else the list itself, so a gather."""
    return slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] == len(cols) - 1 else cols


def _apply_pivots(a: np.ndarray, p: int, r: int, piv_cols: list[int],
                  linv: np.ndarray, s0: int, s1: int) -> None:
    """Apply the k pivots of rows r..r+k (multipliers stored at piv_cols,
    unit lower triangle inverted in linv) to columns [s0, s1) of every row
    below row r+k; the result is left unreduced.

    Pivot rows are forward-substituted transiently, L^{-1} u in one GEMM;
    their stale stored values in these columns are never read again.  The
    update runs within column blocks whose k final pivot rows fit in one
    stripe, in row stripes sized so that the stripe's k multiplier columns
    (gathered when not consecutive) and its product each fit in one."""
    m = a.shape[0]
    k = len(piv_cols)
    pf = float(p)
    sel = _columns(piv_cols)
    width = max(1, _STRIPE_CELLS // k)
    for c0 in range(s0, s1, width):
        c1 = min(s1, c0 + width)
        u = a[r : r + k, c0:c1].copy()
        _reduce_inplace(u, pf)
        u = linv @ u
        _reduce_inplace(u, pf)

        def update(i: int, j: int) -> None:
            a[i:j, c0:c1] -= a[i:j, sel] @ u

        _in_stripes(update, r + k, m, max(k, c1 - c0))


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
        if r == m:
            break
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


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact for int64 operands with entries in [0, p).

    One product term is at most (p-1)^2, so the inner dimension is cut into
    chunks whose partial sums, plus the running residue, stay below 2^63.
    For p = 32003 that is a single chunk.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    chunk = (2**63 - p) // (p - 1) ** 2
    k = a.shape[-1]
    if k <= chunk:
        return (a @ b) % p
    out = (a[..., :chunk] @ b[:chunk]) % p
    for s in range(chunk, k, chunk):
        out = (out + a[..., s : s + chunk] @ b[s : s + chunk]) % p
    return out
