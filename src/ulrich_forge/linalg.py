"""Exact rank, row reduction and modular products over F_p.

This is the computational workhorse: every cohomology dimension in the
package reduces to the rank of an explicit matrix over F_p.  Matrices are
plain numpy arrays; the modulus is passed alongside.

The dense elimination is blocked, with delayed reduction in float64 (the
FFLAS-FFPACK design), and left-looking: columns catch up with the pivots
they have not yet seen just before they are eliminated.  The matrix, or
its transpose when that has fewer rows, so k rows for short side k, is
eliminated one panel of up to 256 columns at a time.  A panel is read from
the caller's array only when its turn comes, reduced mod p, with its rows
in the current row order, into a column-major buffer.  It then catches up
with every earlier panel: that panel's pivot rows by forward substitution
through its L^{-1} (they subtract their multipliers times the u of the
panels before, and u = L^{-1} times the result is left in their place),
the rows below all the pivots by one GEMM, their stored multipliers times
all of u.  The panel is then eliminated one 16-column leaf at a time: the
leaf catches up with the panel's earlier pivots and is reduced mod p;
each of its columns then takes one GEMV with the leaf's own earlier pivots
and is reduced, in int64, before its pivot search.  Multipliers are kept
in the eliminated positions, and each pivot appends a row to the panel's
unit-lower inverse L^{-1}, its part left of the leaf after the leaf.  A
factored panel keeps only its L^{-1}; its multipliers below its pivots,
L21, go to the store, where row i holds its multiplier for pivot t in
column t.  No row has more pivots above it than rows, so the store keeps
rows in bands of 256, band [s, s + 256) as one array of s + 255 columns:
at most k(k+1)/2 + 128 k cells.  One array per band, not one k x k array
written below its diagonal: numpy advises huge pages for large arrays,
and the untouched triangle of such an array would be committed anyway,
2 MiB at a time.  A panel's row swaps apply to the stored rows, to the
order in which later panels are read and to the next panel, already read.

Every array the blocked path keeps from one step to the next holds
residues in [0, p) in residue_dtype(p), the narrowest unsigned type that
holds p - 1 (uint16 at p = 32003, uint32 up to the blocked path's
p - 1 <= 2^23): the store, the finished L^{-1}s and both panels.  float64
lives in per-thread scratch only: each thread's pair of stripe buffers
and conversion block, and a k x 16 leaf for the thread that factors the
panel.  A piece of a panel (a stripe of rows, a column block of pivot
rows, a leaf) is widened into it, takes its GEMMs, is reduced and is
written back narrow.  A GEMM's narrow operands, multipliers and rows of
u, or an L^{-1}, are converted, exactly, into the conversion block one run
of pivots at a time, side by side, each in the layout it is read in: 384
pivots of a 256-row stripe on two threads at 4000^2.  The block is what
the widened piece leaves of the thread's second stripe buffer and up to
three more, allocated only in a rank with a second panel: all threads'
together no more cells than one 256-row band of min(k, chunk) pivots, at
most 256 k.  A single panel reads no store, so it stays float64, and
every widening or conversion of it is the panel itself.

The float path is exact because no magnitude exceeds 2^52 (the narrow
copies hold the same residues, so nothing here depends on them).  The
panel width B satisfies 8 B (p - 1)^2 <= 2^52, and every product is taken
of reduced factors in [0, p), so t terms add at most t (p - 1)^2: at most
S = B (p - 1)^2 for u, a row of L^{-1}, a GEMV (at most 15 terms), a leaf
GEMM and the catch-up with one panel.  The catch-up with all earlier
panels takes their pivots in chunks of (2^52 - p) // (p - 1)^2 - 2B,
reducing its rows between chunks: one chunk of 4.4 million pivots at
p = 32003, 47 pivots at p = 2^23 + 1.  Every catch-up reduces what it
updated before writing it back.  Moduli too large for an 8-column block
(p - 1 > 2^23) go to a row-op elimination in int64, where a rank-1 update
of reduced factors adds at most (p - 1)^2, so the trailing block is
reduced only every (2^63 - p) // (p - 1)^2 updates (8.9e9 at p = 32003,
2 at 2^31 - 1).  That loop also takes every shape whose elimination
updates at most 1024 (5 + k/L) trailing cells per pivot, on average
k(3L - k)/6 for short side k and long side L: there the blocked path's
per-column overhead costs more than it saves.

The blocked path holds the caller's input and, narrow, two panels, the
store and the finished L^{-1}s: for a 4000 x 4000 matrix 4 MB of panels
(16 MB in float64), 17 MB of store (68 MB in float64, where the float64
copy of the matrix took 128 MB) and 2 MB of L^{-1}s.  Every other buffer
is per-thread scratch, a row, a block of at most one stripe, or the
L^{-1} of the panel being factored (at most 256 x 256, float64).
A matrix of at most 2^20 cells is eliminated on the calling thread alone.
A larger one gets T threads, the CPUs of the process's affinity mask,
which share the 2^17-cell (1 MiB) stripe budget: each buffer holds
2^17 // T cells.  Loops run through _in_stripes, which hands the stripes
of a range of rows or of columns, and a panel run alongside them as one
more task, to at most T threads taking stripes from one queue, and joins
them (numpy drops the GIL in BLAS and ufuncs).  A catch-up is two such
joins.  First the pivot rows of the earlier panels are solved in column
blocks, ceil(w / T) of the panel's w columns each, one per thread, as
forward substitution is independent per column.  Then the rows below the
pivots take their GEMMs with all of u in row stripes (256 rows of a
256-column panel for two threads).  Panels are factored on the calling
thread with a look-ahead of depth one.  All threads first catch the panel
up with the last panel's pivots, storing that panel's L21 as they go.
Then the next panel is caught up with every panel before this one: every
thread, the caller too, solves a column block of its pivot rows, and
after that join the caller factors the panel while the helper threads
read the next panel's rows below the pivots and catch them up; the caller
takes the stripes that are left after the panel.  The panel swaps rows
only in its own buffer meanwhile, and writes nothing the helpers read;
after the join its swaps are applied to the store's columns left of it
and to the next panel, whose rows the helpers read in the old order: the
catch-up updates each row by itself, so the two orders give the same
rows.  Tasks cover disjoint rows or disjoint columns, and every product
is exact, so every value, hence every pivot and the rank, is the same for
every T.

``matmul_mod`` is the one integer matrix product mod p: it splits the
inner dimension so that no int64 partial sum overflows for any p < 2^31.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from .field import inverse_mod

# Unreduced magnitudes are capped at 2^52: x / p then rounds to less than
# 1/p from its exact value, nearer than any integer it is not, so q =
# floor(x / p) is exact, as are q*p and the residue x - q*p.
_FLOAT_EXACT = 2**52
_DEFAULT_BLOCK = 256
_PANEL_LEAF = 16
# The row-op loop takes a k x L shape (k the short side) whose elimination
# updates at most _ROWOPS_MAX_AREA (5 + k/L) trailing cells per pivot, on
# average k(3L - k)/6.  Measured at p = 32003 on one core against the
# left-looking blocked path: break-even near 5100-5300 for thin shapes
# (20 x 500, 32 x 300 and 81 x 150 faster by row ops, 16 x 700, 64 x 200 and
# 48 x 256 blocked) and near 6150 for squares (132 x 132 row ops, 136 x 136
# blocked); a single row goes blocked past 10240 entries.
_ROWOPS_MAX_AREA = 1024
# Cells in the stripe buffers of the blocked path (1 MiB), shared by all the
# threads of one rank: one 256-row band of a 256-column panel for each buffer
# of two threads.
_STRIPE_CELLS = 2**17
# A matrix of at most this many cells is eliminated on the calling thread
# alone: on two CPUs, threads made 512^2 to 1024^2 ranks 10-38% slower.
_INLINE_CELLS = 2**20


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_stripes(body: Callable[[int, int, np.ndarray], None], lo: int, hi: int, rows: int,
                scratch: np.ndarray, own: Callable[[], Any] | None = None) -> Any:
    """Call body(i, j, buf) on the stripes [i, j), rows long (the last one
    shorter), that tile [lo, hi): rows of a matrix, or its columns; then,
    or meanwhile, run own() if given and return its result.

    scratch[t] holds thread t's stripe buffers, the caller's first, and
    each stripe gets its thread's as buf.  T = min(stripes + 1 if own else
    stripes, len(scratch)) threads take the stripes from one queue.  With
    T = 1 the caller runs them all and then own().  Otherwise T - 1 helper
    threads start at once, and the caller runs own() first and then takes
    the stripes that are left.  After an exception no stripe is started;
    all threads are joined before the first exception any of them raised
    is re-raised here, and before any result is returned."""
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
    """The first cells of a stripe buffer as a column-major array of this
    shape, the layout of a panel, or a new one where they do not fit (a
    single row wider than the buffer)."""
    size = math.prod(shape)
    return (flat[:size] if size <= flat.size else np.empty(size)).reshape(shape[::-1]).T


def _residues(a: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """a mod p, exactly for |a| <= 2^52, computed in out (which is not a)
    and returned.  a is only read, so a strided piece costs few passes."""
    q = np.divide(a, p, out=out)
    np.floor(q, out=q)
    q *= p
    return np.subtract(a, q, out=q)


def _block(p: int) -> int:
    """Panel width of the blocked path: at most _DEFAULT_BLOCK, with
    8 B (p - 1)^2 <= 2^52."""
    return min(_DEFAULT_BLOCK, _FLOAT_EXACT // (8 * (p - 1) ** 2))


def _chunk(p: int) -> int:
    """Pivots per catch-up GEMM between reductions: from entries in [0, p)
    they leave room for 2 S more under 2^52."""
    return (_FLOAT_EXACT - p) // (p - 1) ** 2 - 2 * _block(p)


def residue_dtype(p: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every residue mod p:
    uint8 up to p = 256, uint16 up to 2^16, uint32 up to 2^32."""
    return np.min_scalar_type(p - 1)


def rank_dense(a: np.ndarray, p: int) -> int:
    """Rank over F_p by blocked, left-looking Gaussian elimination with
    delayed reduction; the input is never modified.

    The matrix, or its transpose when that has fewer rows, is eliminated
    one panel at a time, k rows for short side k.  A panel is read from a
    only when its turn comes, with its rows in the current order, and has
    already caught up with every panel but the last when it is factored:
    all threads solved its pivot rows for those panels, and then the
    helper threads caught up its rows below while the caller factored the
    last panel.  All threads then catch it up with the last panel, storing
    that panel's multipliers below its pivots; all of them solve the next
    panel's pivot rows, and the caller factors the panel while the helpers
    catch up the next panel's rows below.  After that join the panel's
    row swaps are applied to the store, to the row order and to the next
    panel.  Beyond the input the kernel holds, in residue_dtype(p), the
    store, at most k(k+1)/2 + 128 k cells, the L^{-1} of every panel
    (k x 256 cells in all) and two k x 256 panels; in float64, a pair of
    stripe buffers per thread (2^18 cells in all) and, when there is a
    second panel, up to three more per thread (at most 3 x 2^17 and
    256 k cells in all) and a k x 16 leaf.  Pieces of a panel are widened
    into these, and narrow operands converted beside them, before each
    GEMM, and every piece is written back reduced.  With a single panel
    that panel is float64 and every widening a view.  Every product is of
    float64 residues, exact under the 2^52 bound.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("rank_dense expects a 2-d array")
    m, n = a.shape
    k, long_side = min(m, n), max(m, n)
    block = _block(p)
    if block < 8 or k * (3 * long_side - k) * long_side <= (
            6 * _ROWOPS_MAX_AREA * (5 * long_side + k)):
        w = np.array(a, dtype=np.int64)
        w %= p
        return len(_row_echelon(w, p))
    t = a if m <= n else a.T  # the matrix eliminated, k rows
    m, n = k, long_side
    # two panel buffers, no wider than the matrix, narrow if a second panel
    # will read the store; in float64 each thread's pair of stripe buffers,
    # no more cells than the matrix, and with a second panel up to three
    # more per thread, all threads' together no more cells than the largest
    # piece a catch-up converts (_DEFAULT_BLOCK rows by min(k, chunk)
    # pivots), and the leaf being factored
    threads = 1 if m * n <= _INLINE_CELLS else _cpus()
    cells = max(1, min(m * n // 2, _STRIPE_CELLS // threads))
    dtype = residue_dtype(p)
    extra = min(3, _DEFAULT_BLOCK * min(m, _chunk(p)) // (threads * cells)) if n > block else 0
    panels = np.empty(m * min(n, 2 * block), dtype if n > block else np.float64)
    scratch = np.empty((threads, 2 + extra, cells))
    leaf = np.empty(m * _PANEL_LEAF if n > block else 0)
    store = _Multipliers(m, _DEFAULT_BLOCK, dtype)
    order = np.arange(m)

    def panel(c0: int) -> tuple[np.ndarray, Callable[..., None]]:
        """The column-major buffer of the panel at column c0, and its loader
        of rows [i, j), columns [x0, x1), into out."""
        w = min(block, n - c0)
        b = panels[(c0 // block) % 2 * m * block :][: m * w].reshape(w, m).T

        def load(i: int, j: int, x0: int, x1: int, out: np.ndarray) -> None:
            x = t[order[i:j], c0 + x0 : c0 + x1]
            # int64 % p divides in hardware: skip it for integers in [0, p)
            if x.dtype.kind not in "ui" or x.size and (x.min() < 0 or x.max() >= p):
                x = np.asarray(x, dtype=np.int64) % p
            out[...] = x

        return b, load

    b, load = panel(0)
    _catch_up(b, p, store.rows, [], scratch, load=load)
    done: list[tuple[int, np.ndarray]] = []  # (first pivot row, L^{-1}) per panel
    last: tuple[np.ndarray, list[int]] | None = None  # done[-1]'s buffer and pivots
    r = c = 0
    while r < m and c < n:
        w = b.shape[1]
        if last:  # at most B pivots, one GEMM: put stores all of them at once
            _catch_up(b, p, partial(store.put, *last), done[-1:], scratch)
        eliminate = partial(_eliminate_panel, b, p, r, scratch[:1], leaf)
        nxt = None
        if c + w < n:
            nxt, load = panel(c + w)
            piv, linv, swaps = _catch_up(nxt, p, store.rows, done, scratch, own=eliminate,
                                         load=load)
        else:
            piv, linv, swaps = eliminate()
        if nxt is not None:  # after the last panel no row is read again
            for x, y in swaps:  # rows below r, swapped in b already
                order[[x, y]] = order[[y, x]]
                store.swap(x, y, r)
                nxt[[x, y]] = nxt[[y, x]]
        last = (b, piv) if piv else None
        if piv:
            done.append((r, linv.astype(dtype)))
            r += len(piv)
        c += w
        b = nxt
    return r


class _Multipliers:
    """The multipliers below the pivots of every factored panel: row i, in
    the current row order, holds its multiplier for pivot t in column t.
    No row has more pivots above it than rows, so the rows are kept in bands
    of h, band [s, s + h) as one array of min(s + h, m) - 1 columns: at
    most k(k+1)/2 + k h/2 cells for k rows."""

    def __init__(self, m: int, h: int, dtype: np.dtype) -> None:
        self.h = h
        self.bands = [np.empty((min(h, m - s), min(s + h, m) - 1), dtype)
                      for s in range(0, m, h)]

    def rows(self, i: int, j: int, c0: int, c1: int) -> list[tuple[int, int, np.ndarray]]:
        """Rows [i, j), columns [c0, c1): (first row, end row, view), one
        per band the rows cross."""
        h, out = self.h, []
        while i < j:
            e = min(j, i - i % h + h)
            out.append((i, e, self.bands[i // h][i % h : i % h + e - i, c0:c1]))
            i = e
        return out

    def put(self, b: np.ndarray, piv: list[int], i: int, j: int, c0: int, c1: int
            ) -> list[tuple[int, int, np.ndarray]]:
        """Keep rows [i, j) of panel b's multipliers, its columns piv, as
        pivots [c0, c1), and return them as rows() does, but read from b."""
        out = []
        for s, e, cells in self.rows(i, j, c0, c1):
            cells[...] = l = _gather(b[s:e], piv)
            out.append((s, e, l))
        return out

    def swap(self, x: int, y: int, cols: int) -> None:
        """Swap rows x and y in columns [0, cols)."""
        h = self.h
        rx, ry = self.bands[x // h][x % h, :cols], self.bands[y // h][y % h, :cols]
        rx[...], ry[...] = ry.copy(), rx.copy()


def _eliminate_panel(a: np.ndarray, p: int, r: int, scratch: np.ndarray, leaf: np.ndarray
                     ) -> tuple[list[int], np.ndarray, list[tuple[int, int]]]:
    """Eliminate panel a below row r in place, left-looking, from entries
    in [0, p).  Returns the pivot columns, the inverse mod p of the pivots'
    unit lower triangle L, and the row swaps, in order, which it made in a.

    The panel is factored one leaf of _PANEL_LEAF columns at a time, its
    rows below r widened into leaf by _widen (a view of a float64 panel).
    The leaf takes the panel's earlier pivots by _catch_up on scratch, the
    caller's stripe pair, which leaves it reduced; each of its columns
    then takes a GEMV with the leaf's own earlier pivots, is reduced, and
    is searched for a pivot.  Multipliers are kept in the eliminated
    positions.  A pivot appends the row -(l L^{-1}) mod p to the leaf's
    block of L^{-1}, l its row's multipliers, and after the leaf its rows
    left of that block are -L^{-1}_BB L_BA L^{-1}_AA.  Row swaps apply to
    the leaf and to a's other columns, and the leaf is written back.  The
    elimination never updates a pivot row; _catch_up reads its stale
    values once, through L^{-1}, and leaves u in their place.
    """
    a = a[r:]
    m, w = a.shape
    pf = float(p)
    piv: list[int] = []
    swaps: list[tuple[int, int]] = []
    linv = np.zeros((min(w, m), min(w, m)))

    def multipliers(i: int, j: int, c0: int, c1: int) -> list[tuple[int, int, np.ndarray]]:
        return [(i, j, _gather(a[i:j], piv[c0:c1]))]

    for j0 in range(0, w, _PANEL_LEAF):
        j1, t0 = min(w, j0 + _PANEL_LEAF), len(piv)
        f = _widen(a[:, j0:j1], leaf)[0]
        local: list[int] = []  # the leaf's pivot columns, as columns of f
        if t0:
            _catch_up(f, p, multipliers, [(0, linv[:t0, :t0])], scratch)
        for j in range(j0, j1) if f[t0:].any() else ():  # a zero leaf has no pivot
            t = len(piv)
            col = f[t:, j - j0]
            if local:  # up to date with the leaf's own pivots
                v = linv[t0:t, t0:t] @ f[t0:t, j - j0] % pf
                col = col - _gather(f[t:], local) @ v
            col = col.astype(np.int64) % p  # exact: every |entry| <= 2^52
            i = int((col != 0).argmax())  # the first nonzero, if any
            if not col[i]:
                continue
            inv = inverse_mod(int(col[i]), p)
            if i:
                for part in (a[:, :j0], f, a[:, j1:]):
                    part[[t, t + i]] = part[[t + i, t]]
                swaps.append((r + t, r + t + i))
                col[i] = col[0]
            f[t + 1 :, j - j0] = col[1:] * inv % p
            if local:
                linv[t, t0:t] = -(_gather(f[t], local) @ linv[t0:t, t0:t]) % pf
            linv[t, t] = 1.0
            piv.append(j)
            local.append(j - j0)
            if t + 1 == m:
                break
        a[:, j0:j1] = f
        if t0 and local:  # the leaf's rows of L^{-1} left of its block
            x = _gather(a[t0 : len(piv)], piv[:t0]) @ linv[:t0, :t0] % pf
            linv[t0 : len(piv), :t0] = -(linv[t0 : len(piv), t0 : len(piv)] @ x) % pf
        if len(piv) == m:
            break
    return piv, linv[: len(piv), : len(piv)], swaps


def _widen(a: np.ndarray, flat: np.ndarray, fill: Callable[[np.ndarray], None] | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """a as float64, to work on and write back, and the cells of flat left
    free: a itself where it is float64, else the first cells of flat as a
    column-major array (a new one where they do not fit), filled by
    fill(out) if given, else with a's entries."""
    out, rest = (a, flat) if a.dtype == np.float64 else (_buffer(flat, *a.shape), flat[a.size :])
    if fill:
        fill(out)
    elif out is not a:
        out[...] = a
    return out, rest


def _float_runs(conv: np.ndarray, *parts: tuple[np.ndarray, int]) -> Iterator[tuple[Any, ...]]:
    """(offset, run, ...) tuples of float64 runs that tile each part, an
    (array, axis) pair, along axis 0 (rows) or 1 (columns), all parts of
    the same length: a part itself where it is float64, else runs of as
    many rows or columns as fit, beside the other parts' runs, in the flat
    conversion block conv, each converted into it in the part's own layout
    (into a new array where not even one fits)."""
    n = parts[0][0].shape[parts[0][1]]
    cells = sum(x.size // n for x, _ in parts if x.dtype != np.float64)
    step = max(1, conv.size // cells) if cells else n
    for x0 in range(0, n, step):
        runs, free = [], conv
        for x, axis in parts:
            run = x[x0 : x0 + step] if axis == 0 else x[:, x0 : x0 + step]
            if run.dtype != np.float64:
                out = free[: run.size] if run.size <= free.size else np.empty(run.size)
                free = free[out.size :]
                out = out.reshape(run.shape, order="F" if run.strides[0] < run.strides[1] else "C")
                out[...] = run
                run = out
            runs.append(run)
        yield x0, *runs


def _gather(a: np.ndarray, cols: list[int]) -> np.ndarray:
    """Columns cols (increasing, on the last axis) of a: a view when they
    are consecutive, else a copy of just those columns (np.take would first
    copy all of a, a strided slice of a panel)."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return a[..., cols[0] : cols[-1] + 1]
    return a[..., cols]


def _catch_up(b: np.ndarray, p: int, l21: Callable[..., list[tuple[int, int, np.ndarray]]],
              pivots: list[tuple[int, np.ndarray]], scratch: np.ndarray,
              own: Callable[[], Any] | None = None,
              load: Callable[..., None] | None = None) -> Any:
    """Bring the rows of b up to date with pivots, the (first row, L^{-1})
    of panels whose pivot rows r0..r1 follow each other, in two joins of
    _in_stripes, and return the result of own, run beside the second.

    l21(i, j, c0, c1) gives the multipliers of rows [i, j) for pivots
    [c0, c1) as (first row, end row, matrix) pieces, copied where they are
    not consecutive columns of one array (the last panel's pivots), so a
    stripe is sized for them too.  Every piece of b is widened by _widen
    into its thread's conversion block, every buffer but the first, which
    takes the products; there it takes its GEMMs, from runs of pivots by
    _float_runs, each run's multipliers and rows of u converted beside the
    rest of the block where narrow, one GEMM per band and run.  The piece
    is then reduced and written back, so b holds residues before and after.
    load(i, j, x0, x1, out), if given, fills out with rows [i, j), columns
    [x0, x1) of b as read.  The first join solves the pivot rows panel by
    panel in column blocks, ceil(w / T) wide for T = len(scratch), so one
    per thread, as the columns are independent: the panel's rows subtract
    their multipliers times the u of the panels before, and u = L^{-1}
    times the result reduced mod p is left in their place.  The second
    takes the rows below r1 in stripes, each of which subtracts its
    multipliers times all of u, per chunk of pivots, reduced between
    chunks.  Without pivots the stripes are only loaded.  With helper
    threads the caller runs own() in the second join, after it has solved
    a column block in the first.
    """
    m, w = b.shape
    pf = float(p)
    r0 = pivots[0][0] if pivots else 0
    r1 = pivots[-1][0] + len(pivots[-1][1]) if pivots else 0
    chunk = _chunk(p)

    def subtract(c: np.ndarray, u: np.ndarray, i: int, c0: int, c1: int, buf: np.ndarray,
                 conv: np.ndarray) -> None:
        """c, rows [i, i + len(c)) of b widened, minus their multipliers for
        pivots [c0, c1) times rows [c0, c1) of u."""
        for d0 in range(c0, c1, chunk):
            d1 = min(c1, d0 + chunk)
            if d0 > c0:
                c[...] = _residues(c, pf, _buffer(buf[0], *c.shape))
            pieces = l21(i, i + len(c), d0, d1)
            for _, g, *fs in _float_runs(conv, (u[d0:d1], 0), *((l, 1) for _, _, l in pieces)):
                for (s, e, _), f in zip(pieces, fs):
                    c[s - i : e - i] -= np.matmul(f, g, out=_buffer(buf[0], e - s, c.shape[1]))

    def solve(x0: int, x1: int, buf: np.ndarray) -> None:
        for r, linv in pivots:
            k = len(linv)
            c, conv = _widen(b[r : r + k, x0:x1], buf[1:].reshape(-1),
                             load and partial(load, r, r + k, x0, x1))
            subtract(c, b[:, x0:x1], r, r0, r, buf, conv)
            x = _residues(c, pf, _buffer(buf[0], *c.shape))
            for t, f in _float_runs(conv, (linv, 0)):
                np.matmul(f, x, out=c[t : t + len(f)])
            b[r : r + k, x0:x1] = _residues(c, pf, _buffer(buf[0], *c.shape))

    def stripe(i: int, j: int, buf: np.ndarray) -> None:
        if not pivots:
            return load(i, j, 0, w, b[i:j])
        c, conv = _widen(b[i:j], buf[1:].reshape(-1), load and partial(load, i, j, 0, w))
        subtract(c, b, i, r0, r1, buf, conv)
        b[i:j] = _residues(c, pf, _buffer(buf[0], *c.shape))

    if pivots:
        _in_stripes(solve, 0, w, -(-w // len(scratch)), scratch)
    # stripes whose products, and the last panel's multipliers, fit a buffer
    cols = max(w, len(pivots[-1][1]) if pivots else 0)
    return _in_stripes(stripe, r1, m, max(1, scratch.shape[2] // cols), scratch, own)


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
