"""Exact rank, row reduction and modular products over F_p.

This is the computational workhorse: every cohomology dimension in the
package reduces to the rank of an explicit matrix over F_p.  Matrices are
plain numpy arrays; the modulus is passed alongside.

The dense elimination is blocked.  A panel of columns is eliminated with
immediate reduction; the accumulated multipliers are then applied to the
trailing submatrix by float64 GEMMs.  The float path is exact because no
magnitude exceeds 2^52: panel slabs and pivot rows are kept reduced, and
the trailing submatrix accumulates GEMM updates unreduced until the next
one could pass that cap, when it is reduced mod p once.  Moduli too large
for an 8-column block under the cap, with room to spare (p - 1 > 2^23), go
to a plain row-op elimination (immediate reduction, still exact).  It also
takes every shape whose elimination updates at most 9216 trailing cells
per pivot, on average k(3L - k)/6 for short side k and long side L: there
the blocked path's per-column overhead costs more than it saves.  That
covers squares up to 166 x 166 and every matrix of at most 18432 cells.

The blocked path holds the caller's input and one float64 working copy.
Every other buffer is a row stripe of at most 2^20 cells (8 MiB) or at
most one panel leaf (16 columns) wide, whatever the size of the matrix.

``matmul_mod`` is the one integer matrix product mod p: it splits the
inner dimension so that no int64 partial sum overflows for any p < 2^31.
"""

from __future__ import annotations

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
# near 9000 for thin shapes (24 x 768, 48 x 384) and near 12000-13000 for
# squares (190 x 190 to 200 x 200).
_ROWOPS_MAX_AREA = 9216
# Cells in one row stripe of the blocked path's temporaries (8 MiB).
_STRIPE_CELLS = 2**20


def _stripe_rows(a: np.ndarray) -> int:
    """Rows of a (non-empty) per stripe of at most _STRIPE_CELLS cells, at
    least one."""
    return max(1, _STRIPE_CELLS // (a.size // len(a)))


def _reduce_inplace(a: np.ndarray, p: float) -> None:
    """Exact in-place reduction of integral float64 values (|x| <= 2^52)
    to [0, p); larger than one stripe, it goes one row stripe at a time."""
    if len(a) > 1 and a.size > _STRIPE_CELLS:
        rows = _stripe_rows(a)
        for i in range(0, len(a), rows):
            _reduce_inplace(a[i : i + rows], p)
        return
    q = a * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    a -= q
    np.add(a, p, out=a, where=a < 0)
    np.subtract(a, p, out=a, where=a >= p)


def rank_dense(a: np.ndarray, p: int) -> int:
    """Rank over F_p by blocked Gaussian elimination with delayed reduction.

    The working matrix is one float64 copy holding exact integers, filled
    in row stripes; the input is never modified.  Panel slabs and pivot
    rows are kept reduced; the trailing submatrix accumulates GEMM updates
    unreduced until the 2^52 exactness budget would be exceeded.
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
    rows = _stripe_rows(w)
    for i in range(0, m, rows):
        w[i : i + rows] = np.asarray(a[i : i + rows], dtype=np.int64) % p
    r = c = rank = 0
    slack = float(_FLOAT_EXACT)  # remaining unreduced-accumulation budget
    pf = float(p)
    while r < m and c < n:
        cb = min(block, n - c)
        _reduce_inplace(w[r:m, c : c + cb], pf)
        piv_cols = _eliminate_panel(w, p, r, c, cb)
        k = len(piv_cols)
        rank += k
        if k and c + cb < n and r + k < m:
            if slack < 2 * step_growth + p:
                _reduce_inplace(w[r:m, c + cb : n], pf)
                slack = float(_FLOAT_EXACT)
            _apply_pivots(w, p, r, np.asarray(piv_cols), c + cb, n, reduce_out=False)
            slack -= step_growth
        r += k
        c += cb
    return rank


def _eliminate_panel(a: np.ndarray, p: int, r: int, c: int, cb: int) -> list[int]:
    """Eliminate columns c..c+cb below row r in place; multipliers are stored
    in the eliminated positions.  Returns the pivot column indices.

    Recursive: the left half is eliminated, its pivots are applied to the
    right half by GEMM, then the right half is eliminated.  The slab must
    enter reduced to [0, p).
    """
    m = a.shape[0]
    if r >= m:
        return []
    if cb <= _PANEL_LEAF:
        return _eliminate_panel_leaf(a, p, r, c, cb)
    half = cb // 2
    piv1 = _eliminate_panel(a, p, r, c, half)
    k1 = len(piv1)
    if k1 and r + k1 < m:
        _apply_pivots(a, p, r, np.asarray(piv1), c + half, c + cb, reduce_out=True)
    piv2 = _eliminate_panel(a, p, r + k1, c + half, cb - half)
    return piv1 + piv2


def _eliminate_panel_leaf(a: np.ndarray, p: int, r: int, c: int, cb: int) -> list[int]:
    """Unblocked elimination of a narrow slab.  Only the current column, the
    multipliers and the pivot-row segment are kept reduced; other slab
    entries accumulate at most p + cb*p^2 < 2^52, re-reduced on demand."""
    m = a.shape[0]
    pf = float(p)
    piv_cols: list[int] = []
    rr = r
    for j in range(c, c + cb):
        col = a[rr:m, j]
        _reduce_inplace(col, pf)
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        pr = rr + int(nz[0])
        if pr != rr:
            a[[rr, pr], :] = a[[pr, rr], :]
        inv = float(inverse_mod(int(a[rr, j]), p))
        if rr + 1 < m:
            f = a[rr + 1 : m, j] * inv
            _reduce_inplace(f, pf)
            a[rr + 1 : m, j] = f
            if j + 1 < c + cb:
                seg = a[rr, j + 1 : c + cb]
                _reduce_inplace(seg, pf)
                a[rr + 1 : m, j + 1 : c + cb] -= f[:, None] * seg
        piv_cols.append(j)
        rr += 1
        if rr == m:
            break
    return piv_cols


def _apply_pivots(a: np.ndarray, p: int, r: int, piv_cols: np.ndarray,
                  s0: int, s1: int, reduce_out: bool) -> None:
    """Apply the pivots of rows r..r+k (multipliers stored at piv_cols) to
    columns [s0, s1) of every row below row r+k.

    Pivot rows are forward-substituted transiently; their stale stored
    values are never read again.  The update runs in row stripes, within
    column blocks whose k final pivot rows fit in one stripe.  With
    reduce_out each stripe is reduced to [0, p) (required wherever a later
    panel elimination will read it)."""
    m = a.shape[0]
    k = len(piv_cols)
    pf = float(p)
    linv = _unit_lower_inverse(a[r : r + k, piv_cols], p) if k > 1 else None
    width = max(1, _STRIPE_CELLS // k)
    for c0 in range(s0, s1, width):
        c1 = min(s1, c0 + width)
        u = a[r : r + k, c0:c1].copy()
        _reduce_inplace(u, pf)
        if linv is not None:
            u = linv @ u  # the final pivot rows L11^{-1} u, one GEMM
            _reduce_inplace(u, pf)
        rows = _stripe_rows(u)
        for i in range(r + k, m, rows):
            tgt = a[i : i + rows, c0:c1]
            tgt -= a[i : i + rows, piv_cols] @ u
            if reduce_out:
                _reduce_inplace(tgt, pf)


def _unit_lower_inverse(l: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit lower-triangular matrix whose strictly
    lower part is stored in l (diagonal and upper entries are ignored)."""
    k = l.shape[0]
    pf = float(p)
    x = np.eye(k)
    for i in range(1, k):
        s = l[i, :i] @ x[:i, :i]
        _reduce_inplace(s, pf)
        np.subtract(pf, s, out=s, where=s > 0)
        x[i, :i] = s
    return x


def _row_echelon(a: np.ndarray, p: int) -> list[int]:
    """In-place forward elimination of entries in [0, p), any p < 2^31, with
    immediate reduction; returns the pivot columns, and the first
    len(pivots) rows are then in echelon form.  The rank path for large p
    and small or thin matrices, and rref's forward pass."""
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for j in range(n):
        nz = np.flatnonzero(a[r:m, j])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], :] = a[[pr, r], :]
        inv = inverse_mod(int(a[r, j]), p)
        if r + 1 < m:
            # entries lie in [0, p), so sub - t stays above -2^63
            f = a[r + 1 : m, j] * inv % p
            sub, t = a[r + 1 : m, j:], f[:, None] * a[r, j:]
            np.remainder(np.subtract(sub, t, out=t), p, out=sub)
        pivots.append(j)
        r += 1
        if r == m:
            break
    return pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p; returns (R, pivot column list).
    After the forward pass each pivot row, last first, is scaled to a
    leading 1 and cleared from the rows above it."""
    a = np.array(a, dtype=np.int64)
    a %= p
    pivots = _row_echelon(a, p)
    for i in reversed(range(len(pivots))):
        j = pivots[i]
        a[i, j:] = a[i, j:] * inverse_mod(int(a[i, j]), p) % p
        rows = np.flatnonzero(a[:i, j])
        if rows.size:
            a[rows, j:] = (a[rows, j:] - a[rows, j, None] * a[i, j:]) % p
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
