"""Exact rank, row reduction and modular products over F_p.

This is the computational workhorse: every cohomology dimension in the
package reduces to the rank of an explicit matrix over F_p.  Matrices are
plain numpy arrays; the modulus is passed alongside.

The dense elimination is blocked.  A panel of columns is eliminated with
immediate reduction; the accumulated multipliers are then applied to the
trailing submatrix with one float64 GEMM per block.  The float path is
exact because block * (p-1)^2 < 2^53, and entries are re-reduced mod p
after every update.  For moduli too large for that bound a plain row-op
elimination (immediate reduction, still exact) takes over; it also takes
matrices of at most 4096 cells, where the blocked setup costs more than it
saves.

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
# Below this many cells the row-op loop beats the blocked path's setup
# (square break-even lies between 128x128 and 160x160 at p = 32003).
_ROWOPS_MAX_CELLS = 4096


def _reduce_inplace(a: np.ndarray, p: float) -> None:
    """Exact in-place reduction of integral float64 values (|x| <= 2^52)
    to [0, p)."""
    q = a * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    a -= q
    np.add(a, p, out=a, where=a < 0)
    np.subtract(a, p, out=a, where=a >= p)


def rank_dense(a: np.ndarray, p: int, block: int = _DEFAULT_BLOCK) -> int:
    """Rank over F_p by blocked Gaussian elimination with delayed reduction.

    The working matrix is float64 holding exact integers.  Panel slabs and
    pivot rows are kept reduced; the trailing submatrix accumulates GEMM
    updates unreduced until the 2^52 exactness budget would be exceeded.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("rank_dense expects a 2-d array")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0
    max_block = _FLOAT_EXACT // (8 * (p - 1) ** 2)
    if max_block < 8 or m * n <= _ROWOPS_MAX_CELLS:
        w = np.array(a, dtype=np.int64) % p
        return _rank_rowops(w, p)
    block = int(max(8, min(block, max_block)))
    step_growth = block * (p - 1) ** 2  # max magnitude added per block step

    w = (np.asarray(a, dtype=np.int64) % p).astype(np.float64)

    r = 0
    c = 0
    rank = 0
    slack = float(_FLOAT_EXACT)  # remaining unreduced-accumulation budget
    pf = float(p)
    scratch = _GemmScratch()
    while r < m and c < n:
        cb = min(block, n - c)
        _reduce_inplace(w[r:m, c : c + cb], pf)
        piv_cols = _eliminate_panel(w, p, r, c, cb, scratch)
        k = len(piv_cols)
        rank += k
        if k and c + cb < n and r + k < m:
            if slack < 2 * step_growth + p:
                _reduce_inplace(w[r:m, c + cb : n], pf)
                slack = float(_FLOAT_EXACT)
            _apply_pivots(w, p, r, np.asarray(piv_cols), c + cb, n, scratch,
                          reduce_out=False)
            slack -= step_growth
        r += k
        c += cb
    return rank


class _GemmScratch:
    """Reusable buffers for the trailing-update GEMMs (allocation here is
    page-fault bound and would otherwise dominate)."""

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def out(self, name: str, rows: int, cols: int) -> np.ndarray:
        need = rows * cols
        buf = self._bufs.get(name)
        if buf is None or buf.size < need:
            buf = np.empty(max(need, 2 * (0 if buf is None else buf.size)),
                           dtype=np.float64)
            self._bufs[name] = buf
        return buf[:need].reshape(rows, cols)


def _eliminate_panel(a: np.ndarray, p: int, r: int, c: int, cb: int,
                     scratch: "_GemmScratch") -> list[int]:
    """Eliminate columns c..c+cb below row r in place; multipliers are stored
    in the eliminated positions.  Returns the pivot column indices.

    Recursive: the left half is eliminated, its pivots are applied to the
    right half with one GEMM, then the right half is eliminated.  The slab
    must enter reduced to [0, p).
    """
    m = a.shape[0]
    if r >= m:
        return []
    if cb <= _PANEL_LEAF:
        return _eliminate_panel_leaf(a, p, r, c, cb)
    half = cb // 2
    piv1 = _eliminate_panel(a, p, r, c, half, scratch)
    k1 = len(piv1)
    if k1 and r + k1 < m:
        _apply_pivots(a, p, r, np.asarray(piv1), c + half, c + cb, scratch,
                      reduce_out=True)
    piv2 = _eliminate_panel(a, p, r + k1, c + half, cb - half, scratch)
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
                  s0: int, s1: int, scratch: "_GemmScratch", reduce_out: bool) -> None:
    """Apply the pivots of rows r..r+k (multipliers stored at piv_cols) to
    columns [s0, s1) of every row below row r+k.

    Pivot rows are forward-substituted transiently; their stale stored
    values are never read again by the elimination.  With reduce_out the
    target region is reduced to [0, p) (required wherever a later panel
    elimination will read it)."""
    m = a.shape[0]
    k = len(piv_cols)
    pf = float(p)
    l11 = a[r : r + k, piv_cols]  # strictly lower part = multipliers
    l21 = a[r + k : m, piv_cols]
    t = a[r : r + k, s0:s1].copy()
    _reduce_inplace(t, pf)
    if k > 1:
        # final pivot rows u = L11^{-1} t via one GEMM instead of row-by-row
        # forward substitution
        linv = _unit_lower_inverse(l11, p)
        u = np.matmul(linv, t, out=scratch.out("u", k, s1 - s0))
        _reduce_inplace(u, pf)
    else:
        u = t
    tgt = a[r + k : m, s0:s1]
    prod = np.matmul(l21, u, out=scratch.out("prod", m - r - k, s1 - s0))
    tgt -= prod
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


def _rank_rowops(a: np.ndarray, p: int) -> int:
    """Unblocked elimination with immediate reduction (any p < 2^31); the
    path for large p and for tiny matrices."""
    m, n = a.shape
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
            f = a[r + 1 : m, j] * inv % p
            a[r + 1 : m, j:] = (a[r + 1 : m, j:] - f[:, None] * a[r, j:]) % p
        r += 1
        if r == m:
            break
    return r


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p; returns (R, pivot column list)."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for j in range(n):
        if r >= m:
            break
        nz = np.flatnonzero(a[r:m, j])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], :] = a[[pr, r], :]
        a[r, :] = a[r, :] * inverse_mod(int(a[r, j]), p) % p
        col = a[:, j].copy()
        col[r] = 0
        rows = np.flatnonzero(col)
        if rows.size:
            a[rows, :] = (a[rows, :] - col[rows, None] * a[r, :]) % p
        pivots.append(j)
        r += 1
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
