"""Exact sheaf cohomology of presented bundles on the projective plane.

Everything reduces to ranks of explicit multiplication matrices.  For a
presentation 0 -> A -> B -> E -> 0 with A = O(d-2)^a, B = O(d-1)^b and the
map given by a b x a matrix M of linear forms, twisting by m and taking the
long exact sequence leaves only two unknown ranks (line bundles on P^2 have
no middle cohomology):

  h^0(E(m)) = b*h^0(O(d-1+m)) - rank(sigma_m)
  h^1(E(m)) = a*h^2(O(d-2+m)) - rank(mu_m)
  h^2(E(m)) = b*h^2(O(d-1+m)) - rank(mu_m)

sigma_m is the section-level block matrix of M; mu_m is the Serre-dual
model of the induced map H^2(A(m)) -> H^2(B(m)), realized as multiplication
with transposed block layout so that H^2 spaces are never materialized.

Map ranks never need the full matrix that build_map_matrix assembles.
A pivot point lam with rank M(lam) = a is looked for among a fixed list of
points of P^2(F_p), coordinate points first, and memoized on the
presentation.  The substitution (x, y, z) -> G(x, y, z) with G invertible
and lam as its third column is a graded automorphism of F_p[x, y, z], so it
changes no rank, and it makes M(lam) the z-coefficient of M.  Then:

- direct layout (sigma maps): M has full rank at lam, so it is injective
  on forms and the rank is a*dim(n), with no elimination;
- transposed layout (mu maps), N = M^T: scalar row and column
  operations bring the z-coefficient of N to [I | 0].  The first a*dim(n)
  source columns then have the distinct leading terms z*u*e_i, and modulo
  them the target becomes F_p[x, y]_{n+1}^a with z acting as
  T = -(x*X0 + y*Y0).  The other r*dim(n) columns reduce to the monomial
  shifts x^al y^be W_g of W_0 = x*X1 + y*Y1, W_{g+1} = T W_g, and the rank
  is a*dim(n) plus the rank of that a(n+2) x r*dim(n) residue.

Without a pivot point (small p, or M not generically injective) the rank
is that of the full matrix.

Most transposed ranks need no matrix at all.  The transposed map at
degree n is M^T: S_n^b -> S_{n+1}^a, and its cokernel C = coker(M^T) is
generated in degree 0, so C_{n+1} = S_1 C_n.  Once one transposed rank is
full, a*dim(n0+1) at some n0 (C_{n0+1} = 0), every transposed rank at
n >= n0 is a*dim(n+1).  The least such n0 is memoized on the
presentation, and a request past d-2 with no n0 known first ranks the
square residue at n = d-2, r*d(d-1)/2 rows and columns.  h^1(E(-2d)) = 0
is exactly that residue being nonsingular.  Every mu rank the
certifier asks for lies at n < 0 or n >= d-2, so for a valid presentation
that residue is the only transposed rank eliminated.

The dual bundle needs no rank of its own: by Serre duality against
K = O(-3), h^i(E^v(m)) = h^{2-i}(E(-m-3)).  Hom between two
presentations is the dimension of the chain-map space, with Q eliminated
row by row so that one system in R alone is ranked.  End(E) and the
middle column of the cotangent-twist table need no further matrix: they
follow from Hom(E, E) and from rho, the rank of the 3b x a coefficient
matrix of M.

Map ranks are memoized on the presentation object, so they live exactly
as long as the presentation does.
"""

from __future__ import annotations

import numpy as np

from .linalg import matmul_mod, rank_dense, rref
from .poly import dim_forms, shift_tables
from .presentation import UlrichPresentation


def line_h(i: int, n: int) -> int:
    """h^i(O(n)) on the projective plane."""
    if i == 0:
        return dim_forms(n)
    if i == 1:
        return 0
    if i == 2:
        return dim_forms(-n - 3)  # Serre duality against K = O(-3)
    raise ValueError(f"cohomological degree must be 0, 1 or 2, got {i}")


def chi_line(n: int) -> int:
    """Euler characteristic (n+1)(n+2)/2 of O(n), all n."""
    return (n + 1) * (n + 2) // 2


def build_map_matrix(pres: UlrichPresentation, n: int, transpose: bool = False) -> np.ndarray:
    """Block matrix of multiplication by the presentation entries from
    degree-n forms to degree-(n+1) forms.

    Direct layout: block (i, j) = M_ij, mapping component j of a to
    component i of b (the sigma maps).  Transposed layout: block (j, i) =
    M_ij, from b components to a components (the mu maps).
    """
    rows_per = dim_forms(n + 1)
    cols_per = dim_forms(n)
    row_blocks, col_blocks = (pres.a, pres.b) if transpose else (pres.b, pres.a)
    out = np.zeros((row_blocks * rows_per, col_blocks * cols_per), dtype=np.int64)
    if rows_per == 0 or cols_per == 0:
        return out
    sh = shift_tables(n)
    ar = np.arange(cols_per)
    coeffs = pres.coeff_array
    for i in range(pres.b):
        for j in range(pres.a):
            rb, cb = (j, i) if transpose else (i, j)
            base_r = rb * rows_per
            base_c = cb * cols_per
            for v in range(3):
                c = int(coeffs[i, j, v])
                if c:
                    out[base_r + sh[v], base_c + ar] = c
    return out


# Pivot-point candidates, in the order tried: the coordinate points, then
# points of the chart z = 1.  The list is fixed, so no rank depends on a
# random stream.
_PIVOT_POINTS = ((0, 0, 1), (1, 0, 0), (0, 1, 0)) + tuple(
    (i, j, 1) for i in range(1, 4) for j in range(1, 4))


def _mult_rank(pres: UlrichPresentation, n: int, transpose: bool) -> int:
    """Rank of build_map_matrix(pres, n, transpose), memoized on pres."""
    return pres._memoized(("rank", n, transpose),
                          lambda: _slice_rank(pres, n, transpose))


# Memo key of n0, the least degree whose transposed rank was found full.
_ONTO = ("onto",)


def _slice_rank(pres: UlrichPresentation, n: int, transpose: bool) -> int:
    """Rank of build_map_matrix(pres, n, transpose).

    A transposed rank is full, a*dim(n+1), exactly when C_{n+1} = 0 for
    C = coker(M^T).  C_{n+1} = S_1 C_n, so from the first such degree n0
    on every transposed rank is implied.  A request past d-2 with no n0
    known first ranks the square residue at d-2, which is full for every
    valid presentation.
    """
    if n < 0 or pres.a == 0:
        return 0
    onto_rank = pres.a * dim_forms(n + 1)
    if transpose:
        if n > pres.d - 2 and _ONTO not in pres._memo:
            _mult_rank(pres, pres.d - 2, True)
        n0 = pres._memo.get(_ONTO)
        if n0 is not None and n >= n0:
            return onto_rank
    pencil = pres._memoized(("pivot",), lambda: _pivot_pencil(pres))
    if pencil is None:
        rank = rank_dense(build_map_matrix(pres, n, transpose), pres.p)
    else:
        rank = pres.a * dim_forms(n)
        if transpose:
            rank += rank_dense(_residue(pencil, n, pres.p), pres.p)
    if transpose and rank == onto_rank:
        pres._memo[_ONTO] = n      # n < n0 here, or it returned above
    return rank


def _pivot_pencil(pres: UlrichPresentation):
    """N = M^T as [x*X0 + y*Y0 + z*I | x*X1 + y*Y1] after a coordinate
    change and scalar row and column operations; returns (X0, X1, Y0, Y1),
    or None when no point of _PIVOT_POINTS has rank M(point) = a."""
    p, b = pres.p, pres.b
    for point in _PIVOT_POINTS:
        lam = np.array(point, dtype=np.int64) % p
        k = int(np.flatnonzero(lam)[0])
        g = np.eye(3, dtype=np.int64)[:, [v for v in range(3) if v != k]]
        coeffs = matmul_mod(pres.coeff_array, np.column_stack([g, lam]), p)
        # The z block of N is now M(lam)^T; it has full row rank iff every pivot
        # of [z | x | y] lies in it, and then the reduction applies P to all three.
        reduced, pivots = rref(coeffs.transpose(1, 2, 0)[:, [2, 0, 1]].reshape(pres.a, 3 * b), p)
        if sum(j < b for j in pivots) == pres.a:
            break
    else:
        return None
    free = np.setdiff1d(np.arange(b), pivots)
    blocks = []
    for v in (1, 2):
        part = reduced[:, v * b : (v + 1) * b]
        head = part[:, pivots]
        blocks += [head, (part[:, free] - matmul_mod(head, reduced[:, free], p)) % p]
    return tuple(blocks)


def _residue(pencil, n: int, p: int) -> np.ndarray:
    """Images in k[x,y]_{n+1}^a, where z acts as T = -(x*X0 + y*Y0), of the
    last r*dim(n) source columns: the shifts x^al y^be W_g (al + be = n - g)
    of W_0 = x*X1 + y*Y1, W_{g+1} = T W_g.  Rows are (component, power of y).
    Entries lie in [0, p) with p < 2^31, so the matrix is int32."""
    x0, x1, y0, y1 = pencil
    a, r = x1.shape
    t = np.concatenate([x0, y0])
    w = np.stack([x1, y1], axis=1)          # (a, y-power, r)
    out = np.zeros((a, n + 2, r * dim_forms(n)), dtype=np.int32)
    col = 0
    for g in range(n + 1):
        for be in range(n - g + 1):
            out[:, be : be + g + 2, col : col + r] = w
            col += r
        xy = matmul_mod(t, w.reshape(a, -1), p).reshape(2, a, g + 2, r)
        w = np.zeros((a, g + 3, r), dtype=np.int64)
        w[:, : g + 2] -= xy[0]
        w[:, 1:] -= xy[1]
        w %= p
    return out.reshape(a * (n + 2), -1)


def bundle_cohomology(pres: UlrichPresentation, m: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of E(m) for the presented E.

    Valid as sheaf cohomology once the presentation passed the generic-rank
    check; otherwise the numbers describe the cokernel module.
    """
    d = pres.d
    sigma_rank = _mult_rank(pres, d - 2 + m, False)
    mu_rank = _mult_rank(pres, -m - d - 2, True)
    h0 = pres.b * line_h(0, d - 1 + m) - sigma_rank
    h1 = pres.a * line_h(2, d - 2 + m) - mu_rank
    h2 = pres.b * line_h(2, d - 1 + m) - mu_rank
    return h0, h1, h2


# ---------------------------------------------------------------------------
# Dual bundle, endomorphisms, cotangent twists, Hom
# ---------------------------------------------------------------------------


def dual_cohomology(pres: UlrichPresentation, m: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of E^v(m) for a locally free cokernel, by Serre
    duality against K = O(-3): h^i(E^v(m)) = h^{2-i}(E(-m-3))."""
    return bundle_cohomology(pres, -m - 3)[::-1]


def end_cohomology(pres: UlrichPresentation) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of End(E) = E tensor E^v.

    Tensoring the dual resolution with E gives
    0 -> End(E) -> E(1-d)^b -> E(2-d)^a -> 0, and h^1(E(1-d)), h^1(E(2-d)),
    h^2(E(1-d)) all vanish for every two-term presentation, so h^2 = 0 and
    h^0, h^1 are the kernel and cokernel of the section map
    phi: Q |-> Q M from H^0(E(1-d))^b = F_p^{b x b} to
    H^0(E(2-d))^a = (S_1^b / M F_p^a)^a, of dimension a(3b - rho) where rho
    is the rank of the 3b x a coefficient matrix of M.  ker phi is the set
    of Q with Q M = M R for some R: the chain maps of hom_presentations
    minus the a(a - rho) pairs (0, R) with M R = 0, which exist only when
    the coefficient matrix of M is not injective.
    """
    a, b = pres.a, pres.b
    rho = _mult_rank(pres, 0, False)
    h0 = hom_presentations(pres, pres) - a * (a - rho)
    return h0, h0 + a * (3 * b - rho) - b * b, 0


def omega_table(pres: UlrichPresentation) -> list[list[int]]:
    """The 3x3 table h^q(E(1-d) tensor Omega^{-t}(-t)) for t = -2, -1, 0.

    Row q, columns ordered t = -2, -1, 0.  The outer columns are plain
    twists of E (Omega^2(2) = O(-1)).  The middle column comes from the
    Euler sequence tensored with E(2-d): its section map
    H^0(E(1-d))^3 -> H^0(E(2-d)), (s1, s2, s3) |-> x*s1 + y*s2 + z*s3, goes
    from F_p^{3b} onto S_1^b / M F_p^a, since the cokernel module is
    generated in degree 0.  So the column is (rho, 0, 0), rho the rank of
    the 3b x a coefficient matrix of M.
    """
    col_left = bundle_cohomology(pres, -pres.d)
    col_right = bundle_cohomology(pres, 1 - pres.d)
    col_mid = (_mult_rank(pres, 0, False), 0, 0)
    return [[col_left[q], col_mid[q], col_right[q]] for q in range(3)]


def hom_presentations(p1: UlrichPresentation, p2: UlrichPresentation) -> int:
    """Dimension of the space of chain maps between two presentations.

    A chain map is a pair of scalar matrices (Q: b2 x b1, R: a2 x a1) with
    Q M1 = M2 R as matrices of linear forms.  Every map E1 -> E2 lifts to
    one, because Ext^1(O(d-1), O(d-2)) = H^1(O(-1)) = 0, and the chain maps
    inducing 0 are the (0, R) with M2 R = 0, since
    Hom(O(d-1), O(d-2)) = H^0(O(-1)) = 0.  So when M2 has generic rank a2
    the value is exactly dim Hom(E1, E2).

    Q is eliminated row by row.  With C1 the b1 x 3a1 coefficient matrix of
    M1, row i2 of Q solves Q[i2] C1 = (M2 R)[i2]: it exists iff the right
    side is orthogonal to the null space of C1, and it is then free up to
    a (b1 - rank C1)-dimensional space.  What is left is the system of those
    orthogonality conditions on R alone, b2 (3a1 - rank C1) x a2 a1.
    """
    if p1.p != p2.p:
        raise ValueError("mixed moduli in hom_presentations")
    if p1.d != p2.d:
        raise ValueError("hom_presentations needs equal polarization degrees")
    p, a1, b1, a2, b2 = p1.p, p1.a, p1.b, p2.a, p2.b
    reduced, pivots = rref(p1.coeff_array.reshape(b1, 3 * a1), p)
    free = np.setdiff1d(np.arange(3 * a1), pivots)
    k = free.size
    null = np.zeros((k, 3 * a1), dtype=np.int64)     # columns (j1, v)
    null[np.arange(k), free] = 1
    null[:, pivots] = -reduced[:, free].T % p
    # (M2 R)[i2] . w = sum_{j2, j1} R[j2, j1] sum_v c2[i2, j2, v] w[j1, v]
    w = null.reshape(k, a1, 3).transpose(2, 0, 1).reshape(3, k * a1)
    sys = matmul_mod(p2.coeff_array.reshape(b2 * a2, 3), w, p)
    sys = sys.reshape(b2, a2, k, a1).transpose(0, 2, 1, 3).reshape(b2 * k, a2 * a1)
    return b2 * (b1 - len(pivots)) + a2 * a1 - rank_dense(sys, p)
