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

The rank engine takes any b x a matrix M of linear forms, as its (b, a, 3)
coefficient array, with a modulus p and a memo dict, and its ranks never
need the full matrix that build_map_matrix assembles.  A pivot point lam
with rank M(lam) = a is looked for among a fixed list of points of
P^2(F_p), coordinate points first, and memoized with the ranks.  The
substitution (x, y, z) -> G(x, y, z) with G invertible and lam as its
third column is a graded automorphism of F_p[x, y, z], so it changes no
rank, and it makes M(lam) the z-coefficient of M.  Then:

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
is that of the full matrix, the dense model: build_map_matrix writes each
variable's coefficients into every block in one placement through the
shift tables, and its transposed layout is the direct layout of M^T.

Most transposed ranks need no matrix at all.  The transposed map at
degree n is M^T: S_n^b -> S_{n+1}^a, with b*dim(n) columns and
a*dim(n+1) rows.  b(n+1) >= a(n+3) exactly when n(b-a) >= 3a-b, so for
b > a no transposed map below n0 = max(0, ceil((3a-b)/(b-a))) is onto,
and for b <= a none is.  The cokernel C = coker(M^T) is generated in
degree 0, so C_{n+1} = S_1 C_n, and once the map at some k is onto every
transposed rank past k is a*dim(n+1).  A request past n0 therefore first
ranks the map at n0, and n0 comes from the shape of M alone; when that map
is not onto, a memoized onto degree between n0 and n still implies the
rank.  For a presentation b - a = r and 3a - b = r(d-2), so n0 = d-2:
there the map is square, its residue has r*d(d-1)/2 rows and columns, and
h^1(E(-2d)) = 0 is exactly that residue being nonsingular.  Every mu rank
the certifier asks for lies at n < 0 or n >= d-2, so for a valid
presentation that residue is the only transposed rank eliminated.

The dual bundle needs no rank of its own: by Serre duality against
K = O(-3), h^i(E^v(m)) = h^{2-i}(E(-m-3)).  Hom between two
presentations is the dimension of the chain-map space, with Q eliminated
row by row so that one system in R alone is ranked.  End(E) and the
middle column of the cotangent-twist table need no further matrix: they
follow from Hom(E, E) and from rho, the rank of the 3b x a coefficient
matrix of M.

The memo policy lives here: a presentation passes its coefficient array,
its modulus and its own _memo dict, so its ranks live exactly as long as
the presentation does.
"""

from __future__ import annotations

import numpy as np

from .linalg import matmul_mod, null_space, rank_dense, residue_dtype, rref
from .poly import dim_forms, shift_tables
from .presentation import UlrichPresentation

# int64 cells of one block of the product that builds the End system of
# hom_presentations (8 MiB; at least one row of Q)
_PRODUCT_CELLS = 2**20


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


def build_map_matrix(forms: np.ndarray, n: int, transpose: bool = False) -> np.ndarray:
    """Block matrix of multiplication by a matrix M of linear forms from
    degree-n forms to degree-(n+1) forms; forms is M's (rows, cols, 3)
    array of x, y, z coefficients.

    Direct layout: block (i, j) = M_ij, mapping component j of the source
    to component i of the target (the sigma maps).  Transposed layout: the
    direct layout of M^T, block (j, i) = M_ij (the mu maps).  Column u of
    every block has the coefficient of x_v at the row of x_v * u, one
    placement per variable.
    """
    coeffs = forms.transpose(1, 0, 2) if transpose else forms
    rows, cols = coeffs.shape[:2]
    sh = shift_tables(n)
    out = np.zeros((rows, dim_forms(n + 1), cols, dim_forms(n)), dtype=np.int64)
    for v in range(3):
        out[:, sh[v], :, np.arange(sh.shape[1])] = coeffs[:, :, v]
    return out.reshape(rows * dim_forms(n + 1), cols * dim_forms(n))


# Pivot-point candidates, in the order tried: the coordinate points, then
# points of the chart z = 1.  The list is fixed, so no rank depends on a
# random stream.
_PIVOT_POINTS = ((0, 0, 1), (1, 0, 0), (0, 1, 0)) + tuple(
    (i, j, 1) for i in range(1, 4) for j in range(1, 4))


def _mult_rank(forms: np.ndarray, p: int, n: int, transpose: bool, memo: dict) -> int:
    """Rank over F_p of build_map_matrix(forms, n, transpose), memoized in
    memo, which belongs to this (forms, p): it holds their ranks and pivot
    pencil."""
    if (n, transpose) not in memo:
        memo[n, transpose] = _slice_rank(forms, p, n, transpose, memo)
    return memo[n, transpose]


def _slice_rank(forms: np.ndarray, p: int, n: int, transpose: bool, memo: dict) -> int:
    """Rank of build_map_matrix(forms, n, transpose) for a b x a matrix M of
    linear forms with entries in [0, p).

    The transposed map at n has b*dim(n) columns and a*dim(n+1) rows, so
    for b > a it can be onto only from n0 = max(0, ceil((3a-b)/(b-a))) on,
    and for b <= a never; once it is onto at some k, so is every later one.
    A transposed request past n0 ranks the map at n0 first, and it is
    a*dim(n+1) when the map at n0, or at any memoized k in (n0, n), is
    onto.  Every other rank comes from the pivot pencil, or from the full
    matrix when there is none.
    """
    b, a = forms.shape[:2]
    if n < 0 or a == 0:
        return 0
    n0 = max(0, -((b - 3 * a) // (b - a))) if b > a else n   # b <= a: n > n0 never holds
    if transpose and n > n0 and (
            _mult_rank(forms, p, n0, True, memo) == a * dim_forms(n0 + 1)
            or any(memo.get((k, True)) == a * dim_forms(k + 1) for k in range(n0 + 1, n))):
        return a * dim_forms(n + 1)
    if "pivot" not in memo:
        memo["pivot"] = _pivot_pencil(forms, p)
    if memo["pivot"] is None:
        return rank_dense(build_map_matrix(forms, n, transpose), p)
    return a * dim_forms(n) + (rank_dense(_residue(memo["pivot"], n, p), p) if transpose else 0)


def _pivot_pencil(forms: np.ndarray, p: int):
    """N = M^T as [x*X0 + y*Y0 + z*I | x*X1 + y*Y1] after a coordinate
    change and scalar row and column operations; returns the pencil in the
    form _residue reads it, (T, W_0): T = [X0; Y0] stacked (2a x a) and
    W_0 = x*X1 + y*Y1 as an (a, power of y, r) array.  None when no point
    of _PIVOT_POINTS has rank M(point) = a."""
    b, a = forms.shape[:2]
    for point in _PIVOT_POINTS:
        lam = np.array(point, dtype=np.int64) % p
        k = int(np.flatnonzero(lam)[0])
        g = np.eye(3, dtype=np.int64)[:, [v for v in range(3) if v != k]]
        coeffs = matmul_mod(forms, np.column_stack([g, lam]), p)
        # The z block of N is now M(lam)^T; it has full row rank iff every pivot
        # of [z | x | y] lies in it, and then the reduction applies P to all three.
        reduced, pivots = rref(coeffs.transpose(1, 2, 0)[:, [2, 0, 1]].reshape(a, 3 * b), p)
        if sum(j < b for j in pivots) == a:
            break
    else:
        return None
    null = null_space(reduced[:, :b], pivots, p).T
    x, y = reduced[:, b : 2 * b], reduced[:, 2 * b :]
    return (np.concatenate([x[:, pivots], y[:, pivots]]),
            np.stack([matmul_mod(x, null, p), matmul_mod(y, null, p)], axis=1))


def _residue(pencil, n: int, p: int) -> np.ndarray:
    """Images in k[x,y]_{n+1}^a, where z acts as T = -(x*X0 + y*Y0), of the
    last r*dim(n) source columns: the shifts x^al y^be W_g (al + be = n - g)
    of W_0 = x*X1 + y*Y1, W_{g+1} = T W_g, from the pencil (T, W_0) of
    _pivot_pencil.  Rows are (component, power of y).  Entries lie in
    [0, p), so the matrix is in residue_dtype(p), uint16 at p = 32003."""
    t, w = pencil
    a, _, r = w.shape
    out = np.zeros((a, n + 2, r * dim_forms(n)), dtype=residue_dtype(p))
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
    d, forms, p, memo = pres.d, pres.coeff_array, pres.p, pres._memo
    sigma_rank = _mult_rank(forms, p, d - 2 + m, False, memo)
    mu_rank = _mult_rank(forms, p, -m - d - 2, True, memo)
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
    rho = _mult_rank(pres.coeff_array, pres.p, 0, False, pres._memo)
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
    col_mid = (_mult_rank(pres.coeff_array, pres.p, 0, False, pres._memo), 0, 0)
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
    orthogonality conditions on R alone, b2 (3a1 - rank C1) x a2 a1.  It is
    written once, in its final layout and in linalg.residue_dtype(p), from
    int64 products of a block of rows of Q at a time.
    """
    if p1.p != p2.p:
        raise ValueError("mixed moduli in hom_presentations")
    if p1.d != p2.d:
        raise ValueError("hom_presentations needs equal polarization degrees")
    p, a1, b1, a2, b2 = p1.p, p1.a, p1.b, p2.a, p2.b
    reduced, pivots = rref(p1.coeff_array.reshape(b1, 3 * a1), p)
    null = null_space(reduced, pivots, p)     # columns (j1, v)
    k = len(null)
    # (M2 R)[i2] . w = sum_{j2, j1} R[j2, j1] sum_v c2[i2, j2, v] w[j1, v]
    w = null.reshape(k, a1, 3).transpose(2, 0, 1).reshape(3, k * a1)
    sys = np.empty((b2, k, a2, a1), dtype=residue_dtype(p))
    step = max(1, _PRODUCT_CELLS // max(1, a2 * k * a1))  # rows i2 per product
    for i in range(0, b2, step):
        rows = p2.coeff_array[i : i + step]
        block = matmul_mod(rows.reshape(-1, 3), w, p)
        sys[i : i + step] = block.reshape(len(rows), a2, k, a1).transpose(0, 2, 1, 3)
    return b2 * (b1 - len(pivots)) + a2 * a1 - rank_dense(sys.reshape(b2 * k, a2 * a1), p)
