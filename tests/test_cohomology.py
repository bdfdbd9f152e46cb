"""Cohomology engine: line bundles, presented bundles, duals, endomorphisms."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ulrich_forge import cohomology
from ulrich_forge.cohomology import (_PIVOT_POINTS, _mult_rank, _pivot_pencil,
                                     build_map_matrix, bundle_cohomology,
                                     chi_line, dual_cohomology, end_cohomology,
                                     hom_presentations, line_h, omega_table)
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import matmul_mod, rank_dense, residue_dtype
from ulrich_forge.poly import basis, dim_forms
from ulrich_forge.presentation import UlrichPresentation, extension, random_presentation
from ulrich_forge.ulrich import certify, ulrich_cohomology

from conftest import (VARIANT_KINDS, dual_resolution_cohomology, equivariant_presentation,
                      koszul_phi, seeded_presentation, variant, variant_cases,
                      variant_forms)

F = PrimeField(DEFAULT_PRIME)


# --- line bundles -----------------------------------------------------------

def test_line_h_values():
    assert line_h(0, 2) == 6
    assert line_h(0, 0) == 1
    assert line_h(0, -1) == 0
    assert all(line_h(1, n) == 0 for n in range(-8, 8))
    assert line_h(2, -3) == 1
    assert line_h(2, -2) == 0
    assert line_h(2, -5) == 6


def test_line_h_serre_duality():
    for n in range(-10, 10):
        assert line_h(0, n) == line_h(2, -n - 3)


def test_chi_line_matches_h_sum():
    for n in range(-10, 10):
        assert chi_line(n) == line_h(0, n) - line_h(1, n) + line_h(2, n)


def test_line_h_bad_degree():
    with pytest.raises(ValueError):
        line_h(3, 0)


# --- bundle cohomology ------------------------------------------------------

def test_vanishing_ladder_d3r2(pres_d3r2):
    # dimension ladder: (-d) all zero; (1-d) has r(d+1)/2 sections;
    # (2-d) has r(d+2) sections
    assert bundle_cohomology(pres_d3r2, -3) == (0, 0, 0)
    assert bundle_cohomology(pres_d3r2, -2) == (4, 0, 0)
    assert bundle_cohomology(pres_d3r2, -1) == (10, 0, 0)


def test_certification_vanishings_d7r3(pres_d7r3):
    assert bundle_cohomology(pres_d7r3, -14)[1] == 0
    assert bundle_cohomology(pres_d7r3, -21)[1] == 0


def test_structural_zeros_when_h2_blocks_empty(pres_d5r2):
    # d-2+m >= -2 and -m-d-2 < 0 force h1 = h2 = 0 with no rank computed
    d = pres_d5r2.d
    for m in range(-d, 3):
        _, h1, h2 = bundle_cohomology(pres_d5r2, m)
        assert h1 == 0 and h2 == 0


def test_euler_identity_random_presentations():
    rng = np.random.default_rng(31)
    for d, r in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        pres = random_presentation(d, r, rng)
        a, b = pres.a, pres.b
        for m in range(-3 * d - 2, d + 3):
            h0, h1, h2 = bundle_cohomology(pres, m)
            assert h0 - h1 + h2 == b * chi_line(d - 1 + m) - a * chi_line(d - 2 + m), (d, r, m)
            assert h0 >= 0 and h1 >= 0 and h2 >= 0


def test_acm_window_certified(pres_d3r2):
    alpha = pres_d3r2.alpha
    for t in range(-alpha - 3, 4):
        assert bundle_cohomology(pres_d3r2, t * pres_d3r2.d)[1] == 0


def test_h1_nonzero_off_polarization_multiples(pres_d7r3):
    # intermediate twists must NOT vanish identically: otherwise the bundle
    # would split into line bundles, which cannot be Ulrich for d >= 2
    vals = [bundle_cohomology(pres_d7r3, m)[1] for m in range(-21, 4)]
    assert any(v != 0 for v in vals)
    assert all(bundle_cohomology(pres_d7r3, 7 * t)[1] == 0 for t in range(-3, 1))


# the explicit examples are the pres_d3r2, pres_d5r2 and pres_d7r3 fixtures
@settings(max_examples=300, deadline=None)
@given(variant_cases())
@example(seeded_presentation(3, 2))
@example(seeded_presentation(5, 2))
@example(seeded_presentation(7, 3))
def test_valid_presentations_have_the_ulrich_table(pres):
    # a valid presentation is Ulrich, so E(m) and the twisted dual
    # E^v(3d-3+m) both read ulrich_cohomology(d, r, m); [-6d, 3d] is closed
    # under m -> -3d-m and holds every twist of the full profile for r <= 4
    assume(certify(pres).valid)
    d = pres.d
    for m in range(-6 * d, 3 * d + 1):
        want = ulrich_cohomology(d, pres.r, m)
        assert bundle_cohomology(pres, m) == want, m
        assert dual_cohomology(pres, 3 * d - 3 + m) == want, m


# --- the dense model --------------------------------------------------------

def _per_entry_map_matrix(pres, n, transpose):
    """build_map_matrix one coefficient at a time, from the monomial bases:
    block (i, j) of M (block (j, i) transposed), column of monomial u, holds
    the coefficient of x_v at the row of x_v * u."""
    source = basis(n)
    target = {mono: row for row, mono in enumerate(basis(n + 1))}
    row_blocks, col_blocks = (pres.a, pres.b) if transpose else (pres.b, pres.a)
    out = np.zeros((row_blocks * len(target), col_blocks * len(source)), dtype=np.int64)
    for i in range(pres.b):
        for j in range(pres.a):
            rb, cb = (j, i) if transpose else (i, j)
            for col, mono in enumerate(source):
                for v in range(3):
                    shifted = tuple(e + (k == v) for k, e in enumerate(mono))
                    out[rb * len(target) + target[shifted],
                        cb * len(source) + col] = pres.coeff_array[i, j, v]
    return out


@st.composite
def _map_cases(draw):
    pres = draw(variant_cases())
    return pres, draw(st.integers(min_value=-1, max_value=2 * pres.d)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_map_cases())
@example((seeded_presentation(1, 2), 2, True))     # a = 0
@example((seeded_presentation(3, 2), -1, False))   # no source forms
def test_map_matrix_places_every_coefficient(case):
    # ranks cannot see a permutation of x, y, z or of the blocks; this
    # compares every entry with the per-entry reference
    pres, n, transpose = case
    got = build_map_matrix(pres.coeff_array, n, transpose)
    want = _per_entry_map_matrix(pres, n, transpose)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert (got == want).all()


# --- the z-slice rank kernel against the dense oracle ------------------------

@settings(max_examples=200, deadline=None)
@given(variant_cases())
def test_pivot_pencil_exists_iff_a_pivot_point_has_full_rank(pres):
    full = any(rank_dense(pres.evaluate_at(pt), pres.p) == pres.a for pt in _PIVOT_POINTS)
    assert (_pivot_pencil(pres.coeff_array, pres.p) is not None) == full


@st.composite
def _rank_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 32003, 2**31 - 1]))
    d = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["random", "direct_sum", "extension", "non_surjective",
                                 "zero_z", "equal_xy", "sparse", "zero_column"]))
    pres = variant(random_presentation(d, r, rng, p=p), kind, rng)
    n = draw(st.integers(min_value=-1, max_value=3 * d))
    return pres, n, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_rank_cases())
def test_mult_rank_matches_dense_oracle(case):
    pres, n, transpose = case
    want = rank_dense(build_map_matrix(pres.coeff_array, n, transpose), pres.p)
    assert _mult_rank(pres.coeff_array, pres.p, n, transpose, {}) == want


def test_mult_rank_mid_size_transposed():
    pres = seeded_presentation(5, 3)
    want = rank_dense(build_map_matrix(pres.coeff_array, 20, True), pres.p)
    assert _mult_rank(pres.coeff_array, pres.p, 20, True, {}) == want


def test_mult_rank_builds_matrix_only_without_pivot(monkeypatch):
    built = []
    dense = cohomology.build_map_matrix
    monkeypatch.setattr(cohomology, "build_map_matrix",
                        lambda *args: built.append(args) or dense(*args))
    pres = seeded_presentation(3, 3)
    degenerate = variant(pres, "zero_column", None)
    for n in range(-1, 10):
        for transpose in (False, True):
            for q in (pres, degenerate):
                want = rank_dense(dense(q.coeff_array, n, transpose), q.p)
                assert _mult_rank(q.coeff_array, q.p, n, transpose, q._memo) == want
    # only the degenerate presentation, for every n >= 0 in both layouts
    assert [args[0] is degenerate.coeff_array for args in built] == [True] * 20


@st.composite
def _rank_sequences(draw):
    """A presentation and every (n, layout) for n in [-1, 3d], in random order."""
    p = draw(st.sampled_from([3, 5, 7, 32003]))
    # d <= 4, and r <= 2 past d = 3, keep the oracle's matrices at n = 3d small
    d = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=2 if d > 3 else 3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(VARIANT_KINDS))
    pres = variant(random_presentation(d, r, rng, p=p), kind, rng)
    requests = [(n, t) for n in range(-1, 3 * d + 1) for t in (False, True)]
    return pres, draw(st.permutations(requests))


def _check_rank_orders(pres, requests):
    """Each order of requests, on a fresh memo, gives the oracle ranks, and
    no transposed map below d - 2 is onto (it has fewer columns than rows).
    Returns the oracle's first degree at which M^T is onto, or None."""
    forms, p = pres.coeff_array, pres.p
    want = {(n, t): rank_dense(build_map_matrix(forms, n, t), p) for n, t in requests}
    for n, t in want:
        if t and 0 <= n < pres.d - 2:
            assert want[n, t] < pres.a * dim_forms(n + 1), n
    # table asks for the largest n first
    for order in (requests, sorted(requests, reverse=True)):
        memo = {}
        for n, transpose in order:
            assert _mult_rank(forms, p, n, transpose, memo) == want[n, transpose], (n, transpose)
    return next((n for n, t in sorted(want) if t and n >= 0
                 and want[n, t] == pres.a * dim_forms(n + 1)), None)


@settings(max_examples=40, deadline=None)
@given(_rank_sequences())
def test_mult_rank_in_any_order_matches_dense_oracle(case):
    _check_rank_orders(*case)


@pytest.mark.parametrize("p, d, r, seed", [(3, 3, 3, 0), (5, 3, 4, 0)])
def test_mult_rank_onto_only_past_square_residue(p, d, r, seed):
    # h^1(E(-2d)) != 0, so M^T first becomes onto past n = d - 2
    pres = random_presentation(d, r, np.random.default_rng(seed), p=p)
    requests = [(n, t) for n in range(-1, 3 * d + 1) for t in (False, True)]
    np.random.default_rng(seed).shuffle(requests)
    assert _check_rank_orders(pres, requests) > d - 2


# n0 = max(0, ceil((3a - b)/(b - a))) = d - 2 for every presentation shape;
# (2, 2) is its lower edge, n0 = 0 with 3a - b = 0
@pytest.mark.parametrize("d, r", [(7, 3), (13, 3), (5, 4), (2, 2), (3, 6)])
def test_table_order_ranks_only_the_square_residue_past_d_minus_2(monkeypatch, d, r):
    # table asks for the largest n first; on a valid presentation the square
    # map at d - 2 is onto, so every transposed rank past it is implied
    built = []
    residue = cohomology._residue
    monkeypatch.setattr(cohomology, "_residue",
                        lambda pencil, n, p: built.append(n) or residue(pencil, n, p))
    pres, memo = seeded_presentation(d, r), {}
    for n in range(3 * d, -2, -1):
        rank = _mult_rank(pres.coeff_array, pres.p, n, True, memo)
        if n >= d - 2:
            assert rank == pres.a * dim_forms(n + 1), n
    assert [n for n in built if n >= d - 2] == [d - 2]


@pytest.mark.parametrize("level", ["basic", "full"])
@pytest.mark.parametrize("d, r", [(7, 3), (13, 3)])
def test_valid_certificate_builds_one_residue(monkeypatch, d, r, level):
    # every transposed rank the certifier asks for lies at n < 0 or
    # n >= d - 2, and the square residue at d - 2 is onto; its entries lie
    # in [0, p), so it is built in residue_dtype(p)
    built = []
    residue = cohomology._residue

    def record(pencil, n, p):
        out = residue(pencil, n, p)
        built.append((n, out.dtype))
        return out

    monkeypatch.setattr(cohomology, "_residue", record)
    pres = seeded_presentation(d, r)
    cert = certify(pres, level=level)
    assert cert.passed
    assert built == [(d - 2, residue_dtype(pres.p))]


def test_failed_vanishing_ranks_up_to_the_first_onto_degree(monkeypatch):
    # at p = 5 the rank-9 equivariant presentation has h^1(E(-18)) = 10, so
    # M^T is not onto at n0 = 7; it is onto at 16, the t = 3 vanishing, and
    # that memoized degree implies t = 4, 5, 6 with no rank
    ranked = []
    dense = cohomology.rank_dense
    monkeypatch.setattr(cohomology, "rank_dense",
                        lambda m, p: ranked.append(m.shape) or dense(m, p))
    cert = certify(equivariant_presentation(9, 5))
    assert cert.vanishings == [(2, 10), (3, 0), (4, 0), (5, 0), (6, 0)]
    assert ranked == [(324, 324), (648, 1377)]     # the residues at n = 7 and 16


# --- matrices of linear forms that are not presentations ---------------------

_ALL_REQUESTS = [(n, t) for n in range(-1, 8) for t in (False, True)]


def _koszul_case(d, r):
    """Phi of seeded_presentation(d, r), with every request in a seeded order."""
    pres = seeded_presentation(d, r)
    order = np.random.default_rng(d).permutation(len(_ALL_REQUESTS))
    return koszul_phi(pres), pres.p, [_ALL_REQUESTS[i] for i in order]


@st.composite
def _forms_cases(draw):
    """A (rows, cols, 3) array of linear forms of any shape, cols = 0 and
    rows < cols included, and every (n, layout) for n in [-1, 7], in random
    order."""
    p = draw(st.sampled_from([3, 5, 7, 32003]))
    rows, cols = (draw(st.integers(min_value=0, max_value=6)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    forms = rng.integers(0, p, size=(rows, cols, 3))
    kind = draw(st.sampled_from(["random", "zero_column", "zero_z", "sparse"]))
    return variant_forms(forms, kind, rng), p, draw(st.permutations(_ALL_REQUESTS))


@settings(max_examples=200, deadline=None)
@given(_forms_cases())
@example(_koszul_case(3, 4))     # Phi is 32 x 10
@example(_koszul_case(5, 4))     # Phi is 96 x 36
def test_mult_rank_on_any_matrix_of_linear_forms(case):
    # the engine reads only the array, p and the memo: every request on one
    # memo, in any order, gives the dense oracle's rank, whether or not the
    # array has a pivot point and whether or not M^T is ever onto
    forms, p, requests = case
    memo = {}
    for n, transpose in requests:
        want = rank_dense(build_map_matrix(forms, n, transpose), p)
        assert _mult_rank(forms, p, n, transpose, memo) == want, (n, transpose)


# --- duality ----------------------------------------------------------------

def test_serre_duality_cross_paths(pres_d3r2):
    # h^i(E(m)) = h^{2-i}(E^v(-m-3)), the right side from the dual
    # resolution and the dense oracle
    for m in range(-8, 3):
        hd = dual_resolution_cohomology(pres_d3r2, -m - 3)
        assert bundle_cohomology(pres_d3r2, m) == (hd[2], hd[1], hd[0]), m


@st.composite
def _dual_cases(draw):
    pres = draw(variant_cases())
    return pres, draw(st.integers(min_value=-4 * pres.d - 3, max_value=2 * pres.d + 2))


@settings(max_examples=200, deadline=None)
@given(_dual_cases())
def test_dual_cohomology_matches_dual_resolution(case):
    pres, m = case
    assert dual_cohomology(pres, m) == dual_resolution_cohomology(pres, m)


def test_dual_euler_identity(pres_d3r2):
    d = pres_d3r2.d
    a, b = pres_d3r2.a, pres_d3r2.b
    for m in range(-6, 8):
        h0, h1, h2 = dual_cohomology(pres_d3r2, m)
        assert h0 - h1 + h2 == b * chi_line(1 - d + m) - a * chi_line(2 - d + m)


def test_ulrich_duality_profile(pres_d3r2):
    # the twisted dual is again Ulrich: vanishing (-1)-twist sections and
    # vanishing intermediate cohomology at polarization twists
    d, r = pres_d3r2.d, pres_d3r2.r
    shift = 3 * d - 3
    assert dual_cohomology(pres_d3r2, shift - d)[0] == 0
    assert dual_cohomology(pres_d3r2, shift)[0] == d * d * r
    for t in range(-2, 3):
        assert dual_cohomology(pres_d3r2, shift + t * d)[1] == 0


def test_dual_very_negative_twist_no_sections(pres_d3r2):
    # both section blocks empty: 2-d+m < 0 and 1-d+m < 0
    assert dual_cohomology(pres_d3r2, 0)[0] == 0
    assert dual_cohomology(pres_d3r2, 1 - pres_d3r2.d)[0] == 0


# --- endomorphisms ----------------------------------------------------------

def test_end_cohomology_d2r2(pres_d2r2):
    assert end_cohomology(pres_d2r2) == (1, 0, 0)


def test_end_cohomology_d3r2(pres_d3r2):
    # simple bundle: h0 = 1; h1 = d^2 - 4 = 5
    assert end_cohomology(pres_d3r2) == (1, 5, 0)


def test_end_cohomology_direct_sum(pres_d2r2):
    other = seeded_presentation(2, 2, seed=99)
    summed = extension(pres_d2r2, other, 0)
    h0, h1, h2 = end_cohomology(summed)
    # four Hom blocks, each 1-dimensional; chi = k^2 = 4
    assert h0 == 4
    assert h0 - h1 + h2 == 4


def test_end_h0_at_least_identity():
    rng = np.random.default_rng(44)
    for d, r in [(2, 2), (3, 2), (4, 2)]:
        pres = random_presentation(d, r, rng)
        h0, _, h2 = end_cohomology(pres)
        assert h0 >= 1
        assert h2 == 0


def test_largest_prime_products_exact():
    # at p = 2^31 - 1 a sum of three (p-1)^2 terms passes 2^63, so int64
    # products must be split to stay exact
    p = 2**31 - 1
    pres = random_presentation(5, 2, np.random.default_rng(7), p=p)
    coeffs = pres.coeff_array.tolist()
    for point in [(p - 1, p - 2, p - 3), (1, p - 1, 12345)]:
        want = [[sum(c * v for c, v in zip(entry, point)) % p for entry in row]
                for row in coeffs]
        assert pres.evaluate_at(point).tolist() == want
    # h0(End) >= 1 always (the identity); simple with h1 = 1 + r^2(d^2-5)/4
    assert end_cohomology(pres) == (1, 21, 0)


# --- omega table ------------------------------------------------------------

def test_omega_table_d7r3(pres_d7r3):
    table = omega_table(pres_d7r3)
    assert table[0] == [0, 9, 12]
    assert table[1] == [0, 0, 0]
    assert table[2] == [0, 0, 0]


def test_omega_table_d3r2(pres_d3r2):
    assert omega_table(pres_d3r2) == [[0, 2, 4], [0, 0, 0], [0, 0, 0]]


def test_omega_table_right_column_consistency(pres_d5r2):
    table = omega_table(pres_d5r2)
    expect = bundle_cohomology(pres_d5r2, 1 - pres_d5r2.d)
    assert [table[q][2] for q in range(3)] == list(expect)


# --- hom spaces -------------------------------------------------------------

def test_hom_self_matches_end_h0(pres_d2r2, pres_d3r2):
    for pres in (pres_d2r2, pres_d3r2):
        assert hom_presentations(pres, pres) == end_cohomology(pres)[0] == 1


# seeded (5, 3): a = 6, b = 9, and 9 null vectors of C1, so one row of Q
# takes a product of 6 x 9 x 6 = 324 int64 cells
@pytest.mark.parametrize("cells, rows", [(1, [1] * 9), (1000, [3, 3, 3]), (2**20, [9])])
def test_hom_system_is_narrow_and_built_in_blocks(monkeypatch, cells, rows):
    # the R-only system reaches the rank in residue_dtype(p), in one array
    # written in place from int64 products of as many rows of Q as fit in
    # _PRODUCT_CELLS, at least one
    pres = seeded_presentation(5, 3)
    want = hom_presentations(pres, pres)
    ranked, products = [], []
    monkeypatch.setattr(cohomology, "_PRODUCT_CELLS", cells)
    monkeypatch.setattr(cohomology, "rank_dense",
                        lambda a, p: ranked.append(a) or rank_dense(a, p))
    monkeypatch.setattr(cohomology, "matmul_mod",
                        lambda a, b, p: products.append(len(a)) or matmul_mod(a, b, p))
    assert hom_presentations(pres, pres) == want
    [system] = ranked
    assert system.shape == (9 * 9, 6 * 6)
    assert system.dtype == residue_dtype(pres.p) and system.flags.c_contiguous
    assert products == [6 * n for n in rows]


def test_hom_independent_presentations_zero(pres_d3r2):
    other = seeded_presentation(3, 2, seed=1234)
    assert hom_presentations(pres_d3r2, other) == 0


def test_hom_row_permutation_nonzero(pres_d3r2):
    permuted = UlrichPresentation(pres_d3r2.field, 3, 2,
                                  pres_d3r2.coeff_array[[1, 0, 3, 2]])
    assert hom_presentations(pres_d3r2, permuted) >= 1


def test_hom_rejects_mismatched(pres_d3r2, pres_d5r2):
    with pytest.raises(ValueError):
        hom_presentations(pres_d3r2, pres_d5r2)


def _chain_map_dimension(p1: UlrichPresentation, p2: UlrichPresentation) -> int:
    """Null space of the unreduced chain-map system Q M1 = M2 R: one
    equation per (row of Q M1, column, variable), 3 b2 a1 of them, in the
    b2 b1 + a2 a1 entries of Q and R."""
    a1, b1, a2, b2 = p1.a, p1.b, p2.a, p2.b
    c1, c2 = p1.coeff_array, p2.coeff_array
    n_q, n_r = b2 * b1, a2 * a1
    sys = np.zeros((3 * b2 * a1, n_q + n_r), dtype=np.int64)
    for i2 in range(b2):
        for j1 in range(a1):
            for v in range(3):
                eq = (i2 * a1 + j1) * 3 + v
                sys[eq, i2 * b1 : (i2 + 1) * b1] = c1[:, j1, v]
                sys[eq, n_q + j1 : n_q + n_r : a1] = -c2[i2, :, v] % p1.p
    return n_q + n_r - rank_dense(sys, p1.p)


@st.composite
def _hom_pairs(draw):
    p = draw(st.sampled_from([3, 5, 7, 32003, 2**31 - 1]))
    d = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = st.sampled_from(["random", "zero_column", "sparse", "equal_xz", "direct_sum",
                             "extension"])
    pair = []
    for _ in range(2):
        r = draw(st.integers(min_value=1, max_value=2)) * (1 if d % 2 else 2)
        pair.append(variant(random_presentation(d, r, rng, p=p), draw(kinds), rng))
    return tuple(pair)


@settings(max_examples=150, deadline=None)
@given(_hom_pairs())
def test_hom_end_omega_match_chain_map_system(pair):
    p1, p2 = pair
    assert hom_presentations(p1, p2) == _chain_map_dimension(p1, p2)
    with pytest.MonkeyPatch.context() as mp:  # one row of Q per product
        mp.setattr(cohomology, "_PRODUCT_CELLS", 1)
        assert hom_presentations(p1, p2) == _chain_map_dimension(p1, p2)
    hom_self = _chain_map_dimension(p1, p1)
    assert hom_presentations(p1, p1) == hom_self
    # End and the Euler-map column from rho, the rank of M's 3b x a
    # coefficient matrix
    a, b = p1.a, p1.b
    rho = rank_dense(p1.coeff_array.transpose(0, 2, 1).reshape(3 * b, a), p1.p)
    h0 = hom_self - a * (a - rho)
    assert end_cohomology(p1) == (h0, h0 + a * (3 * b - rho) - b * b, 0)
    assert [row[1] for row in omega_table(p1)] == [rho, 0, 0]
