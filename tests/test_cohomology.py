"""Cohomology engine: line bundles, presented bundles, duals, endomorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge import cohomology
from ulrich_forge.cohomology import (_PIVOT_POINTS, _mult_rank, _pivot_pencil,
                                     build_map_matrix, bundle_cohomology,
                                     chi_line, dual_cohomology, end_cohomology,
                                     hom_presentations, line_h, omega_table)
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import rank_dense
from ulrich_forge.poly import dim_forms
from ulrich_forge.presentation import UlrichPresentation, direct_sum, random_presentation
from ulrich_forge.ulrich import certify

from conftest import dual_resolution_cohomology, seeded_presentation

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


# --- the z-slice rank kernel against the dense oracle ------------------------

def _variant(pres: UlrichPresentation, kind: str, rng) -> UlrichPresentation:
    """pres rebuilt with a degenerate structure the kernel must survive."""
    c = np.array(pres.coeff_array)
    if kind == "direct_sum":
        other = random_presentation(pres.d, 1 if pres.d % 2 else 2, rng, p=pres.p)
        return direct_sum(pres, other)
    if kind == "non_surjective":
        c[:, :1, 2] = 0         # column 0 of M vanishes at (0, 0, 1)
    elif kind == "zero_z":
        c[:, :, 2] = 0
    elif kind == "equal_xy":
        c[:, :, 1] = c[:, :, 0]
    elif kind == "equal_xz":
        c[:, :, 2] = c[:, :, 0]
    elif kind == "sparse":
        c *= rng.integers(0, 2, size=c.shape)
    elif kind == "zero_column":
        c[:, :1] = 0            # rank M(point) < a everywhere: no pivot point
    return UlrichPresentation(pres.field, pres.d, pres.r, c)


_KINDS = ["random", "direct_sum", "non_surjective", "zero_z", "equal_xy",
          "equal_xz", "sparse", "zero_column"]


@st.composite
def _variant_cases(draw):
    """A presentation of any _variant kind at a small or a medium prime."""
    p = draw(st.sampled_from([3, 5, 7, 32003]))
    d = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return _variant(random_presentation(d, r, rng, p=p), draw(st.sampled_from(_KINDS)), rng)


@settings(max_examples=200, deadline=None)
@given(_variant_cases())
def test_pivot_pencil_exists_iff_a_pivot_point_has_full_rank(pres):
    full = any(rank_dense(pres.evaluate_at(pt), pres.p) == pres.a for pt in _PIVOT_POINTS)
    assert (_pivot_pencil(pres) is not None) == full


@st.composite
def _rank_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 32003, 2**31 - 1]))
    d = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["random", "direct_sum", "non_surjective", "zero_z",
                                 "equal_xy", "sparse", "zero_column"]))
    pres = _variant(random_presentation(d, r, rng, p=p), kind, rng)
    n = draw(st.integers(min_value=-1, max_value=3 * d))
    return pres, n, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_rank_cases())
def test_mult_rank_matches_dense_oracle(case):
    pres, n, transpose = case
    want = rank_dense(build_map_matrix(pres, n, transpose), pres.p)
    assert _mult_rank(pres, n, transpose) == want


def test_mult_rank_mid_size_transposed():
    pres = seeded_presentation(5, 3)
    assert _mult_rank(pres, 20, True) == rank_dense(build_map_matrix(pres, 20, True), pres.p)


def test_mult_rank_builds_matrix_only_without_pivot(monkeypatch):
    built = []
    dense = cohomology.build_map_matrix
    monkeypatch.setattr(cohomology, "build_map_matrix",
                        lambda *args: built.append(args) or dense(*args))
    pres = seeded_presentation(3, 3)
    degenerate = _variant(pres, "zero_column", None)
    for n in range(-1, 10):
        for transpose in (False, True):
            for q in (pres, degenerate):
                want = rank_dense(dense(q, n, transpose), q.p)
                assert _mult_rank(q, n, transpose) == want
    # only the degenerate presentation, for every n >= 0 in both layouts
    assert [args[0] for args in built] == [degenerate] * 20


@st.composite
def _rank_sequences(draw):
    """A presentation and every (n, layout) for n in [-1, 3d], in random order."""
    p = draw(st.sampled_from([3, 5, 7, 32003]))
    # d <= 4, and r <= 2 past d = 3, keep the oracle's matrices at n = 3d small
    d = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=1, max_value=2 if d > 3 else 3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(_KINDS))
    pres = _variant(random_presentation(d, r, rng, p=p), kind, rng)
    requests = [(n, t) for n in range(-1, 3 * d + 1) for t in (False, True)]
    return pres, draw(st.permutations(requests))


def _check_rank_orders(pres, requests):
    """Each order of requests, on a fresh copy of pres, gives the oracle ranks.
    Returns the oracle's first degree at which M^T is onto, or None."""
    want = {(n, t): rank_dense(build_map_matrix(pres, n, t), pres.p) for n, t in requests}
    # table asks for the largest n first
    for order in (requests, sorted(requests, reverse=True)):
        fresh = UlrichPresentation(pres.field, pres.d, pres.r, pres.coeff_array)
        for n, transpose in order:
            assert _mult_rank(fresh, n, transpose) == want[n, transpose], (n, transpose)
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


@pytest.mark.parametrize("level", ["basic", "full"])
@pytest.mark.parametrize("d, r", [(7, 3), (13, 3)])
def test_valid_certificate_builds_one_residue(monkeypatch, d, r, level):
    # every transposed rank the certifier asks for lies at n < 0 or
    # n >= d - 2, and the square residue at d - 2 is onto; its entries lie
    # in [0, p), so it is built as int32
    built = []
    residue = cohomology._residue

    def record(pencil, n, p):
        out = residue(pencil, n, p)
        built.append((n, out.dtype))
        return out

    monkeypatch.setattr(cohomology, "_residue", record)
    cert = certify(seeded_presentation(d, r), level=level)
    assert cert.passed
    assert built == [(d - 2, np.int32)]


# --- duality ----------------------------------------------------------------

def test_serre_duality_cross_paths(pres_d3r2):
    # h^i(E(m)) = h^{2-i}(E^v(-m-3)), the right side from the dual
    # resolution and the dense oracle
    for m in range(-8, 3):
        hd = dual_resolution_cohomology(pres_d3r2, -m - 3)
        assert bundle_cohomology(pres_d3r2, m) == (hd[2], hd[1], hd[0]), m


@st.composite
def _dual_cases(draw):
    pres = draw(_variant_cases())
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
    summed = direct_sum(pres_d2r2, other)
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
    kinds = st.sampled_from(["random", "zero_column", "sparse", "equal_xz", "direct_sum"])
    pair = []
    for _ in range(2):
        r = draw(st.integers(min_value=1, max_value=2)) * (1 if d % 2 else 2)
        pair.append(_variant(random_presentation(d, r, rng, p=p), draw(kinds), rng))
    return tuple(pair)


@settings(max_examples=150, deadline=None)
@given(_hom_pairs())
def test_hom_end_omega_match_chain_map_system(pair):
    p1, p2 = pair
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
