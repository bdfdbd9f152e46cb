"""Monomial bases, shift tables, and the multiplication-by-form blocks of
the map matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge.cohomology import build_map_matrix
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import rank_dense
from ulrich_forge.poly import basis, dim_forms, shift_tables
from ulrich_forge.presentation import UlrichPresentation

F = PrimeField(DEFAULT_PRIME)
X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def mult_block(f, n: int, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Multiplication by the linear form f from degree n to degree n+1: the
    map matrix of the 1x1 matrix of linear forms (f)."""
    return build_map_matrix(np.array([[f]], dtype=np.int64) % p, n)


def test_basis_degree_zero_and_one():
    assert basis(0) == ((0, 0, 0),)
    assert basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_basis_negative_degree_is_empty():
    assert basis(-1) == ()
    assert basis(-5) == ()
    assert dim_forms(-2) == 0


def test_basis_size_matches_binomial():
    # C(n+2, 2), checked by enumeration
    for n in range(0, 12):
        count = sum(1 for e0 in range(n + 1) for e1 in range(n + 1 - e0))
        assert len(basis(n)) == count == dim_forms(n)
    assert len(basis(6)) == 28


def test_basis_order_is_graded_lex():
    assert basis(2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                        (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # strictly decreasing in the (e0, e1) lex key
    for n in range(1, 9):
        keys = [(e0, e1) for e0, e1, _ in basis(n)]
        assert keys == sorted(keys, reverse=True)


def test_shift_tables_match_basis():
    # the closed-form index s(s+1)/2 + e2 against a lookup in basis(n+1)
    for n in range(-1, 41):
        index = {e: i for i, e in enumerate(basis(n + 1))}
        want = [[index[(e0 + (v == 0), e1 + (v == 1), e2 + (v == 2))]
                 for e0, e1, e2 in basis(n)] for v in range(3)]
        assert shift_tables(n).tolist() == want


def test_mult_matrix_by_x_degree_zero():
    m = mult_block(X, 0)
    assert m.shape == (3, 1)
    assert m[:, 0].tolist() == [1, 0, 0]
    assert shift_tables(0).tolist() == [[0], [1], [2]]


def test_mult_matrix_zero_form():
    assert not mult_block((0, 0, 0), 3).any()


def test_mult_matrix_x_plus_y_hand_expansion():
    # (x+y)*y = xy + y^2: the y column hits the xy and y^2 rows of degree 2
    m = mult_block((1, 1, 0), 1)
    assert m.shape == (6, 3)
    col_y = m[:, 1]
    rows = {basis(2).index((1, 1, 0)), basis(2).index((0, 2, 0))}
    assert {i for i, v in enumerate(col_y) if v} == rows
    assert all(col_y[i] == 1 for i in rows)


@pytest.mark.parametrize("n", [0, 1, 2, 4, 7])
def test_mult_matrix_injective_for_nonzero_forms(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        f = rng.integers(0, DEFAULT_PRIME, size=3)
        if not f.any():
            continue
        assert rank_dense(mult_block(f, n), DEFAULT_PRIME) == dim_forms(n)


def test_mult_matrix_linearity():
    rng = np.random.default_rng(3)
    for n in (0, 2, 5):
        f, g = rng.integers(0, DEFAULT_PRIME, size=(2, 3))
        lhs = mult_block((f + g) % DEFAULT_PRIME, n)
        rhs = (mult_block(f, n) + mult_block(g, n)) % DEFAULT_PRIME
        assert (lhs == rhs).all()


def test_mult_matrix_composition_commutes():
    # multiplication by f then g equals g then f
    rng = np.random.default_rng(4)
    for n in (0, 1, 3):
        f, g = rng.integers(0, DEFAULT_PRIME, size=(2, 3))
        fg = (mult_block(g, n + 1) @ mult_block(f, n)) % DEFAULT_PRIME
        gf = (mult_block(f, n + 1) @ mult_block(g, n)) % DEFAULT_PRIME
        assert (fg == gf).all()


def test_evaluate_simple_points():
    euler = UlrichPresentation(F, 2, 2, np.eye(3, dtype=np.int64)[:, None, :])
    assert euler.evaluate_at((1, 0, 0)).tolist() == [[1], [0], [0]]
    ones = UlrichPresentation(PrimeField(7), 2, 2, np.ones((3, 1, 3), dtype=np.int64))
    assert ones.evaluate_at((1, 1, 1)).tolist() == [[3], [3], [3]]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=DEFAULT_PRIME - 1),
       st.integers(min_value=0, max_value=DEFAULT_PRIME - 1),
       st.integers(min_value=0, max_value=DEFAULT_PRIME - 1))
def test_evaluate_homogeneous_degree_one(lam, u, v):
    pres = UlrichPresentation(F, 2, 2, np.array([[[3, 5, 7]], [[1, 0, 0]], [[0, 2, 9]]]))
    point = (u, v, 1)
    scaled = tuple(lam * c % DEFAULT_PRIME for c in point)
    want = lam * pres.evaluate_at(point) % DEFAULT_PRIME
    assert (pres.evaluate_at(scaled) == want).all()
