"""Prime-field moduli, inverses and F_p arithmetic through the package."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge.field import DEFAULT_PRIME, PrimeField, inverse_mod, is_prime
from ulrich_forge.linalg import matmul_mod
from ulrich_forge.presentation import extension, random_presentation
from ulrich_forge.cohomology import hom_presentations

F = PrimeField(DEFAULT_PRIME)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(32003)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(32001) and not is_prime(2**20)


def test_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(32001)       # composite
    with pytest.raises(ValueError):
        PrimeField(2)           # even
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)  # too large


def test_inverse_identity_cases():
    assert inverse_mod(1, DEFAULT_PRIME) == 1
    # (-1)^2 = 1, so p-1 is its own inverse
    assert inverse_mod(DEFAULT_PRIME - 1, DEFAULT_PRIME) == DEFAULT_PRIME - 1
    assert inverse_mod(-1, DEFAULT_PRIME) == DEFAULT_PRIME - 1


def test_inverse_small_field_brute_force():
    # oracle: scan all residues of F_7 for the inverse of 3
    oracle = next(y for y in range(1, 7) if (3 * y) % 7 == 1)
    assert oracle == 5
    assert inverse_mod(3, 7) == 5


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inverse_mod(14, 7)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=DEFAULT_PRIME - 1))
def test_inverse_involution(x):
    inv = inverse_mod(x, DEFAULT_PRIME)
    assert inverse_mod(inv, DEFAULT_PRIME) == x
    assert x * inv % DEFAULT_PRIME == 1


def test_element_arithmetic():
    # F_p elements are integers in [0, p); inverse_mod and matmul_mod
    # reduce their arguments first, so -3 and 32000 are one element
    p = DEFAULT_PRIME
    assert inverse_mod(-3, p) == inverse_mod(32000, p)
    assert 32000 * inverse_mod(32000, p) % p == 1
    assert matmul_mod([[32000]], [[7]], p).tolist() == [[32000 * 7 % p]]
    assert matmul_mod([[32000, 7]], [[1], [1]], p).tolist() == [[4]]


def test_mixed_moduli_rejected():
    p1 = random_presentation(2, 2, np.random.default_rng(0))
    p7 = random_presentation(2, 2, np.random.default_rng(0), p=7)
    with pytest.raises(ValueError, match="mixed moduli"):
        extension(p1, p7, 0)
    with pytest.raises(ValueError, match="mixed moduli"):
        hom_presentations(p1, p7)


def test_field_axioms_randomized():
    # matmul_mod is associative and distributes over addition mod p; at
    # p = 2^31 - 1 its inner dimension is cut into chunks
    rng = np.random.default_rng(11)
    for p in (DEFAULT_PRIME, 2**31 - 1):
        a, b, c = rng.integers(0, p, size=(3, 12, 12), dtype=np.int64)
        assert (matmul_mod(matmul_mod(a, b, p), c, p)
                == matmul_mod(a, matmul_mod(b, c, p), p)).all()
        assert (matmul_mod(a, (b + c) % p, p)
                == (matmul_mod(a, b, p) + matmul_mod(a, c, p)) % p).all()
        # inversion is multiplicative, on nonzero pairs
        for x, y in zip(a[0].tolist(), b[0].tolist()):
            if x and y:
                assert inverse_mod(x * y, p) == inverse_mod(x, p) * inverse_mod(y, p) % p
