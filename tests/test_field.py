"""Prime-field moduli, inverses and F_p arithmetic on plain integers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge.field import DEFAULT_PRIME, PrimeField, inverse_mod, is_prime
from ulrich_forge.presentation import direct_sum, random_presentation
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
    # F_p elements are integers in [0, p), combined by int64 arithmetic mod p
    p = DEFAULT_PRIME
    a, b = np.int64(32000), np.int64(7)
    assert (a + b) % p == 4
    assert (a - b) % p == 31993
    assert (b - a) % p == p - 31993
    assert (np.int64(0) - 1) % p == p - 1
    assert a * inverse_mod(int(a), p) % p == 1
    assert inverse_mod(int(a), p) == inverse_mod(-3, p)


def test_mixed_moduli_rejected():
    p1 = random_presentation(2, 2, np.random.default_rng(0))
    p7 = random_presentation(2, 2, np.random.default_rng(0), p=7)
    with pytest.raises(ValueError, match="mixed moduli"):
        direct_sum(p1, p7)
    with pytest.raises(ValueError, match="mixed moduli"):
        hom_presentations(p1, p7)


def test_field_axioms_randomized():
    # associativity and distributivity over 10^4 random triples
    rng = np.random.default_rng(11)
    p = DEFAULT_PRIME
    a, b, c = rng.integers(0, p, size=(3, 10_000), dtype=np.int64)
    assert (((a + b) + c) % p == (a + (b + c)) % p).all()
    assert ((a * b % p) * c % p == a * (b * c % p) % p).all()
    assert ((a * ((b + c) % p)) % p == (a * b + a * c) % p).all()
    # inversion is multiplicative, on a subsample of nonzero pairs
    for x, y in zip(a[::97].tolist(), b[::97].tolist()):
        if x and y:
            assert (inverse_mod(x * y, p)
                    == inverse_mod(x, p) * inverse_mod(y, p) % p)


def test_random_element_range_and_determinism():
    # random coefficients are F_p elements, reproducible from the seed
    r1 = random_presentation(5, 2, np.random.default_rng(123)).coeff_array
    r2 = random_presentation(5, 2, np.random.default_rng(123)).coeff_array
    assert (r1 == r2).all()
    assert r1.min() >= 0 and r1.max() < DEFAULT_PRIME


def test_random_element_uniform_mean():
    # mean of 10^5 uniform draws within 5 sigma of (p-1)/2
    n = 100_000
    rng = np.random.default_rng(2024)
    draws = rng.integers(0, DEFAULT_PRIME, size=n)
    sigma_mean = np.sqrt((DEFAULT_PRIME**2 - 1) / 12 / n)
    assert abs(draws.mean() - (DEFAULT_PRIME - 1) / 2) < 5 * sigma_mean
