"""Prime-field arithmetic and the extension tower."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge.field import (DEFAULT_PRIME, ExtensionField, PrimeField,
                                ext_matrix_rank, inverse_mod, is_prime)
from ulrich_forge.presentation import direct_sum, random_presentation
from ulrich_forge.cohomology import hom_presentations

F = PrimeField(DEFAULT_PRIME)
# F_p embedded in F_{p^2} as the constant tuples (c, 0)
E2 = ExtensionField(F, 2)


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
        E2.inverse(E2.zero())
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
    # F_p arithmetic on the constants of F_{p^2}
    a, b = (32000, 0), (7, 0)
    assert E2.add(a, b) == (4, 0)
    assert E2.sub(a, b) == (31993, 0)
    assert E2.sub(E2.zero(), E2.one()) == (DEFAULT_PRIME - 1, 0)
    assert E2.mul(a, E2.inverse(a)) == E2.one()
    assert E2.is_zero(E2.zero()) and not E2.is_zero(b)


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
    # the same laws through F_{p^2} arithmetic on a subsample
    for i in range(0, 10_000, 97):
        x, y, z = ((int(v[i]), int(v[(i + 1) % v.size])) for v in (a, b, c))
        assert E2.add(E2.add(x, y), z) == E2.add(x, E2.add(y, z))
        assert E2.mul(x, E2.add(y, z)) == E2.add(E2.mul(x, y), E2.mul(x, z))


def test_random_element_range_and_determinism():
    r1 = [E2.random(np.random.default_rng(123)) for _ in range(10)]
    r2 = [E2.random(np.random.default_rng(123)) for _ in range(10)]
    assert r1 == r2
    assert all(len(v) == 2 and all(0 <= c < DEFAULT_PRIME for c in v) for v in r1)


def test_random_element_uniform_mean():
    # mean of 10^5 uniform draws within 5 sigma of (p-1)/2
    n = 100_000
    rng = np.random.default_rng(2024)
    draws = rng.integers(0, DEFAULT_PRIME, size=n)
    sigma_mean = np.sqrt((DEFAULT_PRIME**2 - 1) / 12 / n)
    assert abs(draws.mean() - (DEFAULT_PRIME - 1) / 2) < 5 * sigma_mean


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_extension_field_inverse_roundtrip(k):
    ext = ExtensionField(PrimeField(101), k)
    rng = np.random.default_rng(k)
    for _ in range(30):
        a = ext.random(rng)
        if ext.is_zero(a):
            continue
        inv = ext.inverse(a)
        assert ext.mul(a, inv) == ext.one()


def test_extension_field_modulus_is_irreducible_deg2():
    # a reducible modulus would admit a zero divisor; scan F_p roots directly
    ext = ExtensionField(PrimeField(101), 2)
    c0, c1, c2 = ext.modulus
    assert c2 == 1
    assert all((c0 + c1 * t + t * t) % 101 != 0 for t in range(101))


def test_extension_field_frobenius_additivity():
    ext = ExtensionField(PrimeField(13), 3)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = ext.random(rng), ext.random(rng)

        def frob(v):
            # v^p by square-and-multiply on the exponent 13 = 0b1101
            out = v
            for bit in "101":
                out = ext.mul(out, out)
                if bit == "1":
                    out = ext.mul(out, v)
            return out

        assert frob(ext.add(a, b)) == ext.add(frob(a), frob(b))


def test_ext_matrix_rank_small_cases():
    ext = ExtensionField(PrimeField(7), 2)
    one, zero = ext.one(), ext.zero()
    assert ext_matrix_rank(ext, [[one, zero], [zero, one]]) == 2
    assert ext_matrix_rank(ext, [[zero, zero], [zero, zero]]) == 0
    u = (0, 1)  # the generator; rows proportional by u
    assert ext_matrix_rank(ext, [[one, u], [u, ext.mul(u, u)]]) == 1
