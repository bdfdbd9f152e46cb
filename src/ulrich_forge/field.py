"""Prime-field moduli and inverses.

Every coefficient in this package lives in a fixed odd prime field F_p
(default p = 32003).  F_p elements are plain integers in [0, p) (numpy
int64 arrays in bulk); ``PrimeField`` only validates and carries the
modulus, and operations that combine two presentations reject mixed
moduli.  No extension field is needed: local freeness follows from the
vanishing h^1(E(-2d)) = 0 computed over F_p (see ``ulrich``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

DEFAULT_PRIME = 32003
PRIME_LIMIT = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for 31-bit moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def inverse_mod(v: int, p: int) -> int:
    """Inverse of v modulo the prime p; v must be nonzero mod p."""
    v %= p
    if v == 0:
        raise ZeroDivisionError("cannot invert 0 in F_p")
    return pow(v, -1, p)


@lru_cache(maxsize=None)
def _checked_prime(p: int) -> int:
    if not isinstance(p, int):
        raise TypeError("modulus must be an int")
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus {p} too large (need p < 2^31)")
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    return p


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for an odd prime p < 2^31."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        _checked_prime(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"
