"""Prime-field moduli and the small extension tower used for point sampling.

Every coefficient in this package lives in a fixed odd prime field F_p
(default p = 32003).  F_p elements are plain integers in [0, p) (numpy
int64 arrays in bulk); ``PrimeField`` only validates and carries the
modulus, and operations that combine two presentations reject mixed
moduli.  ``ExtensionField`` gives F_{p^k}, k <= 4, for the local-freeness
sampler, with elements as coefficient tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


# ---------------------------------------------------------------------------
# Small extension fields F_{p^k}, k <= 4, for the local-freeness sampler.
# Elements are coefficient tuples (c_0, ..., c_{k-1}) for c_0 + c_1 u + ...
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod(prod, mod, p)[1]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = _poly_trim(list(a))
    q = [0] * max(0, len(a) - len(b) + 1)
    binv = inverse_mod(b[-1], p)
    while a and len(a) >= len(b):
        shift = len(a) - len(b)
        coef = a[-1] * binv % p
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        _poly_trim(a)
    return q, a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_powmod_xp(g: list[int], mod: list[int], p: int) -> list[int]:
    """g^p mod (mod), square-and-multiply over F_p[u]."""
    result = [1]
    base = list(g)
    e = p
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Monic degree-k polynomial irreducibility over F_p (Rabin's test)."""
    k = len(mod) - 1
    x = [0, 1]
    # x^(p^i) mod f by iterated Frobenius
    frob = list(x)
    powers = []
    for _ in range(k):
        frob = _poly_powmod_xp(frob, mod, p)
        powers.append(list(frob))
    if _poly_sub(powers[-1], x, p):
        return False  # x^(p^k) != x
    for q in {d for d in (2, 3) if k % d == 0}:
        g = _poly_gcd(mod, _poly_sub(powers[k // q - 1], x, p), p)
        if len(g) - 1 != 0:
            return False
    return True


@lru_cache(maxsize=None)
def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Deterministic smallest irreducible of shape u^k + a*u + b over F_p."""
    if k == 1:
        return (0, 1)
    for a in range(p):
        for b in range(1, p):
            cand = [b, a] + [0] * (k - 2) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
    raise ArithmeticError(f"no irreducible of degree {k} found over F_{p}")


class ExtensionField:
    """F_{p^k} as F_p[u] modulo a fixed irreducible; elements are k-tuples."""

    def __init__(self, base: PrimeField, degree: int):
        if not 1 <= degree <= 4:
            raise ValueError("extension degree must be in 1..4")
        self.base = base
        self.degree = degree
        self.p = base.p
        self.modulus = list(_find_irreducible(base.p, degree))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.degree

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.degree - 1)

    def is_zero(self, a: tuple[int, ...]) -> bool:
        return not any(a)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple[int, ...]:
        r = _poly_mulmod(list(a), list(b), self.modulus, self.p)
        return tuple(r + [0] * (self.degree - len(r)))

    def inverse(self, a) -> tuple[int, ...]:
        if self.is_zero(a):
            raise ZeroDivisionError("cannot invert 0 in F_{p^k}")
        # extended Euclid in F_p[u]
        r0, r1 = self.modulus, _poly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, rem = _poly_divmod(r0, r1, self.p)
            r0, r1 = r1, rem
            qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % self.p
            news = [(x - y) % self.p for x, y in
                    zip(s0 + [0] * max(0, len(qs) - len(s0)),
                        qs + [0] * max(0, len(s0) - len(qs)))]
            s0, s1 = s1, _poly_trim(news)
        c = inverse_mod(r0[-1] if r0 else 0, self.p)
        inv = [(x * c) % self.p for x in s0]
        inv = _poly_divmod(inv, self.modulus, self.p)[1]
        return tuple(inv + [0] * (self.degree - len(inv)))

    def random(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(int(v) for v in rng.integers(0, self.p, size=self.degree))

    def __repr__(self):
        return f"ExtensionField(p={self.p}, k={self.degree})"


def ext_matrix_rank(ext: ExtensionField, rows: list[list[tuple[int, ...]]]) -> int:
    """Gaussian elimination rank of a small matrix over F_{p^k}."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not ext.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pinv = ext.inverse(rows[r][c])
        for i in range(r + 1, len(rows)):
            if ext.is_zero(rows[i][c]):
                continue
            f = ext.mul(rows[i][c], pinv)
            rows[i] = [ext.sub(v, ext.mul(f, w)) for v, w in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank
