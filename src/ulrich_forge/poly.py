"""Monomial bases of graded pieces of F_p[x, y, z] and their shift tables.

This is the bridge from sheaf maps to linear algebra: every cohomology
computation in the package reduces to ranks of matrices assembled from
multiplication-by-linear-form blocks between the graded pieces enumerated
here.  A linear form is its coefficient triple (c0, c1, c2) for
c0*x + c1*y + c2*z, and ``shift_tables`` says where multiplication by each
variable sends each monomial.  The monomial order is graded-lex with
x > y > z, fixed globally so that certificates are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


def dim_forms(n: int) -> int:
    """Dimension C(n+2, 2) of the space of degree-n forms; 0 for n < 0."""
    return comb(n + 2, 2) if n >= 0 else 0


@lru_cache(maxsize=None)
def basis(n: int) -> tuple[tuple[int, int, int], ...]:
    """Ordered exponent triples (e0, e1, e2) of degree n, graded-lex x>y>z.

    Negative degrees give the empty basis rather than an error: the
    cohomology engine treats vanishing section spaces uniformly.
    """
    if n < 0:
        return ()
    return tuple(
        (e0, e1, n - e0 - e1)
        for e0 in range(n, -1, -1)
        for e1 in range(n - e0, -1, -1)
    )


@lru_cache(maxsize=None)
def shift_tables(n: int) -> np.ndarray:
    """shift_tables(n)[v][j] = index in basis(n+1) of x_v * basis(n)[j].

    A monomial of y,z-degree s = e1 + e2 sits at index s(s+1)/2 + e2, so x
    keeps index j, y sends it to j + s + 1 and z to j + s + 2.
    """
    j = np.arange(dim_forms(n), dtype=np.int64)
    s = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    return np.stack([j, j + s + 1, j + s + 2])
