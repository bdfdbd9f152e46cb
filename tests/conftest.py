"""Shared fixtures: seeded, certified presentations reused across modules."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import strategies as st

from ulrich_forge.cohomology import build_map_matrix, line_h
from ulrich_forge.field import PrimeField
from ulrich_forge.linalg import rank_dense
from ulrich_forge.poly import dim_forms, shift_tables
from ulrich_forge.presentation import UlrichPresentation, extension, random_presentation


def seeded_presentation(d: int, r: int, seed: int = 0, p: int = 32003) -> UlrichPresentation:
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, r]))
    return random_presentation(d, r, rng, p=p)


def equivariant_presentation(d: int, p: int) -> UlrichPresentation:
    """The seed-free rank-d presentation S^{d-2}V (x) O(d-2) -> S^{d-1}V (x) O(d-1),
    multiplication by the tautological linear form: entry (x_v m, m) is x_v
    for every monomial m of degree d-2, and every other entry is 0.  Its
    cokernel is S^{d-1}Q(d-1), with Q = T_{P^2}(-1), for d >= 2."""
    table, a = shift_tables(d - 2), dim_forms(d - 2)
    coeffs = np.zeros((dim_forms(d - 1), a, 3), dtype=np.int64)
    for v in range(3):
        coeffs[table[v], np.arange(a), v] = 1
    return UlrichPresentation(PrimeField(p), d, d, coeffs)


def linear_span_dimension(pres: UlrichPresentation) -> int:
    """Dimension of the span of all entries inside the 3-space of linear forms."""
    return rank_dense(pres.coeff_array.reshape(-1, 3), pres.p)


def drop_rank_at(pres: UlrichPresentation, point, rng) -> UlrichPresentation:
    """Change column 0 so that M(point) v = 0 for a random v with v_0 = 1.

    point must have a coordinate equal to 1; that coordinate's coefficient
    of column 0 absorbs the correction, so M keeps its other columns."""
    p, c = pres.p, np.array(pres.coeff_array)
    k = list(point).index(1)
    v = rng.integers(0, p, size=pres.a)
    v[0] = 1
    m_at = pres.evaluate_at(point)
    want = -(m_at[:, 1:] @ v[1:]) % p
    others = sum(c[:, 0, l] * point[l] for l in range(3) if l != k)
    c[:, 0, k] = (want - others) % p
    dropped = UlrichPresentation(pres.field, pres.d, pres.r, c)
    assert not (dropped.evaluate_at(point) @ v % p).any()
    return dropped


def variant(pres: UlrichPresentation, kind: str, rng) -> UlrichPresentation:
    """pres rebuilt with a degenerate structure the kernel must survive:
    a direct sum or a random extension by a second summand, or the
    entries changed by variant_forms."""
    if kind in ("direct_sum", "extension"):
        other = random_presentation(pres.d, 1 if pres.d % 2 else 2, rng, p=pres.p)
        n = rng.integers(0, pres.p, size=(pres.b, other.a, 3)) if kind == "extension" else 0
        return extension(pres, other, n)
    return UlrichPresentation(pres.field, pres.d, pres.r,
                              variant_forms(pres.coeff_array, kind, rng))


def variant_forms(forms: np.ndarray, kind: str, rng) -> np.ndarray:
    """A copy of a (rows, cols, 3) array of linear forms with its entries
    changed as the kind says; "random" leaves them as they are."""
    c = np.array(forms)
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
    return c


VARIANT_KINDS = ["random", "direct_sum", "extension", "non_surjective", "zero_z",
                 "equal_xy", "equal_xz", "sparse", "zero_column"]


@st.composite
def variant_cases(draw):
    """A presentation of any variant kind at a small or a medium prime."""
    p = draw(st.sampled_from([3, 5, 7, 32003]))
    d = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(VARIANT_KINDS))
    return variant(random_presentation(d, r, rng, p=p), kind, rng)


def dual_resolution_cohomology(pres: UlrichPresentation, m: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of E^v(m) from 0 -> E^v -> O(1-d)^b -> O(2-d)^a -> 0,
    with the dense oracle ranking M^T at 1-d+m for h^0, h^1 and the
    Serre-dual H^2 map, M in direct layout at d-m-5, for h^2."""
    d, a, b = pres.d, pres.a, pres.b
    tau = rank_dense(build_map_matrix(pres.coeff_array, 1 - d + m, True), pres.p)
    h2_rank = rank_dense(build_map_matrix(pres.coeff_array, d - m - 5, False), pres.p)
    return (b * line_h(0, 1 - d + m) - tau, a * line_h(0, 2 - d + m) - tau,
            b * line_h(2, 1 - d + m) - h2_rank)


def koszul_phi(pres: UlrichPresentation) -> np.ndarray:
    """Phi, the ab x a(a+1)/2 matrix of linear forms of the Koszul map
    D^2 A -> A (x) B, e_j e_k |-> e_j (x) M e_k + e_k (x) M e_j: entry
    ((j', i), {j, k}) = [j' = j] M_ik + [j' = k] M_ij, as a coefficient
    array with entries in [0, p).  It is not a presentation: its rows and
    columns are not r(d+1)/2 and r(d-1)/2 for any (d, r)."""
    a, b, m = pres.a, pres.b, pres.coeff_array
    pairs = list(combinations_with_replacement(range(a), 2))
    phi = np.zeros((a, b, len(pairs), 3), dtype=np.int64)
    for col, (j, k) in enumerate(pairs):
        phi[j, :, col] += m[:, k]
        phi[k, :, col] += m[:, j]
    return phi.reshape(a * b, len(pairs), 3) % pres.p


def jordan_hoelder_types(r: int, d: int) -> list[tuple[int, ...]]:
    """Every ordered composition of r into two or more parts >= 2, each a
    rank that has Ulrich bundles at d (an even one when d is even)."""
    def compositions(n: int):
        if n == 0:
            yield ()
        for s in range(2, n + 1):
            if s * (d - 1) % 2 == 0:
                yield from ((s, *rest) for rest in compositions(n - s))
    return [parts for parts in compositions(r) if len(parts) >= 2]


def closed_margin(d: int, parts: tuple[int, ...]) -> Fraction:
    """sum_{i<j} (r_i r_j (d^2-5)/4 - 1), from the ranks alone."""
    return Fraction(sum(ri * rj * (d * d - 5) - 4 for ri, rj in combinations(parts, 2)), 4)


@pytest.fixture(scope="session")
def pres_d2r2():
    return seeded_presentation(2, 2)


@pytest.fixture(scope="session")
def pres_d3r2():
    return seeded_presentation(3, 2)


@pytest.fixture(scope="session")
def pres_d5r2():
    return seeded_presentation(5, 2)


@pytest.fixture(scope="session")
def pres_d7r3():
    return seeded_presentation(7, 3)
