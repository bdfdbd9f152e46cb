"""Shared fixtures: seeded, certified presentations reused across modules."""

import numpy as np
import pytest

from ulrich_forge.cohomology import build_map_matrix, line_h
from ulrich_forge.linalg import rank_dense
from ulrich_forge.presentation import UlrichPresentation, random_presentation


def seeded_presentation(d: int, r: int, seed: int = 0, p: int = 32003) -> UlrichPresentation:
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, r]))
    return random_presentation(d, r, rng, p=p)


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


def dual_resolution_cohomology(pres: UlrichPresentation, m: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of E^v(m) from 0 -> E^v -> O(1-d)^b -> O(2-d)^a -> 0,
    with the dense oracle ranking M^T at 1-d+m for h^0, h^1 and the
    Serre-dual H^2 map, M in direct layout at d-m-5, for h^2."""
    d, a, b = pres.d, pres.a, pres.b
    tau = rank_dense(build_map_matrix(pres, 1 - d + m, True), pres.p)
    h2_rank = rank_dense(build_map_matrix(pres, d - m - 5, False), pres.p)
    return (b * line_h(0, 1 - d + m) - tau, a * line_h(0, 2 - d + m) - tau,
            b * line_h(2, 1 - d + m) - h2_rank)


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
