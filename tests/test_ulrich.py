"""Numerology, the certifier, and the arithmetic checkers."""

import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge.cli import main
from ulrich_forge import cohomology
from ulrich_forge.cohomology import bundle_cohomology
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import rank_dense
from ulrich_forge.presentation import (ParityError, UlrichPresentation,
                                       direct_sum, random_presentation, save)
from ulrich_forge.search import sweep
from ulrich_forge.ulrich import (UlrichCertificate, certify, euler_pairing,
                                 hilbert_check, invariants,
                                 line_bundle_solutions, semistable_bound_check,
                                 veronese_facts)

from conftest import drop_rank_at, seeded_presentation

F = PrimeField(DEFAULT_PRIME)


# --- invariants -------------------------------------------------------------

def test_invariants_d2r2():
    inv = invariants(2, 2)
    # the unique rank-2 bundle is the tangent bundle: Chern classes (3, 3)
    assert inv.c1 == 3 and inv.c2 == 3
    assert inv.chi_end == 1 and inv.h1_end_simple == 0
    assert (inv.a, inv.b, inv.alpha) == (1, 3, 2)


@pytest.mark.parametrize("k", range(1, 8))
def test_invariants_d2_higher_rank_chi_end(k):
    assert invariants(2, 2 * k).chi_end == k * k


@pytest.mark.parametrize("d", range(2, 12))
def test_invariants_rank2_deformations(d):
    if d % 2:
        pass  # both parities fine for r = 2
    assert invariants(d, 2).h1_end_simple == d * d - 4


def test_invariants_consistency():
    for d in range(1, 20):
        for r in range(1, 9):
            if r * (d - 1) % 2:
                with pytest.raises(ParityError):
                    invariants(d, r)
                continue
            inv = invariants(d, r)
            assert inv.chi_end + inv.h1_end_simple == 1
            assert 2 * inv.c1 == 3 * r * (d - 1)
            assert inv.hilbert(0) == d * d * r
            assert inv.hilbert(-1) == 0 and inv.hilbert(-2) == 0
            assert inv.canonical_divisor == -3


# --- hilbert ----------------------------------------------------------------

def test_hilbert_check_values():
    assert hilbert_check(3, 2, 0) == 18
    assert hilbert_check(7, 3, -3) == 147
    for d, r in [(2, 2), (5, 4), (9, 3)]:
        assert hilbert_check(d, r, -1) == 0
        assert hilbert_check(d, r, -2) == 0


def test_hilbert_check_sweep_small():
    for d in range(1, 16):
        for r in range(1, 8):
            if r * (d - 1) % 2:
                continue
            for t in range(-10, 11):
                hilbert_check(d, r, t)


# --- line bundles -----------------------------------------------------------

def test_line_bundle_solutions():
    assert line_bundle_solutions(1) == [0]
    assert line_bundle_solutions(2) == []
    assert line_bundle_solutions(43) == []
    assert all(line_bundle_solutions(d) == [] for d in range(2, 200))
    with pytest.raises(ValueError):
        line_bundle_solutions(0)


# --- euler pairing ----------------------------------------------------------

def test_euler_pairing_rank2_families():
    for d in range(2, 20):
        for k in range(2, 10):
            assert euler_pairing(d, 2, 2 * k - 2) == -(k - 1) * (d * d - 5)


def test_euler_pairing_rank3_families():
    for d in range(3, 20, 2):
        for r in range(5, 13, 2):
            assert 4 * euler_pairing(d, 3, r - 3) == -3 * (r - 3) * (d * d - 5)


def test_euler_pairing_self_is_chi_end():
    for d, r in [(2, 2), (3, 2), (3, 3), (7, 3), (5, 4)]:
        assert euler_pairing(d, r, r) == invariants(d, r).chi_end


def test_euler_pairing_parity_error():
    with pytest.raises(ParityError):
        euler_pairing(4, 3, 2)


# --- semistable bounds ------------------------------------------------------

def test_semistable_bounds_base_cases():
    assert semistable_bound_check(3, 2, "even")
    assert semistable_bound_check(3, 2, "odd-even")
    assert semistable_bound_check(3, 2, "odd-odd")


def test_semistable_bounds_sweep():
    for d in range(3, 40):
        for k in range(2, 12):
            for case in ("even", "odd-even", "odd-odd"):
                assert semistable_bound_check(d, k, case), (d, k, case)


def test_semistable_bounds_validation():
    with pytest.raises(ValueError):
        semistable_bound_check(2, 2, "even")
    with pytest.raises(ValueError):
        semistable_bound_check(3, 1, "even")
    with pytest.raises(ValueError):
        semistable_bound_check(3, 2, "sideways")


# --- veronese facts ---------------------------------------------------------

def test_veronese_facts():
    assert veronese_facts(1) == (1, 2)
    assert veronese_facts(2) == (4, 5)
    assert veronese_facts(7) == (49, 35)
    with pytest.raises(ValueError):
        veronese_facts(0)


# --- certification ----------------------------------------------------------

def test_certify_basic_d7r3(pres_d7r3):
    cert = certify(pres_d7r3, level="basic", master_seed=0)
    assert cert.valid and cert.passed
    assert cert.vanishings == [(2, 0), (3, 0)]
    assert cert.generic_rank.status == "injective"
    assert (cert.to_json_dict()["local_freeness"]["verdict"]
            == "no degeneracy found (incomplete)")
    assert cert.full_checks is None
    assert (cert.a, cert.b, cert.alpha) == (9, 12, 3)


def test_certify_zero_column_fails_generic_rank():
    coeffs = seeded_presentation(3, 2).coeff_array.copy()
    coeffs[:, 0] = 0
    degenerate = UlrichPresentation(F, 3, 2, coeffs)
    cert = certify(degenerate, level="basic", master_seed=0)
    assert not cert.valid and not cert.passed
    assert cert.generic_rank.status == "undetermined"
    assert any(item["check"] == "generic_rank" for item in cert.discrepancies())


def test_certify_full_d3r2(pres_d3r2):
    cert = certify(pres_d3r2, level="full", master_seed=0)
    assert cert.valid and cert.full_ok and cert.passed
    by_name = {c.name: c for c in cert.full_checks}
    # the ladder item h0(E(-d+1)) = r(d+1)/2 = 4
    ladder = by_name["ladder_h0_m-2"]
    assert ladder.expected == 4 and ladder.computed == 4 and ladder.passed
    assert by_name["end_cohomology"].expected == [1, 5, 0]
    assert by_name["omega_table"].passed
    assert cert.discrepancies() == []


def test_certify_full_records_failures():
    # an invalid "presentation": entries of a valid one, rank bumped is not
    # possible, so instead corrupt by zeroing one row (kills injectivity
    # generically but keeps the shape); full check failures must be recorded
    coeffs = seeded_presentation(3, 3).coeff_array.copy()
    coeffs[0] = 0
    broken = UlrichPresentation(F, 3, 3, coeffs)
    cert = certify(broken, level="full", master_seed=0)
    assert cert.full_ok is False or not cert.valid
    assert isinstance(cert.discrepancies(), list)


def test_certify_full_skips_profile_after_invalid_basic(monkeypatch):
    # a zero column leaves no pivot point, so every full-profile rank would
    # need a full multiplication matrix (up to 5670 x 7140 at (7, 3));
    # none is built past the basic level
    built = []
    dense = cohomology.build_map_matrix
    monkeypatch.setattr(cohomology, "build_map_matrix",
                        lambda *args: built.append(args) or dense(*args))
    coeffs = seeded_presentation(7, 3).coeff_array.copy()
    coeffs[:, 0] = 0

    def run(level):
        built.clear()
        return certify(UlrichPresentation(F, 7, 3, coeffs), level=level), len(built)

    basic, basic_built = run("basic")
    t0 = time.perf_counter()
    full, full_built = run("full")
    assert time.perf_counter() - t0 < 2.0
    assert full_built <= basic_built
    assert not full.valid and full.full_checks is None and full.full_ok is False
    assert full.discrepancies() == basic.discrepancies()


def test_certificate_serialization_roundtrip(pres_d3r2):
    cert = certify(pres_d3r2, level="full", master_seed=0)
    doc = json.loads(cert.to_bytes())
    assert doc["format"] == "ulrich-certificate/1"
    assert doc["presentation_hash"] == pres_d3r2.content_hash
    assert doc["valid"] is True
    assert doc["seed_path"] == [0]
    assert len(doc["caveats"]) == 2
    assert doc["vanishings"] == [{"t": 2, "h1": 0}]
    assert all(c["passed"] for c in doc["full_checks"])


def test_certify_rejects_unknown_level(pres_d3r2):
    with pytest.raises(ValueError):
        certify(pres_d3r2, level="extreme")


def test_artifact_bytes_are_pinned(pres_d7r3, pres_d3r2):
    # sha256 digests of four deterministic artifacts; every verdict in a
    # certificate must follow from the numbers next to it
    zeroed = pres_d7r3.coeff_array.copy()
    zeroed[:, 0] = 0
    certs = {
        "076bebae71b1239c7803ac04a94e3ec06030e1c3762346288a288b64a232fe81":
            certify(pres_d7r3, "full"),
        "3931ffd34cbb36fa1b030ab36908bee8cf0262347e3bb70d85c0c61d8dd8da0e":
            certify(pres_d3r2, "basic"),
        "8c5a6fa2a6b9f205a9815cfb2b8fc1f0cf3ee545152e81044debe656b6184b8f":
            certify(UlrichPresentation(F, 7, 3, zeroed), "full"),
    }
    for digest, cert in certs.items():
        assert hashlib.sha256(cert.to_bytes()).hexdigest() == digest
        doc = json.loads(cert.to_bytes())
        checks = doc["full_checks"] or []
        assert all(c["passed"] == (c["computed"] == c["expected"]) for c in checks)
        valid = (doc["generic_rank"]["status"] == "injective"
                 and all(v["h1"] == 0 for v in doc["vanishings"]))
        assert doc["valid"] is valid
        assert doc["full_ok"] is (None if doc["level"] == "basic"
                                  else valid and all(c["passed"] for c in checks))
    assert [c.valid for c in certs.values()] == [True, True, False]
    report = sweep([3, 5, 7], 3, trials_per_d=5, master_seed=0)
    assert (hashlib.sha256(report.to_bytes()).hexdigest()
            == "cb2c719eb409b46bcaa9bd60546ec362b20263a95a32670c239eaa82f530d607")


# --- local freeness: h^1(E(-2d)) = 0 against pointwise ranks ----------------

@st.composite
def _lf_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=3))
    r += r * (d - 1) % 2
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pres = random_presentation(d, r, rng, p=p)
    kind = draw(st.sampled_from(["random", "zero_column", "direct_sum", "point_drop"]))
    if kind == "direct_sum":
        pres = direct_sum(pres, random_presentation(d, 1 if d % 2 else 2, rng, p=p))
    elif pres.a and kind == "zero_column":
        c = np.array(pres.coeff_array)
        c[:, :1] = 0
        pres = UlrichPresentation(pres.field, d, pres.r, c)
    elif pres.a and kind == "point_drop":
        point = [int(x) for x in rng.integers(0, p, size=3)]
        point[draw(st.integers(min_value=0, max_value=2))] = 1
        pres = drop_rank_at(pres, point, rng)
    return pres, rng


def _projective_points(p: int):
    """Every point of P^2(F_p), one representative each: p^2 + p + 1."""
    yield from ((x, y, 1) for x in range(p) for y in range(p))
    yield from ((x, 1, 0) for x in range(p))
    yield (1, 0, 0)


@settings(max_examples=300, deadline=None)
@given(_lf_cases())
def test_vanishing_t2_gives_full_rank_at_every_point(case):
    # h^1(E(-2d)) = 0 proves that M has rank a at every point over the
    # algebraic closure; check all of P^2(F_p) and random F_{p^2} points
    pres, rng = case
    p, a = pres.p, pres.a
    if bundle_cohomology(pres, -2 * pres.d)[1] != 0:
        return
    points = list(_projective_points(p))
    assert len(points) == p * p + p + 1
    for point in points:
        assert rank_dense(pres.evaluate_at(point), p) == a
    # F_{p^2} = F_p[u]/(u^2 - n); e0 + e1 u acts on the basis (1, u) by the
    # block [[e0, n e1], [e1, e0]], so rank over F_p is twice the rank over
    # F_{p^2}.  M(x0 + x1 u) = M(x0) + u M(x1), since M is linear.
    n = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
    for i in range(20):
        x0, x1 = rng.integers(0, p, size=(2, 3))
        x0[i % 3], x1[i % 3] = 1, 0
        e0, e1 = pres.evaluate_at(x0), pres.evaluate_at(x1)
        regular = np.block([[e0, n * e1 % p], [e1, e0]])
        assert rank_dense(regular, p) == 2 * a


def test_single_point_rank_drop_fails_at_vanishing_t2(pres_d7r3):
    point = (5, 11, 1)
    pres = drop_rank_at(pres_d7r3, point, np.random.default_rng(3))
    assert rank_dense(pres.evaluate_at(point), pres.p) < pres.a
    cert = certify(pres, master_seed=0)
    assert cert.generic_rank.passed
    assert not cert.valid and not cert.passed
    assert cert.vanishings[0][0] == 2 and cert.vanishings[0][1] > 0
    assert cert.discrepancies()[0]["check"] == "vanishing_t2"


def test_local_freeness_block_follows_vanishing_t2(pres_d7r3, capsys, tmp_path):
    doc = certify(pres_d7r3, master_seed=0).to_json_dict()
    assert doc["local_freeness"] == {
        "verdict": "no degeneracy found (incomplete)", "k_max": 2, "trials_per_k": 20}
    assert doc["config"] == {"rank_trials": 3, "lf_k_max": 2, "lf_trials": 20,
                             "acm_window_pad": 3}

    coeffs = seeded_presentation(3, 2).coeff_array.copy()
    coeffs[:, 0] = 0
    degenerate = UlrichPresentation(F, 3, 2, coeffs)
    path = tmp_path / "degenerate.json"
    save(degenerate, path)
    assert main(["--format", "json", "certify", "--in", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["vanishings"][0]["h1"] > 0
    assert doc["local_freeness"] == {
        "verdict": "not proved: h^1(E(-2d)) != 0", "k_max": 2, "trials_per_k": 20}
    assert doc["config"]["lf_k_max"] == 2 and doc["config"]["lf_trials"] == 20
