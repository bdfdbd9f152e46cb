"""Numerology, the certifier, and the arithmetic checkers."""

import hashlib
import importlib
import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ulrich_forge.cli import main
from ulrich_forge import cohomology, presentation
from ulrich_forge.cohomology import (bundle_cohomology, chi_line, end_cohomology,
                                     hom_presentations)
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import rank_dense
from ulrich_forge.presentation import (ParityError, UlrichPresentation,
                                       canonical_json_bytes, extension,
                                       generic_rank_check, random_presentation, save)
from ulrich_forge.search import sweep
from ulrich_forge.ulrich import (certify, euler_pairing, hilbert_check, invariants,
                                 line_bundle_solutions, stability_margin, ulrich_cohomology,
                                 veronese_facts)

from conftest import (closed_margin, drop_rank_at, equivariant_presentation,
                      jordan_hoelder_types, seeded_presentation, variant, variant_cases)

F = PrimeField(DEFAULT_PRIME)
search_module = importlib.import_module("ulrich_forge.search")


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


# --- the closed form of every twist -----------------------------------------

def test_ulrich_cohomology_ladder_d3r2():
    # (-d) all zero; (1-d) has r(d+1)/2 sections; (2-d) has r(d+2) sections
    assert [ulrich_cohomology(3, 2, m) for m in (-3, -2, -1)] == [(0, 0, 0), (4, 0, 0),
                                                                   (10, 0, 0)]
    with pytest.raises(ParityError):
        ulrich_cohomology(4, 3, 0)


def test_ulrich_cohomology_matches_the_resolution():
    for d in range(1, 42):
        for r in range(1, 7):
            if r * (d - 1) % 2:
                continue
            inv = invariants(d, r)
            for m in range(-5 * d, 2 * d + 1):
                h = ulrich_cohomology(d, r, m)
                chi = inv.b * chi_line(d - 1 + m) - inv.a * chi_line(d - 2 + m)
                assert h[0] - h[1] + h[2] == chi, (d, r, m)
                # natural cohomology: at most one entry is nonzero
                assert sum(v != 0 for v in h) <= 1 and min(h) >= 0, (d, r, m)
                if m % d == 0:
                    assert chi == inv.hilbert(m // d), (d, r, m)
            # h^1 starts and ends at a just inside (-2d, -d)
            assert ulrich_cohomology(d, r, -d - 1)[1] == inv.a
            assert ulrich_cohomology(d, r, 1 - 2 * d)[1] == inv.a


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


# --- extensions -------------------------------------------------------------

def _coboundary_rank(e1: UlrichPresentation, e2: UlrichPresentation, n=None) -> int:
    """Rank of (R, Q) |-> M1 R + Q M2, scalar R (a1 x a2) and Q (b1 x b2),
    into the 3 b1 a2 coefficients of a b1 x a2 matrix of linear forms;
    with n, that of the same map with N's coefficients as one more column."""
    m1, m2 = e1.coeff_array, e2.coeff_array
    on_r = np.einsum("ikv,jl->ijvkl", m1, np.eye(e2.a, dtype=np.int64))
    on_q = np.einsum("ik,ljv->ijvkl", np.eye(e1.b, dtype=np.int64), m2)
    rows = 3 * e1.b * e2.a
    cols = [on_r.reshape(rows, -1), on_q.reshape(rows, -1)]
    if n is not None:
        cols.append(np.reshape(n, (rows, 1)))
    return rank_dense(np.hstack(cols), e1.p)


@pytest.mark.parametrize("d, r1, r2, moduli_dim, ext1", [
    (3, 2, 2, 17, 4), (5, 2, 2, 81, 20), (5, 3, 2, 126, 30), (7, 3, 3, 397, 99)])
def test_extensions_are_simple_and_ext1_is_the_euler_pairing(d, r1, r2, moduli_dim, ext1):
    # H^1(E1(1-d)) = 0 makes Ext^1(E2, E1) the cokernel of (R, Q) |->
    # M1 R + Q M2 on the b1 x a2 matrices N, and Ext^2(E2, E1) = 0, so
    # ext^1 = hom(E2, E1) - chi(E2^v (x) E1).  A random N is a non-split
    # class, so E is simple; N = 0 is the direct sum, with h^0(End) = 2
    e1, e2 = seeded_presentation(d, r1), seeded_presentation(d, r2, seed=1)
    n = np.random.default_rng(np.random.SeedSequence([2, d, r1, r2])).integers(
        0, e1.p, size=(e1.b, e2.a, 3))
    cert = certify(extension(e1, e2, n), level="full")
    assert cert.full_ok
    assert [c.computed for c in cert.full_checks if c.name == "end_cohomology"] == [
        [1, moduli_dim, 0]]
    split = certify(extension(e1, e2, 0), level="full")
    assert split.full_ok is False
    assert [(c["check"], c["computed"]) for c in split.discrepancies()] == [
        ("end_cohomology", [2, moduli_dim + 1, 0])]
    assert 3 * e1.b * e2.a - _coboundary_rank(e1, e2) == ext1
    assert hom_presentations(e2, e1) - euler_pairing(d, r2, r1) == ext1


@st.composite
def _extension_cases(draw):
    """Two draws at one d in [3, 5] of ranks in {2, 3} (2 at even d) and a
    b1 x a2 block N: random, a coboundary M1 R + Q M2, zero, or one random
    entry.  At d = 2 the one rank-2 Ulrich bundle is rigid, so the two
    draws would be isomorphic."""
    d = draw(st.integers(min_value=3, max_value=5))
    ranks = st.sampled_from([2, 3] if d % 2 else [2])
    r1, r2 = draw(ranks), draw(ranks)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    e1, e2 = random_presentation(d, r1, rng), random_presentation(d, r2, rng)
    p, kind = e1.p, draw(st.sampled_from(["random", "coboundary", "zero", "one_entry"]))
    n = np.zeros((e1.b, e2.a, 3), dtype=np.int64)
    if kind == "random":
        n = rng.integers(0, p, size=n.shape)
    elif kind == "coboundary":
        r = rng.integers(0, p, size=(e1.a, e2.a))
        q = rng.integers(0, p, size=(e1.b, e2.b))
        n = (np.einsum("ikv,kj->ijv", e1.coeff_array, r)
             + np.einsum("ik,kjv->ijv", q, e2.coeff_array)) % p
    elif kind == "one_entry":
        n[rng.integers(0, e1.b), rng.integers(0, e2.a)] = rng.integers(0, p, size=3)
    return e1, e2, n


@settings(max_examples=60, deadline=None)
@given(_extension_cases())
def test_extension_is_simple_exactly_when_its_class_is_nonzero(case):
    # E1 and E2 Ulrich of rank <= 3 are stable, and not isomorphic when
    # Hom(E1, E2) = 0; then End(E) is the scalars exactly when the extension
    # does not split, that is when N is not a coboundary M1 R + Q M2
    e1, e2, n = case
    assume(certify(e1).valid and certify(e2).valid and hom_presentations(e1, e2) == 0)
    ext = extension(e1, e2, n)
    assert certify(ext).valid
    coboundaries = _coboundary_rank(e1, e2)
    nonsplit = _coboundary_rank(e1, e2, n) > coboundaries
    h0 = end_cohomology(ext)[0]
    assert (h0 == 1) == nonsplit
    assert nonsplit or h0 >= 2
    assert (3 * e1.b * e2.a - coboundaries
            == hom_presentations(e2, e1) - euler_pairing(e1.d, e2.r, e1.r))


# --- stability margin -------------------------------------------------------

def test_stability_margin_by_hand():
    # d = 3, 2 + 2 + 4: D = h^1_simple(8) = 65; the factors give 5 + 5 + 17,
    # the three pairs 1 - chi = 5, 9, 9, and the two projectivizations -2
    assert stability_margin(3, (2, 2, 4)) == 65 - (27 + 23 - 2) == 17
    assert stability_margin(3, (4, 4)) == 15
    assert stability_margin(4, (2, 2)) == 10


def test_stability_margin_every_type():
    # every ordered composition of r <= 12 into parts >= 2 that have Ulrich
    # bundles at d, two parts or more
    types = 0
    for d in range(3, 42):
        for r in range(4, 13):
            for parts in jordan_hoelder_types(r, d):
                assert stability_margin(d, parts) == closed_margin(d, parts) > 0, (d, parts)
                types += 1
    assert types == 5503


def test_stability_margin_parent_families():
    # the three splits once checked by name: 2 + (2k-2), 3 + (2k-3) and
    # 3 + (2k-2); 3 + 1 holds a rank-1 part, which no Ulrich sheaf has
    for d in range(3, 102):
        for k in range(2, 51):
            for parts in ((2, 2 * k - 2), (3, 2 * k - 3), (3, 2 * k - 2)):
                if parts == (3, 1):
                    with pytest.raises(ValueError):
                        stability_margin(d, parts)
                elif d % 2 == 0 and parts[0] == 3:
                    with pytest.raises(ParityError):
                        stability_margin(d, parts)
                else:
                    assert stability_margin(d, parts) > 0, (d, parts)


def test_stability_margin_rejections():
    # d < 3, fewer than two parts, a part below 2 (3 + 1 included)
    for d, parts in [(2, (2, 2)), (1, (2, 4)), (3, (4,)), (3, ()),
                     (3, (3, 1)), (3, (1, 1, 2)), (5, (0, 4)), (5, (-2, 6))]:
        with pytest.raises(ValueError) as exc:
            stability_margin(d, parts)
        assert not isinstance(exc.value, ParityError), (d, parts)
    # an odd part at even d
    for d, parts in [(4, (3, 3)), (6, (2, 3, 3)), (8, (3, 5))]:
        with pytest.raises(ParityError):
            stability_margin(d, parts)


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
    # a direct sum of two Ulrich bundles is Ulrich, so it passes the basic
    # level, but it is not simple: the full profile must record exactly
    # the End failure, h^0(End) = 2, and the JSON must say so
    summed = extension(seeded_presentation(3, 2, seed=0), seeded_presentation(3, 2, seed=1), 0)
    t0 = time.perf_counter()
    cert = certify(summed, level="full")
    elapsed = time.perf_counter() - t0
    assert cert.valid is True and cert.full_ok is False
    assert [(c["check"], c["computed"]) for c in cert.discrepancies()] == [
        ("end_cohomology", [2, 18, 0])]
    assert elapsed < 2.0    # about 0.02 s on a 2-vCPU host
    doc = json.loads(cert.to_bytes())
    assert [c["passed"] for c in doc["full_checks"] if c["check"] == "end_cohomology"] == [False]
    assert doc["valid"] is True and doc["full_ok"] is False


@pytest.mark.parametrize("d, moduli_dim", [(2, 0), (3, 10), (4, 45), (5, 126), (6, 280),
                                           (7, 540)])
def test_equivariant_presentation_certifies_full(d, moduli_dim):
    # S^{d-1}Q(d-1) is the homogeneous Ulrich bundle of rank d: simple,
    # with End = (1, D, 0), D = (4 + d^2(d^2-5))/4
    cert = certify(equivariant_presentation(d, DEFAULT_PRIME), level="full")
    assert cert.full_ok
    assert [c.computed for c in cert.full_checks if c.name == "end_cohomology"] == [
        [1, moduli_dim, 0]]


_ODD_PRIMES_BELOW_60 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.mark.parametrize("d, bad", [(2, set()), (3, set()), (4, {3}), (5, {3}), (6, {5}),
                                    (7, {3, 5}), (8, {3, 5, 7}), (9, {5, 7}), (10, {3, 7}),
                                    (11, {3, 5, 7})],
                         ids=[f"d{d}" for d in range(2, 12)])
def test_equivariant_presentation_fails_exactly_at_bad_primes(d, bad):
    # the 0/1 matrix is the same at every p; at a bad prime h^1(E(-2d)) != 0
    invalid = {p for p in _ODD_PRIMES_BELOW_60
               if not certify(equivariant_presentation(d, p)).valid}
    assert invalid == bad


def test_certify_negative_seed_raises_before_any_rank(monkeypatch):
    # the seed stream is built first, so SeedSequence's refusal comes before
    # the vanishings are ranked
    def rank(*args):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(cohomology, "_mult_rank", rank)
    with pytest.raises(ValueError, match="non-negative"):
        certify(seeded_presentation(3, 2), master_seed=-5)


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


@settings(max_examples=100, deadline=None)
@given(variant_cases(), st.sampled_from(["basic", "full"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_every_verdict_reads_one_list_of_checks(pres, level, seed):
    # seed_path (0,) is the one a one-trial search certifies its draw with
    cert = certify(pres, level=level, master_seed=seed, seed_path=(0,))
    basic = cert.checks[:1 + len(cert.vanishings)]
    assert [c.name for c in basic] == ["generic_rank",
                                       *(f"h1_t{t}" for t, _ in cert.vanishings)]
    assert cert.checks[len(basic):] == (cert.full_checks or [])
    assert cert.valid == all(c.passed for c in basic)
    assert cert.passed == (cert.discrepancies() == [])
    assert cert.discrepancies() == [c.to_json_dict() for c in cert.checks if not c.passed]
    assert cert.full_ok == (None if level == "basic" else cert.passed)
    if not cert.valid:
        # hypothesis rejects function-scoped fixtures, so no monkeypatch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "random_presentation", lambda d, r, rng, p: pres)
            rep = search_module.search(pres.d, pres.r, trials=1, master_seed=seed,
                                       p=pres.p).report
        assert rep.failure_histogram == {cert.discrepancies()[0]["check"]: 1}


# --- the generic-rank witness: implied by h^1(E(-2d)) = 0 --------------------

@settings(max_examples=200, deadline=None)
@given(variant_cases(), st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.integers(min_value=0, max_value=50), max_size=2))
def test_implied_witness_matches_generic_rank_check(pres, seed, path):
    # certify ranks the drawn points only when h^1(E(-2d)) != 0; either way
    # its witness is the one the computed check finds on the same stream
    cert = certify(pres, master_seed=seed, seed_path=tuple(path))
    rng = np.random.default_rng(np.random.SeedSequence([seed, *path, 101]))
    assert cert.generic_rank == generic_rank_check(pres, 3, rng)
    if cert.valid:
        assert rank_dense(pres.evaluate_at(cert.generic_rank.witness), pres.p) == pres.a


def test_valid_certify_ranks_no_evaluated_matrix(monkeypatch, pres_d7r3):
    ranked = []
    dense = presentation.rank_dense
    monkeypatch.setattr(presentation, "rank_dense",
                        lambda a, p: ranked.append(a.shape) or dense(a, p))
    assert certify(pres_d7r3, master_seed=0).valid
    assert ranked == []
    # h^1(E(-2d)) != 0: the drawn points are ranked until one has rank a
    coeffs = pres_d7r3.coeff_array.copy()
    coeffs[:, 0] = 0
    zero_column = certify(UlrichPresentation(F, 7, 3, coeffs), master_seed=0)
    assert not zero_column.generic_rank.passed and ranked == [(12, 9)] * 3
    ranked.clear()
    dropped = drop_rank_at(pres_d7r3, (5, 11, 1), np.random.default_rng(3))
    cert = certify(dropped, master_seed=0)
    assert cert.generic_rank.passed and not cert.valid
    assert ranked == [(12, 9)] * cert.generic_rank.trials


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
    assert (hashlib.sha256(canonical_json_bytes(report.to_json_dict())).hexdigest()
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
    kind = draw(st.sampled_from(["random", "zero_column", "direct_sum", "extension",
                                 "point_drop"]))
    if kind != "point_drop":
        pres = variant(pres, kind, rng)
    elif pres.a:
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
    assert cert.discrepancies()[0]["check"] == "h1_t2"


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
