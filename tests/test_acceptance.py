"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import json
import time

import numpy as np
import pytest

from ulrich_forge.cohomology import bundle_cohomology, dual_cohomology, end_cohomology
from ulrich_forge.field import DEFAULT_PRIME
from ulrich_forge.linalg import rank_dense
from ulrich_forge.presentation import extension
from ulrich_forge.search import presentation_filename, search
from ulrich_forge.ulrich import (certify, euler_pairing, hilbert_check,
                                 invariants, line_bundle_solutions, stability_margin)

from conftest import (closed_margin, dual_resolution_cohomology, jordan_hoelder_types,
                      linear_span_dimension)


def report(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


SWEEP_ARGS = ["sweep", "--r", "3", "--d", "3,5,7,9,11,13", "--seed", "0",
              "--p", "32003", "--trials", "5"]
SWEEP_REPORT = "sweep_r3_p32003_seed0.json"


@pytest.fixture(scope="session")
def rank3_desk_sweep(tmp_path_factory):
    """Criterion 1's sweep, run through the CLI; shared with criterion 8."""
    from ulrich_forge.cli import main
    out = tmp_path_factory.mktemp("sweep_run1")
    t0 = time.perf_counter()
    code = main(SWEEP_ARGS + ["--out", str(out)])
    elapsed = time.perf_counter() - t0
    doc = json.loads((out / SWEEP_REPORT).read_text())
    return code, doc, out, elapsed


def test_criterion_1_rank3_desk_sweep(rank3_desk_sweep):
    code, doc, out, elapsed = rank3_desk_sweep
    ok = code == 0 and len(doc["results"]) == 6
    ok = ok and all(row["success_trial"] is not None for row in doc["results"])
    d7 = next(row for row in doc["results"] if row["d"] == 7)
    shape_ok = d7["a"] == 9 and d7["b"] == 12
    vanish_ok = d7["h1_checks"] == [[2, 0], [3, 0]]  # h1(E(-14)) = h1(E(-21)) = 0
    time_ok = elapsed <= 120
    report(1, ok and shape_ok and vanish_ok and time_ok,
           f"rank-3 sweep d=3..13 all certified, d=7 is 12x9 with both "
           f"vanishings zero, {elapsed:.1f}s (limit 120s)")


def test_criterion_2_rank2_existence():
    t0 = time.perf_counter()
    results = [search(d, 2, trials=5, master_seed=0) for d in range(2, 9)]
    elapsed = time.perf_counter() - t0
    ok = all(res.report.succeeded for res in results)
    trials_ok = all(res.report.success_trial < 5 for res in results)
    report(2, ok and trials_ok and elapsed <= 60,
           f"rank-2 searches succeed for d=2..8 within 5 trials, "
           f"{elapsed:.1f}s (limit 60s)")


def test_criterion_3_d2_uniqueness_signature():
    seeds_checked = 0
    for seed in range(20):
        res = search(2, 2, trials=5, master_seed=seed)
        assert res.report.succeeded, f"seed {seed} found nothing"
        pres = res.presentation
        assert linear_span_dimension(pres) == 3, f"seed {seed}: entries do not span"
        assert end_cohomology(pres) == (1, 0, 0), f"seed {seed}: wrong End cohomology"
        seeds_checked += 1
    report(3, seeds_checked == 20,
           f"{seeds_checked} seeds: d=2 presentations span all linear forms "
           f"and have End cohomology (1, 0, 0)")


def test_criterion_4_d2_splitting_signature():
    p1 = search(2, 2, trials=5, master_seed=0).presentation
    p2 = search(2, 2, trials=5, master_seed=1).presentation
    summed = extension(p1, p2, 0)
    h0, h1, h2 = end_cohomology(summed)
    chi = h0 - h1 + h2
    report(4, h0 == 4 and chi == 4,
           f"block-diagonal d=2 sum has h0(End) = {h0} and chi(End) = {chi} "
           f"(both must be 4 = k^2)")


def test_criterion_5_full_profile_certification():
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for d, r in [(3, 2), (5, 2), (3, 3), (7, 3)]:
        res = search(d, r, trials=5, master_seed=0)
        cert = certify(res.presentation, level="full", master_seed=0)
        inv = invariants(d, r)
        by_name = {c.name: c for c in cert.full_checks}
        expected_present = (
            [f"ladder_h{q}_m{-d}" for q in range(3)]
            + [f"ladder_h{q}_m{1-d}" for q in range(3)]
            + [f"ladder_h{q}_m{2-d}" for q in range(2)]
            + [f"acm_h1_t{t}" for t in range(-cert.alpha - 3, 4)]
            + [f"sections_t{t}" for t in range(0, 3)]
            + ["h2_t-3", "h2_t-4", "omega_table", "end_cohomology"]
        )
        items_ok = all(name in by_name and by_name[name].passed
                       for name in expected_present)
        end_ok = by_name["end_cohomology"].computed == [1, inv.h1_end_simple, 0]
        omega_ok = by_name["omega_table"].computed == [[0, inv.a, inv.b],
                                                       [0, 0, 0], [0, 0, 0]]
        sections_ok = all(
            by_name[f"sections_t{t}"].computed == d * d * r * (t + 1) * (t + 2) // 2
            for t in range(0, 3))
        h2_ok = all(
            by_name[f"h2_t{t}"].computed == d * d * r * (t + 1) * (t + 2) // 2
            for t in (-3, -4))
        good = (cert.valid and cert.full_ok and items_ok and end_ok
                and omega_ok and sections_ok and h2_ok)
        all_ok = all_ok and good
        details.append(f"({d},{r}):{'ok' if good else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    report(5, all_ok and elapsed <= 300,
           f"full profiles exact for {' '.join(details)}, "
           f"{elapsed:.1f}s (limit 300s)")


def test_criterion_6_duality_cross_paths():
    pres = search(3, 2, trials=5, master_seed=0).presentation
    mismatches = []
    for m in range(-12, 4):
        direct = bundle_cohomology(pres, m)
        dual = dual_resolution_cohomology(pres, -m - 3)
        if direct != (dual[2], dual[1], dual[0]):
            mismatches.append(m)
    d = pres.d
    shift = 3 * d - 3
    dual_profile_ok = (
        dual_cohomology(pres, shift - d)[0] == 0
        and dual_cohomology(pres, shift)[0] == d * d * pres.r
        and all(dual_cohomology(pres, shift + t * d)[1] == 0 for t in range(-3, 4))
    )
    report(6, not mismatches and dual_profile_ok,
           f"Serre duality matches the dual resolution on m in [-12, 3] "
           f"({'no mismatches' if not mismatches else mismatches}) and the "
           f"twisted dual shows the Ulrich profile")


def test_criterion_7_numerology_identity_sweeps():
    t0 = time.perf_counter()
    for d in range(1, 51):
        for r in range(1, 21):
            if r * (d - 1) % 2:
                continue
            for t in range(-50, 51):
                hilbert_check(d, r, t)
    # every Jordan-Hoelder type of rank r <= 12: D exceeds the family of
    # strictly semistable bundles by sum_{i<j} (r_i r_j (d^2-5)/4 - 1) > 0
    types = [(d, parts) for d in range(3, 102) for r in range(4, 13)
             for parts in jordan_hoelder_types(r, d)]
    bounds_ok = len(types) == 13_843 and all(
        stability_margin(d, parts) == closed_margin(d, parts) > 0 for d, parts in types)
    euler_ok = True
    for d in range(2, 51):
        for r in range(1, 21):
            if r * (d - 1) % 2:
                continue
            inv = invariants(d, r)
            chi = euler_pairing(d, r, r)
            euler_ok = euler_ok and (4 * chi == -r * r * (d * d - 5)
                                     and chi == inv.chi_end
                                     and 1 - chi == inv.h1_end_simple)
    lines_ok = (line_bundle_solutions(1) == [0]
                and all(line_bundle_solutions(d) == [] for d in range(2, 1001)))
    elapsed = time.perf_counter() - t0
    report(7, bounds_ok and euler_ok and lines_ok and elapsed <= 10,
           f"Hilbert agreement, stability margins of {len(types)} Jordan-Hoelder "
           f"types, pairing consistency and line-bundle emptiness all exact, "
           f"{elapsed:.1f}s (limit 10s)")


def test_criterion_8_determinism(rank3_desk_sweep, tmp_path):
    from ulrich_forge.cli import main
    _, _, out1, _ = rank3_desk_sweep
    out2 = tmp_path / "sweep_run2"
    code = main(SWEEP_ARGS + ["--out", str(out2)])
    assert code == 0
    reports_equal = ((out1 / SWEEP_REPORT).read_bytes()
                     == (out2 / SWEEP_REPORT).read_bytes())
    files_equal = True
    for d in (3, 5, 7, 9, 11, 13):
        name = presentation_filename(d, 3, 32003, 0)
        cert_name = name[: -len(".json")] + ".cert.json"
        for n in (name, cert_name):
            files_equal = files_equal and (
                (out1 / n).read_bytes() == (out2 / n).read_bytes())
    report(8, reports_equal and files_equal,
           "repeat of criterion 1 gives byte-identical report, "
           "presentation and certificate files")


def test_criterion_9_performance_gate():
    rng = np.random.default_rng(0)
    a = rng.integers(0, DEFAULT_PRIME, size=(4000, 4000))
    t0 = time.perf_counter()
    rank = rank_dense(a, DEFAULT_PRIME)
    elapsed = time.perf_counter() - t0
    report(9, rank == 4000 and elapsed <= 20,
           f"dense 4000x4000 rank over F_32003 in {elapsed:.1f}s (limit 20s)")


def test_criterion_10_rank3_atlas_slice():
    t0 = time.perf_counter()
    failed = []
    for d in range(15, 26, 2):
        res = search(d, 3, trials=5, master_seed=0)
        ok = res.report.succeeded
        if ok:
            cert = certify(res.presentation, level="full", master_seed=0)
            ok = cert.valid and cert.full_ok
        if not ok:
            failed.append(d)
    elapsed = time.perf_counter() - t0
    report(10, not failed and elapsed <= 120,
           f"rank-3 searches for odd d=15..25 each certify in full "
           f"({'all valid' if not failed else f'failed at d={failed}'}), "
           f"{elapsed:.1f}s (limit 120s)")
