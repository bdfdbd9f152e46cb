"""Randomized search: determinism, reproducibility, failure taxonomy."""

import importlib
import itertools
import json
import time

import numpy as np
import pytest

from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.presentation import (ParityError, UlrichPresentation, load,
                                       random_presentation)
from ulrich_forge.search import search, sweep
from ulrich_forge.ulrich import certify

from conftest import drop_rank_at, linear_span_dimension, seeded_presentation

# the package exports the function search under the module's name
search_module = importlib.import_module("ulrich_forge.search")


def test_search_d7r3_succeeds_first_trial(tmp_path):
    res = search(7, 3, trials=5, master_seed=0, out_dir=tmp_path)
    rep = res.report
    assert rep.success_trial == 0
    assert rep.trials_run == 1
    assert rep.certificate.vanishings == [(2, 0), (3, 0)]
    assert rep.failure_histogram == {}
    assert (tmp_path / rep.presentation_file).exists()


def test_search_parity_error_before_any_trial():
    with pytest.raises(ParityError):
        search(4, 3, trials=5, master_seed=0)


def test_search_d2r2_spans_linear_forms(tmp_path):
    res = search(2, 2, trials=5, master_seed=0, out_dir=tmp_path)
    assert res.report.succeeded
    assert linear_span_dimension(res.presentation) == 3


def test_search_reports_failures_small_field():
    # over F_3 random draws do fail; seed frozen after probing
    res = search(3, 2, trials=8, master_seed=5, p=3)
    rep = res.report
    assert rep.success_trial == 2
    assert rep.failure_histogram == {"h1_t2": 2}
    assert rep.trials_run == 3


def test_search_can_exhaust_trials():
    res = search(3, 2, trials=8, master_seed=6, p=3)
    rep = res.report
    assert rep.success_trial is None
    assert rep.trials_run == 8
    assert sum(rep.failure_histogram.values()) == 8
    assert res.presentation is None


def test_search_byte_reproducible(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    r1 = search(5, 3, trials=5, master_seed=3, out_dir=out1)
    r2 = search(5, 3, trials=5, master_seed=3, out_dir=out2)
    f1 = (out1 / r1.report.presentation_file).read_bytes()
    f2 = (out2 / r2.report.presentation_file).read_bytes()
    assert f1 == f2
    doc = r1.report.to_json_dict()
    assert json.dumps(doc) == json.dumps(r2.report.to_json_dict())
    assert "ms" in doc and doc["ms"] is None


def _search_drawing(monkeypatch, pres, trials):
    # every trial draws the given presentation
    monkeypatch.setattr(search_module, "random_presentation",
                        lambda d, r, rng, p: pres)
    return search(pres.d, pres.r, trials=trials, master_seed=0, p=pres.p)


def test_failure_histogram_counts_witness_before_vanishing(monkeypatch):
    coeffs = seeded_presentation(3, 2).coeff_array.copy()
    coeffs[:, 0] = 0
    degenerate = UlrichPresentation(PrimeField(DEFAULT_PRIME), 3, 2, coeffs)
    cert = certify(degenerate, level="basic", master_seed=0)
    # both the witness and h^1(E(-2d)) fail; the witness names the failure
    assert not cert.generic_rank.passed and cert.vanishings[0][1] > 0
    rep = _search_drawing(monkeypatch, degenerate, trials=2).report
    assert rep.failure_histogram == {"generic_rank": 2}
    assert rep.success_trial is None and rep.trials_run == 2


def test_failure_histogram_counts_point_rank_drop_at_t2(monkeypatch, pres_d7r3):
    dropped = drop_rank_at(pres_d7r3, (5, 11, 1), np.random.default_rng(3))
    rep = _search_drawing(monkeypatch, dropped, trials=1).report
    assert rep.failure_histogram == {"h1_t2": 1}
    assert rep.success_trial is None and rep.trials_run == 1


def test_search_trial_outcomes_are_index_pure():
    # the winning presentation equals the one redrawn from its index alone
    res = search(3, 3, trials=5, master_seed=9)
    seq = np.random.SeedSequence([9, res.report.success_trial])
    again = random_presentation(3, 3, np.random.default_rng(seq), p=32003)
    assert again.content_hash == res.report.certificate.presentation_hash
    assert res.presentation == again


def test_saved_success_recertifies_from_disk(tmp_path):
    res = search(5, 2, trials=5, master_seed=0, out_dir=tmp_path)
    pres = load(tmp_path / res.report.presentation_file)
    cert = certify(pres, level="basic", master_seed=0)
    assert cert.valid
    assert cert.presentation_hash == res.report.certificate.presentation_hash


def test_sweep_rank3_odd_degrees(tmp_path):
    rep = sweep([3, 5, 7, 9], 3, trials_per_d=5, master_seed=0, out_dir=tmp_path)
    assert [r.d for r in rep.results] == [3, 5, 7, 9]
    assert all(r.succeeded for r in rep.results)
    assert rep.all_succeeded and not rep.partial
    doc = rep.to_json_dict()
    assert doc["format"] == "ulrich-sweep/1"
    assert all("ms" in row for row in doc["results"])
    assert all(row["ms"] is None for row in doc["results"])
    assert doc["config"]["record_timings"] is False


def test_sweep_rank2_low_degrees():
    rep = sweep([2, 3, 4, 5], 2, trials_per_d=5, master_seed=0)
    assert all(r.succeeded for r in rep.results)


def test_sweep_empty_list():
    # zero searches must not report success
    with pytest.raises(ValueError, match="empty"):
        sweep([], 3, trials_per_d=5, master_seed=0)


def test_sweep_time_budget_marks_partial(monkeypatch):
    # a clock that moves one second per reading: the budget is spent
    # before the first degree starts
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    rep = sweep([3, 5], 3, trials_per_d=5, master_seed=0, time_budget_s=0.5)
    assert rep.partial
    assert rep.skipped == [3, 5]
    assert not rep.all_succeeded


def test_sweep_time_budget_cuts_a_search_between_trials(monkeypatch, tmp_path):
    # each certification takes 10 s on a fake clock; d = 5 always draws a
    # presentation whose trial 0 fails, so the budget runs out before its
    # trial 1: d = 5 and every later degree are skipped, and nothing of
    # the cut search is written
    now = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    certify_real = search_module.certify

    def slow_certify(*args, **kwargs):
        now[0] += 10.0
        return certify_real(*args, **kwargs)

    coeffs = seeded_presentation(5, 3).coeff_array.copy()
    coeffs[:, 0] = 0
    failing = UlrichPresentation(PrimeField(DEFAULT_PRIME), 5, 3, coeffs)
    draw_real = search_module.random_presentation
    monkeypatch.setattr(search_module, "certify", slow_certify)
    monkeypatch.setattr(search_module, "random_presentation",
                        lambda d, r, rng, p: failing if d == 5 else draw_real(d, r, rng, p))
    rep = sweep([3, 5, 7], 3, trials_per_d=5, master_seed=0, out_dir=tmp_path,
                time_budget_s=15.0)
    assert rep.partial and rep.skipped == [5, 7]
    assert [(r.d, r.success_trial) for r in rep.results] == [(3, 0)]
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "ulrich_d3_r3_p32003_seed0.cert.json", "ulrich_d3_r3_p32003_seed0.json"]
    # without a budget the failing degree runs all its trials
    now[0] = 0.0
    rep = sweep([3, 5, 7], 3, trials_per_d=5, master_seed=0)
    assert not rep.partial and [r.trials_run for r in rep.results] == [1, 5, 1]
    assert rep.results[1].failure_histogram == {"generic_rank": 5}


def test_sweep_validates_every_degree_first():
    with pytest.raises(ParityError):
        sweep([3, 4], 3, trials_per_d=5, master_seed=0)

