"""Self-tests for the arithmetic the benchmark's metrics rest on.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

from metrics import (MIN_BEYOND, layer_metrics, outermost_s, percentile, rank_gop,
                     samples_beyond, self_times, tail_percentile, unit_of)


# -- computed operation count -------------------------------------------------

def test_rank_gop_zero_rank_is_free():
    assert rank_gop(500, 700, 0) == 0.0


def test_rank_gop_square_full_rank_is_two_thirds_n_cubed():
    n = 3000
    assert rank_gop(n, n, n) == pytest.approx(2 * n ** 3 / 3 / 1e9, rel=1e-12)


def test_rank_gop_rectangular_by_hand():
    # 2 * (3*5*3 - (3+5)*9/2 + 27/3) = 2 * (45 - 36 + 9) = 36 operations
    assert rank_gop(3, 5, 3) * 1e9 == pytest.approx(36.0)
    assert rank_gop(5, 3, 3) == rank_gop(3, 5, 3)


def test_rank_gop_matches_pivot_by_pivot_sum_to_leading_order():
    m, n, k = 400, 900, 350
    exact = sum(2 * (m - i) * (n - i) for i in range(k))
    assert rank_gop(m, n, k) * 1e9 == pytest.approx(exact, rel=5e-3)


# -- percentiles and the ten-beyond rule -------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))          # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(140, 90) == 14
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1, 50) == 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert MIN_BEYOND == 10
    assert tail_percentile(140) == 90          # p99 would leave 1 beyond
    assert tail_percentile(99) == 50           # p90 leaves 9 beyond
    assert tail_percentile(100) == 90          # exactly 10 beyond p90
    assert tail_percentile(1000) == 99         # 10 beyond p99
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(19) is None         # p50 leaves 9 beyond
    assert tail_percentile(20) == 50


# -- span self time ----------------------------------------------------------

def _span(name, start, end, parent, note=None):
    return (name, start, end, parent, note)


NESTED = [
    _span("cli.main", 0.0, 10.0, -1),                       # 0
    _span("ulrich.certify", 1.0, 9.0, 0),                    # 1
    _span("cohomology.h1_twist", 2.0, 5.0, 1),               # 2
    _span("linalg.rank_dense", 2.5, 4.5, 2, (10, 20, 10)),   # 3
    _span("cohomology.h1_twist", 6.0, 8.0, 1),               # 4
    _span("linalg.rank_dense", 6.0, 7.0, 4, (10, 10, 0)),    # 5
]


def test_self_time_subtracts_only_direct_children():
    selfs = self_times(NESTED)
    assert selfs == pytest.approx([2.0, 3.0, 1.0, 2.0, 1.0, 1.0])
    # self times partition the top-level span
    assert sum(selfs) == pytest.approx(10.0)


def test_outermost_counts_nested_names_once():
    spans = [
        _span("cohomology.form_action", 0.0, 4.0, -1),
        _span("cohomology.section_space", 0.5, 2.0, 0),
        _span("cohomology.section_space", 2.0, 3.0, 0),
        _span("cohomology.section_space", 5.0, 6.0, -1),
    ]
    names = ["cohomology.form_action", "cohomology.section_space"]
    assert outermost_s(spans, names) == pytest.approx(5.0)
    assert outermost_s(spans, ["cohomology.section_space"]) == pytest.approx(3.5)


def test_layer_metrics_of_nested_spans():
    out = layer_metrics(NESTED, map_rank_hits=1, map_rank_misses=3)
    assert out["cli.self_s"] == pytest.approx(2.0)
    assert out["ulrich.self_s"] == pytest.approx(3.0)
    assert out["ulrich.certify_self_s"] == pytest.approx(3.0)
    assert out["cohomology.self_s"] == pytest.approx(2.0)
    assert out["linalg.self_s"] == pytest.approx(3.0)
    assert out["linalg.rank_s"] == pytest.approx(3.0)
    assert out["linalg.rank_calls"] == 2
    assert out["linalg.rank_cells"] == 300
    assert out["linalg.rank_max_cells"] == 200
    assert out["linalg.rank_bytes"] == 2400
    assert out["linalg.rank_gop"] == pytest.approx(rank_gop(10, 20, 10))
    assert out["cohomology.rank_requests"] == 4
    assert out["cohomology.reuse_ratio"] == pytest.approx(0.25)
    # no search span: the certify call is not a search trial
    assert out["search.trials_attempted"] == 0
    assert out["search.useful_ratio"] == 0.0


def test_search_trials_counted_under_search_spans():
    spans = [
        _span("search.search", 0.0, 3.0, -1, 2),
        _span("ulrich.certify", 0.0, 1.0, 0),
        _span("ulrich.certify", 1.0, 2.0, 0),
    ]
    out = layer_metrics(spans, 0, 0)
    assert out["search.trials_attempted"] == 2
    assert out["search.trials_reported"] == 2
    assert out["search.useful_ratio"] == 1.0


# -- the metric list the benchmark declares ---------------------------------

def test_declared_metrics_match_what_the_benchmark_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    reported = list(layer_metrics([], 0, 0)) + [
        "trace.run_s", "trace.untraced_run_s", "trace.overhead_s",
        "trace.overhead_frac", "trace.spans"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == unit_of(metric["name"]), metric["name"]
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]
