"""Arithmetic behind the benchmark's metrics.

Percentile selection, the dense-elimination operation count, span self
times and the per-layer metrics derived from a traced pass.  Everything
here is plain Python on plain data, so the self-tests exercise it without
running the program.

A span is a tuple ``(name, start, end, parent, note)``: ``name`` is
``"<module>.<function>"``, times are ``time.perf_counter`` seconds,
``parent`` is the index of the enclosing span in the same list (-1 at top
level) and ``note`` is whatever the wrapper recorded about the call.  Spans
are appended when the call starts, so a parent always precedes its
children.  The program runs single-threaded (``--workers 1``), so the
children of a span are disjoint intervals inside it.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported as a tail figure only when at least this many
# samples lie beyond it.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # round first so that e.g. 0.9 * 100 does not become 90.00000000000001
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-th
    percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least MIN_BEYOND of n
    samples beyond it, or None when even the lowest has fewer."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def rank_gop(m: int, n: int, k: int) -> float:
    """Computed operations of an elimination that finds k pivots in an
    m x n matrix, 2(mnk - (m+n)k^2/2 + k^3/3), in units of 10^9.

    Pivot i updates an (m-i) x (n-i) trailing block with one multiply and
    one add per entry; summing over i < k gives this count to leading
    order.  It is a computed figure, not a measured one."""
    return 2.0 * (m * n * k - (m + n) * k * k / 2.0 + k ** 3 / 3.0) / 1e9


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outermost_s(spans, names) -> float:
    """Wall time spent inside spans named in ``names``, counting a span
    only when no enclosing span is also named in ``names`` (so nested calls
    such as form_action -> section_space are not counted twice)."""
    names = frozenset(names)
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = covered
        if name in names and not covered:
            total += end - start
    return total


_UNIT_SUFFIXES = (("_gop_per_s", "Gop/s"), ("_gop", "Gop"), ("_bytes", "B"),
                  ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "1"),
                  ("_frac", "1"))


def unit_of(name: str) -> str:
    """Every metric's unit follows from its name; the rest are counts."""
    return next((unit for suffix, unit in _UNIT_SUFFIXES if name.endswith(suffix)),
                "count")


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("linalg", "cohomology", "presentation", "field", "ulrich", "search", "cli")


def layer_metrics(spans, map_rank_hits: int, map_rank_misses: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``map_rank_hits``/``map_rank_misses`` are the pass's statistics of the
    cohomology rank cache, read from outside the program.
    """
    selfs = self_times(spans)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), s in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s

    rank_calls = 0
    rank_cells = 0
    rank_max_cells = 0
    rank_gop_total = 0.0
    maps_built = 0
    assembly_bytes = 0
    certify_calls = 0
    certify_self = 0.0
    trials_attempted = 0
    trials_reported = 0
    for i, ((name, start, end, parent, note), s) in enumerate(zip(spans, selfs)):
        if name == "linalg.rank_dense" and note is not None:
            m, n, k = note
            rank_calls += 1
            rank_cells += m * n
            rank_max_cells = max(rank_max_cells, m * n)
            rank_gop_total += rank_gop(m, n, k)
        elif name == "cohomology.build_map_matrix" and note is not None:
            maps_built += 1
            assembly_bytes += note
        elif name == "ulrich.certify":
            certify_calls += 1
            certify_self += s
            if _has_ancestor(spans, i, "search.search"):
                trials_attempted += 1
        elif name == "search.search" and note is not None:
            trials_reported += note

    rank_s = outermost_s(spans, ["linalg.rank_dense"])
    requests = map_rank_hits + map_rank_misses
    out = {
        "linalg.rank_calls": rank_calls,
        "linalg.rank_s": rank_s,
        "linalg.rank_cells": rank_cells,
        "linalg.rank_max_cells": rank_max_cells,
        "linalg.rank_gop": rank_gop_total,
        "linalg.rank_gop_per_s": _ratio(rank_gop_total, rank_s),
        "linalg.rank_bytes": 8 * rank_cells,
        "linalg.rref_calls": sum(1 for sp in spans if sp[0] == "linalg.rref"),
        "linalg.rref_s": outermost_s(spans, ["linalg.rref"]),
        "cohomology.maps_built": maps_built,
        "cohomology.assembly_s": outermost_s(spans, ["cohomology.build_map_matrix"]),
        "cohomology.assembly_mb": assembly_bytes / 1e6,
        "cohomology.rank_requests": requests,
        "cohomology.reuse_ratio": _ratio(map_rank_hits, requests),
        "cohomology.section_s": outermost_s(
            spans, ["cohomology.section_space", "cohomology.form_action"]),
        "cohomology.end_s": outermost_s(spans, ["cohomology.end_cohomology"]),
        "cohomology.omega_s": outermost_s(spans, ["cohomology.omega_table"]),
        "presentation.lf_sample_s": outermost_s(
            spans, ["presentation.local_freeness_sample"]),
        "presentation.draw_s": outermost_s(spans, ["presentation.random_presentation"]),
        "presentation.generic_rank_s": outermost_s(
            spans, ["presentation.generic_rank_check"]),
        "presentation.io_s": outermost_s(
            spans, ["presentation.save", "presentation.load",
                    "presentation.canonical_json_bytes"]),
        "field.ext_rank_calls": sum(1 for sp in spans if sp[0] == "field.ext_matrix_rank"),
        "field.ext_rank_s": outermost_s(spans, ["field.ext_matrix_rank"]),
        "ulrich.certify_calls": certify_calls,
        "ulrich.certify_self_s": certify_self,
        "ulrich.full_profile_s": outermost_s(spans, ["ulrich._full_profile_checks"]),
        "search.trials_attempted": trials_attempted,
        "search.trials_reported": trials_reported,
        "search.useful_ratio": _ratio(trials_reported, trials_attempted),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
    return out
