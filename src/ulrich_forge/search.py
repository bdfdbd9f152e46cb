"""Seeded randomized existence search for Ulrich presentations.

One trial draws a presentation with uniform coefficients and runs the
basic certifier.  Trial i of a search uses a generator derived by hashing
(master seed, namespace, trial index), so trials are order-independent:
the same seed gives byte-identical reports and presentation files.
Trials run serially and the search stops at the first success.  Reports
hold only their inputs and computed numbers; the clock is read only
against a sweep's time budget, which decides where a sweep is cut.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .field import DEFAULT_PRIME
from .presentation import Shaped, UlrichPresentation, random_presentation, save, shape
from .ulrich import LEGACY_LF_CONFIG, UlrichCertificate, certificate_filename, certify

SWEEP_FORMAT = "ulrich-sweep/1"
SEARCH_FORMAT = "ulrich-search/1"


# Retired knobs keep their keys at fixed values, because the seed-0 sweep
# digests and the pinned reports hold them: trials always run serially,
# and reports carry no wall-clock time.
LEGACY_REPORT_KEYS = {"row": {"ms": None},
                      "config": {"workers": 1, "record_timings": False}}


@dataclass
class SearchReport(Shaped):
    """Outcome of one (d, r) search, a function of its inputs alone: the
    same seed tuple gives the same bytes.

    The winner's basic certificate carries its hash, vanishings and witness.
    Trials run in index order and stop at the first success, so every counted
    failure precedes it; trial indices are 0-based (0 means the first draw)."""

    d: int
    r: int
    p: int
    master_seed: int
    trials_requested: int
    certificate: Optional[UlrichCertificate]
    presentation_file: Optional[str]
    failure_histogram: dict[str, int]

    @property
    def succeeded(self) -> bool:
        return self.certificate is not None

    @property
    def success_trial(self) -> Optional[int]:
        return sum(self.failure_histogram.values()) if self.succeeded else None

    @property
    def trials_run(self) -> int:
        """Trials up to and including the first success, else all of them."""
        return self.trials_requested if self.success_trial is None else self.success_trial + 1

    def to_json_dict(self) -> dict:
        cert = self.certificate
        return {
            "format": SEARCH_FORMAT,
            "d": self.d, "r": self.r, "p": self.p,
            "a": self.a, "b": self.b, "alpha": self.alpha,
            "master_seed": self.master_seed,
            "trials_requested": self.trials_requested,
            "trials_run": self.trials_run,
            "success_trial": self.success_trial,
            "presentation_hash": cert.presentation_hash if cert else None,
            "presentation_file": self.presentation_file,
            "h1_checks": [[t, h1] for t, h1 in cert.vanishings] if cert else [],
            "generic_rank": cert.generic_rank.status if cert else None,
            "failure_histogram": dict(sorted(self.failure_histogram.items())),
            **LEGACY_REPORT_KEYS["row"],
        }


@dataclass
class SearchResult:
    report: SearchReport
    presentation: Optional[UlrichPresentation]


def presentation_filename(d: int, r: int, p: int, master_seed: int) -> str:
    return f"ulrich_d{d}_r{r}_p{p}_seed{master_seed}.json"


def search(d: int, r: int, trials: int = 5, master_seed: int = 0,
           p: int = DEFAULT_PRIME, out_dir: Optional[Path] = None,
           namespace: tuple[int, ...] = (),
           deadline: Optional[float] = None) -> Optional[SearchResult]:
    """Try seeded random presentations until one certifies (basic level).

    Trials run in index order and stop at the first success, so the report
    covers exactly the trials with index <= the first success.  On success
    the winning presentation is saved under out_dir with a deterministic
    name and its certificate is written next to it.  A search that finds
    time.perf_counter() past the deadline before a trial returns None; the
    deadline is the only clock read, and the report holds no time.
    """
    shape(d, r)  # validate before any work
    if trials < 1:
        raise ValueError("trials must be >= 1")

    histogram: dict[str, int] = {}
    presentation: Optional[UlrichPresentation] = None
    certificate: Optional[UlrichCertificate] = None
    for i in range(trials):
        if deadline is not None and time.perf_counter() > deadline:
            return None
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, *namespace, i]))
        pres = random_presentation(d, r, rng, p=p)
        cert = certify(pres, level="basic", master_seed=master_seed,
                       seed_path=(*namespace, i))
        if cert.passed:
            presentation, certificate = pres, cert
            break
        key = cert.discrepancies()[0]["check"]
        histogram[key] = histogram.get(key, 0) + 1

    filename = None
    if certificate is not None and out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        filename = presentation_filename(d, r, p, master_seed)
        save(presentation, out_dir / filename)
        (out_dir / certificate_filename(filename)).write_bytes(certificate.to_bytes())

    report = SearchReport(
        d=d, r=r, p=p, master_seed=master_seed, trials_requested=trials,
        certificate=certificate, presentation_file=filename,
        failure_histogram=histogram,
    )
    return SearchResult(report=report, presentation=presentation)


@dataclass
class SweepReport:
    p: int
    r: int
    master_seed: int
    trials_per_d: int
    results: list[SearchReport]
    skipped: list[int] = dc_field(default_factory=list)
    time_budget_s: Optional[float] = None

    @property
    def partial(self) -> bool:
        """The time budget ran out before the degree list did."""
        return bool(self.skipped)

    @property
    def all_succeeded(self) -> bool:
        return not self.partial and all(r.succeeded for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "format": SWEEP_FORMAT,
            "p": self.p, "r": self.r,
            "master_seed": self.master_seed,
            "trials_per_d": self.trials_per_d,
            "config": {"time_budget_s": self.time_budget_s,
                       **LEGACY_REPORT_KEYS["config"], **LEGACY_LF_CONFIG},
            "partial": self.partial,
            "skipped_degrees": self.skipped,
            "results": [
                {k: v for k, v in rep.to_json_dict().items() if k != "format"}
                for rep in self.results
            ],
        }


def sweep(d_list: list[int], r: int, trials_per_d: int = 5, master_seed: int = 0,
          p: int = DEFAULT_PRIME, out_dir: Optional[Path] = None,
          time_budget_s: Optional[float] = None) -> SweepReport:
    """Run one search per degree; partial results are marked when the time
    budget (finite, > 0 seconds) runs out before the list is exhausted.
    The budget is checked before every trial; the degree it cuts short is
    skipped, with every later one.  Which degrees ran is the report's one
    dependence on the clock: it records no time."""
    if not d_list:
        raise ValueError("the degree list is empty")
    if time_budget_s is not None and not (math.isfinite(time_budget_s) and time_budget_s > 0):
        raise ValueError(f"time budget must be a finite number > 0, got {time_budget_s}")
    for d in d_list:
        shape(d, r)  # fail fast on any invalid pair
    deadline = None if time_budget_s is None else time.perf_counter() + time_budget_s
    results: list[SearchReport] = []
    skipped: list[int] = []
    for pos, d in enumerate(d_list):
        res = search(d, r, trials=trials_per_d, master_seed=master_seed, p=p,
                     out_dir=out_dir, namespace=(d,), deadline=deadline)
        if res is None:
            skipped = list(d_list[pos:])
            break
        results.append(res.report)
    return SweepReport(p=p, r=r, master_seed=master_seed,
                       trials_per_d=trials_per_d, results=results, skipped=skipped,
                       time_budget_s=time_budget_s)
