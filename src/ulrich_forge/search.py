"""Seeded randomized existence search for Ulrich presentations.

One trial draws a presentation with uniform coefficients and runs the
basic certifier.  Trial i of a search uses a generator derived by hashing
(master seed, namespace, trial index), so trials are order-independent:
the same seed gives byte-identical reports and presentation files.
Trials run serially and the search stops at the first success.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .field import DEFAULT_PRIME
from .presentation import (UlrichPresentation, canonical_json_bytes,
                           random_presentation, save, shape)
from .ulrich import LEGACY_LF_CONFIG, UlrichCertificate, certify

SWEEP_FORMAT = "ulrich-sweep/1"
SEARCH_FORMAT = "ulrich-search/1"


# Trials always run serially; the key stays because the seed-0 sweep
# digests pin it.
LEGACY_WORKERS_CONFIG = {"workers": 1}


def _failure_key(cert: UlrichCertificate) -> str:
    """Histogram key of a failed basic certificate: the witness first, else
    the first nonzero vanishing (a failed certificate has one of the two)."""
    if not cert.generic_rank.passed:
        return "generic_rank"
    return next(f"h1_t{t}" for t, h1 in cert.vanishings if h1 != 0)


@dataclass
class SearchReport:
    """Outcome of one (d, r) search; deterministic given the seed tuple.

    Trial indices are 0-based: success_trial == 0 means the first draw."""

    d: int
    r: int
    p: int
    master_seed: int
    trials_requested: int
    success_trial: Optional[int]
    presentation_hash: Optional[str]
    presentation_file: Optional[str]
    h1_checks: list[tuple[int, int]]
    generic_rank: Optional[str]
    failure_histogram: dict[str, int]
    ms: Optional[float] = None

    @property
    def succeeded(self) -> bool:
        return self.success_trial is not None

    @property
    def trials_run(self) -> int:
        """Trials up to and including the first success, else all of them."""
        return self.trials_requested if self.success_trial is None else self.success_trial + 1

    def to_json_dict(self) -> dict:
        s = shape(self.d, self.r)
        return {
            "format": SEARCH_FORMAT,
            "d": self.d, "r": self.r, "p": self.p,
            "a": s.a, "b": s.b, "alpha": s.alpha,
            "master_seed": self.master_seed,
            "trials_requested": self.trials_requested,
            "trials_run": self.trials_run,
            "success_trial": self.success_trial,
            "presentation_hash": self.presentation_hash,
            "presentation_file": self.presentation_file,
            "h1_checks": [[t, h1] for t, h1 in self.h1_checks],
            "generic_rank": self.generic_rank,
            "failure_histogram": dict(sorted(self.failure_histogram.items())),
            "ms": self.ms,
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
           record_timings: bool = False) -> SearchResult:
    """Try seeded random presentations until one certifies (basic level).

    Trials run in index order and stop at the first success, so the report
    covers exactly the trials with index <= the first success.  On success
    the winning presentation is saved under out_dir with a deterministic
    name and its certificate is written next to it.
    """
    shape(d, r)  # validate before any work
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t_start = time.perf_counter()

    histogram: dict[str, int] = {}
    success_trial: Optional[int] = None
    presentation: Optional[UlrichPresentation] = None
    certificate: Optional[UlrichCertificate] = None
    for i in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, *namespace, i]))
        pres = random_presentation(d, r, rng, p=p)
        cert = certify(pres, level="basic", master_seed=master_seed,
                       seed_path=(*namespace, i))
        if cert.passed:
            success_trial, presentation, certificate = i, pres, cert
            break
        key = _failure_key(cert)
        histogram[key] = histogram.get(key, 0) + 1

    filename = None
    if certificate is not None and out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        filename = presentation_filename(d, r, p, master_seed)
        save(presentation, out_dir / filename)
        cert_path = out_dir / (filename[: -len(".json")] + ".cert.json")
        cert_path.write_bytes(certificate.to_bytes())

    elapsed_ms = 1e3 * (time.perf_counter() - t_start)
    report = SearchReport(
        d=d, r=r, p=p, master_seed=master_seed,
        trials_requested=trials,
        success_trial=success_trial,
        presentation_hash=(certificate.presentation_hash if certificate else None),
        presentation_file=filename,
        h1_checks=(list(certificate.vanishings) if certificate else []),
        generic_rank=(certificate.generic_rank.status if certificate else None),
        failure_histogram=histogram,
        ms=round(elapsed_ms, 3) if record_timings else None,
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
    config: dict = dc_field(default_factory=dict)

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
            "config": self.config,
            "partial": self.partial,
            "skipped_degrees": self.skipped,
            "results": [
                {k: v for k, v in rep.to_json_dict().items() if k != "format"}
                for rep in self.results
            ],
        }

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())


def sweep(d_list: list[int], r: int, trials_per_d: int = 5, master_seed: int = 0,
          p: int = DEFAULT_PRIME, out_dir: Optional[Path] = None,
          time_budget_s: Optional[float] = None,
          record_timings: bool = False) -> SweepReport:
    """Run one search per degree; partial results are marked when the time
    budget (finite, > 0 seconds) runs out before the list is exhausted."""
    if not d_list:
        raise ValueError("the degree list is empty")
    if time_budget_s is not None and not (math.isfinite(time_budget_s) and time_budget_s > 0):
        raise ValueError(f"time budget must be a finite number > 0, got {time_budget_s}")
    for d in d_list:
        shape(d, r)  # fail fast on any invalid pair
    config = {
        "time_budget_s": time_budget_s,
        **LEGACY_WORKERS_CONFIG,
        **LEGACY_LF_CONFIG,
        "record_timings": record_timings,
    }
    t0 = time.perf_counter()
    results: list[SearchReport] = []
    skipped: list[int] = []
    for pos, d in enumerate(d_list):
        if time_budget_s is not None and time.perf_counter() - t0 > time_budget_s:
            skipped = list(d_list[pos:])
            break
        res = search(d, r, trials=trials_per_d, master_seed=master_seed, p=p,
                     out_dir=out_dir, namespace=(d,),
                     record_timings=record_timings)
        results.append(res.report)
    return SweepReport(p=p, r=r, master_seed=master_seed,
                       trials_per_d=trials_per_d, results=results,
                       skipped=skipped, config=config)
