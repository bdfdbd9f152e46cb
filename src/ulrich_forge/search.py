"""Seeded randomized existence search for Ulrich presentations.

One trial draws a presentation with uniform coefficients and runs the
basic certifier.  Trial i of a search uses a generator derived by hashing
(master seed, namespace, trial index), so trials are order-independent:
the same seed gives byte-identical reports and presentation files no
matter how many workers ran them.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    presentation: UlrichPresentation
    certificate: UlrichCertificate

    @property
    def succeeded(self) -> bool:
        return self.certificate.passed

    @property
    def failure_reason(self) -> Optional[str]:
        if self.succeeded:
            return None
        cert = self.certificate
        if not cert.generic_rank.passed:
            return "generic_rank"
        for t, h1 in cert.vanishings:
            if h1 != 0:
                return f"h1_t{t}"
        return "unknown"


@dataclass
class SearchReport:
    """Outcome of one (d, r) search; deterministic given the seed tuple.

    Trial indices are 0-based: success_trial == 0 means the first draw."""

    d: int
    r: int
    p: int
    master_seed: int
    trials_requested: int
    trials_run: int
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
    certificate: Optional[UlrichCertificate]


def _run_trial(d: int, r: int, p: int, master_seed: int,
               namespace: tuple[int, ...], index: int) -> TrialOutcome:
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, *namespace, index]))
    pres = random_presentation(d, r, rng, p=p)
    cert = certify(pres, level="basic", master_seed=master_seed,
                   seed_path=(*namespace, index))
    return TrialOutcome(index=index, presentation=pres, certificate=cert)


def presentation_filename(d: int, r: int, p: int, master_seed: int) -> str:
    return f"ulrich_d{d}_r{r}_p{p}_seed{master_seed}.json"


def search(d: int, r: int, trials: int = 5, master_seed: int = 0,
           p: int = DEFAULT_PRIME, workers: int = 1,
           out_dir: Optional[Path] = None, namespace: tuple[int, ...] = (),
           record_timings: bool = False) -> SearchResult:
    """Try seeded random presentations until one certifies (basic level).

    The report only covers trials with index <= the first success, so its
    content does not depend on the worker count.  On success the winning
    presentation is saved under out_dir with a deterministic name and its
    certificate is written next to it.
    """
    shape(d, r)  # validate before any work
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t_start = time.perf_counter()

    outcomes: dict[int, TrialOutcome] = {}
    first_success: Optional[int] = None
    if workers <= 1:
        for i in range(trials):
            out = _run_trial(d, r, p, master_seed, namespace, i)
            outcomes[i] = out
            if out.succeeded:
                first_success = i
                break
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for batch_start in range(0, trials, workers):
                batch = range(batch_start, min(trials, batch_start + workers))
                futures = {i: pool.submit(_run_trial, d, r, p, master_seed,
                                          namespace, i)
                           for i in batch}
                for i in batch:
                    outcomes[i] = futures[i].result()
                hit = next((i for i in batch if outcomes[i].succeeded), None)
                if hit is not None:
                    first_success = hit
                    break

    # deterministic view: outcomes at indices <= first success only
    horizon = first_success + 1 if first_success is not None else trials
    considered = [outcomes[i] for i in range(horizon)]
    histogram: dict[str, int] = {}
    for out in considered:
        reason = out.failure_reason
        if reason is not None:
            histogram[reason] = histogram.get(reason, 0) + 1

    presentation = None
    certificate = None
    filename = None
    if first_success is not None:
        winner = outcomes[first_success]
        presentation = winner.presentation
        certificate = winner.certificate
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            filename = presentation_filename(d, r, p, master_seed)
            save(presentation, out_dir / filename)
            cert_path = out_dir / (filename[: -len(".json")] + ".cert.json")
            cert_path.write_bytes(certificate.to_bytes())

    elapsed_ms = 1e3 * (time.perf_counter() - t_start)
    winner_cert = outcomes[first_success].certificate if first_success is not None else None
    report = SearchReport(
        d=d, r=r, p=p, master_seed=master_seed,
        trials_requested=trials, trials_run=horizon,
        success_trial=first_success,
        presentation_hash=(winner_cert.presentation_hash if winner_cert else None),
        presentation_file=filename,
        h1_checks=(list(winner_cert.vanishings) if winner_cert else []),
        generic_rank=(winner_cert.generic_rank.status if winner_cert else None),
        failure_histogram=histogram,
        ms=round(elapsed_ms, 3) if record_timings else None,
    )
    return SearchResult(report=report, presentation=presentation, certificate=certificate)


@dataclass
class SweepReport:
    p: int
    r: int
    master_seed: int
    trials_per_d: int
    results: list[SearchReport]
    skipped: list[int] = dc_field(default_factory=list)
    partial: bool = False
    config: dict = dc_field(default_factory=dict)

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
          p: int = DEFAULT_PRIME, workers: int = 1,
          out_dir: Optional[Path] = None, time_budget_s: Optional[float] = None,
          record_timings: bool = False) -> SweepReport:
    """Run one search per degree; partial results are marked when the time
    budget runs out before the list is exhausted."""
    if not d_list:
        raise ValueError("the degree list is empty")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for d in d_list:
        shape(d, r)  # fail fast on any invalid pair
    config = {
        "workers": workers,
        "time_budget_s": time_budget_s,
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
                     workers=workers, out_dir=out_dir, namespace=(d,),
                     record_timings=record_timings)
        results.append(res.report)
    return SweepReport(p=p, r=r, master_seed=master_seed,
                       trials_per_d=trials_per_d, results=results,
                       skipped=skipped, partial=bool(skipped), config=config)
