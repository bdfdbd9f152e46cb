"""ulrich-forge benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload sweep_r3 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from its
``src`` directory.  The workload repeats passes over its command list until
``--seconds`` have elapsed.  Every pass starts with the program's caches
cleared, as in a fresh CLI process, and its outputs are checked after the
clock stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
name every metric with its unit and sample count, and record the machine.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported in this process or its children.
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import (layer_metrics, median, percentile, samples_beyond,  # noqa: E402
                     tail_percentile, unit_of)
from tracing import TARGETS, Tracer, find_caches  # noqa: E402
from workloads import WORKERS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKSPACE = ROOT / ".perfbench"
SETUP_PROBES = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="ulrich-forge benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_program() -> None:
    """Import ulrich_forge from this checkout's src, never from elsewhere."""
    if not (SRC / "ulrich_forge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ulrich_forge
    import ulrich_forge.cli  # noqa: F401  (the entry point the workloads drive)
    if Path(ulrich_forge.__file__).resolve().parent != (SRC / "ulrich_forge").resolve():
        raise SystemExit(f"perfbench: imported ulrich_forge from {ulrich_forge.__file__}")


def environment(args, samples: dict) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS,
        "workers": int(WORKERS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def measure_setup(workload) -> list[float]:
    """Time from spawning a fresh interpreter to it being ready for its
    first command: interpreter start, `import ulrich_forge`, reading the
    workload's input files.  The probe prints its own perf_counter reading,
    which on Linux is CLOCK_MONOTONIC and so comparable across processes."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.setup_inputs()]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


class Runner:
    """Runs cold passes of one workload and totals their checks."""

    def __init__(self, workload):
        import ulrich_forge.cohomology as coh
        self.workload = workload
        self.caches = find_caches()
        # the cohomology rank cache; its statistics give the reuse ratio
        self.map_rank = getattr(coh, "_map_rank", None)
        # times each search call; a no-op on workloads that run no search
        self.search_timer = Tracer([t for t in TARGETS if t[:2] == ("search", "search")])
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer):
        """One timed pass; returns (seconds, spans, (cache hits, misses))."""
        for cache in self.caches:
            cache.cache_clear()
        self.workload.reset()
        with tracer:
            t0 = time.perf_counter()
            outputs = self.workload.run()
            elapsed = time.perf_counter() - t0
        info = self.map_rank.cache_info() if self.map_rank is not None else None
        attempted, failed = self.workload.check(outputs)
        self.attempted += attempted
        self.failed += failed
        return elapsed, tracer.take(), (info.hits, info.misses) if info else (0, 0)


def end_to_end(runner, seconds: float):
    setup = measure_setup(runner.workload)
    passes, searches = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        elapsed, spans, _ = runner.one_pass(runner.search_timer)
        passes.append(elapsed)
        searches.extend(1e3 * (end - begin) for _, begin, end, _, _ in spans)
    metrics = {
        "run_s": median(passes),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"run_s": len(passes), "setup_s": len(setup), "peak_rss_mb": 1}
    return metrics, samples, searches


def traced(runner, seconds: float, trace_file: Path):
    """Alternate untraced and traced passes, starting untraced."""
    full = Tracer(TARGETS)
    plain, traced_s, per_pass, kept = [], [], [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        tracer = runner.search_timer if len(plain) <= len(traced_s) else full
        elapsed, spans, (hits, misses) = runner.one_pass(tracer)
        if tracer is full:
            traced_s.append(elapsed)
            per_pass.append(layer_metrics(spans, hits, misses))
            kept.append(spans)
        else:
            plain.append(elapsed)
    metrics = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
    metrics["trace.run_s"] = median(traced_s)
    metrics["trace.untraced_run_s"] = median(plain)
    metrics["trace.overhead_s"] = median(traced_s) - median(plain)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / median(plain)
    metrics["trace.spans"] = median([len(s) for s in kept])
    write_spans(kept, trace_file)
    if full.missing:
        print(f"perfbench: not in this version, their metrics read 0: "
              f"{', '.join(full.missing)}")
    samples = {"traced_passes": len(traced_s), "untraced_passes": len(plain)}
    return metrics, samples


def write_spans(passes, path: Path) -> None:
    """Spans of every traced pass, one JSON object per line."""
    with open(path, "w") as fh:
        for i, spans in enumerate(passes):
            for name, start, end, parent, note in spans:
                fh.write(json.dumps({"pass": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "note": note}) + "\n")
    print(f"perfbench: spans written to {path.relative_to(ROOT)}")


def report(args, runner, metrics, samples, searches) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args, samples), sort_keys=True))
    for name, value in metrics.items():
        n = f" n={samples[name]}" if name in samples else ""
        print(f"  {name:<28} {value:>14.6g} {unit_of(name):<6}{n}")
    # printed only: search latency exists only on workloads that search
    for q in sorted({50, 90, tail_percentile(len(searches)) or 90}) if searches else ():
        beyond = samples_beyond(len(searches), q)
        print(f"  {f'search_p{q:g}_ms':<28} {percentile(searches, q):>14.6g} {'ms':<6}"
              f" n={len(searches)} ({beyond} beyond"
              f"{'' if beyond >= 10 else ', fewer than 10: indicative only'})")
    # printed only: it reads 0 when all is well; the JSON line carries it
    print(f"  {'fail_frac':<28} {runner.failed / runner.attempted:>14.6g} {'1':<6}"
          f" ({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = WORKSPACE / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        runner = Runner(wl)
        if args.trace:
            trace_file = WORKSPACE / f"trace-{wl.name}-seed{args.seed}.jsonl"
            metrics, samples = traced(runner, args.seconds, trace_file)
            searches = []
        else:
            metrics, samples, searches = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, runner, metrics, samples, searches)
    return 0


if __name__ == "__main__":
    sys.exit(main())
