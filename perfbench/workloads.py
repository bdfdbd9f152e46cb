"""The four workloads and their correctness gates.

Each workload is a fixed list of operations issued one after another from
this process (closed loop, one client): `ulrich-forge` CLI commands through
``ulrich_forge.cli.main``, or one library call for the rank kernel.  A pass
runs the whole list once.  Inputs come from the workload seed; seed 0
reproduces the acceptance-suite inputs.

``run`` is the timed pass and only issues commands.  ``check`` runs after
the clock stops, reads the outputs and returns (attempted, failed): a wrong
exit code or an output that fails its check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

P = 32003
WORKERS = "1"  # search workers; pinned so the program runs one thread


class BenchError(RuntimeError):
    """The benchmark could not set up its inputs."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One `ulrich-forge` command in this process; returns (exit code, stdout).

    ``main`` is looked up at call time so an installed tracer sees the call.
    A crash is reported on stderr and counted as exit code -1."""
    cli = sys.modules["ulrich_forge.cli"]
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation; keep measuring
        print(f"perfbench: ulrich-forge {' '.join(argv)} crashed:\n"
              f"{traceback.format_exc()}", file=sys.stderr)
        code = -1
    return code, out.getvalue()


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # output digests of the first pass; later passes must match them
        self._first = None

    def prepare(self) -> None:
        """Untimed input generation."""

    def setup_inputs(self) -> list[str]:
        """Files a fresh process reads before its first command."""
        return []

    def reset(self) -> None:
        """Untimed clean-up before each pass."""

    def run(self):
        raise NotImplementedError

    def check(self, outputs) -> tuple[int, int]:
        raise NotImplementedError

    def _same_as_recorded(self, digests, recorded) -> bool:
        """Outputs are byte-identical to the first pass and, at the seed
        where reference digests were recorded, to those."""
        if self._first is None:
            self._first = digests
        ok = digests == self._first
        if recorded is not None and self.seed == 0:
            ok = ok and digests == recorded
        return ok


# ---------------------------------------------------------------------------


class SweepR3(Workload):
    """Acceptance criterion 1: the rank-3 desk sweep, d = 3..13."""

    name = "sweep_r3"
    DEGREES = (3, 5, 7, 9, 11, 13)
    # sha256 of the report and presentation files at seed 0
    RECORDED = {
        "sweep_r3_p32003_seed0.json":
            "7f5cb9da808eb70f940a28fcb3a7ca1f2f7e3b073f208b6ffd6becd75567eceb",
        "ulrich_d3_r3_p32003_seed0.json":
            "e22a1c15c20c65e738a4741760cf546bb06418e581716832148162b2b44fb134",
        "ulrich_d5_r3_p32003_seed0.json":
            "0d25b4bc3bc6ba09ca8d4a100ef59fdb9c164d2e933213ec512c3df01a561883",
        "ulrich_d7_r3_p32003_seed0.json":
            "2bb994e5b6d82e495d8abd1d1eba15e24138467426ddc11faa646d3295b7737c",
        "ulrich_d9_r3_p32003_seed0.json":
            "18c60de40402e697c1716eedadcbf47f3547fff93e99bf1fbd36177da8e9f4bf",
        "ulrich_d11_r3_p32003_seed0.json":
            "83e401b7d93fba050ad6dd3b3938518ed86a05e1af8b9274590771b5aa2c3647",
        "ulrich_d13_r3_p32003_seed0.json":
            "5ba4a3ffdc9038bb4ab06524193515f5279482aea181e95bed8747dce37cb3b1",
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = workdir / "sweep_r3"

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        return run_cli(["--format", "json", "sweep", "--r", "3",
                        "--d", ",".join(map(str, self.DEGREES)),
                        "--seed", str(self.seed), "--p", str(P), "--trials", "5",
                        "--workers", WORKERS, "--out", str(self.out)])

    def digests(self) -> dict[str, str]:
        names = [f"sweep_r3_p{P}_seed{self.seed}.json"]
        names += [f"ulrich_d{d}_r3_p{P}_seed{self.seed}.json" for d in self.DEGREES]
        return {name: (hashlib.sha256((self.out / name).read_bytes()).hexdigest()
                       if (self.out / name).is_file() else None)
                for name in names}

    def check(self, outputs):
        code, stdout = outputs
        n = len(self.DEGREES)
        doc = _load_json(stdout)
        rows = doc.get("results", []) if isinstance(doc, dict) else []
        if code != 0 or len(rows) != n or not self._same_as_recorded(
                self.digests(), self.RECORDED):
            return n, n
        bad = sum(1 for row in rows
                  if row.get("success_trial") is None
                  or any(h1 for _, h1 in row.get("h1_checks", [])))
        return n, bad


class CertifyFull(Workload):
    """Acceptance criterion 5: full-profile certification of four
    presentations, generated from the seed by `search --out` (untimed)."""

    name = "certify_full"
    PAIRS = ((3, 2), (5, 2), (3, 3), (7, 3))
    # sha256 of each certificate without timings_ms, at seed 0, in PAIRS order
    RECORDED = [
        "37680945f8f1a01b8e3aaba0231b258a12ecd70e5e833abb83ca061f032638eb",
        "6ccd835cfc26ba467adda54e7717c6422672b2b5dce612627f69378b731841fb",
        "7ba05d18d41e55a871c5210856b93118669d9d52e9b80ff5ce01ad40e3cc88a8",
        "2ce27d8f86b26f7011c26a6fd9dd837cfd8095c8b813684c76d80dc5a70b164f",
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.gen = workdir / "presentations"
        self.certs = workdir / "certificates"
        self.files: list[Path] = []

    def prepare(self):
        for d, r in self.PAIRS:
            code, stdout = run_cli(["--format", "json", "search", "--d", str(d),
                                    "--r", str(r), "--seed", str(self.seed),
                                    "--trials", "5", "--workers", WORKERS,
                                    "--out", str(self.gen)])
            doc = _load_json(stdout)
            if code != 0 or not isinstance(doc, dict) or not doc.get("presentation_file"):
                raise BenchError(f"search d={d} r={r} seed={self.seed} found no "
                                 f"presentation (exit {code})")
            self.files.append(self.gen / doc["presentation_file"])

    def setup_inputs(self):
        return [str(f) for f in self.files]

    def reset(self):
        shutil.rmtree(self.certs, ignore_errors=True)

    def run(self):
        return [run_cli(["--format", "json", "certify", "--in", str(f),
                         "--level", "full", "--seed", str(self.seed),
                         "--out", str(self.certs)])
                for f in self.files]

    @staticmethod
    def _certificate_digest(path: Path):
        """Digest of a certificate without its wall-clock field, the one
        part that is not byte-reproducible."""
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        doc.pop("timings_ms", None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def check(self, outputs):
        failed = 0
        digests = []
        for code, stdout in outputs:
            doc = _load_json(stdout)
            ok = (code == 0 and isinstance(doc, dict) and doc.get("valid") is True
                  and doc.get("full_ok") is True and doc.get("discrepancies") == [])
            digest = self._certificate_digest(Path(doc["certificate_file"])) if ok else None
            digests.append(digest)
            failed += not ok or digest is None
        if not self._same_as_recorded(digests, self.RECORDED):
            failed = len(outputs)
        return len(outputs), failed


class SearchSmall(Workload):
    """Twenty small rank-2 sweeps: per-search fixed costs dominate."""

    name = "search_small"
    COMMANDS = 20
    DEGREES = "2,3,4,5,6,7,8"

    def run(self):
        return [run_cli(["--format", "json", "sweep", "--r", "2", "--d", self.DEGREES,
                         "--trials", "5", "--seed", str(self.seed + i),
                         "--workers", WORKERS])
                for i in range(self.COMMANDS)]

    def check(self, outputs):
        n_deg = len(self.DEGREES.split(","))
        failed = 0
        for code, stdout in outputs:
            doc = _load_json(stdout)
            rows = doc.get("results", []) if isinstance(doc, dict) else []
            if code != 0 or len(rows) != n_deg:
                failed += n_deg
            else:
                failed += sum(1 for row in rows if row.get("success_trial") is None)
        digests = [hashlib.sha256(stdout.encode()).hexdigest() for _, stdout in outputs]
        if not self._same_as_recorded(digests, None):
            failed = n_deg * len(outputs)
        return n_deg * len(outputs), failed


class KernelDense(Workload):
    """Acceptance criterion 9: rank of a seeded uniform 4000 x 4000 matrix
    over F_32003, one library call."""

    name = "kernel_dense"
    N = 4000

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.matrix = rng.integers(0, P, size=(self.N, self.N))

    def run(self):
        linalg = sys.modules["ulrich_forge.linalg"]
        return linalg.rank_dense(self.matrix, P)

    def check(self, outputs):
        # a uniform square matrix is singular with probability about 1/p
        return 1, int(outputs != self.N)


WORKLOADS = {cls.name: cls for cls in (SweepR3, CertifyFull, SearchSmall, KernelDense)}
