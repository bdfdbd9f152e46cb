"""Command-line front end: numerology, certification, search, sweeps, tables.

Batch and non-interactive: all randomness comes from --seed, every report
embeds its effective configuration, and exit codes are a stable contract:

    0  success
    1  certification failure (a check failed or a search found nothing)
    2  invalid parameters, or too large for the available memory
    3  I/O or parse failure
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .field import DEFAULT_PRIME
from .presentation import (ParityError, PresentationFormatError,
                           canonical_json_bytes, load)
from . import cohomology as coh
from .search import search, sweep
from .ulrich import (certificate_filename, certify, hilbert_check, invariants,
                     veronese_facts)

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_PARAMS = 2
EXIT_IO = 3


def _emit(doc: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json_bytes(doc).decode("ascii"))
    else:
        text_renderer(doc)


def _parse_d_list(value: str) -> list[int]:
    try:
        degrees = [int(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list {value!r}: {exc}")
    repeated = sorted({d for d in degrees if degrees.count(d) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"bad degree list {value!r}: repeated degree {', '.join(map(str, repeated))}")
    return degrees


def _seed(value: str) -> int:
    """A --seed value: numpy's SeedSequence takes non-negative integers only,
    so anything else is refused before any work."""
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return int(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ulrich-forge`` parser, built on first use and then reused by
    every ``main`` call in the process; ``build_parser.cache_clear()``
    resets it."""
    top = argparse.ArgumentParser(
        prog="ulrich-forge",
        description="Construct, certify and analyze Ulrich bundle presentations "
                    "on Veronese surfaces over a prime field.")
    top.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (identical numbers either way)")
    sub = top.add_subparsers(dest="command", required=True)

    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", type=Path, required=True, metavar="FILE")

    num = sub.add_parser("numerology", help="closed-form invariants for (d, r)")
    num.add_argument("--d", type=int, required=True)
    num.add_argument("--r", type=int, required=True)

    cert = sub.add_parser("certify", parents=[infile], help="certify a presentation file")
    cert.add_argument("--level", choices=("basic", "full"), default="basic")
    cert.add_argument("--seed", type=_seed, default=0)
    cert.add_argument("--out", metavar="DIR", type=Path, default=None,
                      help="directory for the certificate (default: next to input)")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--r", type=int, required=True)
    shared.add_argument("--p", type=int, default=DEFAULT_PRIME)
    shared.add_argument("--seed", type=_seed, default=0)
    shared.add_argument("--trials", type=int, default=5)
    shared.add_argument("--workers", type=int, choices=(1,), default=1,
                        help="accepted for compatibility; trials run serially")
    shared.add_argument("--out", metavar="DIR", type=Path, default=None)

    srch = sub.add_parser("search", parents=[shared],
                          help="seeded random search for one (d, r)")
    srch.add_argument("--d", type=int, required=True)

    swp = sub.add_parser("sweep", parents=[shared], help="searches across a degree list")
    swp.add_argument("--d", type=_parse_d_list, required=True,
                     metavar="D1,D2,...", help="comma-separated degrees")
    swp.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")

    tab = sub.add_parser("table", parents=[infile],
                         help="cohomology table of a presentation file")
    tab.add_argument("--from", dest="m_from", type=int, default=None)
    tab.add_argument("--to", dest="m_to", type=int, default=None)

    return top


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_numerology(args) -> int:
    inv = invariants(args.d, args.r)
    degree, ambient = veronese_facts(args.d)
    hilbert = {str(t): hilbert_check(args.d, args.r, t) for t in range(-3, 4)}
    doc = {
        "d": inv.d, "r": inv.r, "a": inv.a, "b": inv.b, "alpha": inv.alpha,
        "c1": inv.c1, "c2": inv.c2,
        "chi_end": inv.chi_end, "h1_end_simple": inv.h1_end_simple,
        "hilbert": hilbert,
        "veronese_degree": degree, "veronese_ambient_dim": ambient,
    }

    def render(doc):
        print(f"(d, r) = ({doc['d']}, {doc['r']})  on the Veronese surface of "
              f"degree {doc['veronese_degree']} in P^{doc['veronese_ambient_dim']}")
        print(f"presentation shape: {doc['b']} x {doc['a']}   "
              f"(a = r(d-1)/2, b = r(d+1)/2),  alpha = {doc['alpha']}")
        print(f"c1 = {doc['c1']}   c2 = {doc['c2']}")
        print(f"chi(End) = {doc['chi_end']}   h1(End) if simple = {doc['h1_end_simple']}")
        vals = "  ".join(f"chi({t}d)={doc['hilbert'][str(t)]}" for t in range(-3, 4))
        print(f"Hilbert values: {vals}")

    _emit(doc, args.format, render)
    return EXIT_OK


def cmd_certify(args) -> int:
    pres = load(args.infile)
    cert = certify(pres, level=args.level, master_seed=args.seed)
    out_dir = args.out or args.infile.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    cert_path = out_dir / certificate_filename(args.infile.name)
    doc = cert.to_json_dict()
    cert_path.write_bytes(canonical_json_bytes(doc))
    doc["certificate_file"] = str(cert_path)
    doc["discrepancies"] = cert.discrepancies()

    def render(doc):
        print(f"presentation {doc['presentation_hash'][:16]}…  "
              f"(p={doc['p']}, d={doc['d']}, r={doc['r']}, {doc['b']}x{doc['a']})")
        print(f"generic rank: {doc['generic_rank']['status']}")
        for v in doc["vanishings"]:
            print(f"h1(E({-v['t'] * doc['d']})) = {v['h1']}   (t = {v['t']})")
        print(f"local freeness: {doc['local_freeness']['verdict']}")
        if doc["full_checks"] is not None:
            failed = [c for c in doc["full_checks"] if not c["passed"]]
            print(f"full profile: {len(doc['full_checks']) - len(failed)}/"
                  f"{len(doc['full_checks'])} checks passed")
        print(f"certificate: {'VALID' if doc['valid'] else 'INVALID'} "
              f"-> {doc['certificate_file']}")
        for item in doc["discrepancies"]:
            print(f"  DISCREPANCY {item['check']}: expected {item['expected']}, "
                  f"computed {item['computed']}")

    _emit(doc, args.format, render)
    return EXIT_OK if cert.passed else EXIT_CERTIFICATION


def cmd_search(args) -> int:
    res = search(args.d, args.r, trials=args.trials, master_seed=args.seed,
                 p=args.p, out_dir=args.out)
    doc = res.report.to_json_dict()

    def render(doc):
        if doc["success_trial"] is None:
            print(f"d={doc['d']} r={doc['r']}: no success in "
                  f"{doc['trials_run']} trials; failures: {doc['failure_histogram']}")
        else:
            checks = "  ".join(f"h1(t={t})={h}" for t, h in doc["h1_checks"])
            print(f"d={doc['d']} r={doc['r']}: success at trial "
                  f"{doc['success_trial']}  [{checks}]")
            if doc["presentation_file"]:
                print(f"saved: {doc['presentation_file']}")

    _emit(doc, args.format, render)
    return EXIT_OK if res.report.succeeded else EXIT_CERTIFICATION


def cmd_sweep(args) -> int:
    rep = sweep(args.d, args.r, trials_per_d=args.trials, master_seed=args.seed,
                p=args.p, out_dir=args.out, time_budget_s=args.time_budget)
    doc = rep.to_json_dict()
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        report_path = args.out / f"sweep_r{rep.r}_p{rep.p}_seed{rep.master_seed}.json"
        report_path.write_bytes(canonical_json_bytes(doc))

    def render(doc):
        print(f"sweep r={doc['r']} p={doc['p']} seed={doc['master_seed']}")
        for row in doc["results"]:
            if row["success_trial"] is None:
                print(f"  d={row['d']:>3}  FAILED after {row['trials_run']} trials "
                      f"({row['failure_histogram']})")
            else:
                checks = " ".join(f"h1(t={t})={h}" for t, h in row["h1_checks"])
                print(f"  d={row['d']:>3}  ok at trial {row['success_trial']}   {checks}")
        if doc["partial"]:
            print(f"  PARTIAL: budget exhausted before degrees {doc['skipped_degrees']}")
        n_ok = sum(1 for r_ in doc["results"] if r_["success_trial"] is not None)
        print(f"  {n_ok}/{len(doc['results'])} degrees succeeded")

    _emit(doc, args.format, render)
    return EXIT_OK if rep.all_succeeded else EXIT_CERTIFICATION


def cmd_table(args) -> int:
    pres = load(args.infile)
    m_from = args.m_from if args.m_from is not None else -3 * pres.d
    m_to = args.m_to if args.m_to is not None else pres.d
    if m_from > m_to:
        raise ValueError(f"--from {m_from} exceeds --to {m_to}")
    rows = []
    for m in range(m_from, m_to + 1):
        h0, h1, h2 = coh.bundle_cohomology(pres, m)
        rows.append({"m": m, "h0": h0, "h1": h1, "h2": h2, "chi": h0 - h1 + h2})
    omega = coh.omega_table(pres)
    doc = {
        "presentation_hash": pres.content_hash,
        "p": pres.p, "d": pres.d, "r": pres.r,
        "twists": rows,
        "omega_table": omega,
    }

    def render(doc):
        d = doc["d"]
        print(f"cohomology of E(m), p={doc['p']}, d={d}, r={doc['r']}")
        print(f"{'m':>5} {'h0':>8} {'h1':>6} {'h2':>8} {'chi':>9}   (* = dH-multiple)")
        for row in doc["twists"]:
            star = " *" if row["m"] % d == 0 else ""
            print(f"{row['m']:>5} {row['h0']:>8} {row['h1']:>6} "
                  f"{row['h2']:>8} {row['chi']:>9}{star}")
        print("\ntwisted cotangent table  h^q(E(1-d) (x) Omega^{-t}(-t)):")
        print(f"{'':>6} {'t=-2':>7} {'t=-1':>7} {'t=0':>7}")
        for q in (2, 1, 0):
            cells = doc["omega_table"][q]
            print(f"{'q=' + str(q):>6} {cells[0]:>7} {cells[1]:>7} {cells[2]:>7}")

    _emit(doc, args.format, render)
    return EXIT_OK


_COMMANDS = {
    "numerology": cmd_numerology,
    "certify": cmd_certify,
    "search": cmd_search,
    "sweep": cmd_sweep,
    "table": cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PresentationFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ParityError, ValueError, MemoryError) as exc:
        # a MemoryError means parameters too large for the available memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
