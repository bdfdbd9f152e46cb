"""CLI surface: subcommands, exit codes, text/json number parity."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ulrich_forge
from ulrich_forge import cohomology
from ulrich_forge.cli import build_parser, main
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.presentation import UlrichPresentation, canonical_json_bytes, save
from ulrich_forge.ulrich import ulrich_cohomology

from conftest import seeded_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# records each variable when numpy is first imported, then after the import
READ_BLAS_THREADS = f"""
import builtins, os
names = {BLAS_THREADS!r}
seen, real = [], builtins.__import__
def hook(name, *args, **kwargs):
    if name.partition(".")[0] == "numpy" and not seen:
        seen.append([os.environ.get(v) for v in names])
    return real(name, *args, **kwargs)
builtins.__import__ = hook
import ulrich_forge
builtins.__import__ = real
print(*seen[0], *[os.environ.get(v) for v in names])
"""


@pytest.mark.parametrize("preset, want", [({}, ["1", "1", "1"]),
                                          ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])])
def test_import_pins_blas_threads_unless_set(preset, want):
    # a fresh interpreter, since pytest imported numpy before the package:
    # the package sets each variable before numpy is first imported, and
    # a value already in the environment wins
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS} | preset
    env["PYTHONPATH"] = os.pathsep.join([str(Path(ulrich_forge.__file__).parent.parent),
                                         env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", READ_BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == want + want


def test_numerology_text(capsys):
    code, out, _ = run(capsys, "numerology", "--d", "7", "--r", "3")
    assert code == 0
    assert "12 x 9" in out and "alpha = 3" in out


def test_numerology_json_matches_text_numbers(capsys):
    code, out, _ = run(capsys, "--format", "json", "numerology", "--d", "2", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["c1"] == 3 and doc["c2"] == 3
    assert doc["a"] == 1 and doc["b"] == 3 and doc["alpha"] == 2
    assert doc["hilbert"]["0"] == 8
    assert doc["veronese_degree"] == 4 and doc["veronese_ambient_dim"] == 5
    _, text, _ = run(capsys, "numerology", "--d", "2", "--r", "2")
    assert "c1 = 3" in text and "c2 = 3" in text


def test_numerology_parity_exit_2(capsys):
    code, _, err = run(capsys, "numerology", "--d", "4", "--r", "3")
    assert code == 2
    assert "even" in err


def test_certify_valid_file_exit_0(capsys, tmp_path):
    pres = seeded_presentation(3, 2)
    path = tmp_path / "d3r2.json"
    save(pres, path)
    code, out, _ = run(capsys, "certify", "--in", str(path))
    assert code == 0
    assert "VALID" in out
    cert_doc = json.loads((tmp_path / "d3r2.cert.json").read_text())
    assert cert_doc["valid"] is True


def test_certify_echoes_shape_for_handwritten_d7r3(capsys, tmp_path):
    pres = seeded_presentation(7, 3)
    path = tmp_path / "d7r3.json"
    save(pres, path)
    code, out, _ = run(capsys, "certify", "--in", str(path))
    assert code == 0
    assert "12x9" in out


def test_certify_corrupted_file_exit_3(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "certify", "--in", str(path))
    assert code == 3 and "JSON" in err


@pytest.mark.parametrize("command", ["certify", "table"])
@pytest.mark.parametrize("content", [b"\x80\x81\x82\x83", b"[" * 200_000],
                         ids=["not_utf8", "deep_nesting"])
def test_unreadable_presentation_exit_3(capsys, tmp_path, command, content):
    # a UnicodeDecodeError is a ValueError (exit 2) and a RecursionError
    # escapes as a traceback (exit 1) unless load maps both to exit 3
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, "--in", str(path))
    assert code == 3 and err.startswith("error:") and out == ""
    assert list(tmp_path.iterdir()) == [path]


def test_certify_missing_file_exit_3(capsys, tmp_path):
    # table declares --in with certify, so both report a missing file alike
    path = tmp_path / "absent.json"
    for command in ("certify", "table"):
        code, out, err = run(capsys, command, "--in", str(path))
        assert code == 3 and out == ""
        assert err == (f"error: cannot read {path}: "
                       f"[Errno 2] No such file or directory: '{path}'\n")


def test_certify_zero_column_exit_1(capsys, tmp_path):
    coeffs = seeded_presentation(3, 2).coeff_array.copy()
    coeffs[:, 0] = 0
    degenerate = UlrichPresentation(PrimeField(DEFAULT_PRIME), 3, 2, coeffs)
    path = tmp_path / "degenerate.json"
    save(degenerate, path)
    code, out, _ = run(capsys, "certify", "--in", str(path))
    assert code == 1
    assert "generic_rank" in out and "INVALID" in out


def test_certify_full_level(capsys, tmp_path):
    pres = seeded_presentation(3, 2)
    path = tmp_path / "d3r2.json"
    save(pres, path)
    code, out, _ = run(capsys, "--format", "json", "certify", "--in", str(path),
                       "--level", "full")
    assert code == 0
    doc = json.loads(out)
    assert doc["full_ok"] is True
    assert doc["discrepancies"] == []
    assert doc["config"]["acm_window_pad"] == 3
    # the fixed window is [-alpha-3, 3], alpha = 2
    acm = [int(c["check"][len("acm_h1_t"):]) for c in doc["full_checks"]
           if c["check"].startswith("acm_h1_t")]
    assert min(acm) == -5 and max(acm) == 3


def test_certify_negative_window_pad_exit_2(capsys, tmp_path):
    # the full profile's window is fixed, so certify has no --window-pad
    pres = seeded_presentation(3, 2)
    path = tmp_path / "d3r2.json"
    save(pres, path)
    for pad in ("-10", "3"):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--in", str(path), "--level", "full", "--window-pad", pad])
        assert exc.value.code == 2
        assert "--window-pad" in capsys.readouterr().err
    assert not (tmp_path / "d3r2.cert.json").exists()


@pytest.mark.parametrize("rejected", [
    ["certify", "--in", "absent.json", "--window-pad", "3"],
    ["search", "--d", "4", "--r", "3"],
], ids=["by_argparse", "by_command"])
def test_parser_is_built_once_and_reused_cleanly(capsys, tmp_path, rejected):
    path = tmp_path / "d3r2.json"
    save(seeded_presentation(3, 2), path)
    # the second call omits --format, so it must print text
    follow_up = [["--format", "json", "certify", "--in", str(path)],
                 ["numerology", "--d", "7", "--r", "3"]]
    build_parser.cache_clear()
    try:
        code = main(rejected)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    capsys.readouterr()
    reused = [run(capsys, *argv) for argv in follow_up]
    assert build_parser.cache_info().misses == 1
    build_parser.cache_clear()
    fresh = [run(capsys, *argv) for argv in follow_up]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0]
    assert json.loads(reused[0][1])["valid"] is True
    assert "12 x 9" in reused[1][1]


def test_search_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--d", "3", "--r", "3", "--seed", "0",
                       "--out", str(tmp_path))
    assert code == 0
    assert "success at trial 0" in out


def test_search_cli_failure_exit_1(capsys):
    code, out, _ = run(capsys, "search", "--d", "3", "--r", "2", "--p", "3",
                       "--seed", "6", "--trials", "8")
    assert code == 1
    assert "no success" in out


@pytest.mark.parametrize("message", [
    "Unable to allocate 894. GiB for an array with shape (200001, 199999, 3) "
    "and data type int64", ""])
def test_out_of_memory_exit_2(capsys, monkeypatch, message):
    # search --d 200000 --r 2 draws an 894 GiB coefficient array; the draw is
    # replaced by one that fails as numpy would, without allocating anything
    def draw(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(importlib.import_module("ulrich_forge.search"),
                        "random_presentation", draw)
    code, out, err = run(capsys, "search", "--d", "200000", "--r", "2", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"


def test_sweep_cli_json(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "sweep", "--r", "3",
                       "--d", "3,5", "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert [row["d"] for row in doc["results"]] == [3, 5]
    assert all(row["success_trial"] == 0 for row in doc["results"])
    report = tmp_path / "sweep_r3_p32003_seed0.json"
    assert report.exists()
    assert json.loads(report.read_text())["results"] == doc["results"]


# sha256 of every file written by the first command of the search_small
# benchmark workload at seed 0, with --out added
_SEARCH_SMALL_SEED0 = {
    "sweep_r2_p32003_seed0.json":
        "d267c3f3900731b00864e8eeefa9579cf301ec45c0e1e38898853eddf6c26d33",
    "ulrich_d2_r2_p32003_seed0.cert.json":
        "93d8250f19ef0e9d6599dd2436dc01cf60d06125098621442d800e739ee6d7c7",
    "ulrich_d2_r2_p32003_seed0.json":
        "aa1e17c788bc44949d12ec62d09f44a3dffaf1a6dabe2daffe6116a6ee0a012d",
    "ulrich_d3_r2_p32003_seed0.cert.json":
        "f5adb8df1a33922fd80d6e735cbe838ade28fe7be00cef3889359cb332cd7ef7",
    "ulrich_d3_r2_p32003_seed0.json":
        "97fba666ac0a4ead88e21d293e05d4df92757475a890b985a2d7245ad288295e",
    "ulrich_d4_r2_p32003_seed0.cert.json":
        "d57355032037484c3e5586cdba12692a03fffdd75208b2d8e475ed1f707f944f",
    "ulrich_d4_r2_p32003_seed0.json":
        "01de8991ce8db9eb054d88e5ac742479aa12afce4c3decf2171eb5cd6c85fd1a",
    "ulrich_d5_r2_p32003_seed0.cert.json":
        "7fb893702491c3b7641f295ae78d3bba99598a635ef6bb30a022d5999486151d",
    "ulrich_d5_r2_p32003_seed0.json":
        "ab6dd871d1a895a9e36bc97f35eb91e8fc41c56e2fed258a250a8a7e86201a90",
    "ulrich_d6_r2_p32003_seed0.cert.json":
        "35e157be5ed9c070f9518526d191ce5a05af5ed2e5bee959c53439fb89e767f5",
    "ulrich_d6_r2_p32003_seed0.json":
        "d0f881817f59883cc6a6e104a54335bdbefe7ec5f513363394a122f76292c25e",
    "ulrich_d7_r2_p32003_seed0.cert.json":
        "66942c3311064854702f88603099ba49453ead4ecb0686b7d08b3e9810961a00",
    "ulrich_d7_r2_p32003_seed0.json":
        "997aef7cbaba892fbc98fd5c98aa0ecd853051b1d6ae6da7d0f63c3d170b2d2a",
    "ulrich_d8_r2_p32003_seed0.cert.json":
        "c40e11782abf7cb05f5dbcbbc5c6057c1c297d06a247267718f364cc50e04563",
    "ulrich_d8_r2_p32003_seed0.json":
        "3e8eeb605d73368e55e529b56d0005b6074e247977f3ef66280b83aef9c5319c",
}


def test_search_small_seed0_bytes_are_pinned(capsys, tmp_path):
    code, _, _ = run(capsys, "sweep", "--r", "2", "--d", "2,3,4,5,6,7,8",
                     "--trials", "5", "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in tmp_path.iterdir()}
    assert got == _SEARCH_SMALL_SEED0


# sha256 of --format json stdout of searches and a sweep over F_3, where
# trials do fail, so the reports carry a nonzero success_trial and a
# non-empty failure_histogram
_SMALL_P_SEARCH = [
    (["search", "--d", "3", "--r", "2", "--p", "3", "--seed", "5", "--trials", "8"], 0,
     "c35ea556ec8b0cdca32520194af78eb24c52977cae3f37e0b39a9aee11adf387"),
    (["search", "--d", "3", "--r", "2", "--p", "3", "--seed", "6", "--trials", "8"], 1,
     "214c9d4e2d8de55bf4212fc2c698072af4872affd5217798c0adfebae41fb116"),
]
_SMALL_P_SWEEP = "96fcfb747e081cc132d7c8f08081ef6e0fb6dcb4f87c3fc486d635cb7e1bf61f"


@pytest.mark.parametrize("argv, want_code, digest", _SMALL_P_SEARCH, ids=["seed5", "seed6"])
def test_small_p_search_bytes_are_pinned(capsys, argv, want_code, digest):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_small_p_sweep_bytes_are_pinned(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "sweep", "--r", "3", "--d", "3,5,7,9",
                       "--p", "3", "--seed", "0", "--trials", "20", "--out", str(tmp_path))
    assert code == 0
    assert [row["success_trial"] for row in json.loads(out)["results"]] == [2, 0, 3, 6]
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == _SMALL_P_SWEEP
    assert (tmp_path / "sweep_r3_p3_seed0.json").read_text() == out


def test_sweep_cli_empty_degree_list_exit_2(capsys):
    code, out, err = run(capsys, "sweep", "--r", "3", "--d", ",", "--seed", "0")
    assert code == 2
    assert "empty" in err and out == ""


def test_sweep_cli_repeated_degree_exit_2(capsys, tmp_path):
    # a repeated degree would search it twice and report two identical rows
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--r", "3", "--d", "3,5,3", "--seed", "0", "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "repeated degree 3" in out.err and out.out == ""
    assert not any(tmp_path.iterdir())


def test_cli_sized_ranks_start_no_thread(capsys, tmp_path, monkeypatch):
    # every residue and Hom system of these commands is one stripe, so the
    # rank kernel runs it inline
    def start(thread):
        started.append(thread)
        raise AssertionError("a thread was started")

    started = []
    monkeypatch.setattr(threading.Thread, "start", start)
    path = tmp_path / "d7r3.json"
    save(seeded_presentation(7, 3), path)
    code, out, _ = run(capsys, "--format", "json", "certify", "--in", str(path),
                       "--level", "full")
    assert code == 0 and json.loads(out)["full_ok"] is True
    code, out, _ = run(capsys, "--format", "json", "sweep", "--r", "3",
                       "--d", "3,5,7,9,11,13", "--seed", "0", "--trials", "5")
    assert code == 0 and all(row["success_trial"] is not None
                             for row in json.loads(out)["results"])
    assert started == []


_SEARCH, _SWEEP = ["search", "--d", "3"], ["sweep", "--d", "3,5"]


@pytest.mark.parametrize("command", [
    [*_SEARCH, "--workers", "2"], [*_SWEEP, "--workers", "2"],
    [*_SEARCH, "--workers", "-3"], [*_SWEEP, "--workers", "-3"],
    # with no time left the sweep would skip every degree and still write
    # a report claiming "workers": 0
    [*_SEARCH, "--workers", "0"], [*_SWEEP, "--workers", "0", "--time-budget", "0"],
])
def test_workers_other_than_one_exit_2(capsys, tmp_path, command):
    # trials run serially; --workers stays only so that "--workers 1" parses
    with pytest.raises(SystemExit) as exc:
        main([*command, "--r", "3", "--seed", "0", "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "--workers: invalid choice" in out.err and out.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [_SEARCH, _SWEEP], ids=["search", "sweep"])
def test_timings_exit_2(capsys, tmp_path, command):
    # reports hold no wall-clock time, so there is no flag to record one
    with pytest.raises(SystemExit) as exc:
        main([*command, "--r", "3", "--seed", "0", "--out", str(tmp_path), "--timings"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --timings" in out.err and out.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["-5", "abc"])
@pytest.mark.parametrize("command", [["certify", "--in", "FILE"], _SEARCH, _SWEEP],
                         ids=["certify", "search", "sweep"])
def test_bad_seed_exit_2_before_any_rank(capsys, tmp_path, monkeypatch, command, seed):
    # numpy's SeedSequence takes non-negative integers only; the parser
    # names --seed and exits before a file is read or a rank is computed
    def rank(*args):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(cohomology, "_mult_rank", rank)
    path = tmp_path / "d3r2.json"
    save(seeded_presentation(3, 2), path)
    argv = [str(path) if arg == "FILE" else arg for arg in command]
    if command[0] != "certify":
        argv += ["--r", "2", "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in out.err
    assert out.out == "" and [p.name for p in tmp_path.iterdir()] == ["d3r2.json"]


def test_search_d1_output_certifies(capsys, tmp_path):
    # d = 1 gives a = 0: a b x 0 matrix, the trivial bundle O^r on P^2
    code, _, _ = run(capsys, "search", "--d", "1", "--r", "2", "--seed", "0",
                     "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "ulrich_d1_r2_p32003_seed0.json"
    assert json.loads(path.read_text())["entries"] == [[], []]
    code, out, _ = run(capsys, "certify", "--in", str(path))
    assert code == 0
    assert "VALID" in out


def test_sweep_cli_parity_exit_2(capsys):
    code, _, err = run(capsys, "sweep", "--r", "3", "--d", "3,4", "--seed", "0")
    assert code == 2


def test_table_cli(capsys, tmp_path):
    pres = seeded_presentation(7, 3)
    path = tmp_path / "d7r3.json"
    save(pres, path)
    code, out, _ = run(capsys, "--format", "json", "table", "--in", str(path),
                       "--from", "-21", "--to", "3")
    assert code == 0
    doc = json.loads(out)
    assert [row["m"] for row in doc["twists"]] == list(range(-21, 4))
    # the presentation is Ulrich, so every row is the closed form
    for row in doc["twists"]:
        assert (row["h0"], row["h1"], row["h2"]) == ulrich_cohomology(7, 3, row["m"]), row
        assert row["chi"] == row["h0"] - row["h1"] + row["h2"]
    # the plain twists -d and 1-d around the column (a, 0, 0)
    cols = ulrich_cohomology(7, 3, -7), (pres.a, 0, 0), ulrich_cohomology(7, 3, -6)
    assert doc["omega_table"] == [[col[q] for col in cols] for q in range(3)]


def test_table_text_marks_multiples(capsys, tmp_path):
    pres = seeded_presentation(3, 2)
    path = tmp_path / "d3r2.json"
    save(pres, path)
    code, out, _ = run(capsys, "table", "--in", str(path), "--from", "-3", "--to", "0")
    assert code == 0
    assert "dH-multiple" in out


def test_table_bad_range_exit_2(capsys, tmp_path):
    pres = seeded_presentation(3, 2)
    path = tmp_path / "p.json"
    save(pres, path)
    code, _, _ = run(capsys, "table", "--in", str(path), "--from", "3", "--to", "-3")
    assert code == 2


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
def test_sweep_cli_bad_time_budget_exit_2(capsys, tmp_path, budget):
    code, out, err = run(capsys, "--format", "json", "sweep", "--r", "3", "--d", "3,5",
                         "--seed", "0", "--time-budget", budget, "--out", str(tmp_path))
    assert code == 2
    assert "time budget" in err and out == ""
    assert not any(tmp_path.iterdir())


def test_canonical_json_rejects_non_finite_floats():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            canonical_json_bytes({"time_budget_s": value})


def test_json_outputs_are_canonical(capsys):
    code, out, _ = run(capsys, "--format", "json", "numerology", "--d", "3", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    recoded = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert out == recoded
