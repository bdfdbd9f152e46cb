"""CLI surface: subcommands, exit codes, text/json number parity."""

import json

import numpy as np
import pytest

from ulrich_forge.cli import main
from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.presentation import UlrichPresentation, save

from conftest import seeded_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_certify_missing_file_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "certify", "--in", str(tmp_path / "absent.json"))
    assert code == 3


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
                       "--level", "full", "--window-pad", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["full_ok"] is True
    assert doc["discrepancies"] == []
    assert doc["config"]["acm_window_pad"] == 4
    # the widened window produced the extra twist check
    assert any(c["check"] == "acm_h1_t-6" for c in doc["full_checks"])


def test_certify_negative_window_pad_exit_2(capsys, tmp_path):
    # a negative pad would shrink the checked window yet still claim full_ok
    pres = seeded_presentation(3, 2)
    path = tmp_path / "d3r2.json"
    save(pres, path)
    code, _, err = run(capsys, "certify", "--in", str(path), "--level", "full",
                       "--window-pad", "-10")
    assert code == 2
    assert "acm_window_pad" in err
    assert not (tmp_path / "d3r2.cert.json").exists()


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


def test_sweep_cli_empty_degree_list_exit_2(capsys):
    code, out, err = run(capsys, "sweep", "--r", "3", "--d", ",", "--seed", "0")
    assert code == 2
    assert "empty" in err and out == ""


def test_search_cli_negative_workers_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--d", "3", "--r", "3", "--seed", "0",
                         "--workers", "-3", "--out", str(tmp_path))
    assert code == 2
    assert "workers" in err and out == ""
    assert not any(tmp_path.iterdir())


def test_sweep_cli_zero_workers_exit_2(capsys, tmp_path):
    # with no time left the sweep would skip every degree and still write
    # a report claiming "workers": 0
    code, out, err = run(capsys, "sweep", "--r", "3", "--d", "3,5", "--seed", "0",
                         "--workers", "0", "--time-budget", "0",
                         "--out", str(tmp_path))
    assert code == 2
    assert "workers" in err and out == ""
    assert not any(tmp_path.iterdir())


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
    rows = {row["m"]: row for row in doc["twists"]}
    assert set(rows) == set(range(-21, 4))
    # the vanishing column at polarization multiples
    for t in (-3, -2, -1, 0):
        assert rows[7 * t]["h1"] == 0
    assert doc["omega_table"][0] == [0, 9, 12]
    assert all(v == 0 for v in doc["omega_table"][1] + doc["omega_table"][2])
    # chi column is consistent
    for row in doc["twists"]:
        assert row["chi"] == row["h0"] - row["h1"] + row["h2"]


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


def test_workers_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ULRICH_FORGE_WORKERS", "2")
    code, out, _ = run(capsys, "search", "--d", "2", "--r", "2", "--seed", "0")
    assert code == 0


def test_json_outputs_are_canonical(capsys):
    code, out, _ = run(capsys, "--format", "json", "numerology", "--d", "3", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    recoded = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert out == recoded
