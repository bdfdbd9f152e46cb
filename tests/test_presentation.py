"""Presentation data model: shapes, generation, checks, persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulrich_forge.field import DEFAULT_PRIME, PrimeField
from ulrich_forge.linalg import rank_dense
from ulrich_forge.presentation import (ParityError, PresentationFormatError,
                                       UlrichPresentation, direct_sum,
                                       generic_rank_check, load,
                                       random_presentation, save, shape)

from conftest import linear_span_dimension

F = PrimeField(DEFAULT_PRIME)


def euler_presentation() -> UlrichPresentation:
    """The 3x1 column (x, y, z), presenting the tangent bundle (d=2, r=2)."""
    return UlrichPresentation(F, 2, 2, np.eye(3, dtype=np.int64)[:, None, :])


def test_shape_known_values():
    assert shape(7, 3) == (9, 12, 3)
    assert shape(2, 2) == (1, 3, 2)
    assert shape(3, 2) == (2, 4, 2)
    assert shape(13, 3) == (18, 21, 3)


def test_shape_parity_violation():
    with pytest.raises(ParityError):
        shape(4, 3)
    with pytest.raises(ValueError):
        shape(0, 2)
    with pytest.raises(ValueError):
        shape(3, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=24))
def test_shape_invariants(d, r):
    if r * (d - 1) % 2:
        with pytest.raises(ParityError):
            shape(d, r)
        return
    a, b, alpha = shape(d, r)
    assert b - a == r
    assert 2 * a == r * (d - 1)
    assert alpha == -((r + 2) // -2)  # ceil((r+2)/2)


def test_random_presentation_size_bookkeeping():
    # (d=3, r=2) gives a 4x2 matrix: 24 coefficients drawn
    pres = random_presentation(3, 2, np.random.default_rng(0))
    assert (pres.b, pres.a) == (4, 2)
    assert pres.coeff_array.shape == (4, 2, 3)


def test_random_presentation_deterministic():
    p1 = random_presentation(5, 2, np.random.default_rng(77))
    p2 = random_presentation(5, 2, np.random.default_rng(77))
    assert p1 == p2
    assert p1.content_hash == p2.content_hash
    p3 = random_presentation(5, 2, np.random.default_rng(78))
    assert p1 != p3


def test_random_presentation_coefficients_uniform():
    # 10^4+ coefficients, binned; each bin within 5 sigma of its expectation
    rng = np.random.default_rng(1)
    coeffs = np.concatenate([
        random_presentation(7, 3, rng).coeff_array.ravel() for _ in range(31)
    ])
    assert coeffs.size >= 10_000
    bins = 16
    counts = np.bincount(coeffs * bins // DEFAULT_PRIME, minlength=bins)
    expect = coeffs.size / bins
    sigma = np.sqrt(expect * (1 - 1 / bins))
    assert (np.abs(counts - expect) < 5 * sigma).all()


def test_presentation_validation():
    with pytest.raises(ValueError):
        UlrichPresentation(F, 3, 2, np.zeros((1, 1, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        UlrichPresentation(F, 2, 2, np.zeros((3, 1, 2), dtype=np.int64))
    # coefficients are stored reduced mod p and read-only
    pres = UlrichPresentation(PrimeField(7), 2, 2, np.full((3, 1, 3), -1))
    assert (pres.coeff_array == 6).all()
    with pytest.raises(ValueError):
        pres.coeff_array[0, 0, 0] = 1


def test_generic_rank_duplicated_column_undetermined():
    base = random_presentation(3, 2, np.random.default_rng(4)).coeff_array
    degenerate = UlrichPresentation(F, 3, 2, base[:, [0, 0]])
    res = generic_rank_check(degenerate, trials=6, rng=np.random.default_rng(0))
    assert res.status == "undetermined" and not res.passed


def test_generic_rank_euler_column():
    res = generic_rank_check(euler_presentation(), trials=1,
                             rng=np.random.default_rng(0))
    assert res.status == "injective"
    assert res.witness is not None
    # direct check at the witness: the evaluated column is a nonzero vector
    pres = euler_presentation()
    assert np.count_nonzero(pres.evaluate_at(res.witness)) >= 1
    # and at the explicit point (1, 0, 0) the column (x, y, z) has rank 1 = a
    assert rank_dense(pres.evaluate_at((1, 0, 0)), pres.p) == 1 == pres.a


def test_generic_rank_random_presentation():
    pres = random_presentation(5, 2, np.random.default_rng(10))
    res = generic_rank_check(pres, trials=3, rng=np.random.default_rng(0))
    assert res.passed and res.trials == 1


def test_generic_rank_witness_kernel_empty():
    # injective verdict means the evaluated matrix has full column rank
    pres = random_presentation(5, 2, np.random.default_rng(11))
    res = generic_rank_check(pres, trials=3, rng=np.random.default_rng(0))
    assert rank_dense(pres.evaluate_at(res.witness), pres.p) == pres.a


def test_direct_sum_shapes_and_blocks():
    p1 = random_presentation(2, 2, np.random.default_rng(1))
    p2 = random_presentation(2, 2, np.random.default_rng(2))
    s = direct_sum(p1, p2)
    assert (s.d, s.r, s.a, s.b) == (2, 4, 2, 6)
    arr = s.coeff_array
    assert (arr[:3, 0] == p1.coeff_array[:, 0]).all()
    assert (arr[3:, 1] == p2.coeff_array[:, 0]).all()
    assert not arr[:3, 1].any() and not arr[3:, 0].any()
    with pytest.raises(ValueError):
        direct_sum(p1, random_presentation(3, 2, np.random.default_rng(3)))


def test_linear_span_dimension():
    assert linear_span_dimension(euler_presentation()) == 3
    collapsed = UlrichPresentation(F, 2, 2, np.array([[[1, 0, 0]], [[2, 0, 0]], [[5, 0, 0]]]))
    assert linear_span_dimension(collapsed) == 1


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    for i in range(50):
        d = int(rng.integers(2, 8))
        r = 2 if d % 2 == 0 else int(rng.integers(2, 4))
        pres = random_presentation(d, r, rng)
        path = tmp_path / f"pres_{i}.json"
        save(pres, path)
        loaded = load(path)
        assert loaded == pres
        # canonical: save(load(save(P))) == save(P) bytewise
        path2 = tmp_path / f"pres_{i}_again.json"
        save(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_save_load_roundtrip_d1(tmp_path):
    # a = 0: the entries are b empty rows, yet the array keeps shape (b, 0, 3)
    pres = random_presentation(1, 2, np.random.default_rng(0))
    path = tmp_path / "d1.json"
    save(pres, path)
    loaded = load(path)
    assert loaded == pres
    assert loaded.coeff_array.shape == (2, 0, 3)


@pytest.mark.parametrize("d, r, key", [
    (3, 2, "entries"), (3, 2, "p"), (1, 1, "d"), (3, 1, "r"), (3, 1, "a"), (1, 1, "b"),
])
def test_load_rejects_json_booleans(tmp_path, d, r, key):
    # JSON true/false load as Python bool, a subclass of int; the d, r, a
    # and b cases use documents where that field is 1, so true would pass
    doc = random_presentation(d, r, np.random.default_rng(0)).to_json_dict()
    if key == "entries":
        doc["entries"][0][0] = [True, False, 0]
    else:
        doc[key] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PresentationFormatError, match="integers"):
        load(path)


def test_load_rejects_inconsistent_shape(tmp_path):
    pres = random_presentation(3, 2, np.random.default_rng(0))
    doc = pres.to_json_dict()
    doc["b"] = doc["b"] + 1  # now b - a != r
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PresentationFormatError, match="b-a must equal r"):
        load(path)


@pytest.mark.parametrize("mutate, pattern", [
    (lambda d: d.update(format="nope/9"), "format tag"),
    (lambda d: d.pop("entries"), "missing field"),
    (lambda d: d.update(p=32001), "not an odd prime"),
    (lambda d: d.update(d=4, r=3, a=3, b=6), "even degree"),
    (lambda d: d["entries"][0].__setitem__(0, [1, 2]), "3 integers"),
    (lambda d: d["entries"][0].__setitem__(0, [1, 2, DEFAULT_PRIME]), "outside"),
    (lambda d: d["entries"].pop(), "rows"),
])
def test_load_rejects_malformed(tmp_path, mutate, pattern):
    pres = random_presentation(3, 2, np.random.default_rng(0))
    doc = pres.to_json_dict()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PresentationFormatError, match=pattern):
        load(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(PresentationFormatError, match="JSON"):
        load(path)


def test_handwritten_d7r3_file_loads(tmp_path):
    # a 12x9 entry grid written out by hand (here: deterministic values)
    entries = [[[(7 * i + j) % DEFAULT_PRIME, (i * j + 1) % DEFAULT_PRIME, 3]
                for j in range(9)] for i in range(12)]
    doc = {"format": "ulrich-presentation/1", "p": DEFAULT_PRIME,
           "d": 7, "r": 3, "a": 9, "b": 12, "entries": entries}
    path = tmp_path / "d7r3.json"
    path.write_text(json.dumps(doc))
    pres = load(path)
    assert (pres.d, pres.r, pres.a, pres.b) == (7, 3, 9, 12)


def test_invariant_b_minus_a_equals_r():
    rng = np.random.default_rng(20)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        r = int(rng.integers(1, 7))
        if r * (d - 1) % 2:
            r *= 2
        pres = random_presentation(d, r, rng)
        assert pres.b - pres.a == pres.r
        assert 2 * pres.a == pres.r * (pres.d - 1)
