"""Candidate Ulrich bundles presented as cokernels of matrices of linear forms.

A presentation is a b x a matrix M of linear forms giving the sheaf map
O(d-2)^a -> O(d-1)^b on the projective plane; the candidate bundle is its
cokernel.  The sizes are forced: a = r(d-1)/2 and b = r(d+1)/2 for a rank-r
candidate on the degree-d Veronese surface, which also forces r even
whenever d is even.  M is stored once, as a read-only (b, a, 3) int64 array
of x, y, z coefficients; the presentation's identity is the hash of its
canonical bytes.

The module provides seeded random generation, the generic-rank (injectivity)
witness check, an extension constructor, and a canonical byte-stable JSON
format.  Local freeness needs no check of its own here: the certifier's
h^1(E(-2d)) = 0 already proves it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .field import DEFAULT_PRIME, PrimeField
from .linalg import matmul_mod, rank_dense

PRESENTATION_FORMAT = "ulrich-presentation/1"

# Affine charts used in rotation when sampling points of P^2: z=1, y=1, x=1.
CHART_ROTATION = (2, 1, 0)


class ParityError(ValueError):
    """Raised for (d, r) with no integral presentation shape."""


class PresentationFormatError(ValueError):
    """Raised when a presentation file violates the format invariants."""


class Shape(NamedTuple):
    a: int
    b: int
    alpha: int


def shape(d: int, r: int) -> Shape:
    """Presentation sizes a = r(d-1)/2, b = r(d+1)/2 and the number of
    certification twists alpha = ceil((r+2)/2).

    Raises ParityError when r(d-1) is odd: an even-degree Veronese surface
    carries no odd-rank Ulrich bundles.
    """
    if d < 1:
        raise ValueError(f"degree d must be >= 1, got {d}")
    if r < 1:
        raise ValueError(f"rank r must be >= 1, got {r}")
    if r * (d - 1) % 2 != 0:
        raise ParityError(
            f"no presentation shape for d={d}, r={r}: r(d-1)/2 is not an "
            f"integer (for even degree d the rank must be even)"
        )
    return Shape(a=r * (d - 1) // 2, b=r * (d + 1) // 2, alpha=(r + 3) // 2)


class Shaped:
    """a, b and alpha read from shape(d, r), for a class with d and r."""

    @cached_property
    def _shape(self) -> Shape:
        return shape(self.d, self.r)

    @property
    def a(self) -> int:
        return self._shape.a

    @property
    def b(self) -> int:
        return self._shape.b

    @property
    def alpha(self) -> int:
        return self._shape.alpha


@dataclass(frozen=True, eq=False)
class UlrichPresentation(Shaped):
    """A b x a matrix of linear forms presenting E = coker(O(d-2)^a -> O(d-1)^b).

    ``coeff_array[i, j]`` holds the x, y, z coefficients of entry (i, j),
    reduced mod p and read-only.  Equality and hashing go through
    ``content_hash``.  ``_memo`` is the dict the cohomology engine keeps
    this presentation's ranks in, so they are freed with it.
    """

    field: PrimeField
    d: int
    r: int
    coeff_array: np.ndarray
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        s = self._shape
        arr = np.array(self.coeff_array, dtype=np.int64) % self.field.p
        if arr.shape != (s.b, s.a, 3):
            raise ValueError(f"expected a ({s.b}, {s.a}, 3) coefficient array, "
                             f"got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeff_array", arr)

    def __eq__(self, other):
        if not isinstance(other, UlrichPresentation):
            return NotImplemented
        return self.content_hash == other.content_hash

    def __hash__(self):
        return hash(self.content_hash)

    @property
    def p(self) -> int:
        return self.field.p

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())

    @cached_property
    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "format": PRESENTATION_FORMAT,
            "p": self.p,
            "d": self.d,
            "r": self.r,
            "a": self.a,
            "b": self.b,
            "entries": self.coeff_array.tolist(),
        }

    def evaluate_at(self, point) -> np.ndarray:
        """The scalar b x a matrix M(point) over F_p."""
        vals = np.array([int(v) % self.p for v in point], dtype=np.int64)
        return matmul_mod(self.coeff_array, vals, self.p)

    def __repr__(self):
        return (f"UlrichPresentation(p={self.p}, d={self.d}, r={self.r}, "
                f"{self.b}x{self.a})")


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable canonical serialization shared by every file format;
    strict JSON, so a non-finite float raises ValueError."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True, allow_nan=False) + "\n").encode("ascii")


def random_presentation(d: int, r: int, rng: np.random.Generator,
                        p: int = DEFAULT_PRIME) -> UlrichPresentation:
    """Presentation with i.i.d. uniform coefficients, deterministic under rng."""
    s = shape(d, r)
    coeffs = rng.integers(0, p, size=(s.b, s.a, 3), dtype=np.int64)
    return UlrichPresentation(PrimeField(p), d, r, coeffs)


def extension(p1: UlrichPresentation, p2: UlrichPresentation, n) -> UlrichPresentation:
    """[[M1, N], [0, M2]], presenting an extension 0 -> E1 -> E -> E2 -> 0 of
    the two cokernels.  n is the b1 x a2 block N of linear forms, any array
    that broadcasts to (b1, a2, 3); n = 0 gives the direct sum."""
    if p1.p != p2.p:
        raise ValueError("mixed moduli in extension")
    if p1.d != p2.d:
        raise ValueError("extension needs equal polarization degrees")
    coeffs = np.zeros((p1.b + p2.b, p1.a + p2.a, 3), dtype=np.int64)
    coeffs[: p1.b, : p1.a] = p1.coeff_array
    coeffs[: p1.b, p1.a :] = n
    coeffs[p1.b :, p1.a :] = p2.coeff_array
    return UlrichPresentation(p1.field, p1.d, p1.r + p2.r, coeffs)


# ---------------------------------------------------------------------------
# Generic rank (injectivity)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericRankResult:
    trials: int
    witness: Optional[tuple[int, int, int]] = None

    @property
    def passed(self) -> bool:
        return self.witness is not None

    @property
    def status(self) -> str:
        return "injective" if self.passed else "undetermined"


def trial_point(p: int, i: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """The point of P^2(F_p) drawn for trial i, in chart CHART_ROTATION[i % 3]."""
    coords = [int(v) for v in rng.integers(0, p, size=3)]
    coords[CHART_ROTATION[i % 3]] = 1
    return tuple(coords)


def generic_rank_check(pres: UlrichPresentation, trials: int,
                       rng: np.random.Generator) -> GenericRankResult:
    """Look for one point of P^2(F_p) where M evaluates to full column rank.

    A single witness certifies injectivity of the sheaf map (pointwise rank
    bounds generic rank from below); exhausting the trials proves nothing
    and reports "undetermined".  The certifier calls this only when
    h^1(E(-2d)) != 0; otherwise M has rank a at every point, and the first
    draw, trial_point(p, 0, rng), is the witness without a rank.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for i in range(trials):
        point = trial_point(pres.p, i, rng)
        if rank_dense(pres.evaluate_at(point), pres.p) == pres.a:
            return GenericRankResult(trials=i + 1, witness=point)
    return GenericRankResult(trials=trials)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save(pres: UlrichPresentation, path) -> None:
    with open(path, "wb") as fh:
        fh.write(pres.canonical_bytes)


def load(path) -> UlrichPresentation:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise PresentationFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not UTF-8, or arrays nested past the parser's depth
        raise PresentationFormatError(f"not valid JSON: {exc}") from exc
    return from_json_dict(doc)


def from_json_dict(doc) -> UlrichPresentation:
    if not isinstance(doc, dict):
        raise PresentationFormatError("top-level value must be an object")
    if doc.get("format") != PRESENTATION_FORMAT:
        raise PresentationFormatError(
            f"format tag must be {PRESENTATION_FORMAT!r}, got {doc.get('format')!r}")
    for key in ("p", "d", "r", "a", "b", "entries"):
        if key not in doc:
            raise PresentationFormatError(f"missing field {key!r}")
    if not all(_is_int(doc[key]) for key in ("p", "d", "r", "a", "b")):
        raise PresentationFormatError("p, d, r, a, b must be integers")
    p, d, r = doc["p"], doc["d"], doc["r"]
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise PresentationFormatError(str(exc)) from exc
    try:
        s = shape(d, r)
    except ValueError as exc:
        raise PresentationFormatError(str(exc)) from exc
    if doc["a"] != s.a or doc["b"] != s.b:
        raise PresentationFormatError(
            f"inconsistent shape: file says {doc['b']}x{doc['a']}, but "
            f"(d={d}, r={r}) forces {s.b}x{s.a} (b-a must equal r)")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != s.b:
        raise PresentationFormatError(f"entries must be a list of {s.b} rows")
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != s.a:
            raise PresentationFormatError(f"row {i} must hold {s.a} linear forms")
        for j, coeffs in enumerate(row):
            if (not isinstance(coeffs, list) or len(coeffs) != 3
                    or not all(_is_int(c) for c in coeffs)):
                raise PresentationFormatError(
                    f"entry ({i}, {j}) must be a list of 3 integers")
            if not all(0 <= c < p for c in coeffs):
                raise PresentationFormatError(
                    f"entry ({i}, {j}) has coefficients outside [0, {p})")
    # reshape keeps the (b, a, 3) shape when a = 0 (d = 1)
    return UlrichPresentation(field, d, r,
                              np.array(entries, dtype=np.int64).reshape(s.b, s.a, 3))


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)
