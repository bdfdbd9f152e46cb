"""Ulrich numerology, the finite-vanishing certifier, and arithmetic checkers.

The closed-form side (Chern classes, Hilbert polynomial, endomorphism
Euler characteristics, moduli dimension inequalities, the line-bundle
Diophantine system) lives here in exact integer arithmetic, denominators
cleared by 2 or 4 throughout.  The certifier ties it to the cohomology
engine: a presentation whose generic-rank witness exists and whose twists
E(-t d) for t = 2..alpha have vanishing first cohomology presents an
Ulrich bundle, and the optional full profile re-verifies every dimension
formula the theory predicts for it.

A certificate stores its inputs and the numbers it computed, nothing else:
every verdict (a check's ``passed``, ``valid``, ``full_ok``), shape number
and constant is derived, so no certificate can contradict its own data.

Local freeness is read off the first vanishing, h^1(E(-2d)) = 0, which
every certificate checks: it makes M have rank a at every point over the
algebraic closure, so the cokernel is locally free.  The certificate's
``local_freeness`` block records that verdict.  Its legacy fields (the
"no degeneracy found (incomplete)" wording, ``k_max``/``trials_per_k`` and
the ``lf_k_max``/``lf_trials`` config keys, all from a point sampler that no
longer exists), ``CAVEAT_LOCAL_FREENESS`` and the ``ulrich-certificate/1``
tag keep their bytes on purpose: the benchmark pins the digests of seed-0
certificates and sweep reports.  So do the fixed ``rank_trials`` and
``acm_window_pad`` config keys: on a valid certificate the first generic-rank
draw is a witness, and every window twist is implied or has no H^2 block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .cohomology import (bundle_cohomology, chi_line, dual_cohomology,
                         end_cohomology, omega_table)
from .presentation import (GenericRankResult, UlrichPresentation,
                           canonical_json_bytes, generic_rank_check, shape)

CERTIFICATE_FORMAT = "ulrich-certificate/1"

CAVEAT_FIELD = ("computed over F_p; lifting the certificate to "
                "characteristic 0 is not addressed")
CAVEAT_LOCAL_FREENESS = ("local freeness of the cokernel is sampled, not "
                         "certified; the sampler is incomplete")

# Settings of the removed local-freeness sampler, still written into every
# ulrich-certificate/1 certificate and ulrich-sweep/1 report.
LEGACY_LF_CONFIG = {"lf_k_max": 2, "lf_trials": 20}
# The config of every ulrich-certificate/1 certificate.
LEGACY_CERT_CONFIG = {"rank_trials": 3, **LEGACY_LF_CONFIG, "acm_window_pad": 3}
LF_VERDICT_PROVED = "no degeneracy found (incomplete)"
LF_VERDICT_NOT_PROVED = "not proved: h^1(E(-2d)) != 0"


# ---------------------------------------------------------------------------
# Closed-form invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UlrichInvariants:
    """Numerical invariants forced on a rank-r Ulrich bundle on (P^2, dH)."""

    d: int
    r: int
    a: int
    b: int
    alpha: int
    c1: int
    c2: int
    chi_end: int            # chi(E tensor E^v) = -r^2(d^2-5)/4
    h1_end_simple: int      # h^1(End) for simple E = (4 + r^2(d^2-5))/4
    canonical_divisor: int = -3              # K coefficient on the hyperplane class

    def hilbert(self, t: int) -> int:
        """chi(E(td)) = d^2 r (t+1)(t+2)/2, the Ulrich Hilbert polynomial."""
        return self.d * self.d * self.r * (t + 1) * (t + 2) // 2


def invariants(d: int, r: int) -> UlrichInvariants:
    """All closed-form invariants for valid (d, r); ParityError otherwise."""
    s = shape(d, r)
    c1 = 3 * r * (d - 1) // 2
    # c2 forced by matching the Riemann-Roch constant term to the Hilbert
    # polynomial value d^2 r at t = 0
    c2 = (c1 * c1 + 3 * c1) // 2 + r - d * d * r
    num = r * r * (d * d - 5)
    assert num % 4 == 0, "parity constraint guarantees divisibility by 4"
    chi_end = -num // 4
    h1_end_simple = 1 - chi_end
    return UlrichInvariants(
        d=d, r=r, a=s.a, b=s.b, alpha=s.alpha,
        c1=c1, c2=c2, chi_end=chi_end, h1_end_simple=h1_end_simple,
    )


def hilbert_check(d: int, r: int, t: int) -> int:
    """chi(E(td)) via the resolution and via the closed form; they must agree."""
    inv = invariants(d, r)
    from_resolution = inv.b * chi_line(d - 1 + t * d) - inv.a * chi_line(d - 2 + t * d)
    closed = inv.hilbert(t)
    if from_resolution != closed:
        raise AssertionError(
            f"Hilbert polynomial mismatch at (d={d}, r={r}, t={t}): "
            f"resolution gives {from_resolution}, closed form {closed}")
    return closed


def line_bundle_solutions(d: int) -> list[int]:
    """All integers t0 for which O(t0) could be Ulrich on (P^2, dH).

    Matching the Hilbert polynomial of O(t0) against d^2 C(t+2, 2) forces
    3d^2 = d(2 t0 + 3) and 2d^2 = t0^2 + 3 t0 + 2; the system has the
    single solution (d, t0) = (1, 0).
    """
    if d < 1:
        raise ValueError(f"degree d must be >= 1, got {d}")
    if (3 * d - 3) % 2 != 0:
        return []
    t0 = (3 * d - 3) // 2
    if 2 * d * d == t0 * t0 + 3 * t0 + 2:
        return [t0]
    return []


def euler_pairing(d: int, r1: int, r2: int) -> int:
    """chi(E1^v tensor E2) for Ulrich invariants of ranks r1, r2 on (P^2, dH).

    Computed through the degree-<=2 Chern-character product paired with the
    Todd class; for Ulrich pairs it collapses to -(r1 r2 / 4)(d^2 - 5).
    """
    i1 = invariants(d, r1)
    i2 = invariants(d, r2)
    ch2x2_1 = i1.c1 * i1.c1 - 2 * i1.c2   # 2 * ch_2
    ch2x2_2 = i2.c1 * i2.c1 - 2 * i2.c2
    ch0 = r1 * r2
    ch1 = r1 * i2.c1 - r2 * i1.c1
    ch2x2 = r1 * ch2x2_2 - 2 * i1.c1 * i2.c1 + r2 * ch2x2_1
    chi_x2 = ch2x2 + 3 * ch1 + 2 * ch0    # Todd class 1 + (3/2)H + H^2
    assert chi_x2 % 2 == 0
    return chi_x2 // 2


def semistable_bound_check(d: int, k: int, case: str) -> bool:
    """Strict moduli-dimension inequality showing stable bundles dominate
    strictly semistable ones, evaluated exactly (scaled by 4).

    case "even":     rank 2k from rank 2 + rank 2k-2 extensions;
    case "odd-even": rank 2k from rank 3 + rank 2k-3 extensions;
    case "odd-odd":  rank 2k+1 from rank 3 + rank 2k-2 extensions.
    The right side is the deformation dimension of a simple bundle of the
    total rank, (4 + r^2(d^2-5))/4.
    """
    if d < 3:
        raise ValueError(f"the bound needs d >= 3, got {d}")
    if k < 2:
        raise ValueError(f"the bound needs k >= 2, got {k}")
    x = d * d - 5
    if case == "even":
        r = 2 * k
        lhs4 = 4 * (d * d - 4) + 4 * ((k - 1) * (k - 1) * x + 1) + 4 * (k - 1) * x - 4
    elif case in ("odd-even", "odd-odd"):
        r = 2 * k if case == "odd-even" else 2 * k + 1
        lhs4 = 4 + 9 * x + 4 + (r - 3) * (r - 3) * x + 3 * (r - 3) * x - 4
    else:
        raise ValueError(f"unknown case {case!r}")
    rhs4 = r * r * x + 4
    return lhs4 < rhs4


def veronese_facts(d: int) -> tuple[int, int]:
    """(degree, ambient projective dimension) of the image of P^2 under the
    degree-d Veronese map."""
    if d < 1:
        raise ValueError(f"degree d must be >= 1, got {d}")
    return d * d, comb(d + 2, 2) - 1


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    computed: object
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.computed == self.expected

    def to_json_dict(self) -> dict:
        return {"check": self.name, "expected": self.expected,
                "computed": self.computed, "passed": self.passed,
                "note": self.note}


@dataclass
class UlrichCertificate:
    """Machine-checkable record of the verified vanishings and identities:
    the inputs and the computed numbers; every verdict is derived."""

    presentation_hash: str
    p: int
    d: int
    r: int
    level: str
    seed_path: tuple[int, ...]
    generic_rank: GenericRankResult
    vanishings: list[tuple[int, int]]          # (t, h^1(E(-t d))), t = 2 first
    full_checks: Optional[list[CheckResult]] = None  # None unless full and valid

    @property
    def a(self) -> int:
        return shape(self.d, self.r).a

    @property
    def b(self) -> int:
        return shape(self.d, self.r).b

    @property
    def alpha(self) -> int:
        return shape(self.d, self.r).alpha

    @property
    def valid(self) -> bool:
        """Exactly the finite criterion: witnessed injectivity plus
        h^1(E(-t d)) = 0 for t = 2..alpha."""
        return self.generic_rank.passed and all(h1 == 0 for _, h1 in self.vanishings)

    @property
    def full_ok(self) -> Optional[bool]:
        """None at the basic level; else valid and every full check passed."""
        if self.level == "basic":
            return None
        return self.valid and all(c.passed for c in self.full_checks)

    @property
    def passed(self) -> bool:
        """Did every check at the requested level succeed.  A valid
        certificate has h^1(E(-2d)) = 0, which proves local freeness."""
        return self.valid and self.full_ok is not False

    def discrepancies(self) -> list[dict]:
        out = []
        if not self.generic_rank.passed:
            out.append({"check": "generic_rank", "expected": "injective",
                        "computed": self.generic_rank.status,
                        "note": "no evaluation point of full column rank found"})
        for t, h1 in self.vanishings:
            if h1 != 0:
                out.append({"check": f"vanishing_t{t}", "expected": 0, "computed": h1,
                            "note": f"first cohomology of the (-{t}d)-twist must vanish"})
        for chk in self.full_checks or []:
            if not chk.passed:
                out.append(chk.to_json_dict())
        return out

    def to_json_dict(self) -> dict:
        return {
            "format": CERTIFICATE_FORMAT,
            "presentation_hash": self.presentation_hash,
            "p": self.p, "d": self.d, "r": self.r,
            "a": self.a, "b": self.b, "alpha": self.alpha,
            "level": self.level,
            "seed_path": list(self.seed_path),
            "generic_rank": {
                "status": self.generic_rank.status,
                "trials": self.generic_rank.trials,
                "witness": list(self.generic_rank.witness) if self.generic_rank.witness else None,
            },
            "vanishings": [{"t": t, "h1": h1} for t, h1 in self.vanishings],
            "local_freeness": {
                "verdict": (LF_VERDICT_PROVED if self.vanishings[0][1] == 0
                            else LF_VERDICT_NOT_PROVED),
                "k_max": LEGACY_LF_CONFIG["lf_k_max"],
                "trials_per_k": LEGACY_LF_CONFIG["lf_trials"],
            },
            "valid": self.valid,
            "full_checks": ([c.to_json_dict() for c in self.full_checks]
                            if self.full_checks is not None else None),
            "full_ok": self.full_ok,
            "caveats": [CAVEAT_FIELD, CAVEAT_LOCAL_FREENESS],
            "config": dict(LEGACY_CERT_CONFIG),
        }

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())


def certify(pres: UlrichPresentation, level: str = "basic",
            master_seed: int = 0, seed_path: tuple[int, ...] = ()) -> UlrichCertificate:
    """Certify the Ulrich property of a presented bundle.

    basic: generic-rank witness plus h^1(E(-t d)) = 0 for t = 2..alpha,
    which together force the Ulrich property for a locally free cokernel.
    full: once the basic certificate is valid, additionally re-verify the
    dimension ladder at twists -d, 1-d, 2-d, the vanishing window
    h^1(E(td)) = 0 for t in the fixed range [-alpha-3, 3], Hilbert values,
    second cohomology at t = -3, -4, the cotangent-twist table,
    endomorphism cohomology, and the Ulrich profile of the twisted dual.
    An invalid basic certificate gets full_checks None and full_ok False.
    Failures are recorded, never raised.

    Local freeness is not checked separately.  h^1(E(-2d)) = dim
    coker(M^T)_{d-1}; when it is 0 the sheaf map M^T is surjective, so M has
    rank a at every point over the algebraic closure.  The certificate's
    local_freeness verdict says whether that vanishing holds.
    """
    if level not in ("basic", "full"):
        raise ValueError(f"level must be 'basic' or 'full', got {level!r}")
    rng_rank = np.random.default_rng(np.random.SeedSequence([master_seed, *seed_path, 101]))
    gr = generic_rank_check(pres, trials=LEGACY_CERT_CONFIG["rank_trials"], rng=rng_rank)
    vanishings = [(t, bundle_cohomology(pres, -t * pres.d)[1])
                  for t in range(2, pres.alpha + 1)]
    cert = UlrichCertificate(
        presentation_hash=pres.content_hash, p=pres.p, d=pres.d, r=pres.r,
        level=level, seed_path=(master_seed, *seed_path),
        generic_rank=gr, vanishings=vanishings)
    if level == "full" and cert.valid:
        cert.full_checks = _full_profile_checks(pres)
    return cert


def _full_profile_checks(pres: UlrichPresentation) -> list[CheckResult]:
    d, r = pres.d, pres.r
    alpha = pres.alpha
    inv = invariants(d, r)
    checks: list[CheckResult] = []

    # dimension ladder at the three smallest interesting twists
    ladder = [
        (-d, (0, 0, 0), "all cohomology of the (-1)-twist vanishes"),
        (1 - d, (r * (d + 1) // 2, 0, 0), "sections jump to r(d+1)/2 one step up"),
        (2 - d, (r * (d + 2), 0, None), "sections reach r(d+2) two steps up"),
    ]
    for m, expected, note in ladder:
        got = bundle_cohomology(pres, m)
        for q in range(3):
            if expected[q] is None:
                continue
            checks.append(CheckResult(
                name=f"ladder_h{q}_m{m}", expected=expected[q], computed=got[q],
                note=note))

    # no intermediate cohomology across the finite window
    for t in range(-alpha - LEGACY_CERT_CONFIG["acm_window_pad"], 4):
        checks.append(CheckResult(
            name=f"acm_h1_t{t}", expected=0, computed=bundle_cohomology(pres, t * d)[1],
            note="no intermediate cohomology at any polarization twist"))

    # Hilbert values through sections
    for t in range(0, 3):
        checks.append(CheckResult(
            name=f"sections_t{t}", expected=inv.hilbert(t),
            computed=bundle_cohomology(pres, t * d)[0],
            note="global sections match the Hilbert polynomial"))

    # second cohomology at strongly negative twists (Serre-dual sections)
    for t in (-3, -4):
        checks.append(CheckResult(
            name=f"h2_t{t}", expected=inv.hilbert(t),
            computed=bundle_cohomology(pres, t * d)[2],
            note="second cohomology carries the whole Euler characteristic"))

    # cotangent-twist table
    checks.append(CheckResult(
        name="omega_table", expected=[[0, pres.a, pres.b], [0, 0, 0], [0, 0, 0]],
        computed=omega_table(pres),
        note="the spectral-sequence table must have one nonzero row"))

    # endomorphism cohomology of a simple bundle
    checks.append(CheckResult(
        name="end_cohomology", expected=[1, inv.h1_end_simple, 0],
        computed=list(end_cohomology(pres)),
        note="simplicity and the deformation-space dimension"))

    # the twisted dual is again Ulrich
    shift = 3 * d - 3
    checks.append(CheckResult(
        name="dual_h0_m-d", expected=0, computed=dual_cohomology(pres, shift - d)[0],
        note="the twisted dual has no sections in its (-1)-twist"))
    checks.append(CheckResult(
        name="dual_h0_m0", expected=d * d * r, computed=dual_cohomology(pres, shift)[0],
        note="the twisted dual has the Ulrich section count"))
    for t in range(-2, 3):
        checks.append(CheckResult(
            name=f"dual_h1_t{t}", expected=0, computed=dual_cohomology(pres, shift + t * d)[1],
            note="the twisted dual has no intermediate cohomology"))

    return checks
