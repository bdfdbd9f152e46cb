"""Ulrich numerology, the finite-vanishing certifier, and arithmetic checkers.

The closed-form side (Chern classes, Hilbert polynomial, endomorphism
Euler characteristics, the line-bundle Diophantine system) lives here in
exact integer arithmetic, denominators cleared by 2 or 4 throughout.  One
rule, ``stability_margin(d, parts)``, covers every Jordan-Hoelder type of a
strictly semistable Ulrich bundle: D = h^1(End) of a simple bundle minus the
dimension of that type's family, which is sum_{i<j} (r_i r_j (d^2-5)/4 - 1)
> 0 for d >= 3, so a general deformation of a bundle with End = (1, D, 0)
is stable.  The certifier ties it to the cohomology engine: a
presentation whose generic-rank witness exists and whose twists
E(-t d) for t = 2..alpha have vanishing first cohomology presents an
Ulrich bundle, and the optional full profile re-verifies the theory's
dimensions: every expectation but End's is the one closed form
``ulrich_cohomology(d, r, m)``, read for the twisted dual E^v(3d-3) at the
same m.  The witness is implied when h^1(E(-2d)) = 0, and computed by
ranking M at drawn points otherwise.

A certificate stores its inputs and the numbers it computed, nothing else:
every shape number and constant is derived, and every verdict (``valid``,
``passed``, ``full_ok``, the discrepancies, a search's failure key) reads
one list of checks built from those numbers, so no certificate can
contradict its own data.

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
from itertools import combinations
from math import comb
from typing import ClassVar, Optional

import numpy as np

from .cohomology import (bundle_cohomology, chi_line, dual_cohomology,
                         end_cohomology, omega_table)
from .presentation import (GenericRankResult, Shaped, UlrichPresentation,
                           canonical_json_bytes, generic_rank_check, shape, trial_point)

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
class UlrichInvariants(Shaped):
    """Numerical invariants forced on a rank-r Ulrich bundle on (P^2, dH)."""

    d: int
    r: int
    c1: int
    c2: int
    chi_end: int            # chi(E tensor E^v) = -r^2(d^2-5)/4
    h1_end_simple: int      # h^1(End) for simple E = (4 + r^2(d^2-5))/4
    canonical_divisor: ClassVar[int] = -3    # K coefficient on the hyperplane class

    def hilbert(self, t: int) -> int:
        """chi(E(td)) = d^2 r (t+1)(t+2)/2, the Ulrich Hilbert polynomial."""
        return self.d * self.d * self.r * (t + 1) * (t + 2) // 2


def invariants(d: int, r: int) -> UlrichInvariants:
    """All closed-form invariants for valid (d, r); ParityError otherwise."""
    shape(d, r)             # raises ParityError for an impossible (d, r)
    c1 = 3 * r * (d - 1) // 2
    # c2 forced by matching the Riemann-Roch constant term to the Hilbert
    # polynomial value d^2 r at t = 0
    c2 = (c1 * c1 + 3 * c1) // 2 + r - d * d * r
    num = r * r * (d * d - 5)
    assert num % 4 == 0, "parity constraint guarantees divisibility by 4"
    chi_end = -num // 4
    h1_end_simple = 1 - chi_end
    return UlrichInvariants(
        d=d, r=r, c1=c1, c2=c2, chi_end=chi_end, h1_end_simple=h1_end_simple,
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


def ulrich_cohomology(d: int, r: int, m: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of E(m) for every rank-r Ulrich bundle E on (P^2, dH).

    With chi = chi(E(m)) = r(m+d)(m+2d)/2: h^0 = chi for m >= -d, h^1 = -chi
    for -2d <= m <= -d, h^2 = chi for m <= -2d, and the rest vanish.  For
    m >= -d, H^2(O(d-2+m)) = 0, so 0 -> O(d-2)^a -> O(d-1)^b -> E -> 0
    gives h^1 = h^2 = 0; for m <= -d, h^0(E(m)) <= h^0(E(-d)) = 0.  The
    twisted dual F = E^v(3d-3) is Ulrich of rank r, and Serre duality
    h^i(E(m)) = h^{2-i}(F(-m-3d)) turns both steps for F into m <= -2d.
    F(m) has the same triple, so a certificate reads the dual at 3d-3+m.
    """
    shape(d, r)             # raises ParityError for an impossible (d, r)
    chi = r * (m + d) * (m + 2 * d) // 2
    return (chi, 0, 0) if m >= -d else (0, 0, chi) if m <= -2 * d else (0, -chi, 0)


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


def stability_margin(d: int, parts: tuple[int, ...]) -> int:
    """D minus the dimension of the strictly semistable Ulrich bundles of
    Jordan-Hoelder type ``parts``, exactly.

    D = h^1_simple(r) = 1 + r^2(d^2-5)/4 is the dimension of the moduli of
    simple sheaves at a rank-r Ulrich bundle E with End = (1, D, 0), and
    r = sum(parts).  For stable Ulrich factors G_1..G_m of ranks
    r_1..r_m the margin is D minus

        family = sum_i h^1_simple(r_i) + sum_{i<j} (1 - chi(G_j, G_i)) - (m - 1),

    which equals sum_{i<j} (r_i r_j (d^2-5)/4 - 1), so it is positive for
    d >= 3.  The argument, on (P^2, dH) with K = -3H:

    1. Ulrich sheaves are semistable, and the factors G_i of a
       Jordan-Hoelder filtration 0 = E_0 < E_1 < ... < E_m = E are stable
       Ulrich sheaves (Casanellas-Hartshorne, "Stable Ulrich bundles",
       Int. J. Math. 23 (2012), section 2).  No rank-1 Ulrich sheaf exists
       for d >= 2 (``line_bundle_solutions``), so every r_i >= 2, and r_i
       is even when d is.
    2. G_i varies in a family of dimension h^1_simple(r_i): it is simple,
       and Ext^2(G_i, G_i) = Hom(G_i, G_i(K))^v = 0 because G_i(K) is
       semistable of smaller slope.
    3. E_j is an extension of G_j by E_{j-1}.  Along the filtration of
       E_{j-1}, ext^1(G_j, E_{j-1}) <= sum_{i<j} ext^1(G_j, G_i).  Each
       term is hom(G_j, G_i) - chi(G_j, G_i) <= 1 - chi(G_j, G_i): the
       Ext^2 vanishes as in step 2, and a nonzero map of stable sheaves
       of one reduced Hilbert polynomial is an isomorphism, so hom <= 1.
    4. Classes that differ by a nonzero scalar give isomorphic extensions,
       so for fixed E_{j-1} and G_j step j adds at most one dimension less
       than ext^1(G_j, E_{j-1}), the split extension included: E_{j-1} is
       Ulrich, so ext^1(G_j, E_{j-1}) >= -chi(G_j, E_{j-1}) > 0.  Steps
       2-4 summed over j = 2..m give ``family``.
    5. A valid full certificate with End = (1, D, 0) makes E a smooth point
       of dimension D.  Near it each of the finitely many types fills
       family < D dimensions, and being Ulrich is open, so a general
       deformation of E is a stable Ulrich bundle.

    Raises ValueError for d < 3, fewer than two parts or a part below 2,
    and ParityError for an odd part at even d.
    """
    if d < 3 or len(parts) < 2 or min(parts) < 2:
        raise ValueError(f"need d >= 3 and two or more parts, each at least 2 (no rank-1 "
                         f"Ulrich sheaf exists for d >= 2), got d={d}, parts={parts}")
    family = (sum(invariants(d, s).h1_end_simple for s in parts)
              + sum(1 - euler_pairing(d, rj, ri) for ri, rj in combinations(parts, 2))
              - (len(parts) - 1))
    return invariants(d, sum(parts)).h1_end_simple - family


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
class UlrichCertificate(Shaped):
    """Machine-checkable record of the verified vanishings and identities:
    the inputs and the computed numbers; every verdict reads ``checks``."""

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
    def _basic_checks(self) -> list[CheckResult]:
        """The finite criterion: witnessed injectivity plus h^1(E(-t d)) = 0
        for t = 2..alpha."""
        return [CheckResult("generic_rank", "injective", self.generic_rank.status,
                            "no evaluation point of full column rank found"),
                *(CheckResult(f"h1_t{t}", 0, h1,
                              f"first cohomology of the (-{t}d)-twist must vanish")
                  for t, h1 in self.vanishings)]

    @property
    def checks(self) -> list[CheckResult]:
        """Every check run, in order: the basic criterion, then the full
        profile if it ran."""
        return self._basic_checks + (self.full_checks or [])

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self._basic_checks)

    @property
    def passed(self) -> bool:
        """Did every check at the requested level succeed.  A valid
        certificate has h^1(E(-2d)) = 0, which proves local freeness."""
        return all(c.passed for c in self.checks)

    @property
    def full_ok(self) -> Optional[bool]:
        """None at the basic level; else passed (False when the basic
        criterion failed and the full profile never ran)."""
        return None if self.level == "basic" else self.passed

    def discrepancies(self) -> list[dict]:
        """The failing checks, first failure first; search failure
        histograms are keyed by the first one's name."""
        return [c.to_json_dict() for c in self.checks if not c.passed]

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


def certificate_filename(presentation_name: str) -> str:
    """The certificate file written beside a presentation: <stem>.cert.json."""
    return presentation_name.removesuffix(".json") + ".cert.json"


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
    Every expected value but End's is ulrich_cohomology(d, r, m), the dual's
    read at the same m.  An invalid basic certificate gets full_checks None
    and full_ok False.
    Failures are recorded, never raised.

    Local freeness is not checked separately.  h^1(E(-2d)) = dim
    coker(M^T)_{d-1}; when it is 0 the sheaf map M^T is surjective, so M has
    rank a at every point over the algebraic closure.  The certificate's
    local_freeness verdict says whether that vanishing holds.  It implies
    the generic-rank witness too: the first point drawn, at trial 1 with no
    rank, as generic_rank_check would find it; only when h^1(E(-2d)) != 0
    are the drawn points ranked.
    """
    if level not in ("basic", "full"):
        raise ValueError(f"level must be 'basic' or 'full', got {level!r}")
    # SeedSequence refuses a negative seed: fail here, before any rank
    rng_rank = np.random.default_rng(np.random.SeedSequence([master_seed, *seed_path, 101]))
    vanishings = [(t, bundle_cohomology(pres, -t * pres.d)[1])
                  for t in range(2, pres.alpha + 1)]
    gr = (GenericRankResult(trials=1, witness=trial_point(pres.p, 0, rng_rank))
          if vanishings[0][1] == 0 else
          generic_rank_check(pres, trials=LEGACY_CERT_CONFIG["rank_trials"], rng=rng_rank))
    cert = UlrichCertificate(
        presentation_hash=pres.content_hash, p=pres.p, d=pres.d, r=pres.r,
        level=level, seed_path=(master_seed, *seed_path),
        generic_rank=gr, vanishings=vanishings)
    if level == "full" and cert.valid:
        cert.full_checks = _full_profile_checks(pres)
    return cert


def _full_profile_checks(pres: UlrichPresentation) -> list[CheckResult]:
    d, r = pres.d, pres.r
    checks: list[CheckResult] = []

    def twist(name: str, m: int, qs: tuple[int, ...], note: str, dual: bool = False) -> None:
        """Check h^q of E(m), or of the twisted dual E^v(3d-3+m), for q in qs."""
        got = dual_cohomology(pres, 3 * d - 3 + m) if dual else bundle_cohomology(pres, m)
        want = ulrich_cohomology(d, r, m)
        checks.extend(CheckResult(name.format(q=q), want[q], got[q], note) for q in qs)

    # dimension ladder at the three smallest interesting twists
    twist(f"ladder_h{{q}}_m{-d}", -d, (0, 1, 2), "all cohomology of the (-1)-twist vanishes")
    twist(f"ladder_h{{q}}_m{1 - d}", 1 - d, (0, 1, 2), "sections jump to r(d+1)/2 one step up")
    twist(f"ladder_h{{q}}_m{2 - d}", 2 - d, (0, 1), "sections reach r(d+2) two steps up")
    for t in range(-pres.alpha - LEGACY_CERT_CONFIG["acm_window_pad"], 4):
        twist(f"acm_h1_t{t}", t * d, (1,),
              "no intermediate cohomology at any polarization twist")
    for t in range(0, 3):
        twist(f"sections_t{t}", t * d, (0,), "global sections match the Hilbert polynomial")
    for t in (-3, -4):
        twist(f"h2_t{t}", t * d, (2,),
              "second cohomology carries the whole Euler characteristic")

    # cotangent-twist table: plain twists -d and 1-d around the column (a, 0, 0)
    cols = ulrich_cohomology(d, r, -d), (pres.a, 0, 0), ulrich_cohomology(d, r, 1 - d)
    checks.append(CheckResult(
        name="omega_table", expected=[[col[q] for col in cols] for q in range(3)],
        computed=omega_table(pres),
        note="the spectral-sequence table must have one nonzero row"))

    # endomorphism cohomology of a simple bundle
    checks.append(CheckResult(
        name="end_cohomology", expected=[1, invariants(d, r).h1_end_simple, 0],
        computed=list(end_cohomology(pres)),
        note="simplicity and the deformation-space dimension"))

    # the twisted dual is again Ulrich of rank r, so it has the same table
    twist("dual_h0_m-d", -d, (0,), "the twisted dual has no sections in its (-1)-twist",
          dual=True)
    twist("dual_h0_m0", 0, (0,), "the twisted dual has the Ulrich section count", dual=True)
    for t in range(-2, 3):
        twist(f"dual_h1_t{t}", t * d, (1,), "the twisted dual has no intermediate cohomology",
              dual=True)

    return checks
