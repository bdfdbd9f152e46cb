"""Ulrich bundles on Veronese surfaces by exact finite-field linear algebra.

The package searches for bundle presentations as cokernels of matrices of
linear forms, certifies the Ulrich property through a finite list of
cohomology vanishings, and verifies the closed-form dimension identities
surrounding that construction.
"""

__version__ = "0.1.0"

from .cohomology import (bundle_cohomology, dual_cohomology, end_cohomology,
                         hom_presentations, line_h, omega_table, section_space)
from .field import DEFAULT_PRIME, PrimeField
from .poly import basis
from .presentation import (UlrichPresentation, direct_sum, generic_rank_check,
                           load, random_presentation, save, shape)
from .search import search, sweep
from .ulrich import (UlrichCertificate, certify, euler_pairing, hilbert_check,
                     invariants, line_bundle_solutions, semistable_bound_check,
                     veronese_facts)

__all__ = [
    "DEFAULT_PRIME", "PrimeField", "UlrichCertificate", "UlrichPresentation",
    "basis", "bundle_cohomology", "certify", "direct_sum", "dual_cohomology",
    "end_cohomology", "euler_pairing", "generic_rank_check", "hilbert_check",
    "hom_presentations", "invariants", "line_bundle_solutions", "line_h",
    "load", "omega_table", "random_presentation", "save", "search",
    "section_space", "semistable_bound_check", "shape", "sweep",
    "veronese_facts", "__version__",
]
