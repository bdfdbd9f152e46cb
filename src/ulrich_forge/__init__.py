"""Ulrich bundles on Veronese surfaces by exact finite-field linear algebra.

The package searches for bundle presentations as cokernels of matrices of
linear forms, certifies the Ulrich property through a finite list of
cohomology vanishings, and verifies the closed-form dimension identities
surrounding that construction.
"""

__version__ = "0.1.0"

import os

# rank_dense splits a large rank over its own threads, one GEMM per thread
# at a time, so BLAS gets one thread inside each GEMM unless the user's
# environment says otherwise.  This must run before numpy is first
# imported: a process that imported numpy earlier keeps its BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cohomology import (bundle_cohomology, dual_cohomology, end_cohomology,
                         hom_presentations, line_h, omega_table)
from .field import DEFAULT_PRIME, PrimeField
from .poly import basis
from .presentation import (UlrichPresentation, extension, generic_rank_check,
                           load, random_presentation, save, shape)
from .search import search, sweep
from .ulrich import (UlrichCertificate, certify, euler_pairing, hilbert_check,
                     invariants, line_bundle_solutions, stability_margin,
                     ulrich_cohomology, veronese_facts)

__all__ = [
    "DEFAULT_PRIME", "PrimeField", "UlrichCertificate", "UlrichPresentation",
    "basis", "bundle_cohomology", "certify", "dual_cohomology",
    "end_cohomology", "euler_pairing", "extension", "generic_rank_check",
    "hilbert_check", "hom_presentations", "invariants",
    "line_bundle_solutions", "line_h", "load", "omega_table",
    "random_presentation", "save", "search", "shape", "stability_margin",
    "sweep", "ulrich_cohomology", "veronese_facts", "__version__",
]
