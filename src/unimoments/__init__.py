"""Exact spectral moments of the squared unimodular random-matrix ensemble.

The squared ensemble is rho = U U* / N^2 with U an N x N matrix of i.i.d.
entries uniform on the complex unit circle.  Its k-th mean spectral moment
is Q_k(N) / N^(2k+1) for an integer polynomial Q_k whose falling-factorial
coefficients count set partitions of an alternating 2k-cycle with balanced
quotients.  This package computes those counts exactly, assembles the
polynomials, evaluates the Borel-triangle closed form that predicts the
same counts only up to k = 5, and validates everything by Monte Carlo.
"""

from .counting import count_brute, count_ddcg_partitions
from .errors import InternalCheckError, ScaleLimitError
from .graphs import (
    Color,
    ColoredDigraph,
    SetPartition,
    alternating_cycle,
    balanced_quotient_counts,
    injective_traffic_brute,
    injective_traffic_value,
    is_ddcg,
    iter_partitions,
    quotient,
    tau_via_quotients,
    traffic_state_brute,
)
from .montecarlo import (
    MomentEstimate,
    ValidationReport,
    estimate_moment,
    validate_against_exact,
)
from .polynomials import (
    MomentPolynomial,
    borel_entry,
    conjectured_ftable,
    conjectured_moment,
    elementary_symmetric,
    exact_moment,
    falling_factorial,
    find_disproof,
    ftable_row,
    moment_polynomial,
    monomial_to_pochhammer,
    pochhammer_to_monomial,
    stirling2,
)
from .sampling import sample_unimodular
from .tables import CONJECTURED_COUNTS, REFERENCE_COUNTS

__version__ = "0.1.0"

__all__ = [
    "Color",
    "ColoredDigraph",
    "SetPartition",
    "alternating_cycle",
    "quotient",
    "is_ddcg",
    "balanced_quotient_counts",
    "injective_traffic_value",
    "injective_traffic_brute",
    "traffic_state_brute",
    "tau_via_quotients",
    "iter_partitions",
    "count_ddcg_partitions",
    "count_brute",
    "MomentPolynomial",
    "moment_polynomial",
    "pochhammer_to_monomial",
    "monomial_to_pochhammer",
    "stirling2",
    "elementary_symmetric",
    "falling_factorial",
    "borel_entry",
    "conjectured_ftable",
    "conjectured_moment",
    "exact_moment",
    "ftable_row",
    "find_disproof",
    "MomentEstimate",
    "ValidationReport",
    "estimate_moment",
    "validate_against_exact",
    "sample_unimodular",
    "REFERENCE_COUNTS",
    "CONJECTURED_COUNTS",
    "ScaleLimitError",
    "InternalCheckError",
    "__version__",
]
