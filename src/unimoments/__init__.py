"""Exact spectral moments of the squared unimodular random-matrix ensemble.

The squared ensemble is rho = U U* / N^2 with U an N x N matrix of i.i.d.
entries uniform on the complex unit circle.  Its k-th mean spectral moment
is Q_k(N) / N^(2k+1) for an integer polynomial Q_k whose falling-factorial
coefficients count set partitions of an alternating 2k-cycle with balanced
quotients.  This package computes those counts exactly, converts the
polynomials between bases, sums exact moments from the counts, evaluates
the Borel-triangle closed form that predicts the same counts only up to
k = 5, and validates everything by Monte Carlo.
"""

from .counting import count_brute, count_ddcg_partitions, count_ddcg_rows
from .errors import InternalCheckError, ScaleLimitError
from .graphs import (
    Color,
    ColoredDigraph,
    alternating_cycle,
    balanced_quotient_counts,
    balanced_quotient_counts_brute,
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
    borel_entry,
    conjectured_ftable,
    exact_moment,
    find_disproof,
    monomial_to_pochhammer,
    pochhammer_to_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "Color",
    "ColoredDigraph",
    "alternating_cycle",
    "quotient",
    "is_ddcg",
    "balanced_quotient_counts",
    "balanced_quotient_counts_brute",
    "traffic_state_brute",
    "tau_via_quotients",
    "iter_partitions",
    "count_ddcg_partitions",
    "count_ddcg_rows",
    "count_brute",
    "pochhammer_to_monomial",
    "monomial_to_pochhammer",
    "borel_entry",
    "conjectured_ftable",
    "exact_moment",
    "find_disproof",
    "MomentEstimate",
    "ValidationReport",
    "estimate_moment",
    "validate_against_exact",
    "ScaleLimitError",
    "InternalCheckError",
    "__version__",
]
