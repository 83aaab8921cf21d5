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

from . import counting, errors, graphs, montecarlo, polynomials
from .counting import *  # noqa: F403
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .polynomials import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (counting, errors, graphs, montecarlo, polynomials)
           for name in module.__all__] + ["__version__"]
