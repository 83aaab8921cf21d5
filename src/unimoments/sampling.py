"""Counter-based sampling of matrices with i.i.d. unit-circle entries.

Every sample index gets its own Philox stream keyed by (seed, index), so a
given (seed, index) pair produces a bit-identical matrix no matter how work
is split across processes or in what order samples are drawn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_unimodular", "unimodular_stream"]

_MASK64 = (1 << 64) - 1


def unimodular_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, sample index) pair.

    The 128-bit Philox key is the seed in the low word and the index in the
    high word; distinct pairs never share a stream.  The seed must fit the
    low word, in [0, 2^64), so that no two seeds share a stream.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be in [0, 2^64)")
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    key = int(seed) | ((int(index) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_unimodular(n: int, seed: int, index: int = 0) -> np.ndarray:
    """One n x n matrix of i.i.d. entries exp(i*theta), theta uniform on [0, 2*pi).

    Deterministic in (seed, index): the same pair yields the same matrix
    across runs and worker counts.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    gen = unimodular_stream(seed, index)
    angles = gen.uniform(0.0, 2.0 * np.pi, size=(n, n))
    return np.exp(1j * angles)
