"""Counter-based sampling of matrices with i.i.d. unit-circle entries.

Each seed keys one Philox stream, and sample i of dimension n is the slice
[i * n^2, (i + 1) * n^2) of that stream's uniforms.  Philox is counter-based,
so a sample's slice is reached by setting the counter, without drawing what
comes before it: a given (seed, index) pair yields a bit-identical matrix
however samples are batched or split across threads, and a batch of
consecutive samples is one contiguous draw.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["unimodular_batch"]

_MASK64 = (1 << 64) - 1
_PHILOX_BLOCK = 4  # Philox4x64 yields four 64-bit words per counter step


def unimodular_batch(n: int, seed: int, start: int, count: int) -> np.ndarray:
    """Samples start .. start + count - 1 of the seed's stream, shape (count, n, n).

    Entries are exp(i*theta) with theta uniform on [0, 2*pi); each theta uses
    one 64-bit word of the stream.  The seed must lie in [0, 2^64) so that no
    two seeds share a stream.  All four arguments must be integers
    (``operator.index``), so that a float seed is refused, not truncated.
    """
    n, seed, start, count = map(operator.index, (n, seed, start, count))
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be in [0, 2^64)")
    if start < 0:
        raise ValueError("sample index must be nonnegative")
    if count < 0:
        raise ValueError("sample count must be nonnegative")
    size = n * n
    block, skip = divmod(start * size, _PHILOX_BLOCK)
    gen = np.random.Generator(np.random.Philox(key=seed, counter=block))
    angles = gen.uniform(0.0, 2.0 * np.pi, size=skip + count * size)[skip:]
    # cos and sin written straight into the output are exp(1j * angles) bit
    # for bit, without the complex temporary 1j * angles
    out = np.empty(count * size, dtype=np.complex128)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out.reshape(count, n, n)

