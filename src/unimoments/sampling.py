"""Counter-based sampling of matrices with i.i.d. unit-modulus entries.

Each entry is a uniform 256th root of unity, exp(2 pi i j / 256) with j
uniform on 0..255.  For such an entry z, E[z^m] = 1 when 256 divides m and
0 otherwise, while for a uniform point of the circle E[z^m] = 1 only at
m = 0: the two laws agree on every moment with |m| < 256.  Entries are
independent, so a polynomial in the entries and their conjugates has the
same expectation under both laws whenever each entry's net exponent (its
power minus its conjugate's) stays below 256 in every monomial.  In
tr(rho^k) an entry's net exponent is at most k <= ``MAX_POWER`` = 16 of
``montecarlo``, and at most 32 in tr(rho^k)^2, behind the standard error:
so every mean and variance the estimators read is exactly the circle's.
The 256 values are one table, built once at the first draw, each within
2^-50 of the exact cosine and sine; an entry is a lookup, with no arithmetic.

Each seed keys one Philox4x64 stream (Salmon et al., SC'11), read as bytes,
each 64-bit word in little-endian order on every host, and entry e of the
stream is the table's value at byte e.  Sample i of dimension n is the
bytes [i n^2, (i + 1) n^2).  One counter step yields four words, 32 bytes,
so a draw of samples ``start`` .. ``start + count - 1`` sets the counter to
(start n^2) // 32, skips the first (start n^2) % 32 bytes, and draws the
ceil((skip + count n^2) / 8) words that reach its last byte.  Philox is
counter-based, so a given (seed, index) pair yields a bit-identical matrix
however samples are batched or split across threads, and a batch of
consecutive samples is one contiguous draw.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["unimodular_batch", "check_seed"]

ROOTS = 256  # one stream byte picks one root
_BLOCK_BYTES = 32  # Philox4x64 yields four 64-bit words per counter step


@functools.cache
def _table() -> np.ndarray:
    """exp(2 pi i j / ROOTS) for each j, built at the first draw: at import it cost 0.2 MiB of RSS."""
    return np.exp(2j * np.pi / ROOTS * np.arange(ROOTS))


def check_seed(seed: int) -> None:
    """Refuse a seed that is not an int in [0, 2^64): none is truncated, and no two share a stream."""
    if not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError("seed must be in [0, 2^64)")


def unimodular_batch(n: int, seed: int, start: int, count: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Samples start .. start + count - 1 of the seed's stream, shape (count, n, n).

    Entries are uniform 256th roots of unity, one stream byte each (see the
    module docstring).  All four arguments must be integers
    (``operator.index``), and the seed passes ``check_seed``.

    ``out``, if given, is a C-contiguous complex128 array of shape (count, n, n)
    that receives the samples and is returned; it is allocated where it is not
    given, and the samples are the same bits either way.
    """
    n, seed, start, count = map(operator.index, (n, seed, start, count))
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    check_seed(seed)
    if start < 0:
        raise ValueError("sample index must be nonnegative")
    if count < 0:
        raise ValueError("sample count must be nonnegative")
    shape = (count, n, n)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif not (out.shape == shape and out.dtype == np.complex128 and out.flags.c_contiguous):
        raise ValueError(f"a complex128 buffer must be C-contiguous of shape {shape}")
    block, skip = divmod(start * n * n, _BLOCK_BYTES)
    size = count * n * n
    words = np.random.Philox(key=seed, counter=block).random_raw(-(-(skip + size) // 8))
    stream = words.astype("<u8", copy=False).view(np.uint8)
    # "wrap" never fires on a byte; "raise" would fill a buffer and copy it to ``out``
    np.take(_table(), stream[skip:skip + size], out=out.reshape(-1), mode="wrap")
    return out
