"""Counter-based sampling of matrices with i.i.d. unit-circle entries.

Each seed keys one Philox stream, and sample i of dimension n is the slice
[i * n^2, (i + 1) * n^2) of that stream's uniforms.  Philox is counter-based,
so a sample's slice is reached by setting the counter, without drawing what
comes before it: a given (seed, index) pair yields a bit-identical matrix
however samples are batched or split across threads, and a batch of
consecutive samples is one contiguous draw.

An entry exp(i theta) is built from t = tan(theta / 2) as

    cos theta = r - 1,   sin theta = t r,   r = 2 / (1 + t^2),

one tangent and four correctly rounded operations, because numpy's float64
tan runs in SIMD vectors on common x86 builds while its float64 cos and sin
run an element at a time.  The half angle is drawn directly as pi times a
uniform double in [0, 1), which is uniform(0, pi) and theta / 2 bit for
bit, since float(2 pi) = 2 float(pi).  Each entry lies within 2^-50 of the
exact cosine and sine of its angle (about 1.6 ulp; the largest error over
2 * 10^5 stream words on an AVX-512 host is 3.4e-16), and |z| within 2^-50
of 1.  Near theta = pi the tangent of the float half angle is about 1.6e16,
far from overflow, and the entry comes out as (-1, about 1e-16).  numpy
picks the tangent kernel at run time from the CPU, so the last digits of an
entry can differ between numpy builds or processors; on one host they do
not depend on where a sample falls in a draw.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["unimodular_batch", "check_seed"]

_PHILOX_BLOCK = 4  # Philox4x64 yields four 64-bit words per counter step


def check_seed(seed: int) -> None:
    """Refuse a seed that is not an int in [0, 2^64): none is truncated, and no two share a stream."""
    if not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError("seed must be in [0, 2^64)")


def unimodular_batch(n: int, seed: int, start: int, count: int,
                     out: np.ndarray | None = None, angles: np.ndarray | None = None) -> np.ndarray:
    """Samples start .. start + count - 1 of the seed's stream, shape (count, n, n).

    Entries are exp(i*theta) with theta uniform on [0, 2*pi); each theta uses
    one 64-bit word of the stream, and each entry is built from tan(theta / 2)
    to within 2^-50 (see the module docstring).  All four arguments must be
    integers (``operator.index``), and the seed passes ``check_seed``.

    ``out``, if given, is a C-contiguous complex128 array of shape (count, n, n)
    that receives the samples and is returned; ``angles``, if given, a
    C-contiguous float64 array of that shape, which the half angles and then
    their tangents overwrite.  Either is allocated where it is not given, and
    the samples are the same bits either way.
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
    for buffer, dtype in ((out, np.complex128), (angles, np.float64)):
        if buffer is not None and not (buffer.shape == shape and buffer.dtype == dtype
                                       and buffer.flags.c_contiguous):
            raise ValueError(f"a {dtype.__name__} buffer must be C-contiguous of shape {shape}")
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    if angles is None:
        angles = np.empty(shape)
    block, skip = divmod(start * n * n, _PHILOX_BLOCK)
    bits = np.random.Philox(key=seed, counter=block)
    bits.random_raw(skip, output=False)  # the words of the block before the first sample
    np.random.Generator(bits).random(out=angles)
    angles *= np.pi  # uniform(0, pi), and theta / 2 bit for bit (see the module docstring)
    _unit_circle(angles.reshape(-1), out.reshape(-1))
    return out


def _unit_circle(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(2i * half) for a 1-d float64 array of half angles in [0, pi),
    which it overwrites with their tangents t, written into ``out``, a 1-d
    complex128 array of the same length.

    (r - 1) + i t r with r = 2 / (1 + t^2): r is built in the real part of
    the output, so nothing beyond ``half`` and the output is held.
    """
    t = np.tan(half, out=half)
    r = out.real
    np.multiply(t, t, out=r)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.multiply(t, r, out=out.imag)
    r -= 1.0
    return out
