"""Orthonormal real trigonometric transforms from numpy's FFT.

Each transform acts along one axis of a real array of any shape and is
the orthonormal form of the textbook definition (type II/III with the
first coefficient scaled by 1/sqrt(2)), to rounding:

- ``dct``/``idct``: DCT-II and its inverse (DCT-III) by Makhoul's
  reordering (J. Makhoul, IEEE Trans. ASSP 28, 1980): after one ``rfft`` of
  length n of the reordered samples and a twiddle, bin k holds
  coefficients k and n - k (see ``_Plan``).  The inverse runs the same
  steps backwards through one ``irfft``.
- ``dst1``: DST-I, minus the imaginary part of the ``rfft`` of the samples
  zero-padded to length 2(n + 1); it is its own inverse.
- ``dst2``: DST-II, the DCT-II of (-1)^j x reversed; the sign goes into the
  reordering, so the input is not copied for it.

The orthonormal scales and the inverse's 1/n are folded into the cached
twiddles, which multiply in place.  ``dct``, ``idct`` and ``dst1`` can write
their result over their input, which the solvers use to save memory.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
# numpy loads its fft module lazily, which would land in the first solve
from numpy.fft import irfft, rfft

__all__ = ["dct", "dst1", "dst2", "idct"]


def _on(axis: int, *s) -> tuple:
    """The index of ``slice(*s)`` along ``axis``, every axis before it whole."""
    return (slice(None),) * axis + (slice(*s),)


class _Plan(NamedTuple):
    """Index tuples and twiddles of a length-n transform along one axis.

    The samples are reordered as Makhoul's sequence time-reversed, x[0],
    the odd samples, then the even ones reversed, so that the ``rfft`` gives
    the conjugate of his bins.  Times the conjugate twiddle, bin k then
    holds coefficient k in its real part and coefficient n - k in its
    imaginary part, and no sign needs flipping on the way in or out.
    """

    first: tuple     # entry 0
    mid: tuple       # entries 1 .. n // 2: the odd samples' places, or bins 1 ..
    high: tuple      # entries n // 2 + 1 .. n - 1: the reversed even samples' places
    low: tuple       # entries 0 .. n // 2
    odd: tuple       # the odd samples, x[1], x[3], ...
    even: tuple      # the even samples from x[2] on, reversed
    mirror: tuple    # the bins (n - 1) // 2 .. 1 that hold coefficients n // 2 + 1 ..
    top: tuple       # coefficients n - 1 .. n - n // 2, held by bins 1 .. n // 2
    twiddle: np.ndarray  # conj(2 s_k exp(-i pi k / 2n)), s_k the orthonormal scale
    inverse: np.ndarray  # 1 / (n twiddle): undoes it and the unscaled irfft


@functools.lru_cache(maxsize=32)
def _plan(n: int, axis: int, ndim: int) -> _Plan:
    on = functools.partial(_on, axis)
    h, m = (n + 1) // 2, n // 2 + 1
    t = np.sqrt(2.0 / n) * np.exp(0.5j * np.pi * np.arange(m) / n)
    t[0] = np.sqrt(1.0 / n)
    t = t.reshape((-1,) + (1,) * (ndim - 1 - axis))
    u = 1.0 / (n * t)
    t.flags.writeable = u.flags.writeable = False
    return _Plan(on(None, 1), on(1, m), on(m, None), on(None, m), on(1, None, 2),
                 on(2 * (h - 1), 0, -2), on((n - 1) // 2, 0, -1), on(n - 1, n - m, -1), t, u)


def _makhoul(x: np.ndarray, axis: int, sign: float, out: np.ndarray) -> np.ndarray:
    """DCT-II of ``x``, or with ``sign`` = -1 of (-1)^j x, into ``out`` along ``axis``."""
    axis %= x.ndim
    pl = _plan(x.shape[axis], axis, x.ndim)
    v = np.empty(x.shape)
    v[pl.first] = x[pl.first]
    if sign > 0:
        v[pl.mid] = x[pl.odd]
    else:
        np.negative(x[pl.odd], out=v[pl.mid])
    v[pl.high] = x[pl.even]
    z = rfft(v, axis=axis)
    z *= pl.twiddle
    out[pl.low] = z.real
    out[pl.high] = z.imag[pl.mirror]
    return out


def dct(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DCT-II along ``axis``, written to ``out`` (which may be ``x``) when given."""
    return _makhoul(x, axis, 1.0, np.empty(x.shape) if out is None else out)


def dst2(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Orthonormal DST-II along ``axis``: the DCT-II of (-1)^j x, reversed."""
    out = np.empty(x.shape)
    _makhoul(x, axis, -1.0, out[_on(axis % x.ndim, None, None, -1)])
    return out


def idct(c: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal inverse DCT-II (DCT-III) along ``axis``, written to ``out``
    (which may be ``c``) when given."""
    axis %= c.ndim
    n = c.shape[axis]
    pl = _plan(n, axis, c.ndim)
    shape = list(c.shape)
    shape[axis] = n // 2 + 1
    z = np.empty(shape, dtype=complex)
    z.real = c[pl.low]
    z.imag[pl.first] = 0.0
    z.imag[pl.mid] = c[pl.top]
    z *= pl.inverse
    v = irfft(z, n=n, axis=axis, norm="forward")
    x = np.empty(c.shape) if out is None else out
    x[pl.first] = v[pl.first]
    x[pl.odd] = v[pl.mid]
    x[pl.even] = v[pl.high]
    return x


def dst1(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal DST-I along ``axis``, written to ``out`` (which may be ``x``)
    when given; its own inverse."""
    axis %= x.ndim
    n = x.shape[axis]
    shape = list(x.shape)
    shape[axis] = 2 * (n + 1)
    w = np.empty(shape)
    w[_on(axis, None, 1)] = 0.0
    w[_on(axis, 1, n + 1)] = x
    w[_on(axis, n + 1, None)] = 0.0
    z = rfft(w, axis=axis)
    return np.multiply(z.imag[_on(axis, 1, n + 1)], -np.sqrt(2.0 / (n + 1)), out=out)
