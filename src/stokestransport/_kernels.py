"""Hot transport kernels: bilinear MAC sampling and RK4 seed stepping.

One vectorized numpy implementation, evaluated over whole point arrays.
Every query first locates its points once: x is wrapped into the period
(strip) or clamped (rectangle), z is clamped, and both are scaled to cell
units.  Every staggering then finds its cells with one per-axis rule,
``_axis``, and gathers the corners through flat indices with
``take(mode="clip")``: a non-finite point casts to index -2**63, which the
clip keeps in bounds while its NaN weight still yields NaN (``mode="wrap"``
would reduce it by repeated addition and never return).  Both velocity
components share one face blend, ``_face_sample``: corner pairs along the
face axis first (x for u1, z for u2), then across, then the no-slip wall
blend where the cross axis is walled.  ``sample_velocity`` and each RK4 stage locate
their points once for both components; ``sample_center`` blends every
channel of an ``(nx, nz, k)`` array from one set of weights.  Blends and
sums run in place on fresh temporaries, but every floating-point operation
is the one the plain expressions in the comments and docstrings name, in
the same order, so results match the original arithmetic (kept in
``tests/_reference_kernels.py``) bit for bit.

Sampling conventions:

* strip mode wraps x into [0, L) *before* any index arithmetic, so samples
  at x and x + L are bit-identical whenever x + L is exactly representable;
* z is clamped to [0, 1]; rectangle mode also clamps x to [0, Lx];
* u1 has no stored row on the walls z = 0, 1: within the last half cell the
  value is blended linearly against the wall value 0 (no-slip), and the
  same happens for u2 against the x-walls in rectangle mode;
* cell-centered data is extended by its boundary value across the outer
  half-cell band (constant extrapolation), keeping every interpolated value
  a convex combination of stored samples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend_name",
    "sample_velocity",
    "sample_center",
    "rk4_step",
]


def backend_name() -> str:
    """Name of the kernel implementation; benchmark runs record it."""
    return "numpy"


def _clamp(a, lo, hi):
    """np.minimum(np.maximum(a, lo), hi), computed in place in a."""
    np.maximum(a, lo, out=a)
    return np.minimum(a, hi, out=a)


def _clip01(a):
    out = np.maximum(a, 0.0)
    return np.minimum(out, 1.0, out=out)


def _locate(px, z, hx, hz, periodic, Lx):
    """Wrap or clamp x and scale both coordinates to cell units.

    z must already lie in [0, 1].  Returns (x, x / hx, z / hz).
    """
    if periodic:
        x = px / Lx
        np.floor(x, out=x)
        x *= Lx
        np.subtract(px, x, out=x)
    else:
        x = np.maximum(px, 0.0)
        np.minimum(x, Lx, out=x)
    return x, x / hx, z / hz


def _axis(f, n, periodic):
    """Float cell index i and weight t of positions f along an axis of n
    stored samples: i = floor(f), t = f - i; a walled axis clamps i to
    [0, n - 2] and t to [0, 1]."""
    i = np.floor(f)
    if periodic:
        return i, f - i
    _clamp(i, 0.0, n - 2)
    return i, _clamp(f - i, 0.0, 1.0)


def _cell_index(fi, fj, n, nz, periodic):
    """Flat indices of cells (i, j), (i, j+1), (i+1, j), (i+1, j+1) in a
    C-ordered (n, nz) array, from the integral float indices of (i, j).

    On the strip the wrapped abscissa can round onto either end of the
    period, so a row index lies in [-1, n]; one compare-and-add per side
    wraps it, which is cheaper than an integer ``%``.
    """
    a = fi * nz
    a += fj
    a = a.astype(np.intp)
    if periodic:
        size = n * nz
        np.add(a, size, out=a, where=a < 0)
        np.subtract(a, size, out=a, where=a >= size)
    b = a + nz
    if periodic:
        np.subtract(b, size, out=b, where=b >= size)
    return a, a + 1, b, b + 1


def _gather(c, index):
    """Values of c at flat indices; ``mode="clip"`` keeps non-finite
    points in bounds, and their NaN weights still yield NaN."""
    flat = np.ascontiguousarray(c).ravel()
    return [flat.take(i, mode="clip") for i in index]


def _blend(t, a, b):
    """(1 - t) * a + t * b, overwriting a and b."""
    a *= 1.0 - t
    b *= t
    a += b
    return a


def _face_sample(c, fx, fz, periodic, x_pairs, wall=None):
    """Face data c at cell-unit positions (fx, fz), the x pairs blended
    first if x_pairs (u1), else the z pairs (u2).  ``wall = (f, n, coord,
    extent, h)`` gives the cross axis: where f <= 0 (f >= n - 1) the lower
    (upper) pair falls linearly to zero at coord = 0 (extent) over h / 2.
    """
    nx, nz = c.shape
    fi, tx = _axis(fx, nx, periodic)
    fj, tz = _axis(fz, nz, False)
    v00, v01, v10, v11 = _gather(c, _cell_index(fi, fj, nx, nz, periodic))
    if x_pairs:
        lo, hi, t = _blend(tx, v00, v10), _blend(tx, v01, v11), tz
    else:
        lo, hi, t = _blend(tz, v00, v01), _blend(tz, v10, v11), tx
    if wall is None:
        return _blend(t, lo, hi)
    # inside a wall half-cell the lower (upper) corner pair is the stored
    # row next to the wall, blended against the no-slip zero
    f, n, coord, extent, h = wall
    top = np.flatnonzero(f >= n - 1)
    bot = np.flatnonzero(f <= 0.0)
    r_top = hi[top]
    r_bot = lo[bot]
    out = _blend(t, lo, hi)
    out[top] = ((extent - coord[top]) / (0.5 * h)) * r_top
    out[bot] = (coord[bot] / (0.5 * h)) * r_bot
    return out


def _velocity(u1, u2, x, z, hx, hz, periodic, Lx):
    """(u1, u2) at flat points with z already in [0, 1], located once."""
    xs, q, w = _locate(x, z, hx, hz, periodic, Lx)
    fz = w - 0.5
    fx = q - 0.5
    v1 = _face_sample(u1, q, fz, periodic, True, (fz, u1.shape[1], z, 1.0, hz))
    wall = None if periodic else (fx, u2.shape[0], xs, Lx, hx)
    return v1, _face_sample(u2, fx, w, periodic, False, wall)


def _as_points(px, pz):
    px = np.ascontiguousarray(px, dtype=np.float64)
    pz = np.ascontiguousarray(pz, dtype=np.float64)
    if px.shape != pz.shape:
        raise ValueError("px and pz must have matching shapes")
    return px, pz


def sample_velocity(u1, u2, px, pz, hx, hz, periodic, Lx):
    """Both MAC velocity components at points, each of shape px.shape."""
    px, pz = _as_points(px, pz)
    v1, v2 = _velocity(u1, u2, px.ravel(), _clip01(pz.ravel()), hx, hz,
                       periodic, Lx)
    return v1.reshape(px.shape), v2.reshape(px.shape)


def sample_center(c, px, pz, hx, hz, periodic, Lx):
    """Cell-centered data at points; an (nx, nz, k) array samples every
    channel from one set of weights and returns shape px.shape + (k,)."""
    px, pz = _as_points(px, pz)
    _, q, w = _locate(px.ravel(), _clip01(pz.ravel()), hx, hz, periodic, Lx)
    nx, nz = c.shape[:2]
    fi, tx = _axis(q - 0.5, nx, periodic)
    fj, tz = _axis(w - 0.5, nz, False)
    index = _cell_index(fi, fj, nx, nz, periodic)
    channels = [c] if c.ndim == 2 else [c[:, :, k] for k in range(c.shape[2])]
    out = np.empty((len(channels), q.size))
    for k, ch in enumerate(channels):
        v00, v01, v10, v11 = _gather(ch, index)
        # rounding can push the blend past the corner hull by an ulp; scalar
        # data carries an exact range-preservation contract, so clamp
        lo = np.minimum(np.minimum(v00, v01), np.minimum(v10, v11))
        hi = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
        res = _blend(tx, _blend(tz, v00, v01), _blend(tz, v10, v11))
        np.minimum(np.maximum(res, lo), hi, out=out[k])
    if c.ndim == 2:
        return out[0].reshape(px.shape)
    return np.moveaxis(out.reshape((-1,) + px.shape), 0, -1)


def rk4_step(px, pz, h, u1a, u2a, u1b, u2b, u1c, u2c, hx, hz, periodic, Lx):
    """Advance all seed positions by one RK4 step of size h, in place."""
    grid = (hx, hz, periodic, Lx)
    # q = p + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), the sum accumulated left
    # to right as the stages finish
    k1x, k1z = _velocity(u1a, u2a, px, _clip01(pz), *grid)
    x1 = px + 0.5 * h * k1x
    z1 = _clip01(pz + 0.5 * h * k1z)
    k2x, k2z = _velocity(u1b, u2b, x1, z1, *grid)
    x2 = px + 0.5 * h * k2x
    z2 = _clip01(pz + 0.5 * h * k2z)
    k2x *= 2.0
    k2z *= 2.0
    sx = k1x + k2x
    sz = k1z + k2z
    del k1x, k1z, k2x, k2z, x1, z1
    k3x, k3z = _velocity(u1b, u2b, x2, z2, *grid)
    x3 = px + h * k3x
    z3 = _clip01(pz + h * k3z)
    k3x *= 2.0
    k3z *= 2.0
    sx += k3x
    sz += k3z
    del k3x, k3z, x2, z2
    k4x, k4z = _velocity(u1c, u2c, x3, z3, *grid)
    sx += k4x
    sz += k4z
    sx *= h / 6.0
    sz *= h / 6.0
    px += sx
    pz += sz
    _clamp(pz, 0.0, 1.0)
    if not periodic:
        _clamp(px, 0.0, Lx)
