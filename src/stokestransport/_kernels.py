"""Hot transport kernels: bilinear MAC sampling and RK4 seed stepping.

One vectorized numpy implementation, evaluated over whole point arrays.
Every query first locates its points once: x is wrapped into the period
(strip) or clamped (rectangle), z is clamped, and both are scaled to cell
units.  Each staggered field then gathers its four corners through flat
indices into the C-ordered array.  An RK4 stage samples u1 and u2 at the
same points, so it locates them once for both components, and
``sample_center`` blends every channel of an ``(nx, nz, k)`` array from a
single set of weights.  Blends and sums run in place where an operand is a
fresh temporary, but every floating-point operation is the one the plain
expressions in the comments and docstrings name, in the same order, so
results match the original arithmetic (kept in
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
    "sample_u1",
    "sample_u2",
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


def _u1_at(u1, z, q, w, hz, periodic):
    nf, nz = u1.shape
    fz = w - 0.5
    fj = _clamp(np.floor(fz), 0.0, nz - 2)
    tz = _clamp(fz - fj, 0.0, 1.0)
    fi = np.floor(q)
    if periodic:
        tx = q - fi
    else:
        _clamp(fi, 0.0, nf - 2)
        tx = _clamp(q - fi, 0.0, 1.0)
    v00, v01, v10, v11 = _gather(u1, _cell_index(fi, fj, nf, nz, periodic))
    # inside a wall half-cell the lower corner row is the wall row, so ra
    # (bottom) or rb (top) is the row blended against the no-slip zero
    top = np.flatnonzero(fz >= nz - 1)
    bot = np.flatnonzero(fz <= 0.0)
    ra = _blend(tx, v00, v10)
    rb = _blend(tx, v01, v11)
    r_top = rb[top]
    r_bot = ra[bot]
    out = _blend(tz, ra, rb)
    out[top] = ((1.0 - z[top]) / (0.5 * hz)) * r_top
    out[bot] = (z[bot] / (0.5 * hz)) * r_bot
    return out


def _u2_at(u2, x, q, w, hx, periodic, Lx):
    nx, nzp = u2.shape
    fj = _clamp(np.floor(w), 0.0, nzp - 2)
    tz = _clamp(w - fj, 0.0, 1.0)
    fx = q - 0.5
    fi = np.floor(fx)
    if periodic:
        tx = fx - fi
    else:
        _clamp(fi, 0.0, nx - 2)
        tx = _clamp(fx - fi, 0.0, 1.0)
    v00, v01, v10, v11 = _gather(u2, _cell_index(fi, fj, nx, nzp, periodic))
    ca = _blend(tz, v00, v01)
    cb = _blend(tz, v10, v11)
    if periodic:
        return _blend(tx, ca, cb)
    # the rectangle's x-walls: same blend against zero as u1 on z-walls
    right = np.flatnonzero(fx >= nx - 1)
    left = np.flatnonzero(fx <= 0.0)
    c_right = cb[right]
    c_left = ca[left]
    out = _blend(tx, ca, cb)
    out[right] = ((Lx - x[right]) / (0.5 * hx)) * c_right
    out[left] = (x[left] / (0.5 * hx)) * c_left
    return out


def _center_at(c, q, w, periodic):
    nx, nz = c.shape[:2]
    fz = _clamp(w - 0.5, 0.0, nz - 1.0)
    fj = np.minimum(np.floor(fz), nz - 2)
    tz = fz - fj
    if periodic:
        fx = q - 0.5
        fi = np.floor(fx)
    else:
        fx = _clamp(q - 0.5, 0.0, nx - 1.0)
        fi = np.minimum(np.floor(fx), nx - 2)
    tx = fx - fi
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
    return out


def _as_points(px, pz):
    px = np.ascontiguousarray(px, dtype=np.float64)
    pz = np.ascontiguousarray(pz, dtype=np.float64)
    if px.shape != pz.shape:
        raise ValueError("px and pz must have matching shapes")
    return px, pz


def sample_u1(u1, px, pz, hx, hz, periodic, Lx):
    px, pz = _as_points(px, pz)
    z = _clip01(pz.ravel())
    _, q, w = _locate(px.ravel(), z, hx, hz, periodic, Lx)
    return _u1_at(u1, z, q, w, hz, periodic).reshape(px.shape)


def sample_u2(u2, px, pz, hx, hz, periodic, Lx):
    px, pz = _as_points(px, pz)
    x, q, w = _locate(px.ravel(), _clip01(pz.ravel()), hx, hz, periodic, Lx)
    return _u2_at(u2, x, q, w, hx, periodic, Lx).reshape(px.shape)


def sample_center(c, px, pz, hx, hz, periodic, Lx):
    """Cell-centered data at points; an (nx, nz, k) array samples every
    channel from one set of weights and returns shape px.shape + (k,)."""
    px, pz = _as_points(px, pz)
    _, q, w = _locate(px.ravel(), _clip01(pz.ravel()), hx, hz, periodic, Lx)
    out = _center_at(c, q, w, periodic)
    if c.ndim == 2:
        return out[0].reshape(px.shape)
    return np.moveaxis(out.reshape((-1,) + px.shape), 0, -1)


def rk4_step(px, pz, h, u1a, u2a, u1b, u2b, u1c, u2c, hx, hz, periodic, Lx):
    """Advance all seed positions by one RK4 step of size h, in place."""

    def velocity(u1, u2, x, z):
        xs, q, w = _locate(x, z, hx, hz, periodic, Lx)
        return (_u1_at(u1, z, q, w, hz, periodic),
                _u2_at(u2, xs, q, w, hx, periodic, Lx))

    # q = p + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), the sum accumulated left
    # to right as the stages finish
    k1x, k1z = velocity(u1a, u2a, px, _clip01(pz))
    x1 = px + 0.5 * h * k1x
    z1 = _clip01(pz + 0.5 * h * k1z)
    k2x, k2z = velocity(u1b, u2b, x1, z1)
    x2 = px + 0.5 * h * k2x
    z2 = _clip01(pz + 0.5 * h * k2z)
    k2x *= 2.0
    k2z *= 2.0
    sx = k1x + k2x
    sz = k1z + k2z
    del k1x, k1z, k2x, k2z, x1, z1
    k3x, k3z = velocity(u1b, u2b, x2, z2)
    x3 = px + h * k3x
    z3 = _clip01(pz + h * k3z)
    k3x *= 2.0
    k3z *= 2.0
    sx += k3x
    sz += k3z
    del k3x, k3z, x2, z2
    k4x, k4z = velocity(u1c, u2c, x3, z3)
    sx += k4x
    sz += k4z
    sx *= h / 6.0
    sz *= h / 6.0
    px += sx
    pz += sz
    _clamp(pz, 0.0, 1.0)
    if not periodic:
        _clamp(px, 0.0, Lx)
