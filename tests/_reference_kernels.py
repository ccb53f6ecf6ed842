"""Reference transport kernels: the original vectorized numpy arithmetic.

These are the sampling and RK4 kernels exactly as they stood before the
shared-index rewrite of ``stokestransport._kernels``.  They are kept here,
unchanged, as the oracle the tests compare against.  The production kernels
reproduce every bit of them outside the wall half-cells.  Inside one, where
these samplers scale the row next to a no-slip wall by its distance to the
wall and the production kernels blend it with a negated ghost row, the two
differ by the rounding of the cell-unit coordinate only.
"""

import numpy as np


def _np_clip01(a):
    return np.minimum(np.maximum(a, 0.0), 1.0)


def _np_sample_u1(u1, px, pz, hx, hz, periodic, Lx):
    nf, nz = u1.shape
    pz = _np_clip01(pz)
    if periodic:
        px = px - Lx * np.floor(px / Lx)
        fx = px / hx
        i0 = np.floor(fx).astype(np.int64)
        tx = fx - i0
        ia = i0 % nf
        ib = (i0 + 1) % nf
    else:
        px = np.minimum(np.maximum(px, 0.0), Lx)
        fx = px / hx
        i0 = np.minimum(np.maximum(np.floor(fx).astype(np.int64), 0), nf - 2)
        tx = np.minimum(np.maximum(fx - i0, 0.0), 1.0)
        ia = i0
        ib = i0 + 1
    fz = pz / hz - 0.5
    j0 = np.minimum(np.maximum(np.floor(fz).astype(np.int64), 0), nz - 2)
    tz = np.minimum(np.maximum(fz - j0, 0.0), 1.0)
    ra = (1.0 - tx) * u1[ia, j0] + tx * u1[ib, j0]
    rb = (1.0 - tx) * u1[ia, j0 + 1] + tx * u1[ib, j0 + 1]
    mid = (1.0 - tz) * ra + tz * rb
    r_bot = (1.0 - tx) * u1[ia, 0] + tx * u1[ib, 0]
    r_top = (1.0 - tx) * u1[ia, nz - 1] + tx * u1[ib, nz - 1]
    bot = (pz / (0.5 * hz)) * r_bot
    top = ((1.0 - pz) / (0.5 * hz)) * r_top
    return np.where(fz <= 0.0, bot, np.where(fz >= nz - 1, top, mid))


def _np_sample_u2(u2, px, pz, hx, hz, periodic, Lx):
    nx, nzp = u2.shape
    pz = _np_clip01(pz)
    fz = pz / hz
    j0 = np.minimum(np.maximum(np.floor(fz).astype(np.int64), 0), nzp - 2)
    tz = np.minimum(np.maximum(fz - j0, 0.0), 1.0)
    if periodic:
        px = px - Lx * np.floor(px / Lx)
        fx = px / hx - 0.5
        i0 = np.floor(fx).astype(np.int64)
        tx = fx - i0
        ia = i0 % nx
        ib = (i0 + 1) % nx
        ca = (1.0 - tz) * u2[ia, j0] + tz * u2[ia, j0 + 1]
        cb = (1.0 - tz) * u2[ib, j0] + tz * u2[ib, j0 + 1]
        return (1.0 - tx) * ca + tx * cb
    px = np.minimum(np.maximum(px, 0.0), Lx)
    fx = px / hx - 0.5
    i0 = np.minimum(np.maximum(np.floor(fx).astype(np.int64), 0), nx - 2)
    tx = np.minimum(np.maximum(fx - i0, 0.0), 1.0)
    ca = (1.0 - tz) * u2[i0, j0] + tz * u2[i0, j0 + 1]
    cb = (1.0 - tz) * u2[i0 + 1, j0] + tz * u2[i0 + 1, j0 + 1]
    mid = (1.0 - tx) * ca + tx * cb
    c_left = (1.0 - tz) * u2[0, j0] + tz * u2[0, j0 + 1]
    c_right = (1.0 - tz) * u2[nx - 1, j0] + tz * u2[nx - 1, j0 + 1]
    left = (px / (0.5 * hx)) * c_left
    right = ((Lx - px) / (0.5 * hx)) * c_right
    return np.where(fx <= 0.0, left, np.where(fx >= nx - 1, right, mid))


def _np_sample_center(c, px, pz, hx, hz, periodic, Lx):
    nx, nz = c.shape
    pz = _np_clip01(pz)
    fz = np.minimum(np.maximum(pz / hz - 0.5, 0.0), nz - 1.0)
    j0 = np.minimum(np.floor(fz).astype(np.int64), nz - 2)
    tz = fz - j0
    if periodic:
        px = px - Lx * np.floor(px / Lx)
        fx = px / hx - 0.5
        i0 = np.floor(fx).astype(np.int64)
        tx = fx - i0
        ia = i0 % nx
        ib = (i0 + 1) % nx
    else:
        px = np.minimum(np.maximum(px, 0.0), Lx)
        fx = np.minimum(np.maximum(px / hx - 0.5, 0.0), nx - 1.0)
        i0 = np.minimum(np.floor(fx).astype(np.int64), nx - 2)
        tx = fx - i0
        ia = i0
        ib = i0 + 1
    v00 = c[ia, j0]
    v01 = c[ia, j0 + 1]
    v10 = c[ib, j0]
    v11 = c[ib, j0 + 1]
    ca = (1.0 - tz) * v00 + tz * v01
    cb = (1.0 - tz) * v10 + tz * v11
    res = (1.0 - tx) * ca + tx * cb
    # rounding can push the blend past the corner hull by an ulp; scalar
    # data carries an exact range-preservation contract, so clamp
    lo = np.minimum(np.minimum(v00, v01), np.minimum(v10, v11))
    hi = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
    return np.minimum(np.maximum(res, lo), hi)


def _np_rk4_step(px, pz, h, u1a, u2a, u1b, u2b, u1c, u2c, hx, hz, periodic, Lx):
    k1x = _np_sample_u1(u1a, px, pz, hx, hz, periodic, Lx)
    k1z = _np_sample_u2(u2a, px, pz, hx, hz, periodic, Lx)
    x1 = px + 0.5 * h * k1x
    z1 = _np_clip01(pz + 0.5 * h * k1z)
    k2x = _np_sample_u1(u1b, x1, z1, hx, hz, periodic, Lx)
    k2z = _np_sample_u2(u2b, x1, z1, hx, hz, periodic, Lx)
    x2 = px + 0.5 * h * k2x
    z2 = _np_clip01(pz + 0.5 * h * k2z)
    k3x = _np_sample_u1(u1b, x2, z2, hx, hz, periodic, Lx)
    k3z = _np_sample_u2(u2b, x2, z2, hx, hz, periodic, Lx)
    x3 = px + h * k3x
    z3 = _np_clip01(pz + h * k3z)
    k4x = _np_sample_u1(u1c, x3, z3, hx, hz, periodic, Lx)
    k4z = _np_sample_u2(u2c, x3, z3, hx, hz, periodic, Lx)
    qx = px + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    qz = _np_clip01(pz + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))
    if not periodic:
        qx = np.minimum(np.maximum(qx, 0.0), Lx)
    px[:] = qx
    pz[:] = qz
