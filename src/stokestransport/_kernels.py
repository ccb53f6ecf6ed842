"""Hot transport kernels: bilinear MAC sampling and RK4 seed stepping.

One vectorized numpy implementation, evaluated over whole point arrays.
Every query first locates its points once: x is wrapped into the period
(strip) or clamped (rectangle), z is clamped, and both are scaled to cell
units.  Every staggering then finds its cells with one per-axis rule,
``_axis``, and reads the four corners from the field's corner table
(``_corners``, the strip's wrap resolved when it is built) by one flat
index and four ``take(mode="clip")`` calls: a non-finite point casts to
index -2**63, which the clip keeps in bounds while its NaN weight still
yields NaN.  Both velocity components share one face blend,
``_face_sample``: corner pairs along the face axis first (x for u1, z for
u2), then across, then the no-slip wall blend where the cross axis is
walled.  Each RK4 stage locates its points once for both components and
reads one table per distinct field; a first stage from the cell centres
takes its located cells from a per-grid cache of read-only arrays.
``sample_center`` blends every channel of an ``(nx, nz, k)`` array from
one set of weights.  Blends run in place on fresh temporaries, but every
floating-point operation is the one the plain expressions in the comments
and docstrings name, in the same order, so results match the original
arithmetic (kept in ``tests/_reference_kernels.py``) bit for bit.

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

import functools

import numpy as np

__all__ = [
    "backend_name",
    "center_points",
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


def _corners(c, periodic):
    """Corner table of an (n, nz) field: four rows holding c[i, j],
    c[i, j+1], c[i+1, j] and c[i+1, j+1] at flat index k * nz + j, with
    k = i on a walled axis and k = i + 1 on the strip, whose wrapped
    abscissa puts i in [-1, n].  The rows are overlapping views of one flat
    array: the field itself, or on the strip the field between its wrapped
    neighbour rows, which resolves the wrap once per table."""
    nz = c.shape[1]
    ext = np.concatenate((c[-1:], c, c[:2])) if periodic else c
    e = np.ascontiguousarray(ext).ravel()
    return e[:-nz - 1], e[1:-nz], e[nz:-1], e[nz + 1:]


def _cells(fx, fz, n, nz, periodic):
    """Corner-table index and axis weights (tx, tz) of cell-unit positions
    in an (n, nz) field; z is always walled."""
    fi, tx = _axis(fx, n, periodic)
    fj, tz = _axis(fz, nz, False)
    if periodic:
        fi += 1.0
    fi *= nz
    fi += fj
    return fi.astype(np.intp), tx, tz


def _wall_rows(f, n, coord, extent, h):
    """Points inside a wall half-cell of the cross axis: where f >= n - 1
    (f <= 0) the upper (lower) corner pair falls linearly to zero at coord
    = extent (0) over h / 2.  Returns the rows and their scale factors."""
    top = np.flatnonzero(f >= n - 1)
    bot = np.flatnonzero(f <= 0.0)
    return (top, (extent - coord[top]) / (0.5 * h),
            bot, coord[bot] / (0.5 * h))


def _blend(t, a, b):
    """(1 - t) * a + t * b, overwriting a and b."""
    a *= 1.0 - t
    b *= t
    a += b
    return a


def _face_sample(table, cells, x_pairs, wall):
    """Face data from its corner table at located cells, the x pairs blended
    first if x_pairs (u1), else the z pairs (u2); wall rows (or None) come
    from ``_wall_rows`` of the cross axis."""
    idx, tx, tz = cells
    v00, v01, v10, v11 = (row.take(idx, mode="clip") for row in table)
    if x_pairs:
        lo, hi, t = _blend(tx, v00, v10), _blend(tx, v01, v11), tz
    else:
        lo, hi, t = _blend(tz, v00, v01), _blend(tz, v10, v11), tx
    if wall is None:
        return _blend(t, lo, hi)
    # inside a wall half-cell the lower (upper) corner pair is the stored
    # row next to the wall, blended against the no-slip zero
    top, s_top, bot, s_bot = wall
    r_top, r_bot = hi[top], lo[bot]
    out = _blend(t, lo, hi)
    out[top], out[bot] = s_top * r_top, s_bot * r_bot
    return out


def _stage(shape1, shape2, x, z, hx, hz, periodic, Lx):
    """Located cells and wall rows of both velocity components (u1 of
    shape1, u2 of shape2) at flat points with z already in [0, 1]."""
    xs, q, w = _locate(x, z, hx, hz, periodic, Lx)
    fz = w - 0.5
    fx = q - 0.5
    (n1, nz1), (n2, nz2) = shape1, shape2
    wall2 = None if periodic else _wall_rows(fx, n2, xs, Lx, hx)
    return ((_cells(q, fz, n1, nz1, periodic), _wall_rows(fz, nz1, z, 1.0, hz)),
            (_cells(fx, w, n2, nz2, periodic), wall2))


def _velocity(table1, table2, stage):
    """(u1, u2) from their corner tables at a located stage."""
    (cells1, wall1), (cells2, wall2) = stage
    return (_face_sample(table1, cells1, True, wall1),
            _face_sample(table2, cells2, False, wall2))


@functools.lru_cache(maxsize=4)
def center_points(nx, nz, hx, hz):
    """Read-only flat (px, pz) of all cell centres, x-major order."""
    px = np.repeat((np.arange(nx) + 0.5) * hx, nz)
    pz = np.tile((np.arange(nz) + 0.5) * hz, nx)
    px.flags.writeable = pz.flags.writeable = False
    return px, pz


@functools.lru_cache(maxsize=4)
def _center_stage(shape1, shape2, hx, hz, periodic, Lx):
    """The located stage at the cell centres, read-only: it depends only on
    the grid, and every first RK4 stage from the centres starts there."""
    px, pz = center_points(shape2[0], shape1[1], hx, hz)
    stage = _stage(shape1, shape2, px, pz, hx, hz, periodic, Lx)
    for cells, wall in stage:
        for a in cells + (wall or ()):
            a.flags.writeable = False
    return stage


def _as_points(px, pz):
    px = np.ascontiguousarray(px, dtype=np.float64)
    pz = np.ascontiguousarray(pz, dtype=np.float64)
    if px.shape != pz.shape:
        raise ValueError("px and pz must have matching shapes")
    return px, pz


def sample_velocity(u1, u2, px, pz, hx, hz, periodic, Lx):
    """Both MAC velocity components at points, each of shape px.shape."""
    px, pz = _as_points(px, pz)
    stage = _stage(u1.shape, u2.shape, px.ravel(), _clip01(pz.ravel()), hx,
                   hz, periodic, Lx)
    v1, v2 = _velocity(_corners(u1, periodic), _corners(u2, periodic), stage)
    return v1.reshape(px.shape), v2.reshape(px.shape)


def sample_center(c, px, pz, hx, hz, periodic, Lx):
    """Cell-centered data at points; an (nx, nz, k) array samples every
    channel from one set of weights and returns shape px.shape + (k,)."""
    px, pz = _as_points(px, pz)
    _, q, w = _locate(px.ravel(), _clip01(pz.ravel()), hx, hz, periodic, Lx)
    nx, nz = c.shape[:2]
    idx, tx, tz = _cells(q - 0.5, w - 0.5, nx, nz, periodic)
    channels = [c] if c.ndim == 2 else [c[:, :, k] for k in range(c.shape[2])]
    out = np.empty((len(channels), q.size))
    for k, ch in enumerate(channels):
        v00, v01, v10, v11 = (row.take(idx, mode="clip")
                              for row in _corners(ch, periodic))
        # rounding can push the blend past the corner hull by an ulp; scalar
        # data carries an exact range-preservation contract, so clamp
        lo = np.minimum(np.minimum(v00, v01), np.minimum(v10, v11))
        hi = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
        res = _blend(tx, _blend(tz, v00, v01), _blend(tz, v10, v11))
        np.minimum(np.maximum(res, lo), hi, out=out[k])
    if c.ndim == 2:
        return out[0].reshape(px.shape)
    return np.moveaxis(out.reshape((-1,) + px.shape), 0, -1)


def rk4_step(px, pz, h, u1a, u2a, u1b, u2b, u1c, u2c, hx, hz, periodic, Lx,
             from_centers=False):
    """Advance all seed positions by one RK4 step of size h, in place.

    from_centers says px, pz hold ``center_points`` of the grid, so stage 1
    takes its located cells from the per-grid cache.
    """
    grid = (hx, hz, periodic, Lx)
    shapes = (u1a.shape, u2a.shape)
    # one corner table per distinct field array, checked by identity
    fields = (u1a, u2a, u1b, u2b, u1c, u2c)
    distinct = {id(c): c for c in fields}
    tables = {k: _corners(c, periodic) for k, c in distinct.items()}
    t1a, t2a, t1b, t2b, t1c, t2c = (tables[id(c)] for c in fields)
    if from_centers:
        stage = _center_stage(*shapes, *grid)
    else:
        stage = _stage(*shapes, px, _clip01(pz), *grid)
    # stage s + 1 starts at p + c_s h k_s, and q = p + (h / 6) * (k1 + 2 k2
    # + 2 k3 + k4), the sum accumulated left to right as the stages finish
    tableau = (((t1a, t2a), 0.5, 1.0), ((t1b, t2b), 0.5, 2.0),
               ((t1b, t2b), 1.0, 2.0), ((t1c, t2c), 0.0, 1.0))
    for s, (tabs, c, w) in enumerate(tableau):
        kx, kz = _velocity(*tabs, stage)
        if c:
            stage = _stage(*shapes, px + c * h * kx,
                           _clip01(pz + c * h * kz), *grid)
        if w != 1.0:
            kx *= w
            kz *= w
        if s == 0:
            sx, sz = kx, kz
        else:
            sx += kx
            sz += kz
    sx *= h / 6.0
    sz *= h / 6.0
    px += sx
    pz += sz
    _clamp(pz, 0.0, 1.0)
    if not periodic:
        _clamp(px, 0.0, Lx)
