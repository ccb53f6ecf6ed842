"""Hot transport kernels: bilinear MAC sampling and RK4 seed stepping.

One vectorized numpy implementation over whole point arrays, with one
sampling rule for every staggering.  A query locates its points once: x is
wrapped into the period (strip) or clamped (rectangle), z is clamped, and
both are scaled to cell units.  A field is read through its padded corner
table (``_padded``), a flat copy with one ghost line beyond each end of
each axis, so every point's cell is ``i = floor(f)`` with weight
``t = f - i``, unclamped, and a sample is one flat index, four
``take(mode="clip")`` calls on overlapping views of the table and three
blends (a non-finite point casts to index -2**63, which the clip keeps in
bounds while its NaN weight still yields NaN).  ``rk4_step`` takes its
three stage velocities as prepared tables (``velocity_tables``), which
the caller builds and owns: ``transport.integrate_flow`` builds a node's
tables once per trace and lets them go when the trace ends.  Since a table
holds only copies and exact negations of the field's values, the table of
a linear combination of fields is that combination of their tables, bit
for bit (``blend_tables``).  Each RK4 stage locates its points once for
both velocity components.

Arrays live only as long as something still reads them.  A stage's
located cells are written over its coordinate temporaries and let go
component by component as their velocities are read; k_s joins the RK4
sum before stage s + 1 is located; a bilinear sample gathers and blends
one corner pair at a time, with 1 - t formed in the array that then
receives the pair's second corner.  Blends run in place, but every
floating-point operation is the one the plain expressions in the
docstrings name, in the same order, so outside the wall half-cells results
match the original arithmetic (kept in ``tests/_reference_kernels.py``)
bit for bit.

Sampling conventions (the ghost lines of ``_padded``):

* strip mode wraps x into [0, L) *before* any index arithmetic, so samples
  at x and x + L are bit-identical whenever x + L is exactly representable;
  the ghosts are the wrapped rows, two after since x can round up to L;
* a velocity component tangential to a no-slip wall (u1 at z = 0, 1; u2 at
  x = 0, Lx on the rectangle) has as ghost minus its edge line (the MAC
  ghost of Harlow & Welch), so it falls linearly to 0 in the wall half-cell;
* every other ghost copies the edge line: the normal components store exact
  zeros on the walls, and cell-centered data is extended by its boundary
  value (constant extrapolation), every sample a convex combination of
  stored samples.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "backend_name",
    "blend_tables",
    "center_points",
    "sample_velocity",
    "sample_center",
    "rk4_step",
    "velocity_tables",
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

    z must already lie in [0, 1]; it is scaled in place.  Returns
    (x / hx, z / hz), x / hx a new array.
    """
    if periodic:
        x = px / Lx
        np.floor(x, out=x)
        x *= Lx
        np.subtract(px, x, out=x)
    else:
        x = np.maximum(px, 0.0)
        np.minimum(x, Lx, out=x)
    x /= hx
    z /= hz
    return x, z


def _padded(c, periodic, gx=1.0, gz=1.0):
    """Corner table of an (n, m) field: a flat copy of the field padded by a
    ghost line at each end of each axis, the wrapped rows on the strip's x
    axis, else gx (x) or gz (z) times the edge line.  Cell (i, j) sits at
    flat index (i + 1)(m + 2) + j + 1."""
    n, m = c.shape
    p = np.empty((n + 3 if periodic else n + 2, m + 2))
    p[1:n + 1, 1:-1] = c
    if periodic:
        p[0, 1:-1], p[n + 1:, 1:-1] = c[-1], c[:2]
    else:
        p[0, 1:-1], p[-1, 1:-1] = gx * c[0], gx * c[-1]
    p[:, 0], p[:, -1] = gz * p[:, 1], gz * p[:, -2]
    return p.ravel()


def _corners(e, m):
    """The rows of a corner table of a field of m samples along z: views of
    its flat copy holding the corners 00, 01, 10 and 11 of every cell."""
    s = m + 2
    return e[:-s - 1], e[1:-s], e[s:-1], e[s + 1:]


def velocity_tables(u1, u2, periodic):
    """The prepared corner tables of a MAC velocity (u1, u2): u1's negated
    beyond the z walls, u2's beyond the rectangle's x walls."""
    return _padded(u1, periodic, gz=-1.0), _padded(u2, periodic, gx=-1.0)


def blend_tables(w, a, b):
    """The tables of (1 - w) * A + w * B from the tables a of A and b of B,
    bit for bit equal to building them from that field."""
    out = []
    for ea, eb in zip(a, b):
        e = ea * (1.0 - w)
        e += eb * w
        out.append(e)
    return tuple(out)


def _cells(fx, fz, m):
    """Corner-table index of the cells i = floor(fx), j = floor(fz) of
    cell-unit positions in a field of m samples along z, and their weights
    (tx, tz) = (fx - i, fz - j), written over fx and fz."""
    i = np.floor(fx)
    j = np.floor(fz)
    fx -= i
    fz -= j
    # (i + 1)(m + 2) + j + 1, exact in floating point
    i *= m + 2
    i += j
    del j
    i += m + 3
    return i.astype(np.intp), fx, fz


def _blend(t, a, b, tmp):
    """(1 - t) * a + t * b, overwriting a and b; 1 - t is formed in tmp."""
    a *= np.subtract(1.0, t, out=tmp)
    b *= t
    a += b
    return a


def _pair(rows, idx, t, tmp):
    """blend(t, a, b) of two corner-table rows at flat cell indices, in one
    new array: b is gathered into tmp once its 1 - t has been used."""
    a = rows[0].take(idx, mode="clip")
    a *= np.subtract(1.0, t, out=tmp)
    b = rows[1].take(idx, mode="clip", out=tmp)
    b *= t
    a += b
    return a


def _sample(rows, idx, t_in, t_out):
    """Bilinear blend of the corner-table rows (a, b, c, d) at flat cell
    indices, blend(t_out, blend(t_in, a, b), blend(t_in, c, d)), in three
    arrays of the points' size."""
    tmp = np.empty(idx.shape)
    ab = _pair(rows[:2], idx, t_in, tmp)
    ab *= np.subtract(1.0, t_out, out=tmp)
    cd = _pair(rows[2:], idx, t_in, tmp)
    cd *= t_out
    ab += cd
    return ab


def _hull_sample(rows, idx, t_in, t_out, out):
    """``_sample`` clamped to the hull of its corners, written to out.

    Rounding can push the blend past the corner hull by an ulp, and scalar
    data carries an exact range-preservation contract, so the blend is
    clamped to [min(min(a, b), min(c, d)), max(max(a, b), max(c, d))].
    Each pair is gathered, bounded and blended before the next, with out as
    scratch.
    """
    pairs = []
    for pair in (rows[:2], rows[2:]):
        a, b = (row.take(idx, mode="clip") for row in pair)
        if pairs:
            np.minimum(lo, np.minimum(a, b, out=out), out=lo)
            np.maximum(hi, np.maximum(a, b, out=out), out=hi)
        else:
            lo, hi = np.minimum(a, b), np.maximum(a, b)
        pairs.append(_blend(t_in, a, b, out))
        del a, b
    v = _blend(t_out, *pairs, out)
    del pairs
    np.maximum(v, lo, out=v)
    return np.minimum(v, hi, out=out)


def _stage(nz, x, z, hx, hz, periodic, Lx):
    """Located cells of u1 (blended x pairs first) and u2 (z pairs first)
    on a grid of nz cells along z, at flat points (x, z), as a list that
    ``_velocity`` empties.  z must lie in [0, 1] and is overwritten."""
    q, w = _locate(x, z, hx, hz, periodic, Lx)
    q2 = q - 0.5
    idx1, tx1, tz1 = _cells(q, w - 0.5, nz)
    idx2, tx2, tz2 = _cells(q2, w, nz + 1)
    return [(idx1, tx1, tz1), (idx2, tz2, tx2)]


def _velocity(tables, nz, stage):
    """(u1, u2) from their prepared tables at a located stage; u1's corner
    rows are read x pairs first (00, 10, 01, 11).  Each component's cells
    are taken off the stage list, so they go as soon as they are read."""
    e1, e2 = tables
    v00, v01, v10, v11 = _corners(e1, nz)
    v1 = _sample((v00, v10, v01, v11), *stage.pop(0))
    return v1, _sample(_corners(e2, nz + 1), *stage.pop(0))


@functools.lru_cache(maxsize=4)
def center_points(nx, nz, hx, hz):
    """Read-only (2, nx * nz) stack of the cell centres' x and z, x-major."""
    p = np.stack((np.repeat((np.arange(nx) + 0.5) * hx, nz),
                  np.tile((np.arange(nz) + 0.5) * hz, nx)))
    p.flags.writeable = False
    return p


def _as_points(px, pz):
    px = np.ascontiguousarray(px, dtype=np.float64)
    pz = np.ascontiguousarray(pz, dtype=np.float64)
    if px.shape != pz.shape:
        raise ValueError("px and pz must have matching shapes")
    return px, pz


def sample_velocity(u1, u2, px, pz, hx, hz, periodic, Lx):
    """Both MAC velocity components at points, each of shape px.shape."""
    px, pz = _as_points(px, pz)
    stage = _stage(u1.shape[1], px.ravel(), _clip01(pz.ravel()), hx, hz,
                   periodic, Lx)
    v1, v2 = _velocity(velocity_tables(u1, u2, periodic), u1.shape[1], stage)
    return v1.reshape(px.shape), v2.reshape(px.shape)


def sample_center(c, px, pz, hx, hz, periodic, Lx):
    """Cell-centered data at points.  c is one (nx, nz) field or any stack
    of them, (..., nx, nz); every field is sampled from one set of weights
    and the result has shape c.shape[:-2] + px.shape."""
    px, pz = _as_points(px, pz)
    q, w = _locate(px.ravel(), _clip01(pz.ravel()), hx, hz, periodic, Lx)
    q -= 0.5
    w -= 0.5
    idx, tx, tz = _cells(q, w, c.shape[-1])
    fields = c.reshape((-1,) + c.shape[-2:])
    out = np.empty((len(fields), q.size))
    for f, o in zip(fields, out):
        _hull_sample(_corners(_padded(f, periodic), c.shape[-1]), idx, tz,
                     tx, o)
    return out.reshape(c.shape[:-2] + px.shape)


def rk4_step(px, pz, h, va, vb, vc, nz, hx, hz, periodic, Lx):
    """Advance all seed positions by one RK4 step of size h, in place.

    va, vb and vc are the ``velocity_tables`` of the velocity at the start,
    middle and end of the step, on a grid of nz cells along z.
    """
    grid = (hx, hz, periodic, Lx)
    stage = _stage(nz, px, _clip01(pz), *grid)
    # stage s + 1 starts at p + c_s h k_s, and q = p + (h / 6) * (k1 + 2 k2
    # + 2 k3 + k4), the sum accumulated left to right as the stages finish;
    # k_s joins the sum before stage s + 1 is located, so that only the
    # sum, the next start and its cells outlive a stage
    tableau = ((va, 0.5, 1.0), (vb, 0.5, 2.0), (vb, 1.0, 2.0), (vc, 0.0, 1.0))
    for s, (tables, c, w) in enumerate(tableau):
        kx, kz = (k.reshape(-1) for k in _velocity(tables, nz, stage))
        if c:
            x = kx * (c * h)
            x += px
            z = kz * (c * h)
            z += pz
        if w != 1.0:
            kx *= w
            kz *= w
        if s == 0:
            sx, sz = kx, kz
        else:
            sx += kx
            sz += kz
        del kx, kz
        if c:
            stage = _stage(nz, x, _clamp(z, 0.0, 1.0), *grid)
            del x, z
    sx *= h / 6.0
    sz *= h / 6.0
    px += sx
    pz += sz
    _clamp(pz, 0.0, 1.0)
    if not periodic:
        _clamp(px, 0.0, Lx)
