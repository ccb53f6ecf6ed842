"""The MAC (staggered grid) operator as 1D factors along each axis.

Discretization notes
--------------------

Momentum  -lap(u) + grad(p) = f  is collocated on interior velocity faces,
continuity on cell centers.  The five-point Laplacian acts per component;
where a tangential component meets a wall (u1 at z = 0, 1; u2 at x = 0, Lx
in rectangle mode) the ghost value is eliminated with the quadratic
interpolant through the wall (value 0) and the first two interior samples:

    ghost = 8/3 * wall - 2 * first + 1/3 * second

That stencil reproduces quadratics exactly, which is what makes the
parabolic channel profile an exact discrete solution; the price is that
the wall-adjacent rows of the operator are mildly nonsymmetric.  Both
solvers treat those rows as a low-rank change of the free-slip operator
(ghost = first sample), which sine and cosine transforms diagonalize.

Every 2D operator is a Kronecker composition of three factors per axis:
``-d2/dx2`` on the cell centers, ``-d2/dx2`` on the stored faces, and the
gradient from centers to stored faces, whose negative transpose is the
divergence.  u1 sits on faces in x and on centers in z, u2 the other way
round.  On a walled axis the stored faces are the interior ones (the wall
values are zero) and the center operator carries the quadratic ghost; on
the periodic axis both operators are the circulant second difference.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .domain import GridSpec

__all__ = ["Axis", "axes"]

_GHOST_NEAR = 4.0       # diagonal weight of a wall-adjacent tangential row, / h^2
_GHOST_FAR = 4.0 / 3.0  # neighbor weight of that row, / h^2


def _stencil(nrows: int, ncols: int, offsets, weights, periodic: bool):
    """CSR matrix whose row r holds weights[r, k] (or weights[k]) in column r + offsets[k].

    Periodic columns wrap modulo ncols; otherwise those outside are dropped.
    """
    cols = np.arange(nrows)[:, None] + np.asarray(offsets)
    if periodic:
        cols %= ncols
    keep = (cols >= 0) & (cols < ncols)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    vals = np.broadcast_to(weights, cols.shape)[keep]
    m = scipy.sparse.csr_matrix((vals, cols[keep], indptr), shape=(nrows, ncols))
    m.sort_indices()  # a wrapped column moves to the other end of its row
    return m


def _center_laplacian(n: int, h: float, periodic: bool) -> scipy.sparse.csr_matrix:
    """-d2/dx2 on n cell centers: circulant, or with the quadratic wall ghost."""
    h2 = h * h
    w = np.tile([-1.0 / h2, 2.0 / h2, -1.0 / h2], (n, 1))
    if not periodic:
        w[0, 1:] = _GHOST_NEAR / h2, -_GHOST_FAR / h2
        w[-1, :2] = -_GHOST_FAR / h2, _GHOST_NEAR / h2
    return _stencil(n, n, (-1, 0, 1), w, periodic)


def _face_laplacian(n: int, h: float) -> scipy.sparse.csr_matrix:
    """-d2/dx2 on the n - 1 interior faces of n cells, zero wall values."""
    h2 = h * h
    return _stencil(n - 1, n - 1, (-1, 0, 1), [-1.0 / h2, 2.0 / h2, -1.0 / h2], False)


def _gradient(n: int, h: float, periodic: bool) -> scipy.sparse.csr_matrix:
    """(p[i] - p[i-1]) / h on each stored face: n periodic faces, or n - 1 interior."""
    if periodic:
        return _stencil(n, n, (-1, 0), [-1.0 / h, 1.0 / h], True)
    return _stencil(n - 1, n, (0, 1), [-1.0 / h, 1.0 / h], False)


class Axis(NamedTuple):
    """The three 1D factors of one axis (read-only, shared through the cache)."""

    centers: scipy.sparse.csr_matrix  # -d2 on cell centers
    faces: scipy.sparse.csr_matrix    # -d2 on the stored faces
    grad: scipy.sparse.csr_matrix     # cell centers -> stored faces


def _axis(n: int, h: float, periodic: bool) -> Axis:
    lap = _center_laplacian(n, h, periodic)
    factors = Axis(lap, lap if periodic else _face_laplacian(n, h), _gradient(n, h, periodic))
    for m in factors:
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
    return factors


@functools.lru_cache(maxsize=4)
def axes(grid: GridSpec, periodic: bool) -> tuple[Axis, Axis]:
    """The (x, z) factors of a grid; z is always walled."""
    return _axis(grid.nx, grid.hx, periodic), _axis(grid.nz, grid.hz, False)
