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

Each factor is stored in band form: its weights per row and the column
offset of each band.  All rows but the edge rows, where the wall ghost,
a dropped wall column or the periodic wrap lives, share one set of
weights, so a factor applies as shifted slices over those rows; the edge
rows are written after from a small dense block.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .domain import GridSpec

__all__ = ["Axis", "Band", "axes"]

_GHOST_NEAR = 4.0       # diagonal weight of a wall-adjacent tangential row, / h^2
_GHOST_FAR = 4.0 / 3.0  # neighbor weight of that row, / h^2


class Band(NamedTuple):
    """A banded 1D factor: row r holds weights[r, k] in column r + offsets[k].

    Periodic columns wrap modulo ncols; otherwise those outside are dropped.
    The rows ``lo`` to ``hi`` share one set of weights and reach no column
    outside.  ``terms`` pairs their bands of equal weight magnitude as
    (w, offset, second offset or None, np.add or np.subtract), so that a
    Laplacian row is w (x[r - 1] + x[r + 1]) + w' x[r] and a gradient row
    w (x[r - 1] - x[r]).  Every other row is an edge row: its weights over
    the few columns that edge rows read are the rows of ``edge_weights``.
    """

    offsets: tuple
    weights: np.ndarray       # (nrows, len(offsets))
    ncols: int
    lo: int
    hi: int
    terms: tuple
    edge_rows: np.ndarray     # (e,)
    edge_cols: np.ndarray     # (c,)
    edge_weights: np.ndarray  # (e, c)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.weights), self.ncols

    def dense(self) -> np.ndarray:
        """The factor as a dense (nrows, ncols) matrix."""
        m = np.zeros(self.shape)
        rows = np.arange(self.lo, self.hi)[:, None]
        m[rows, rows + self.offsets] = self.weights[self.lo:self.hi]
        m[np.ix_(self.edge_rows, self.edge_cols)] = self.edge_weights
        return m

    def apply(self, x: np.ndarray, axis: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The factor times the C-ordered 2D ``x`` along ``axis`` (0 or 1).

        ``out`` and ``scratch`` are C-ordered with the shape of ``x``; the
        product fills the first nrows lines of ``out`` along ``axis`` and is
        returned as a view, and ``scratch`` is overwritten.  Each band of
        the shared rows is one shifted slice of ``x``.  Along axis 1 the
        slices are taken of the flat arrays, where the rows of ``x`` follow
        one another: the values that straddle two rows land on edge rows,
        which are written after, or beyond nrows.
        """
        lo, hi = self.lo, self.hi
        if axis == 0:
            xs, inner, tmp = x, out[lo:hi], scratch[lo:hi]
        else:
            xs, hi = x.reshape(-1), x.size - x.shape[1] + hi
            inner, tmp = out.reshape(-1)[lo:hi], scratch.reshape(-1)[lo:hi]
        for i, (w, a, b, op) in enumerate(self.terms):
            dst = tmp if i else inner
            if b is None:
                np.multiply(xs[lo + a:hi + a], w, out=dst)
            else:
                op(xs[lo + a:hi + a], xs[lo + b:hi + b], out=dst)
                dst *= w
            if i:
                inner += tmp
        nrows = len(self.weights)
        if axis == 0:
            if len(self.edge_rows):
                out[self.edge_rows] = self.edge_weights @ x[self.edge_cols]
            return out[:nrows]
        if len(self.edge_rows):
            out[:, self.edge_rows] = x[:, self.edge_cols] @ self.edge_weights.T
        return out[:, :nrows]


def _stencil(nrows: int, ncols: int, offsets, weights, periodic: bool) -> Band:
    """Band whose row r holds weights[r, k] (or weights[k]) in column r + offsets[k]."""
    weights = np.array(np.broadcast_to(weights, (nrows, len(offsets))), dtype=float)
    bulk = weights[nrows // 2]
    cols = np.add.outer(np.arange(nrows), offsets)
    shared = np.all((weights == bulk) & (cols >= 0) & (cols < ncols), axis=1)
    lo, hi = int(np.argmax(shared)), nrows - int(np.argmax(shared[::-1]))
    groups = {}
    for o, w in zip(offsets, bulk):
        groups.setdefault(abs(w), []).append((o, float(w)))
    terms = tuple((w, a, None, None) if len(g) == 1 else
                  (w, a, g[1][0], np.add if g[1][1] == w else np.subtract)
                  for g in groups.values() for (a, w) in g[:1])
    edges = [*range(lo), *range(hi, nrows)]
    entries = {}  # (edge row, column) -> weight, columns wrapped or dropped
    for r in edges:
        for o, w in zip(offsets, weights[r]):
            c = (r + o) % ncols if periodic else r + o
            if 0 <= c < ncols:
                entries[r, c] = entries.get((r, c), 0.0) + w
    edge_cols = sorted({c for _, c in entries})
    edge_weights = np.zeros((len(edges), len(edge_cols)))
    for (r, c), w in entries.items():
        edge_weights[edges.index(r), edge_cols.index(c)] = w
    edges, edge_cols = np.array(edges, dtype=int), np.array(edge_cols, dtype=int)
    band = Band(tuple(offsets), weights, ncols, lo, hi, terms, edges, edge_cols, edge_weights)
    for a in (band.weights, band.edge_rows, band.edge_cols, band.edge_weights):
        a.flags.writeable = False
    return band


def _center_laplacian(n: int, h: float, periodic: bool) -> Band:
    """-d2/dx2 on n cell centers: circulant, or with the quadratic wall ghost."""
    h2 = h * h
    w = np.tile([-1.0 / h2, 2.0 / h2, -1.0 / h2], (n, 1))
    if not periodic:
        w[0, 1:] = _GHOST_NEAR / h2, -_GHOST_FAR / h2
        w[-1, :2] = -_GHOST_FAR / h2, _GHOST_NEAR / h2
    return _stencil(n, n, (-1, 0, 1), w, periodic)


def _face_laplacian(n: int, h: float) -> Band:
    """-d2/dx2 on the n - 1 interior faces of n cells, zero wall values."""
    h2 = h * h
    return _stencil(n - 1, n - 1, (-1, 0, 1), [-1.0 / h2, 2.0 / h2, -1.0 / h2], False)


def _gradient(n: int, h: float, periodic: bool) -> Band:
    """(p[i] - p[i-1]) / h on each stored face: n periodic faces, or n - 1 interior."""
    if periodic:
        return _stencil(n, n, (-1, 0), [-1.0 / h, 1.0 / h], True)
    return _stencil(n - 1, n, (0, 1), [-1.0 / h, 1.0 / h], False)


class Axis(NamedTuple):
    """The three 1D factors of one axis (read-only, shared through the cache)."""

    centers: Band  # -d2 on cell centers
    faces: Band    # -d2 on the stored faces
    grad: Band     # cell centers -> stored faces


def _axis(n: int, h: float, periodic: bool) -> Axis:
    lap = _center_laplacian(n, h, periodic)
    return Axis(lap, lap if periodic else _face_laplacian(n, h), _gradient(n, h, periodic))


@functools.lru_cache(maxsize=4)
def axes(grid: GridSpec, periodic: bool) -> tuple[Axis, Axis]:
    """The (x, z) factors of a grid; z is always walled."""
    return _axis(grid.nx, grid.hx, periodic), _axis(grid.nz, grid.hz, False)
