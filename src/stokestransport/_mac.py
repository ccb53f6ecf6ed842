"""The MAC (staggered grid) operator as slice stencils along one axis.

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

Every 2D operator is a sum of 1D operators, one per axis: ``-d2/dx2`` under
the axis's wall rule, and the gradient from centers to stored faces, whose
negative transpose is the divergence.  u1 sits on faces in x and on centers
in z, u2 the other way round.  On a walled axis the stored faces are the
interior ones (the wall values are zero, rule "faces") and the centers
carry the quadratic ghost (rule "centers"); on the periodic axis faces and
centers both take the circulant second difference (rule "periodic").
"""

from __future__ import annotations

import numpy as np

__all__ = ["GHOST_NEAR", "GHOST_FAR", "second_difference", "gradient"]

GHOST_NEAR = 4.0       # diagonal weight of a wall-adjacent tangential row, / h^2
GHOST_FAR = 4.0 / 3.0  # neighbor weight of that row, / h^2

# (diagonal, neighbor) weights, / h^2, of the first and last line per wall rule
_EDGE = {"faces": (2.0, 1.0), "centers": (GHOST_NEAR, GHOST_FAR), "periodic": (2.0, 1.0)}


def second_difference(x: np.ndarray, h: float, rule: str, axis: int,
                      out: np.ndarray) -> np.ndarray:
    """-d2/dx2 of the 2D ``x`` along ``axis`` (0 or 1) under the wall ``rule``.

    ``rule`` is "faces" (zero wall values beyond both ends), "centers" (the
    quadratic wall ghost) or "periodic" (wrap).  ``out`` has the shape of
    ``x``; it is filled and returned.
    """
    near, far = _EDGE[rule]
    x, o = np.swapaxes(x, 0, axis), np.swapaxes(out, 0, axis)
    inner = o[1:-1]
    np.multiply(x[1:-1], 2.0, out=inner)
    inner -= x[:-2]
    inner -= x[2:]
    o[0] = near * x[0] - far * x[1]
    o[-1] = near * x[-1] - far * x[-2]
    if rule == "periodic":
        o[0] -= x[-1]
        o[-1] -= x[0]
    out /= h * h
    return out


def gradient(p: np.ndarray, h: float, periodic: bool, axis: int,
             out: np.ndarray) -> np.ndarray:
    """(p[i] - p[i-1]) / h of cell-centered ``p`` on the stored faces along ``axis``.

    Face i lies between cells i - 1 and i: the n faces of a periodic axis,
    face 0 wrapping, or the n - 1 interior faces of a walled one.  ``out``
    has the faces' shape; it is filled and returned.
    """
    p, o = np.swapaxes(p, 0, axis), np.swapaxes(out, 0, axis)
    if periodic:
        np.subtract(p[0], p[-1], out=o[0])
        np.subtract(p[1:], p[:-1], out=o[1:])
    else:
        np.subtract(p[1:], p[:-1], out=o)
    out /= h
    return out
