"""Domains, staggered grids and field containers.

MAC layout, arrays indexed ``[i, j]`` with ``i`` along x and ``j`` along z
(row-major, z is the inner index):

    density / pressure : cell centers  ((i+1/2)hx, (j+1/2)hz)   shape (nx, nz)
    u1                 : x-faces       (i hx, (j+1/2)hz)        rectangle (nx+1, nz), strip (nx, nz)
    u2                 : z-faces       ((i+1/2)hx, j hz)        shape (nx, nz+1)

The vertical extent is always (0, 1).  The strip is x-periodic with integer
period L and face nx coincides with face 0, so only nx x-face columns are
stored.  No-slip rows are stored explicitly and must be exact zeros: u2 at
j = 0 and j = nz always, u1 at i = 0 and i = nx in rectangle mode.

A container takes each array it holds through ``_owned``: one float64 copy
that no caller can reach, checked for its shape and finiteness and then
made read-only.  Fields, forcings, flow maps and energy ledgers all hold
their arrays this way, so nothing can change them once they are built.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "DomainKind",
    "DomainSpec",
    "GridSpec",
    "ScalarField",
    "VelocityField",
    "Forcing",
    "make_grid",
    "x_centers",
    "z_centers",
    "x_faces",
    "z_faces",
    "cell_center_points",
    "divergence",
    "max_divergence",
]

CENTER = "center"
XFACE = "xface"
ZFACE = "zface"


class DomainKind(enum.Enum):
    RECTANGLE = "rectangle"
    STRIP = "strip"


@dataclass(frozen=True)
class DomainSpec:
    """Geometry: a bounded rectangle [0, Lx] x (0, 1) or an x-periodic strip.

    For the strip, ``x_extent`` is one period L; L must be a whole number
    >= 8 so unit x-windows tile the period exactly.
    """

    kind: DomainKind
    x_extent: float

    def __post_init__(self):
        if not isinstance(self.kind, DomainKind):
            raise TypeError(f"kind must be a DomainKind, got {self.kind!r}")
        x = float(self.x_extent)
        if not np.isfinite(x) or x <= 0:
            raise ValueError(f"x_extent must be positive and finite, got {x}")
        if self.kind is DomainKind.STRIP:
            if x != int(x) or int(x) < 8:
                raise ValueError(f"strip period must be an integer >= 8, got {x}")
        object.__setattr__(self, "x_extent", x)

    @property
    def periodic(self) -> bool:
        return self.kind is DomainKind.STRIP


@dataclass(frozen=True)
class GridSpec:
    """Uniform staggered grid: nx cells in x, nz cells in z, spacings hx, hz."""

    nx: int
    nz: int
    hx: float
    hz: float


def make_grid(domain: DomainSpec, nx: int, nz: int) -> GridSpec:
    """Build the uniform grid; nx and nz must both be >= 8 and 1 / h^2 finite."""
    nx, nz = int(nx), int(nz)
    if nx < 8 or nz < 8:
        raise ValueError(f"grid must have nx, nz >= 8, got {nx} x {nz}")
    grid = GridSpec(nx=nx, nz=nz, hx=domain.x_extent / nx, hz=1.0 / nz)
    # the MAC stencils weigh by 1 / h^2
    if not all(h * h > 0.0 and math.isfinite(1.0 / (h * h)) for h in (grid.hx, grid.hz)):
        raise ValueError(f"cell width {grid.hx!r} x {grid.hz!r} is too small: 1 / h^2 overflows")
    return grid


def x_centers(grid: GridSpec) -> np.ndarray:
    return (np.arange(grid.nx) + 0.5) * grid.hx


def z_centers(grid: GridSpec) -> np.ndarray:
    return (np.arange(grid.nz) + 0.5) * grid.hz


def x_faces(grid: GridSpec, domain: DomainSpec) -> np.ndarray:
    n = grid.nx if domain.periodic else grid.nx + 1
    return np.arange(n) * grid.hx


def z_faces(grid: GridSpec) -> np.ndarray:
    return np.arange(grid.nz + 1) * grid.hz


def cell_center_points(grid: GridSpec):
    """Flat (px, pz) arrays of all cell-center coordinates, x-major order."""
    return tuple(_kernels.center_points(grid.nx, grid.nz, grid.hx,
                                        grid.hz).copy())


def expected_shape(grid: GridSpec, domain: DomainSpec, staggering: str):
    if staggering == CENTER:
        return (grid.nx, grid.nz)
    if staggering == XFACE:
        return (grid.nx if domain.periodic else grid.nx + 1, grid.nz)
    if staggering == ZFACE:
        return (grid.nx, grid.nz + 1)
    raise ValueError(f"unknown staggering {staggering!r}")


def _owned(values, shape, what: str) -> np.ndarray:
    """A read-only float64 copy of values, checked to have this shape and
    to be finite; ``what`` names the array in the error."""
    out = np.array(values, dtype=np.float64, order="C")
    if out.shape != shape:
        raise ValueError(f"{what} has wrong shape {out.shape}, want {shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} must all be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarField:
    """A sampled scalar bound to one staggering location of the grid.

    Values are immutable once constructed; all operations on fields are pure.
    """

    grid: GridSpec
    domain: DomainSpec
    values: np.ndarray
    staggering: str = CENTER

    def __post_init__(self):
        want = expected_shape(self.grid, self.domain, self.staggering)
        object.__setattr__(self, "values", _owned(
            self.values, want, f"{self.staggering} field"))

    @classmethod
    def from_function(cls, fn, grid: GridSpec, domain: DomainSpec, staggering: str = CENTER):
        """Sample fn(x, z) at this staggering's sample points."""
        if staggering == CENTER:
            xs, zs = x_centers(grid), z_centers(grid)
        elif staggering == XFACE:
            xs, zs = x_faces(grid, domain), z_centers(grid)
        else:
            xs, zs = x_centers(grid), z_faces(grid)
        vals = fn(xs[:, None], zs[None, :]) * np.ones((xs.size, zs.size))
        return cls(grid, domain, vals, staggering)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, self.domain, values, self.staggering)


@dataclass(frozen=True)
class VelocityField:
    """Staggered velocity (u1 on x-faces, u2 on z-faces) with exact no-slip rows."""

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self):
        if self.u1.staggering != XFACE or self.u2.staggering != ZFACE:
            raise ValueError("VelocityField needs u1 on x-faces and u2 on z-faces")
        if self.u1.grid != self.u2.grid or self.u1.domain != self.u2.domain:
            raise ValueError("u1 and u2 must share one grid and domain")
        a2 = self.u2.values
        if np.any(a2[:, 0] != 0.0) or np.any(a2[:, -1] != 0.0):
            raise ValueError("u2 rows at z = 0 and z = 1 must be exact zeros")
        if not self.domain.periodic:
            a1 = self.u1.values
            if np.any(a1[0, :] != 0.0) or np.any(a1[-1, :] != 0.0):
                raise ValueError("u1 columns at x = 0 and x = Lx must be exact zeros")

    @property
    def grid(self) -> GridSpec:
        return self.u1.grid

    @property
    def domain(self) -> DomainSpec:
        return self.u1.domain

    @functools.cached_property
    def tables(self):
        """The RK4 kernel's read-only corner tables of this velocity
        (``_kernels.velocity_tables``), built on first use and kept as long
        as the field."""
        tables = _kernels.velocity_tables(self.u1.values, self.u2.values,
                                          self.domain.periodic)
        for e in tables:
            e.flags.writeable = False
        return tables

    @classmethod
    def from_arrays(cls, grid, domain, a1, a2, enforce_walls: bool = True):
        """Build from plain arrays; by default zero the wall rows exactly.

        Analytic no-slip profiles evaluate to O(1e-16) residue at the walls,
        which the constructor would reject; zeroing keeps the invariant exact.
        Either way the fields copy their arrays and never alias the caller's.
        """
        if enforce_walls:
            a1 = np.array(a1, dtype=np.float64)
            a2 = np.array(a2, dtype=np.float64)
            a2[:, 0] = 0.0
            a2[:, -1] = 0.0
            if not domain.periodic:
                a1[0, :] = 0.0
                a1[-1, :] = 0.0
        return cls(
            ScalarField(grid, domain, a1, XFACE),
            ScalarField(grid, domain, a2, ZFACE),
        )

    @classmethod
    def zero(cls, grid, domain):
        return cls.from_arrays(
            grid,
            domain,
            np.zeros(expected_shape(grid, domain, XFACE)),
            np.zeros(expected_shape(grid, domain, ZFACE)),
        )


@dataclass(frozen=True)
class Forcing:
    """Face-sampled body force (f1 on x-faces, f2 on z-faces).

    Unlike a velocity, a forcing carries no boundary constraints; values on
    the no-slip rows are ignored by the solvers.
    """

    grid: GridSpec
    domain: DomainSpec
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        for name, staggering in (("f1", XFACE), ("f2", ZFACE)):
            want = expected_shape(self.grid, self.domain, staggering)
            object.__setattr__(self, name, _owned(getattr(self, name), want, name))


def divergence(u: VelocityField) -> np.ndarray:
    """Discrete divergence at cell centers; exact zeros telescope to the walls."""
    g = u.grid
    a1, a2 = u.u1.values, u.u2.values
    # (a1[i + 1] - a1[i]) / hx + (a2[:, j + 1] - a2[:, j]) / hz, with face nx
    # of the strip being face 0
    out = np.empty((g.nx, g.nz))
    np.subtract(a1[1:], a1[:-1], out=out[:a1.shape[0] - 1])
    if u.domain.periodic:
        np.subtract(a1[0], a1[-1], out=out[-1])
    out /= g.hx
    dz = a2[:, 1:] - a2[:, :-1]
    dz /= g.hz
    out += dz
    return out


def max_divergence(u: VelocityField) -> float:
    d = divergence(u)
    return float(np.abs(d, out=d).max())
