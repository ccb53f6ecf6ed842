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
"""

from __future__ import annotations

import enum
import functools
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

_STAGGERINGS = (CENTER, XFACE, ZFACE)


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
    """Build the uniform grid; nx and nz must both be >= 8."""
    nx, nz = int(nx), int(nz)
    if nx < 8 or nz < 8:
        raise ValueError(f"grid must have nx, nz >= 8, got {nx} x {nz}")
    return GridSpec(nx=nx, nz=nz, hx=domain.x_extent / nx, hz=1.0 / nz)


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
    px, pz = _kernels.center_points(grid.nx, grid.nz, grid.hx, grid.hz)
    return px.copy(), pz.copy()


def expected_shape(grid: GridSpec, domain: DomainSpec, staggering: str):
    if staggering == CENTER:
        return (grid.nx, grid.nz)
    if staggering == XFACE:
        return (grid.nx if domain.periodic else grid.nx + 1, grid.nz)
    if staggering == ZFACE:
        return (grid.nx, grid.nz + 1)
    raise ValueError(f"unknown staggering {staggering!r}")


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=np.float64)
    if out is values:
        out = out.copy()
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
        if self.staggering not in _STAGGERINGS:
            raise ValueError(f"unknown staggering {self.staggering!r}")
        vals = _frozen(self.values)
        want = expected_shape(self.grid, self.domain, self.staggering)
        if vals.shape != want:
            raise ValueError(
                f"{self.staggering} field on {self.grid.nx}x{self.grid.nz} grid "
                f"must have shape {want}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

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
        f1 = _frozen(self.f1)
        f2 = _frozen(self.f2)
        if f1.shape != expected_shape(self.grid, self.domain, XFACE):
            raise ValueError(f"f1 has wrong shape {f1.shape}")
        if f2.shape != expected_shape(self.grid, self.domain, ZFACE):
            raise ValueError(f"f2 has wrong shape {f2.shape}")
        if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
            raise ValueError("forcing values must all be finite")
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)


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
