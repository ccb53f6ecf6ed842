"""Lebesgue, Sobolev, dual, and uniformly-local norms on grid fields.

The dual norm is the Hilbert-space case: hneg1_norm(rho) solves
(-lap + 1) w = rho with homogeneous Dirichlet walls (and Dirichlet x-ends
on the rectangle, periodic x on the strip) and returns <rho, w>^{1/2},
which realizes sup over test functions of <rho, phi> / ||phi||_{H1}.

Uniformly-local norms use a partition of unity built from the quintic
smoothstep S(t) = t^3 (10 - 15 t + 6 t^2):

    S(0) = 0, S(1) = 1, S' and S'' vanish at both ends, S(t) + S(1-t) = 1,
    max S' = 15/8 at t = 1/2.

The window profile chi equals S(x+1) on [-1, 0], 1 on [0, 1], S(2-x) on
[1, 2], zero elsewhere; the complementarity identity makes the translates
sum to exactly 2 everywhere. C_CHI is the product constant
sqrt(1 + 2 * (15/8)^2): for g = chi * f,

    g^2 + |grad g|^2 <= (1 + 2 max(chi')^2) f^2 + 2 |grad f|^2

pointwise on the support of chi, so windowed norms are controlled by plain
norms over the support at every Sobolev index used here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .domain import (
    CENTER,
    XFACE,
    ZFACE,
    DomainSpec,
    GridSpec,
    ScalarField,
    VelocityField,
    x_centers,
    x_faces,
)

__all__ = [
    "C_CHI",
    "NormReport",
    "Partition",
    "WindowEnergyReport",
    "cutoff_profile",
    "grad_inf_norm",
    "h1_norm",
    "hneg1_norm",
    "lq_norm",
    "smoothstep",
    "uloc_norm",
    "w1inf_norm",
    "window_energy_bound",
]

_SMOOTHSTEP_SLOPE_MAX = 15.0 / 8.0
C_CHI = math.sqrt(1.0 + 2.0 * _SMOOTHSTEP_SLOPE_MAX ** 2)


def smoothstep(t):
    """Quintic ramp: 0 for t <= 0, 1 for t >= 1, C2 across the joins."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def cutoff_profile(x):
    """Window profile: 1 on [0,1], smooth flanks to 0 outside [-1,2]."""
    x = np.asarray(x, dtype=float)
    return np.minimum(smoothstep(x + 1.0), smoothstep(2.0 - x))


# ---------------------------------------------------------------------------
# plain norms
# ---------------------------------------------------------------------------


def lq_norm(f: ScalarField, q) -> float:
    """Midpoint-quadrature L^q norm, q in {1, 2, inf}."""
    a = np.abs(f.values)
    if q == np.inf or q == math.inf:
        return float(a.max()) if a.size else 0.0
    if q not in (1, 2):
        raise ValueError(f"q must be 1, 2, or inf, got {q!r}")
    w = f.grid.hx * f.grid.hz
    if q == 1:
        return float(w * a.sum())
    return float(math.sqrt(w * float((a * a).sum())))


def _dx(vals: np.ndarray, hx: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2.0 * hx)
    return np.gradient(vals, hx, axis=0, edge_order=2)


def _dz(vals: np.ndarray, hz: float) -> np.ndarray:
    return np.gradient(vals, hz, axis=1, edge_order=2)


def _to_centers(f: ScalarField) -> np.ndarray:
    v = f.values
    if f.staggering == CENTER:
        return v
    if f.staggering == XFACE:
        if f.domain.periodic:
            return 0.5 * (v + np.roll(v, -1, axis=0))
        return 0.5 * (v[:-1, :] + v[1:, :])
    return 0.5 * (v[:, :-1] + v[:, 1:])


def _h1_sq(vals: np.ndarray, grid: GridSpec, domain: DomainSpec) -> float:
    w = grid.hx * grid.hz
    gx = _dx(vals, grid.hx, domain.periodic)
    gz = _dz(vals, grid.hz)
    return w * float((vals * vals).sum() + (gx * gx).sum() + (gz * gz).sum())


def h1_norm(f) -> float:
    """(||f||_2^2 + ||grad f||_2^2)^{1/2} on cell centers.

    Face-staggered data (velocity components included) is averaged to the
    centers first; a velocity field contributes both components.
    """
    if isinstance(f, VelocityField):
        g, dom = f.grid, f.domain
        s = _h1_sq(_to_centers(f.u1), g, dom) + _h1_sq(_to_centers(f.u2), g, dom)
        return math.sqrt(s)
    return math.sqrt(_h1_sq(_to_centers(f), f.grid, f.domain))


# ---------------------------------------------------------------------------
# dual norm: screened Poisson solve, factorization cached per grid
# ---------------------------------------------------------------------------

def _lap1d(n: int, h: float, periodic: bool) -> scipy.sparse.spmatrix:
    """1D -d2/dx2 on cell centers; Dirichlet walls via linear ghosts."""
    h2 = h * h
    main = np.full(n, 2.0 / h2)
    off = np.full(n - 1, -1.0 / h2)
    A = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    if periodic:
        A[0, n - 1] = -1.0 / h2
        A[n - 1, 0] = -1.0 / h2
    else:
        A[0, 0] = 3.0 / h2
        A[n - 1, n - 1] = 3.0 / h2
    return A.tocsr()


@functools.lru_cache(maxsize=4)
def _screened_solver(grid: GridSpec, domain: DomainSpec):
    Ax = _lap1d(grid.nx, grid.hx, domain.periodic)
    Az = _lap1d(grid.nz, grid.hz, False)
    Ix = scipy.sparse.identity(grid.nx, format="csr")
    Iz = scipy.sparse.identity(grid.nz, format="csr")
    A = (scipy.sparse.kron(Ax, Iz) + scipy.sparse.kron(Ix, Az)
         + scipy.sparse.identity(grid.nx * grid.nz, format="csr")).tocsc()
    return scipy.sparse.linalg.splu(A)


def hneg1_norm(rho: ScalarField) -> float:
    """Dual-space magnitude of a cell-centered density."""
    if rho.staggering != CENTER:
        raise ValueError("hneg1_norm needs a cell-centered field")
    lu = _screened_solver(rho.grid, rho.domain)
    b = rho.values.ravel()
    w = lu.solve(b)
    if not np.all(np.isfinite(w)):
        raise RuntimeError("screened elliptic solve produced non-finite values")
    val = rho.grid.hx * rho.grid.hz * float(b @ w)
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# velocity gradient magnitudes (used by the flow bounds)
# ---------------------------------------------------------------------------


def _adjacent_max(vals: np.ndarray, h: float, axis: int, periodic: bool,
                  wall_half: bool) -> float:
    """Max difference quotient between adjacent samples along one axis.

    wall_half adds the half-cell quotient to the zero wall value for data
    whose first/last samples sit h/2 inside the boundary.
    """
    if periodic:
        d = np.abs(np.roll(vals, -1, axis=axis) - vals) / h
    else:
        d = np.abs(np.diff(vals, axis=axis)) / h
    best = float(d.max()) if d.size else 0.0
    if wall_half:
        first = np.abs(np.take(vals, 0, axis=axis)) / (0.5 * h)
        last = np.abs(np.take(vals, -1, axis=axis)) / (0.5 * h)
        best = max(best, float(first.max()), float(last.max()))
    return best


def grad_inf_norm(u: VelocityField) -> float:
    """Spectral norm of the entrywise-max velocity Jacobian.

    Tangential components get wall half-cell quotients so wall shear is
    seen even though the wall itself carries no sample.
    """
    g, dom = u.grid, u.domain
    a1, a2 = u.u1.values, u.u2.values
    m11 = _adjacent_max(a1, g.hx, 0, dom.periodic, wall_half=not dom.periodic)
    m12 = _adjacent_max(a1, g.hz, 1, False, wall_half=True)
    m21 = _adjacent_max(a2, g.hx, 0, dom.periodic, wall_half=not dom.periodic)
    m22 = _adjacent_max(a2, g.hz, 1, False, wall_half=False)
    M = np.array([[m11, m12], [m21, m22]])
    return float(np.linalg.norm(M, 2))


def w1inf_norm(u: VelocityField) -> float:
    """max(sup |u|, sup |grad u|) over the sampled field."""
    sup = max(float(np.abs(u.u1.values).max()), float(np.abs(u.u2.values).max()))
    return max(sup, grad_inf_norm(u))


# ---------------------------------------------------------------------------
# partition of unity and uniformly-local norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Unit-window partition of the strip with overlap-2 cutoffs.

    Window k covers (k, k+1) with flanks into (k-1, k) and (k+1, k+2);
    translates are taken modulo the period, and their sum is exactly 2.
    """

    grid: GridSpec
    domain: DomainSpec

    def __post_init__(self):
        if not self.domain.periodic:
            raise ValueError("partitions are defined on the strip")
        L = int(self.domain.x_extent)
        if self.grid.nx % L != 0:
            raise ValueError(
                f"nx = {self.grid.nx} must be a multiple of the period {L} "
                "so the unit windows tile the grid")

    @property
    def period(self) -> int:
        return int(self.domain.x_extent)

    @property
    def cells_per_unit(self) -> int:
        return self.grid.nx // self.period

    def _chi(self, coords: np.ndarray, k: int) -> np.ndarray:
        L = float(self.domain.x_extent)
        d = np.mod(coords - k + 0.5 * L, L) - 0.5 * L
        return cutoff_profile(d)

    def chi_center(self, k: int) -> np.ndarray:
        return self._chi(x_centers(self.grid), k)

    def chi_face(self, k: int) -> np.ndarray:
        return self._chi(x_faces(self.grid, self.domain), k)

    def chi_sum(self) -> np.ndarray:
        s = np.zeros(self.grid.nx)
        for k in range(self.period):
            s += self.chi_center(k)
        return s


def _windowed_plain(f: ScalarField, part: Partition, k: int) -> ScalarField:
    """Restriction of f to the enlarged window support, no cutoff applied."""
    vals = np.zeros_like(f.values)
    cpu = part.cells_per_unit
    idx = (np.arange(3 * cpu) + (k - 1) * cpu) % f.grid.nx
    vals[idx, :] = f.values[idx, :]
    return f.with_values(vals)


@dataclass(frozen=True)
class NormReport:
    name: str
    value: float
    per_window: np.ndarray | None = None

    def __post_init__(self):
        if self.per_window is not None:
            pw = np.asarray(self.per_window, dtype=float)
            object.__setattr__(self, "per_window", pw)
            if pw.size and self.value != float(pw.max()):
                raise ValueError("report value must equal the window maximum")

    def to_csv_row(self) -> str:
        parts = [self.name, f"{self.value:.17g}"]
        if self.per_window is not None:
            parts.extend(f"{v:.17g}" for v in self.per_window)
        return ",".join(parts)


@functools.lru_cache(maxsize=4)
def _windowed_solver(grid: GridSpec, ncols: int):
    """Screened solve on an ncols-wide column block, Dirichlet all around."""
    Ax = _lap1d(ncols, grid.hx, False)
    Az = _lap1d(grid.nz, grid.hz, False)
    Ix = scipy.sparse.identity(ncols, format="csr")
    Iz = scipy.sparse.identity(grid.nz, format="csr")
    A = (scipy.sparse.kron(Ax, Iz) + scipy.sparse.kron(Ix, Az)
         + scipy.sparse.identity(ncols * grid.nz, format="csr")).tocsc()
    return scipy.sparse.linalg.splu(A)


def _windowed_hneg1(f: ScalarField, part: Partition, k: int, margin: float) -> float:
    """Dual norm of chi_k * f via a solve restricted to the window support.

    The screening term gives the resolvent an O(1) decay length, so the
    Dirichlet truncation error falls off exponentially in ``margin``.
    """
    g = f.grid
    cpu = part.cells_per_unit
    mcells = int(math.ceil(margin * cpu)) if margin > 0 else 0
    ncols = 3 * cpu + 2 * mcells
    vals = f.values * part.chi_center(k)[:, None]
    if ncols >= g.nx:
        return hneg1_norm(f.with_values(vals))
    idx = (np.arange(ncols) + (k - 1) * cpu - mcells) % g.nx
    sub = vals[idx, :]
    lu = _windowed_solver(g, ncols)
    b = sub.ravel()
    w = lu.solve(b)
    val = g.hx * g.hz * float(b @ w)
    return math.sqrt(max(val, 0.0))


def _window_scalar(f: ScalarField, part: Partition, k: int) -> ScalarField:
    chi = part.chi_center(k) if f.staggering != XFACE else part.chi_face(k)
    return f.with_values(f.values * chi[:, None])


def uloc_norm(f, m: int, partition: Partition, margin: float = 0.0) -> NormReport:
    """Sup over unit windows of the windowed (m, 2)-norm, m in {-1, 0, 1}.

    margin widens the restricted dual-norm solve beyond the window support
    (in x-units); it has no effect for m = 0, 1.
    """
    if m not in (-1, 0, 1):
        raise ValueError("m must be -1, 0, or 1")
    if isinstance(f, VelocityField):
        if m == -1:
            raise ValueError("the dual window norm needs a cell-centered field")
        dom = f.domain
    else:
        dom = f.domain
        if m == -1 and f.staggering != CENTER:
            raise ValueError("the dual window norm needs a cell-centered field")
    if not dom.periodic:
        raise ValueError("uniformly-local norms are defined on the strip")
    if (partition.grid, partition.domain) != (f.grid, dom):
        raise ValueError("partition was built for a different grid")

    L = partition.period
    per = np.empty(L)
    for k in range(L):
        if isinstance(f, VelocityField):
            w1 = _window_scalar(f.u1, partition, k)
            w2 = _window_scalar(f.u2, partition, k)
            if m == 0:
                per[k] = math.sqrt(lq_norm(w1, 2) ** 2 + lq_norm(w2, 2) ** 2)
            else:
                per[k] = math.sqrt(h1_norm(w1) ** 2 + h1_norm(w2) ** 2)
        else:
            wf = _window_scalar(f, partition, k)
            if m == 0:
                per[k] = lq_norm(wf, 2)
            elif m == 1:
                per[k] = h1_norm(wf)
            else:
                per[k] = _windowed_hneg1(f, partition, k, margin)
    name = {-1: "uloc_hneg1", 0: "uloc_l2", 1: "uloc_h1"}[m]
    return NormReport(name=name, value=float(per.max()), per_window=per)


@dataclass(frozen=True)
class WindowEnergyReport:
    n: int
    left: float
    right: float
    ratio: float
    violated: bool


def window_energy_bound(f, n: int, partition: Partition) -> WindowEnergyReport:
    """L2 mass over the 2n-unit centered window against the local-norm bound.

    right = sqrt(2) * C_CHI * sqrt(n) * uloc_l2(f); the chi plateaus make
    the inequality hold with constant sqrt(2) already, so C_CHI is pure
    headroom and the flag should never fire.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    L = partition.period
    if 2 * n > L:
        raise ValueError(f"window of width 2n = {2 * n} exceeds the period {L}")
    g = partition.grid
    cpu = partition.cells_per_unit
    cols = (np.arange(2 * n * cpu) - n * cpu) % g.nx
    w = g.hx * g.hz
    if isinstance(f, VelocityField):
        c1, c2 = _to_centers(f.u1), _to_centers(f.u2)
        mass = float((c1[cols, :] ** 2).sum() + (c2[cols, :] ** 2).sum())
    else:
        vals = _to_centers(f) if f.staggering != CENTER else f.values
        mass = float((vals[cols, :] ** 2).sum())
    left = math.sqrt(w * mass)
    right = math.sqrt(2.0) * C_CHI * math.sqrt(n) * uloc_norm(f, 0, partition).value
    ratio = left / right if right > 0 else 0.0
    return WindowEnergyReport(n=n, left=left, right=right, ratio=ratio,
                              violated=left > right * (1.0 + 1e-12) + 1e-300)
