"""Lebesgue, Sobolev, dual, and uniformly-local norms on grid fields.

The dual norm is the Hilbert-space case: hneg1_norm(rho) returns
<rho, (1 - lap)^{-1} rho>^{1/2}, which realizes sup over test functions of
<rho, phi> / ||phi||_{H1}.  lap is the five-point Laplacian with
homogeneous Dirichlet walls (linear ghosts, ghost = -first sample) in z and
on the rectangle's x-ends, periodic in x on the strip.  That operator is
diagonal in DST-II along a walled axis and in the DFT along the periodic
one (fast diagonalization, Lynch, Rice & Thomas, Numer. Math. 6, 1964), so
the norm is one Parseval sum and needs no solve.  Every squared L2, H1 and
dual norm, plain or windowed, is one _squared_norm sum with one overflow check.

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

from ._transforms import dst2
from .domain import (
    CENTER,
    XFACE,
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
# plain norms: one squared-norm sum
# ---------------------------------------------------------------------------


def _squared_norm(b: np.ndarray, m: int, hx: float, hz: float, periodic: bool) -> np.ndarray:
    """Squared (m, 2)-norm of cell data b over its last two axes, one value per leading index.

    b holds x on axis -2 and z on axis -1; x is periodic or walled.  m = 0
    is the L2 sum; m = 1 adds the centred differences, one-sided at the
    walls; m = -1 is <b, (1 - lap)^{-1} b>, a Parseval sum in the
    operator's eigenbasis, where the eigenvalues of -d2 are
    (2 sin(pi k / 2n) / h)^2, k = 1..n, on a walled axis and
    (2 sin(pi k / n) / h)^2, k = 0..n-1, on the period.
    Raises RuntimeError when the sum overflows.
    """
    if m == -1:
        nx, nz = b.shape[-2:]
        b = dst2(b, axis=-1)
        if periodic:
            b = np.fft.fft(b, axis=-2, norm="ortho")
            lx = (2.0 * np.sin(np.pi * np.arange(nx) / nx) / hx) ** 2
        else:
            b = dst2(b, axis=-2)
            lx = (2.0 * np.sin(0.5 * np.pi * np.arange(1, nx + 1) / nx) / hx) ** 2
        lz = (2.0 * np.sin(0.5 * np.pi * np.arange(1, nz + 1) / nz) / hz) ** 2
    with np.errstate(over="ignore"):
        if m == -1:
            mag = b.real ** 2 + b.imag ** 2 if periodic else b * b
            s = (mag / (1.0 + lx[:, None] + lz)).sum(axis=(-2, -1))
        else:
            terms = (b,)
            if m == 1:
                if periodic:
                    gx = (np.roll(b, -1, axis=-2) - np.roll(b, 1, axis=-2)) / (2.0 * hx)
                else:
                    gx = np.gradient(b, hx, axis=-2, edge_order=2)
                terms = (b, gx, np.gradient(b, hz, axis=-1, edge_order=2))
            s = sum((t * t).sum(axis=(-2, -1)) for t in terms)
        s = hx * hz * s
    if not np.all(np.isfinite(s)):
        raise RuntimeError(("dual-norm", "L2", "H1")[m + 1] + " sum overflowed")
    return s


def lq_norm(f: ScalarField, q) -> float:
    """Midpoint-quadrature L^q norm, q in {1, 2, inf}.

    Raises RuntimeError when the sum overflows.
    """
    v, g = f.values, f.grid
    if q == np.inf or q == math.inf:
        return float(np.abs(v).max()) if v.size else 0.0
    if q == 2:
        return math.sqrt(float(_squared_norm(v, 0, g.hx, g.hz, f.domain.periodic)))
    if q != 1:
        raise ValueError(f"q must be 1, 2, or inf, got {q!r}")
    with np.errstate(over="ignore"):
        s = g.hx * g.hz * float(np.abs(v).sum())
    if not math.isfinite(s):
        raise RuntimeError("L1 sum overflowed")
    return s


def _to_centers(f: ScalarField, v: np.ndarray | None = None) -> np.ndarray:
    """f's values, or v staggered like f with x, z on its last two axes, at the cell centers."""
    v = f.values if v is None else v
    if f.staggering == CENTER:
        return v
    if f.staggering == XFACE:
        if f.domain.periodic:
            return 0.5 * (v + np.roll(v, -1, axis=-2))
        return 0.5 * (v[..., :-1, :] + v[..., 1:, :])
    return 0.5 * (v[..., :-1] + v[..., 1:])


def h1_norm(f) -> float:
    """(||f||_2^2 + ||grad f||_2^2)^{1/2} on cell centers.

    Face-staggered data (velocity components included) is averaged to the
    centers first; a velocity field contributes both components.
    """
    g = f.grid
    parts = (f.u1, f.u2) if isinstance(f, VelocityField) else (f,)
    s = sum(_squared_norm(_to_centers(p), 1, g.hx, g.hz, f.domain.periodic)
            for p in parts)
    return math.sqrt(s)


def hneg1_norm(rho: ScalarField) -> float:
    """Dual-space magnitude of a cell-centered density."""
    if rho.staggering != CENTER:
        raise ValueError("hneg1_norm needs a cell-centered field")
    g = rho.grid
    return math.sqrt(float(_squared_norm(rho.values, -1, g.hx, g.hz, rho.domain.periodic)))


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
    seen even though the wall itself carries no sample.  The norm of the
    2 x 2 matrix (a, b; c, d) is its largest singular value,
    (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2.
    """
    g, dom = u.grid, u.domain
    a1, a2 = u.u1.values, u.u2.values
    m11 = _adjacent_max(a1, g.hx, 0, dom.periodic, wall_half=not dom.periodic)
    m12 = _adjacent_max(a1, g.hz, 1, False, wall_half=True)
    m21 = _adjacent_max(a2, g.hx, 0, dom.periodic, wall_half=not dom.periodic)
    m22 = _adjacent_max(a2, g.hz, 1, False, wall_half=False)
    return (math.hypot(m11 + m22, m21 - m12) + math.hypot(m11 - m22, m12 + m21)) / 2.0


def _velocity_sup(u: VelocityField) -> float:
    """sup |u|: the largest |u1| or |u2| sample."""
    return max(float(np.abs(u.u1.values).max()),
               float(np.abs(u.u2.values).max()))


def w1inf_norm(u: VelocityField) -> float:
    """max(sup |u|, sup |grad u|) over the sampled field."""
    return max(_velocity_sup(u), grad_inf_norm(u))


# ---------------------------------------------------------------------------
# partition of unity and uniformly-local norms
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _chi_table(grid: GridSpec, domain: DomainSpec, faces: bool) -> np.ndarray:
    """Cutoffs of every window at the x-faces or cell centers, one row per window (read-only).

    Each row is the profile translated modulo the period L.
    """
    L = domain.x_extent
    xs = x_faces(grid, domain) if faces else x_centers(grid)
    k = np.arange(int(L))[:, None]
    chi = cutoff_profile(np.mod(xs - k + 0.5 * L, L) - 0.5 * L)
    chi.flags.writeable = False
    return chi


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

    def chi_sum(self) -> np.ndarray:
        return _chi_table(self.grid, self.domain, False).sum(axis=0)


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


def _window_sq(f: ScalarField, m: int, part: Partition, pad: int) -> np.ndarray:
    """Squared (m, 2)-norm of chi_k * f for every window k, all windows in one batched sum.

    Window k keeps its support, 3 cells_per_unit columns from x = k - 1,
    plus ``pad`` columns at each end.  For m = -1 the pad is the margin and
    the window is Dirichlet all around; the screening term gives the
    resolvent an O(1) decay length, so the truncation error falls off
    exponentially in the margin.  For m = 0, 1 one pad column of zero
    cutoff makes the periodic centred differences inside the window equal
    to those over the whole strip.  Once the padded window covers the
    period, the whole strip is used.
    """
    g = f.grid
    cpu = part.cells_per_unit
    ncols = 3 * cpu + 2 * pad
    chi = _chi_table(g, f.domain, f.staggering == XFACE)
    periodic = ncols >= g.nx
    if periodic:
        b = f.values * chi[:, :, None]
    else:
        idx = (np.arange(ncols) + (np.arange(part.period)[:, None] - 1) * cpu - pad) % g.nx
        b = f.values[idx] * np.take_along_axis(chi, idx, axis=1)[:, :, None]
    if m == 1:
        b = _to_centers(f, b)
    return _squared_norm(b, m, g.hx, g.hz, periodic or m != -1)


def uloc_norm(f, m: int, partition: Partition, margin: float = 0.0) -> NormReport:
    """Sup over unit windows of the windowed (m, 2)-norm, m in {-1, 0, 1}.

    Every m is one batched sum over all windows; a velocity adds the sums
    of its two components.  margin widens the restricted dual norm of
    m = -1 beyond the window support (in x-units; inf, like any margin that
    covers the period, gives the periodic norm over the whole strip); it
    has no effect for m = 0, 1.
    """
    if m not in (-1, 0, 1):
        raise ValueError("m must be -1, 0, or 1")
    parts = (f.u1, f.u2) if isinstance(f, VelocityField) else (f,)
    if m == -1 and (len(parts) > 1 or f.staggering != CENTER):
        raise ValueError("the dual window norm needs a cell-centered field")
    if not f.domain.periodic:
        raise ValueError("uniformly-local norms are defined on the strip")
    if (partition.grid, partition.domain) != (f.grid, f.domain):
        raise ValueError("partition was built for a different grid")
    if not margin >= 0.0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    pad = 1
    if m == -1:
        pad = math.ceil(min(margin, partition.period) * partition.cells_per_unit)
    per = np.sqrt(sum(_window_sq(p, m, partition, pad) for p in parts))
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
    parts = (f.u1, f.u2) if isinstance(f, VelocityField) else (f,)
    left = math.sqrt(sum(float(_squared_norm(_to_centers(p)[cols, :], 0, g.hx, g.hz, True))
                         for p in parts))
    right = math.sqrt(2.0) * C_CHI * math.sqrt(n) * uloc_norm(f, 0, partition).value
    ratio = left / right if right > 0 else 0.0
    return WindowEnergyReport(n=n, left=left, right=right, ratio=ratio,
                              violated=left > right * (1.0 + 1e-12) + 1e-300)
