"""Steady Stokes solvers on the MAC grid.

Every operator is built from the 1D factors in ``_mac``, whose docstring
holds the discretization notes.  Both solvers end in one finisher,
``_finish``, which pads the wall rows, centres the pressure, rejects
non-finite output, applies the residual and divergence gate and builds the
``StokesSolution``.

Rectangle mode assembles the full saddle-point system (velocity Laplacian,
pressure gradient / divergence couplings) and factorizes it once per grid.
Pressure is fixed only up to a constant, so the continuity row of cell
(0, 0) is replaced by the single-entry row p[0, 0] = 0.  No constraint is
lost: under no-slip the continuity rows sum to zero (the divergence
telescopes to the wall fluxes, which vanish), so cell (0, 0)'s divergence
is implied by all the others.  The mean is removed after the solve.  One
pinned cell keeps the matrix sparse, where a mean-pressure row and column
would couple every cell.

Strip mode applies an FFT in x; each wavenumber yields a small banded
saddle system in z.  All nonzero wavenumbers share one sparsity pattern, so
their blocks are stacked on the diagonal of one matrix and factorized by a
single pivoted sparse LU; row pivots stay inside a block, so no mode fills
into another, and one solve covers every mode.  The zero wavenumber is
rank-deficient exactly along the parabolic profile and is closed by
prescribing the volume flux; its pressure gains a linear slope in x, stored
separately from the periodic pressure samples (constant f1 with zero flux
is balanced by pressure alone: f = e_x gives u = 0 and slope 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import _mac
from .domain import (
    CENTER,
    DomainSpec,
    Forcing,
    GridSpec,
    ScalarField,
    VelocityField,
    expected_shape,
    max_divergence,
    z_centers,
)

__all__ = [
    "StokesConfig",
    "StokesSolution",
    "StokesSolveError",
    "buoyancy_forcing",
    "solve_stokes_bounded",
    "solve_stokes_strip",
    "solve_buoyancy",
    "poiseuille",
    "flux_profile",
    "check_compatibility",
    "momentum_residual",
    "solver_stats_text",
]


class StokesSolveError(RuntimeError):
    """Raised when the linear solve fails to reach the requested residual."""

    def __init__(self, message, residual=np.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class StokesConfig:
    # relative tolerance of the residual and divergence gate; not a setting
    linear_solver_tolerance: ClassVar[float] = 1e-10
    flux_target: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.flux_target):
            raise ValueError("flux_target must be finite")


@dataclass(frozen=True)
class StokesSolution:
    u: VelocityField
    p: ScalarField
    residual_norm: float
    flux: float | None
    pressure_slope: float = 0.0
    stats: dict = field(default_factory=dict)


def buoyancy_forcing(rho: ScalarField) -> Forcing:
    """Face-sampled -rho * e_z; z-face values are two-point vertical means."""
    if rho.staggering != CENTER:
        raise ValueError("buoyancy forcing needs a cell-centered density")
    g, dom = rho.grid, rho.domain
    f1 = np.zeros(expected_shape(g, dom, "xface"))
    f2 = np.zeros(expected_shape(g, dom, "zface"))
    vals = rho.values
    f2[:, 1:-1] = -0.5 * (vals[:, :-1] + vals[:, 1:])
    return Forcing(g, dom, f1, f2)


def momentum_residual(u: VelocityField, p: ScalarField, f: Forcing | None = None,
                      pressure_slope: float = 0.0) -> float:
    """Max-norm of -lap(u) + grad(p) - f over interior velocity faces.

    ``pressure_slope`` adds the x-slope of a strip pressure whose periodic
    samples live in ``p``; it contributes a constant to the x-momentum rows.
    """
    X, Z = _mac.axes(u.grid, u.domain.periodic)
    inner = slice(None) if u.domain.periodic else slice(1, -1)
    a1, a2, pv = u.u1.values[inner], u.u2.values[:, 1:-1], p.values
    r1 = X.faces @ a1 + (Z.centers @ a1.T).T + X.grad @ pv + pressure_slope
    r2 = X.centers @ a2 + (Z.faces @ a2.T).T + (Z.grad @ pv.T).T
    if f is not None:
        r1 -= f.f1[inner]
        r2 -= f.f2[:, 1:-1]
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


def flux_profile(u: VelocityField) -> np.ndarray:
    """Per-column midpoint quadrature of int_0^1 u1 dz, one value per x-face."""
    return u.grid.hz * u.u1.values.sum(axis=1)


def check_compatibility(g: ScalarField) -> float:
    """Midpoint quadrature of a cell-centered source over the whole domain."""
    if g.staggering != CENTER:
        raise ValueError("compatibility integral is defined for cell-centered data")
    return float(g.grid.hx * g.grid.hz * g.values.sum())


# ---------------------------------------------------------------------------
# rectangle: one sparse saddle-point factorization per grid
# ---------------------------------------------------------------------------

def _rect_matrix(grid: GridSpec) -> scipy.sparse.csc_matrix:
    """The saddle matrix; cell (0, 0)'s continuity row is the pin p = 0."""
    X, Z = _mac.axes(grid, False)
    nx, nz = grid.nx, grid.nz
    kron, eye = scipy.sparse.kron, scipy.sparse.identity
    a1 = kron(X.faces, eye(nz)) + kron(eye(nx - 1), Z.centers)
    a2 = kron(X.centers, eye(nz - 1)) + kron(eye(nx), Z.faces)
    g1 = kron(X.grad, eye(nz), format="csr")
    g2 = kron(eye(nx), Z.grad, format="csr")
    pin = scipy.sparse.csr_matrix(([1.0], ([0], [0])), shape=(1, nx * nz))
    return scipy.sparse.bmat([[a1, None, g1], [None, a2, g2], [None, None, pin],
                              [-g1.T[1:], -g2.T[1:], None]], format="csc")


@functools.lru_cache(maxsize=4)
def _rect_solver(grid: GridSpec):
    """(factorization, L+U nonzeros) of the rectangle system, per grid."""
    lu = scipy.sparse.linalg.splu(_rect_matrix(grid))
    return lu, lu.L.nnz + lu.U.nnz


def solve_stokes_bounded(f: Forcing, config: StokesConfig | None = None) -> StokesSolution:
    """No-slip Stokes solve on the rectangle; mean pressure pinned to zero."""
    config = config or StokesConfig()
    if f.domain.periodic:
        raise ValueError("solve_stokes_bounded expects a rectangle forcing")
    if config.flux_target != 0.0:
        raise ValueError("a closed rectangle carries no net flux; flux_target must be 0")
    nx, nz = f.grid.nx, f.grid.nz
    nu1, nu2 = (nx - 1) * nz, nx * (nz - 1)
    rhs = np.concatenate([f.f1[1:-1, :].ravel(), f.f2[:, 1:-1].ravel(), np.zeros(nx * nz)])
    try:
        lu, lu_nnz = _rect_solver(f.grid)
        sol = lu.solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise StokesSolveError(f"sparse factorization failed: {exc}") from exc
    a1 = np.zeros((nx + 1, nz))
    a1[1:-1, :] = sol[:nu1].reshape(nx - 1, nz)
    return _finish(f, config, a1, sol[nu1:nu1 + nu2].reshape(nx, nz - 1),
                   sol[nu1 + nu2:].reshape(nx, nz), 0.0,
                   {"solver": "sparse-lu", "lu_nnz": lu_nnz, "unknowns": sol.size})


def _finish(f, config, a1, a2_inner, pv, slope, stats) -> StokesSolution:
    """Pad the u2 wall rows, centre ``pv`` in place, gate and wrap a raw solve."""
    grid, dom = f.grid, f.domain
    a2 = np.zeros((grid.nx, grid.nz + 1))
    a2[:, 1:-1] = a2_inner
    pv -= pv.mean()
    if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2)) and np.all(np.isfinite(pv))):
        raise StokesSolveError(f"{stats['solver']} solve produced non-finite values")
    u = VelocityField.from_arrays(grid, dom, a1, a2, enforce_walls=False)
    p = ScalarField(grid, dom, pv, CENTER)
    res = momentum_residual(u, p, f, pressure_slope=slope)
    _check_solution(res, u, f, config)
    flux = float(flux_profile(u)[0]) if dom.periodic else None
    return StokesSolution(u=u, p=p, residual_norm=res, flux=flux,
                          pressure_slope=slope, stats=stats)


def _check_solution(res, u, f, config):
    # the flux-driven profile and its pressure slope are O(flux_target)
    scale = max(1.0, float(np.max(np.abs(f.f1))), float(np.max(np.abs(f.f2))),
                abs(config.flux_target))
    tol = 10.0 * config.linear_solver_tolerance * scale
    if res > tol:
        raise StokesSolveError(
            f"momentum residual {res:.3e} exceeds {tol:.3e}", residual=res)
    dmax = max_divergence(u)
    if dmax > tol:
        raise StokesSolveError(
            f"discrete divergence {dmax:.3e} exceeds {tol:.3e}", residual=dmax)


# ---------------------------------------------------------------------------
# strip: FFT in x, one block-diagonal LU over the nonzero wavenumbers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _strip_factor(grid: GridSpec):
    nx, nz = grid.nx, grid.nz
    hx, hz = grid.hx, grid.hz
    _, Z = _mac.axes(grid, True)

    # zero mode: unknowns (u1 profile, pressure slope); closed by the flux row
    m0 = np.zeros((nz + 1, nz + 1))
    m0[:nz, :nz] = Z.centers.toarray()
    m0[:nz, nz] = 1.0
    m0[nz, :nz] = hz
    m0_lu = scipy.linalg.lu_factor(m0)

    # Nonzero modes share one z pattern over the unknowns (u1, u2 on faces
    # 1..nz-1, p): B from the z factors, then the u1-p couplings, which are
    # diagonal in z.  Each entry is base + coef[kind]: kind 1 adds kap2 on
    # B's diagonal (the velocity rows), 2 is d (cells -> x-faces), 3 ddiv.
    B = scipy.sparse.bmat([[Z.centers, None, None], [None, Z.faces, Z.grad],
                           [None, -Z.grad.T, None]], format="coo")
    j = np.arange(nz)
    pc = 2 * nz - 1 + j
    rows = np.concatenate([B.row, j, pc])
    cols = np.concatenate([B.col, pc, j])
    kind = np.concatenate([(B.row == B.col).astype(int), np.full(nz, 2), np.full(nz, 3)])
    base = np.concatenate([B.data, np.zeros(2 * nz)])
    theta = 2.0 * np.pi * np.arange(1, nx // 2 + 1) / nx
    coef = np.stack([np.zeros_like(theta), (2.0 - 2.0 * np.cos(theta)) / (hx * hx),
                     (1.0 - np.exp(-1j * theta)) / hx, (np.exp(1j * theta) - 1.0) / hx], axis=1)
    n = 3 * nz - 1
    off = n * np.arange(theta.size)[:, None]
    A = scipy.sparse.coo_matrix(((base + coef[:, kind]).ravel(),
                                 ((rows + off).ravel(), (cols + off).ravel())),
                                shape=(n * theta.size,) * 2).tocsc()
    lu = scipy.sparse.linalg.splu(A)
    return {"m0": m0_lu, "modes": lu, "lu_nnz": lu.L.nnz + lu.U.nnz}


def solve_stokes_strip(f: Forcing, config: StokesConfig | None = None) -> StokesSolution:
    """Periodic-in-x Stokes solve with prescribed volume flux (default zero)."""
    config = config or StokesConfig()
    if not f.domain.periodic:
        raise ValueError("solve_stokes_strip expects a strip forcing")
    nx, nz, hz = f.grid.nx, f.grid.nz, f.grid.hz
    fac = _strip_factor(f.grid)

    f1hat = np.fft.rfft(f.f1, axis=0)
    f2hat = np.fft.rfft(f.f2[:, 1:-1], axis=0)
    nmode = f1hat.shape[0]

    u1hat = np.zeros((nmode, nz), dtype=complex)
    u2hat = np.zeros((nmode, nz - 1), dtype=complex)
    phat = np.zeros((nmode, nz), dtype=complex)

    # rfft coefficients are unnormalized; the flux row must see the physical
    # flux, and the slope never passes through irfft, so scale by nx here.
    rhs0 = np.concatenate([f1hat[0].real, [float(config.flux_target) * nx]])
    sol0 = scipy.linalg.lu_solve(fac["m0"], rhs0)
    u1hat[0, :] = sol0[:nz]
    slope = float(sol0[nz]) / nx
    phat[0, 1:] = hz * np.cumsum(f2hat[0].real)

    rhs = np.zeros((nmode - 1, 3 * nz - 1), dtype=complex)
    rhs[:, :nz] = f1hat[1:]
    rhs[:, nz:2 * nz - 1] = f2hat[1:]
    sol = fac["modes"].solve(rhs.ravel()).reshape(rhs.shape)
    u1hat[1:] = sol[:, :nz]
    u2hat[1:] = sol[:, nz:2 * nz - 1]
    phat[1:] = sol[:, 2 * nz - 1:]

    return _finish(f, config, np.fft.irfft(u1hat, n=nx, axis=0),
                   np.fft.irfft(u2hat, n=nx, axis=0), np.fft.irfft(phat, n=nx, axis=0), slope,
                   {"solver": "fft-lu", "modes": nmode, "lu_nnz": fac["lu_nnz"]})


def solve_buoyancy(rho: ScalarField, config: StokesConfig | None = None) -> StokesSolution:
    """Solve for the velocity driven by -rho * e_z in rho's own domain."""
    f = buoyancy_forcing(rho)
    if rho.domain.periodic:
        return solve_stokes_strip(f, config)
    return solve_stokes_bounded(f, config)


def poiseuille(phi: float, grid: GridSpec, domain: DomainSpec) -> StokesSolution:
    """Parabolic channel flow scaled so the discrete flux is exactly phi.

    The profile is a * z * (1 - z) with a chosen so the midpoint-quadrature
    flux equals phi (a -> 6 phi as hz -> 0), paired with the pressure slope
    -2a that balances it row by row; the homogeneous momentum residual of
    the pair is zero to rounding on every interior face, wall rows included.
    """
    if not domain.periodic:
        raise ValueError("the channel profile lives on the strip")
    zc = z_centers(grid)
    prof = zc * (1.0 - zc)
    quad = grid.hz * prof.sum()
    a = float(phi) / quad
    a1 = np.tile(a * prof, (grid.nx, 1))
    a2 = np.zeros((grid.nx, grid.nz + 1))
    u = VelocityField.from_arrays(grid, domain, a1, a2, enforce_walls=False)
    p = ScalarField(grid, domain, np.zeros((grid.nx, grid.nz)), CENTER)
    slope = -2.0 * a
    res = momentum_residual(u, p, None, pressure_slope=slope)
    return StokesSolution(u=u, p=p, residual_norm=res, flux=float(flux_profile(u)[0]),
                          pressure_slope=slope, stats={"solver": "closed-form"})


def solver_stats_text(sol: StokesSolution) -> str:
    """Plain key=value block describing a solve."""
    lines = []
    for k in sorted(sol.stats):
        lines.append(f"{k}={sol.stats[k]}")
    lines.append(f"residual={sol.residual_norm:.17g}")
    if sol.flux is not None:
        lines.append(f"flux={sol.flux:.17g}")
    lines.append(f"pressure_slope={sol.pressure_slope:.17g}")
    return "\n".join(lines) + "\n"
