"""Steady Stokes solvers on the MAC grid.

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
the wall-adjacent rows of the operator are mildly nonsymmetric, which the
sparse direct factorization does not mind.

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

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .domain import (
    CENTER,
    DomainSpec,
    Forcing,
    GridSpec,
    ScalarField,
    VelocityField,
    divergence,
    expected_shape,
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
    linear_solver_tolerance: float = 1e-10
    flux_target: float = 0.0

    def __post_init__(self):
        t = self.linear_solver_tolerance
        if not (0.0 < t < 1e-4):
            raise ValueError(f"linear_solver_tolerance must lie in (0, 1e-4), got {t}")
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


# ---------------------------------------------------------------------------
# discrete operators (shared by the solvers and the residual check)
# ---------------------------------------------------------------------------

_GHOST_NEAR = 4.0      # diagonal weight of a wall-adjacent tangential row, / h^2
_GHOST_FAR = 4.0 / 3.0  # neighbor weight of that row, / h^2


def _laplacian_u1(a1: np.ndarray, grid: GridSpec, domain: DomainSpec) -> np.ndarray:
    hx2, hz2 = grid.hx ** 2, grid.hz ** 2
    out = np.zeros_like(a1)
    if domain.periodic:
        xpart = (np.roll(a1, -1, axis=0) - 2.0 * a1 + np.roll(a1, 1, axis=0)) / hx2
        inner = a1
        sl = slice(None)
    else:
        xpart = (a1[2:, :] - 2.0 * a1[1:-1, :] + a1[:-2, :]) / hx2
        inner = a1[1:-1, :]
        sl = slice(1, -1)
    zpart = np.empty_like(inner)
    zpart[:, 1:-1] = (inner[:, 2:] - 2.0 * inner[:, 1:-1] + inner[:, :-2]) / hz2
    zpart[:, 0] = (_GHOST_FAR * inner[:, 1] - _GHOST_NEAR * inner[:, 0]) / hz2
    zpart[:, -1] = (_GHOST_FAR * inner[:, -2] - _GHOST_NEAR * inner[:, -1]) / hz2
    out[sl, :] = xpart + zpart
    return out


def _laplacian_u2(a2: np.ndarray, grid: GridSpec, domain: DomainSpec) -> np.ndarray:
    hx2, hz2 = grid.hx ** 2, grid.hz ** 2
    out = np.zeros_like(a2)
    inner = a2[:, 1:-1]
    zpart = (a2[:, 2:] - 2.0 * inner + a2[:, :-2]) / hz2
    xpart = np.empty_like(inner)
    if domain.periodic:
        xpart[:, :] = (np.roll(inner, -1, axis=0) - 2.0 * inner + np.roll(inner, 1, axis=0)) / hx2
    else:
        xpart[1:-1, :] = (inner[2:, :] - 2.0 * inner[1:-1, :] + inner[:-2, :]) / hx2
        xpart[0, :] = (_GHOST_FAR * inner[1, :] - _GHOST_NEAR * inner[0, :]) / hx2
        xpart[-1, :] = (_GHOST_FAR * inner[-2, :] - _GHOST_NEAR * inner[-1, :]) / hx2
    out[:, 1:-1] = zpart + xpart
    return out


def _grad_p_x(p: np.ndarray, grid: GridSpec, domain: DomainSpec) -> np.ndarray:
    if domain.periodic:
        return (p - np.roll(p, 1, axis=0)) / grid.hx
    out = np.zeros((grid.nx + 1, grid.nz))
    out[1:-1, :] = (p[1:, :] - p[:-1, :]) / grid.hx
    return out


def _grad_p_z(p: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.zeros((grid.nx, grid.nz + 1))
    out[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.hz
    return out


def momentum_residual(u: VelocityField, p: ScalarField, f: Forcing | None = None,
                      pressure_slope: float = 0.0) -> float:
    """Max-norm of -lap(u) + grad(p) - f over interior velocity faces.

    ``pressure_slope`` adds the x-slope of a strip pressure whose periodic
    samples live in ``p``; it contributes a constant to the x-momentum rows.
    """
    g, dom = u.grid, u.domain
    a1, a2 = u.u1.values, u.u2.values
    r1 = -_laplacian_u1(a1, g, dom) + _grad_p_x(p.values, g, dom) + pressure_slope
    r2 = -_laplacian_u2(a2, g, dom) + _grad_p_z(p.values, g)
    if f is not None:
        r1 = r1 - f.f1
        r2 = r2 - f.f2
    r1_int = r1 if dom.periodic else r1[1:-1, :]
    r2_int = r2[:, 1:-1]
    m1 = float(np.max(np.abs(r1_int))) if r1_int.size else 0.0
    m2 = float(np.max(np.abs(r2_int))) if r2_int.size else 0.0
    return max(m1, m2)


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

def _rect_ids(grid: GridSpec):
    nx, nz = grid.nx, grid.nz
    nu1 = (nx - 1) * nz
    nu2 = nx * (nz - 1)
    ncells = nx * nz
    return nu1, nu2, ncells


def _assemble_rect(grid: GridSpec):
    nx, nz = grid.nx, grid.nz
    hx, hz = grid.hx, grid.hz
    hx2, hz2 = hx * hx, hz * hz
    nu1, nu2, ncells = _rect_ids(grid)
    n = nu1 + nu2 + ncells

    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(c).ravel())
        vals.append(np.asarray(v).ravel())

    # x-momentum at interior x-faces i=1..nx-1
    I, J = np.meshgrid(np.arange(1, nx), np.arange(nz), indexing="ij")
    rid = (I - 1) * nz + J
    diag_z = np.where((J == 0) | (J == nz - 1), _GHOST_NEAR / hz2, 2.0 / hz2)
    put(rid, rid, 2.0 / hx2 + diag_z)
    m = I - 1 >= 1
    put(rid[m], (I[m] - 2) * nz + J[m], np.full(m.sum(), -1.0 / hx2))
    m = I + 1 <= nx - 1
    put(rid[m], I[m] * nz + J[m], np.full(m.sum(), -1.0 / hx2))
    m = J - 1 >= 0
    cdn = np.where(J == nz - 1, _GHOST_FAR / hz2, 1.0 / hz2)
    put(rid[m], (I[m] - 1) * nz + J[m] - 1, -cdn[m])
    m = J + 1 <= nz - 1
    cup = np.where(J == 0, _GHOST_FAR / hz2, 1.0 / hz2)
    put(rid[m], (I[m] - 1) * nz + J[m] + 1, -cup[m])
    pid = nu1 + nu2 + I * nz + J
    put(rid, pid, np.full(rid.size, 1.0 / hx))
    put(rid, nu1 + nu2 + (I - 1) * nz + J, np.full(rid.size, -1.0 / hx))

    # z-momentum at interior z-faces j=1..nz-1
    I, J = np.meshgrid(np.arange(nx), np.arange(1, nz), indexing="ij")
    rid = nu1 + I * (nz - 1) + (J - 1)
    diag_x = np.where((I == 0) | (I == nx - 1), _GHOST_NEAR / hx2, 2.0 / hx2)
    put(rid, rid, 2.0 / hz2 + diag_x)
    m = J - 1 >= 1
    put(rid[m], nu1 + I[m] * (nz - 1) + (J[m] - 2), np.full(m.sum(), -1.0 / hz2))
    m = J + 1 <= nz - 1
    put(rid[m], nu1 + I[m] * (nz - 1) + J[m], np.full(m.sum(), -1.0 / hz2))
    m = I - 1 >= 0
    cdn = np.where(I == nx - 1, _GHOST_FAR / hx2, 1.0 / hx2)
    put(rid[m], nu1 + (I[m] - 1) * (nz - 1) + (J[m] - 1), -cdn[m])
    m = I + 1 <= nx - 1
    cup = np.where(I == 0, _GHOST_FAR / hx2, 1.0 / hx2)
    put(rid[m], nu1 + (I[m] + 1) * (nz - 1) + (J[m] - 1), -cup[m])
    put(rid, nu1 + nu2 + I * nz + J, np.full(rid.size, 1.0 / hz))
    put(rid, nu1 + nu2 + I * nz + J - 1, np.full(rid.size, -1.0 / hz))

    # continuity at cells (1, 0) onward; cell (0, 0) carries the pin p = 0
    I, J = np.meshgrid(np.arange(nx), np.arange(nz), indexing="ij")
    I, J = I.ravel()[1:], J.ravel()[1:]
    rid = nu1 + nu2 + I * nz + J
    m = I + 1 <= nx - 1
    put(rid[m], I[m] * nz + J[m], np.full(m.sum(), 1.0 / hx))
    m = I >= 1
    put(rid[m], (I[m] - 1) * nz + J[m], np.full(m.sum(), -1.0 / hx))
    m = J + 1 <= nz - 1
    put(rid[m], nu1 + I[m] * (nz - 1) + J[m], np.full(m.sum(), 1.0 / hz))
    m = J >= 1
    put(rid[m], nu1 + I[m] * (nz - 1) + (J[m] - 1), np.full(m.sum(), -1.0 / hz))
    put(nu1 + nu2, nu1 + nu2, 1.0)

    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    return scipy.sparse.linalg.splu(A)


@functools.lru_cache(maxsize=4)
def _rect_solver(grid: GridSpec):
    """(factorization, L+U nonzeros) of the rectangle system, per grid."""
    lu = _assemble_rect(grid)
    return lu, lu.L.nnz + lu.U.nnz


def solve_stokes_bounded(f: Forcing, config: StokesConfig | None = None) -> StokesSolution:
    """No-slip Stokes solve on the rectangle; mean pressure pinned to zero."""
    config = config or StokesConfig()
    if f.domain.periodic:
        raise ValueError("solve_stokes_bounded expects a rectangle forcing")
    grid, dom = f.grid, f.domain
    nx, nz = grid.nx, grid.nz
    nu1, nu2, ncells = _rect_ids(grid)
    rhs = np.concatenate([
        f.f1[1:-1, :].ravel(),
        f.f2[:, 1:-1].ravel(),
        np.zeros(ncells),
    ])
    try:
        lu, lu_nnz = _rect_solver(grid)
        sol = lu.solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise StokesSolveError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise StokesSolveError("direct solve produced non-finite values")

    a1 = np.zeros((nx + 1, nz))
    a1[1:-1, :] = sol[:nu1].reshape(nx - 1, nz)
    a2 = np.zeros((nx, nz + 1))
    a2[:, 1:-1] = sol[nu1:nu1 + nu2].reshape(nx, nz - 1)
    pv = sol[nu1 + nu2:].reshape(nx, nz)
    pv = pv - pv.mean()
    u = VelocityField.from_arrays(grid, dom, a1, a2, enforce_walls=False)
    p = ScalarField(grid, dom, pv, CENTER)
    res = momentum_residual(u, p, f)
    _check_solution(res, u, f, config)
    return StokesSolution(u=u, p=p, residual_norm=res, flux=None,
                          stats={"solver": "sparse-lu", "lu_nnz": lu_nnz,
                                 "unknowns": nu1 + nu2 + ncells})


def _check_solution(res, u, f, config):
    scale = max(1.0, float(np.max(np.abs(f.f1))), float(np.max(np.abs(f.f2))))
    tol = 10.0 * config.linear_solver_tolerance * scale
    if res > tol:
        raise StokesSolveError(
            f"momentum residual {res:.3e} exceeds {tol:.3e}", residual=res)
    dmax = float(np.max(np.abs(divergence(u))))
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
    hz2 = hz * hz

    # z-Laplacian of u1 with quadratic wall ghosts, as a dense (nz, nz) block
    L1 = (2.0 * np.eye(nz) - np.eye(nz, k=1) - np.eye(nz, k=-1)) / hz2
    L1[[0, -1], [0, -1]] = _GHOST_NEAR / hz2
    L1[[0, -1], [1, -2]] = -_GHOST_FAR / hz2

    # zero mode: unknowns (u1 profile, pressure slope); closed by the flux row
    m0 = np.zeros((nz + 1, nz + 1))
    m0[:nz, :nz] = L1
    m0[:nz, nz] = 1.0
    m0[nz, :nz] = hz
    m0_lu = scipy.linalg.lu_factor(m0)

    # Nonzero modes share one pattern in z.  Each part is (rows, cols, kind,
    # base) with kind 0 base, 1 kap2 + base, 2 d (cells -> x-faces), 3 ddiv
    # (x-faces -> cells); u2[j] is the z-face j, an unknown for j >= 1.
    j = np.arange(nz)
    u1, u2, pc = j, nz - 1 + j, 2 * nz - 1 + j
    parts = [  # x-momentum, z-momentum, then continuity rows
        (u1, u1, 1, np.diag(L1)), (u1[1:], u1[:-1], 0, np.diag(L1, -1)),
        (u1[:-1], u1[1:], 0, np.diag(L1, 1)), (u1, pc, 2, 0.0),
        (u2[1:], u2[1:], 1, 2.0 / hz2), (u2[2:], u2[1:-1], 0, -1.0 / hz2),
        (u2[1:-1], u2[2:], 0, -1.0 / hz2), (u2[1:], pc[1:], 0, 1.0 / hz),
        (u2[1:], pc[:-1], 0, -1.0 / hz), (pc, u1, 3, 0.0),
        (pc[:-1], u2[1:], 0, 1.0 / hz), (pc[1:], u2[1:], 0, -1.0 / hz),
    ]
    rows, cols, kind, base = (np.concatenate(a) for a in zip(*(
        (r, c, np.full(r.size, k), np.broadcast_to(b, r.shape)) for r, c, k, b in parts)))
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
    grid, dom = f.grid, f.domain
    nx, nz = grid.nx, grid.nz
    hz = grid.hz
    fac = _strip_factor(grid)

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

    a1 = np.fft.irfft(u1hat, n=nx, axis=0)
    a2 = np.zeros((nx, nz + 1))
    a2[:, 1:-1] = np.fft.irfft(u2hat, n=nx, axis=0)
    pv = np.fft.irfft(phat, n=nx, axis=0)
    pv = pv - pv.mean()
    if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2)) and np.all(np.isfinite(pv))):
        raise StokesSolveError("spectral solve produced non-finite values")

    u = VelocityField.from_arrays(grid, dom, a1, a2, enforce_walls=False)
    p = ScalarField(grid, dom, pv, CENTER)
    res = momentum_residual(u, p, f, pressure_slope=slope)
    _check_solution(res, u, f, config)
    fluxes = flux_profile(u)
    return StokesSolution(u=u, p=p, residual_norm=res, flux=float(fluxes[0]),
                          pressure_slope=slope,
                          stats={"solver": "fft-lu", "modes": nmode,
                                 "lu_nnz": fac["lu_nnz"]})


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
    fluxes = flux_profile(u)
    return StokesSolution(u=u, p=p, residual_norm=res, flux=float(fluxes[0]),
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
