"""The Stokes operators and solves as they were before the transform solvers.

Kept verbatim (apart from the imports they need) as oracles:

* the hand-written residual stencils and their ``momentum_residual``,
  which ``tests/test_stokes.py`` compares ``_mac``'s slice stencils and
  the package's residual with;
* ``_assemble_rect``, the COO index arithmetic of the rectangle saddle
  matrix with the pressure of cell (0, 0) pinned, and ``solve_stokes_bounded``,
  the SuperLU solve of that matrix that the transform-and-capacitance
  rectangle solver replaced, here with one step of iterative refinement;
* the per-mode ``_strip_factor`` and ``solve_stokes_strip``: one ``splu``
  object per nonzero Fourier mode, each solved in a Python loop, which the
  strip's transform-and-capacitance solver replaced.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from stokestransport.domain import (
    CENTER,
    DomainSpec,
    Forcing,
    GridSpec,
    ScalarField,
    VelocityField,
)
from stokestransport.stokes import (
    StokesConfig,
    StokesSolution,
    StokesSolveError,
    _check_solution,
    _finish,
    flux_profile,
)


# ---------------------------------------------------------------------------
# residual stencils, the rectangle's COO assembly and its SuperLU solve
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
    return A


@functools.lru_cache(maxsize=4)
def _rect_solver(grid: GridSpec):
    A = _assemble_rect(grid)
    return A, scipy.sparse.linalg.splu(A)


def solve_stokes_bounded(f: Forcing, config: StokesConfig | None = None) -> StokesSolution:
    """No-slip Stokes solve on the rectangle by one sparse LU of the saddle matrix.

    The LU solve is backward stable, so its velocity error scales with the
    forcing: a nearly hydrostatic forcing leaves a velocity four orders
    smaller, which it gets to only about 1e-10 relative.  One refinement
    step against the assembled matrix brings that to round-off.
    """
    config = config or StokesConfig()
    nx, nz = f.grid.nx, f.grid.nz
    nu1, nu2 = (nx - 1) * nz, nx * (nz - 1)
    rhs = np.concatenate([f.f1[1:-1, :].ravel(), f.f2[:, 1:-1].ravel(), np.zeros(nx * nz)])
    A, lu = _rect_solver(f.grid)
    sol = lu.solve(rhs)
    sol += lu.solve(rhs - A @ sol)
    a1 = np.zeros((nx + 1, nz))
    a1[1:-1, :] = sol[:nu1].reshape(nx - 1, nz)
    return _finish(f, config, a1, sol[nu1:nu1 + nu2].reshape(nx, nz - 1),
                   sol[nu1 + nu2:].reshape(nx, nz), 0.0, {"solver": "sparse-lu"})


# ---------------------------------------------------------------------------
# strip: one splu per nonzero Fourier mode
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _strip_factor(grid: GridSpec):
    nx, nz = grid.nx, grid.nz
    hx, hz = grid.hx, grid.hz
    hz2 = hz * hz

    # z-Laplacian of u1 with quadratic wall ghosts, as a dense (nz, nz) block
    L1 = np.zeros((nz, nz))
    for j in range(nz):
        if j in (0, nz - 1):
            L1[j, j] = _GHOST_NEAR / hz2
            L1[j, 1 if j == 0 else nz - 2] = -_GHOST_FAR / hz2
        else:
            L1[j, j] = 2.0 / hz2
            L1[j, j - 1] = -1.0 / hz2
            L1[j, j + 1] = -1.0 / hz2

    # zero mode: unknowns (u1 profile, pressure slope); closed by the flux row
    m0 = np.zeros((nz + 1, nz + 1))
    m0[:nz, :nz] = L1
    m0[:nz, nz] = 1.0
    m0[nz, :nz] = hz
    m0_lu = scipy.linalg.lu_factor(m0)

    nmode = nx // 2 + 1
    n = 3 * nz - 1
    factors = [None]
    for m in range(1, nmode):
        theta = 2.0 * np.pi * m / nx
        kap2 = (2.0 - 2.0 * np.cos(theta)) / (hx * hx)
        d = (1.0 - np.exp(-1j * theta)) / hx          # cells -> x-faces
        ddiv = (np.exp(1j * theta) - 1.0) / hx        # x-faces -> cells
        rows, cols, vals = [], [], []

        def put(r, c, v):
            rows.append(r)
            cols.append(c)
            vals.append(v)

        iu1 = lambda j: j
        iu2 = lambda j: nz + (j - 1)
        ip = lambda j: 2 * nz - 1 + j
        for j in range(nz):
            put(iu1(j), iu1(j), kap2 + L1[j, j])
            if j > 0:
                put(iu1(j), iu1(j - 1), L1[j, j - 1])
            if j < nz - 1:
                put(iu1(j), iu1(j + 1), L1[j, j + 1])
            put(iu1(j), ip(j), d)
        for j in range(1, nz):
            put(iu2(j), iu2(j), kap2 + 2.0 / hz2)
            if j - 1 >= 1:
                put(iu2(j), iu2(j - 1), -1.0 / hz2)
            if j + 1 <= nz - 1:
                put(iu2(j), iu2(j + 1), -1.0 / hz2)
            put(iu2(j), ip(j), 1.0 / hz)
            put(iu2(j), ip(j - 1), -1.0 / hz)
        for j in range(nz):
            put(ip(j), iu1(j), ddiv)
            if j + 1 <= nz - 1:
                put(ip(j), iu2(j + 1), 1.0 / hz)
            if j >= 1:
                put(ip(j), iu2(j), -1.0 / hz)
        A = scipy.sparse.coo_matrix((np.array(vals, dtype=complex),
                                     (np.array(rows), np.array(cols))),
                                    shape=(n, n)).tocsc()
        factors.append(scipy.sparse.linalg.splu(A))

    return {"m0": m0_lu, "modes": factors}


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

    n = 3 * nz - 1
    for m in range(1, nmode):
        rhs = np.empty(n, dtype=complex)
        rhs[:nz] = f1hat[m]
        rhs[nz:2 * nz - 1] = f2hat[m]
        rhs[2 * nz - 1:] = 0.0
        sol = fac["modes"][m].solve(rhs)
        u1hat[m, :] = sol[:nz]
        u2hat[m, :] = sol[nz:2 * nz - 1]
        phat[m, :] = sol[2 * nz - 1:]

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
                          stats={"solver": "fft-lu", "modes": nmode})
