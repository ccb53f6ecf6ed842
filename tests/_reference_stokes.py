"""The strip Stokes solve as it was before the nonzero modes were batched.

One ``splu`` object per nonzero Fourier mode, each solved in a Python loop;
kept verbatim (apart from the imports it needs) as the oracle that
``tests/test_stokes.py`` compares the block-diagonal factor against.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from stokestransport.domain import CENTER, Forcing, GridSpec, ScalarField, VelocityField
from stokestransport.stokes import (
    _GHOST_FAR,
    _GHOST_NEAR,
    StokesConfig,
    StokesSolution,
    StokesSolveError,
    _check_solution,
    flux_profile,
    momentum_residual,
)


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
