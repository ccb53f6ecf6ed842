"""Steady Stokes solvers on the MAC grid.

The MAC operator is defined once, as ``_mac``'s slice stencils, whose
docstring holds the discretization notes: the residual gate applies them,
and the tests pin the transform symbols and wall rows below to them.
Every transform is a numpy FFT; the sine and cosine transforms come from
``_transforms``.  Both solvers end in one finisher, ``_finish``, which
pads the wall rows, centres the pressure, rejects non-finite output,
applies the residual and divergence gate and builds the ``StokesSolution``.

Both domains are solved by fast diagonalization (Lynch, Rice & Thomas
1964) with a capacitance correction (Buzbee, Golub & Nielson 1970).  With
free-slip walls (tangential ghost = first sample) every MAC factor is
diagonal in a Fourier, sine or cosine basis: along a walled axis the
tangential velocity and p are orthonormal DCT-II and the normal velocity is
DST-I, with symbol g(k) = -2 sin(pi k / 2n) / h; along the strip's periodic
x axis an rfft, with symbol gx = (1 - exp(-i theta)) / hx, whose divergence
is -conj(gx).  With lam = |gx|^2 + gz^2, mode (k, l) then solves in closed
form: p = (conj(gx) f1 + gz f2) / lam, u1 = (f1 - gx p) / lam,
u2 = (f2 - gz p) / lam.  No-slip differs from free-slip only in the
wall-adjacent tangential rows (+3/h^2 on the diagonal, -1/(3h^2) on the
neighbour, from ``_mac``'s quadratic ghost), a low-rank change that a
capacitance matrix of those rows undoes.  A solve is one forward transform,
the wall defect of the free-slip answer, the capacitance solve, a low-rank
change of the transformed forcing, and one inverse transform per field.  On
the strip the z transforms act on real samples, before the x rfft and after
the x irfft, so one irfft inverts all three fields.

On the rectangle the u1 rows at the z walls and the u2 rows at the x walls
form two wall families, two rows per sine mode along their walls.  In the
sum and difference of a mode's two walls the box's two reflections make
each family's own capacitance diagonal and split the coupling between the
families into four symmetry classes (mode parity times sum | difference),
each a diagonal times a strided block of the free-slip response times a
diagonal.  The larger family is eliminated by its diagonal; each class's
Schur complement on the smaller family, about (min(nx, nz) - 1) / 2 rows,
is inverted once per grid, and a solve is four small mat-vecs each way.
The constant mode (0, 0) is 0, which fixes the pressure mean without a pin.
On the strip each wavenumber, zero included, keeps its own two u1 wall
rows.  In the walls' sum and difference, as on the rectangle, their
capacitance is diagonal, one number per (sum | difference, wavenumber), and
a solve applies its inverse, the wall defect and the rank-2 change of f1 by
broadcast products, so that a strip run calls no BLAS or LAPACK routine.
At the zero wavenumber gx = 0 and the constant u1 mode is free: it is set
to the prescribed volume flux in both free-slip passes, the constant part
of the wall-corrected f1 is balanced by a linear pressure slope in x,
stored separately from the periodic pressure samples (f = e_x gives u = 0
and slope 1), and u2 is 0, as continuity and the walls force.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np
from numpy.fft import irfft, rfft
from numpy.linalg import LinAlgError

from . import _mac
from ._transforms import dct, dst1, idct
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
    "momentum_residual",
]


class StokesSolveError(RuntimeError):
    """Raised when the linear solve fails to reach the requested residual."""


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
    g, periodic = u.grid, u.domain.periodic
    inner = slice(None) if periodic else slice(1, -1)
    a1, a2, pv = u.u1.values[inner], u.u2.values[:, 1:-1], p.values
    # x-momentum is reduced before z-momentum; each sums its terms in r
    r, t = np.empty(a1.shape), np.empty(a1.shape)
    _mac.second_difference(a1, g.hx, "periodic" if periodic else "faces", 0, r)
    r += _mac.second_difference(a1, g.hz, "centers", 1, t)
    r += _mac.gradient(pv, g.hx, periodic, 0, t)
    r += pressure_slope
    if f is not None:
        r -= f.f1[inner]
    res = max(r.max(), -r.min())
    r, t = np.empty(a2.shape), np.empty(a2.shape)
    _mac.second_difference(a2, g.hx, "periodic" if periodic else "centers", 0, r)
    r += _mac.second_difference(a2, g.hz, "faces", 1, t)
    r += _mac.gradient(pv, g.hz, False, 1, t)
    if f is not None:
        r -= f.f2[:, 1:-1]
    return float(max(res, r.max(), -r.min()))


def flux_profile(u: VelocityField) -> np.ndarray:
    """Per-column midpoint quadrature of int_0^1 u1 dz, one value per x-face."""
    return u.grid.hz * u.u1.values.sum(axis=1)


# ---------------------------------------------------------------------------
# rectangle: free-slip modes by fast transforms, no-slip walls by capacitance
# ---------------------------------------------------------------------------

def _symbol(n: int, h: float) -> np.ndarray:
    """The gradient symbol g[k] = -2 sin(pi k / 2n) / h of a walled axis of n cells."""
    return -2.0 * np.sin(np.pi * np.arange(n) / (2 * n)) / h


def _wall_rows(n: int, h: float) -> np.ndarray:
    """The first and last row of ``-d2`` on n walled cell centers minus their free-slip rows."""
    h2 = h * h
    near, far, one = _mac.GHOST_NEAR / h2, _mac.GHOST_FAR / h2, 1.0 / h2
    rows = np.zeros((2, n))
    rows[0, :2] = near - one, one - far
    rows[1, -2:] = one - far, near - one
    return rows


def _wall_modes(n: int, h: float):
    """(q, r) in the walls' sum (row 0) and difference (row 1): the DCT-II of
    (a unit in the first cell +- one in the last) / sqrt(2), and of (the first
    +- the last row of ``_wall_rows``) / sqrt(2).  The walls mirror each other,
    so the sum lives on the even modes and the difference on the odd ones."""
    units, rows = np.zeros((2, n)), _wall_rows(n, h)
    units[:, 0], units[:, -1] = 1.0, (1.0, -1.0)
    return (dct(units / np.sqrt(2.0), axis=1),
            dct(np.stack((rows[0] + rows[1], rows[0] - rows[1])) / np.sqrt(2.0), axis=1))


class _RectFactor(NamedTuple):
    gx: np.ndarray      # (nx, 1) gradient symbol
    gz: np.ndarray      # (1, nz)
    inv: np.ndarray     # 1 / (gx^2 + gz^2), 0 for the constant mode
    qx: np.ndarray      # (2, nx) the x walls' units in DCT-II, by _wall_modes
    qz: np.ndarray      # (2, nz)
    rx: np.ndarray      # (2, nx) the x wall-row corrections in DCT-II, by _wall_modes
    rz: np.ndarray      # (2, nz)
    elim: int           # the larger wall family, eliminated per mode: 0 u1, 1 u2
    cap: np.ndarray     # (m, 2) its inverse capacitance per (mode, sum | difference)
    classes: tuple      # per symmetry class: the eliminated and the kept family's
                        # rows (slice, sum | difference), cap times the kept family's pull
                        # on the other (across), the reverse pull (back) and the
                        # inverse Schur block


@functools.lru_cache(maxsize=4)
def _rect_factor(grid: GridSpec) -> _RectFactor:
    """Mode symbols and the inverted wall capacitance of the rectangle.

    The capacitance I + V^T A_free^-1 U acts on wall forces in DST-I modes
    along each wall, a pair of walls per mode: I + r diag(w) q per mode within
    a family, as on the strip, and w12 * q * r entrywise across the families.
    In the walls' sum and difference of ``_wall_modes`` q and r keep only the
    sum at an even mode and the difference at an odd one, so within a family
    the capacitance is diagonal.  Across the families the u1 rows of the x
    modes of parity a, on the walls' sum (b = 0) or difference (b = 1),
    couple only to the u2 rows of the z modes of parity b, on the sum (a = 0)
    or difference (a = 1).  Each of these four symmetry classes keeps its
    coupling both ways, diag(q) w12[modes a, modes b] diag(r), and the
    inverse of its Schur complement on the smaller family.
    """
    gx, gz = _symbol(grid.nx, grid.hx)[:, None], _symbol(grid.nz, grid.hz)[None, :]
    lam = gx * gx + gz * gz
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    q, r = zip(_wall_modes(grid.nx, grid.hx), _wall_modes(grid.nz, grid.hz))
    inv2 = inv * inv
    # each family's own capacitance, I + r diag(w) q per mode along the other axis
    own = [1.0 + (gz * gz * inv2)[1:] @ (r[1] * q[1]).T,
           1.0 + (gx * gx * inv2).T[1:] @ (r[0] * q[0]).T]
    e, k = int(grid.nz > grid.nx), int(grid.nz <= grid.nx)  # eliminated, kept
    cap, w12, classes = 1.0 / own[e], (-gx * gz * inv2)[1:, 1:], []
    for par in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # family f's sine modes of parity par[f]: their q and r live in the
        # sum | difference par[f], and their rows in the class in par[1 - f]
        modes = [slice(1 - p, None, 2) for p in par]
        rows = [(modes[0], par[1]), (modes[1], par[0])]
        qm, rm = ([a[f][par[f], 1:][modes[f]] for f in (0, 1)] for a in (q, r))
        w = w12[modes[0], modes[1]]
        # pull[f]: the other family's wall forces on family f's rows
        pull = [qm[0][:, None] * w * rm[1], qm[1][:, None] * w.T * rm[0]]
        across = pull[e] * cap[rows[e]][:, None]
        schur = np.linalg.inv(np.diag(own[k][rows[k]]) - pull[k] @ across)
        classes.append((rows[e], rows[k], across, pull[k], schur))
    return _RectFactor(gx, gz, inv, *q, *r, e, cap, tuple(classes))


def _free_slip(fac: _RectFactor | _StripFactor, f1, f2, out=None):
    """Per-mode free-slip solve on coefficient arrays of either domain, as one
    stack (u1, u2, p), written to ``out`` when given.

    The divergence symbol is -conj(gx): gx is real on the rectangle and
    complex on the strip.  Column 0 of f2 and u2 is padding, as is row 0 of
    f1 and u1 on the rectangle: sine mode 0 does not exist.
    """
    # the operations of (conj(gx) f1 + gz f2) inv, (f1 - gx p) inv and
    # (f2 - gz p) inv in their order, so the results are bit for bit the same,
    # written into one stack so that an inverse transform can take several
    if out is None:
        out = np.empty((3, *f1.shape), dtype=np.result_type(f1, fac.gx))
    u1, u2, p = out
    np.multiply(np.conj(fac.gx), f1, out=p)
    p += fac.gz * f2
    p *= fac.inv
    np.multiply(fac.gx, p, out=u1)
    np.subtract(f1, u1, out=u1)
    u1 *= fac.inv
    np.multiply(fac.gz, p, out=u2)
    np.subtract(f2, u2, out=u2)
    u2 *= fac.inv
    return out


def solve_stokes_bounded(f: Forcing, config: StokesConfig | None = None) -> StokesSolution:
    """No-slip Stokes solve on the rectangle with zero-mean pressure."""
    config = config or StokesConfig()
    if f.domain.periodic:
        raise ValueError("solve_stokes_bounded expects a rectangle forcing")
    if config.flux_target != 0.0:
        raise ValueError("a closed rectangle carries no net flux; flux_target must be 0")
    nx, nz = f.grid.nx, f.grid.nz
    fac = _rect_factor(f.grid)
    f1, f2 = np.zeros((nx, nz)), np.zeros((nx, nz))
    if f.f1.any():  # a buoyancy forcing's f1 is 0, and so are its transforms
        dst1(dct(f.f1[1:-1], axis=1), axis=0, out=f1[1:])
    dct(dst1(f.f2[:, 1:-1], axis=1), axis=0, out=f2[:, 1:])
    # free-slip solve, its no-slip defect per (wall mode, sum | difference), the
    # wall forces that cancel it, class by class, and the corrected solve
    modes = _free_slip(fac, f1, f2)
    d = [(fac.rz @ modes[0, 1:].T).T, (fac.rx @ modes[1, :, 1:]).T]
    e, k = fac.elim, 1 - fac.elim
    d[e] *= fac.cap
    for ie, ik, across, back, schur in fac.classes:
        d[k][ik] = schur @ (d[k][ik] - back @ d[e][ie])
        d[e][ie] -= across @ d[k][ik]
    f1[1:] -= d[0] @ fac.qz
    f2[:, 1:] -= fac.qx.T @ d[1].T
    u1, u2, p = _free_slip(fac, f1, f2, modes)
    # the inverses run in place, u1 and p sharing the z inverse and u2 and p
    # the x inverse; row 0 of u1 and column 0 of u2 are padding and stay 0
    idct(modes[0::2], axis=-1, out=modes[0::2])
    dst1(u2[:, 1:], axis=1, out=u2[:, 1:])
    idct(modes[1:], axis=1, out=modes[1:])
    a1 = np.zeros((nx + 1, nz))
    dst1(u1[1:], axis=0, out=a1[1:-1])
    return _finish(f, config, a1, u2[:, 1:], p, 0.0,
                   {"solver": "transform-capacitance", "capacitance": 2 * (nx + nz - 2),
                    "unknowns": (nx - 1) * nz + nx * (nz - 1) + nx * nz})


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


def _gate_tolerance(f: Forcing, config: StokesConfig) -> float:
    """The residual and divergence gate's tolerance for a solve of ``f``.

    The solution scales with the forcing on the rows that the solve and
    ``momentum_residual`` read, not the wall rows, and the flux-driven
    profile and its pressure slope are O(flux_target); zero data is solved
    exactly.
    """
    inner = slice(None) if f.domain.periodic else slice(1, -1)
    scale = max(float(np.max(np.abs(f.f1[inner]))), float(np.max(np.abs(f.f2[:, 1:-1]))),
                abs(config.flux_target))
    return 10.0 * config.linear_solver_tolerance * scale


def _check_solution(res, u, f, config):
    tol = _gate_tolerance(f, config)
    if res > tol:
        raise StokesSolveError(f"momentum residual {res:.3e} exceeds {tol:.3e}")
    dmax = max_divergence(u)
    if dmax > tol:
        raise StokesSolveError(f"discrete divergence {dmax:.3e} exceeds {tol:.3e}")


# ---------------------------------------------------------------------------
# strip: FFT in x, then the rectangle's z transforms and wall basis
# ---------------------------------------------------------------------------

class _StripFactor(NamedTuple):
    gx: np.ndarray   # (nx // 2 + 1, 1) gradient symbol, 0 at the zero wavenumber
    gz: np.ndarray   # (1, nz)
    inv: np.ndarray  # 1 / (|gx|^2 + gz^2), 0 for the constant mode
    qz: np.ndarray   # (2, nz) the z walls' units in DCT-II, by _wall_modes
    rz: np.ndarray   # (2, nz) the u1 wall-row corrections in DCT-II, by _wall_modes
    cap: np.ndarray  # (2, nx // 2 + 1) inverse capacitance per (sum | difference,
                     # wavenumber)


@functools.lru_cache(maxsize=4)
def _strip_factor(grid: GridSpec) -> _StripFactor:
    """Mode symbols and wall capacitances of the strip.

    A wavenumber's no-slip operator is its free-slip one plus the two u1
    wall rows.  The free-slip u1 response to an f1 mode is gz^2 / lam^2, so
    the capacitance of those rows is I + rz diag(gz^2 / lam^2) qz^T; the
    constant mode of the zero wavenumber is prescribed, so it responds with 0.
    In the walls' sum and difference it is diagonal, as on the rectangle; a
    zero or non-finite diagonal entry is a singular factor.
    """
    nx, nz = grid.nx, grid.nz
    theta = 2.0 * np.pi * np.arange(nx // 2 + 1) / nx
    gx, gz = ((1.0 - np.exp(-1j * theta)) / grid.hx)[:, None], _symbol(nz, grid.hz)[None, :]
    lam = np.abs(gx) ** 2 + gz * gz
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0.0)
    qz, rz = _wall_modes(nz, grid.hz)
    w = gz * gz * inv * inv
    own = 1.0 + np.array([(w * (r * q)).sum(axis=1) for q, r in zip(qz, rz)])
    if not np.all(np.isfinite(own) & (own != 0.0)):
        raise LinAlgError("singular strip wall capacitance")
    return _StripFactor(gx, gz, inv, qz, rz, 1.0 / own)


def solve_stokes_strip(f: Forcing, config: StokesConfig | None = None) -> StokesSolution:
    """Periodic-in-x Stokes solve with prescribed volume flux (default zero)."""
    config = config or StokesConfig()
    if not f.domain.periodic:
        raise ValueError("solve_stokes_strip expects a strip forcing")
    nx, nz = f.grid.nx, f.grid.nz
    fac = _strip_factor(f.grid)
    # rfft coefficients are unnormalized: the zero wavenumber holds the sum of
    # nx columns, each of flux hz sqrt(nz) times its constant DCT-II mode
    flux_mode = config.flux_target * nx / (f.grid.hz * np.sqrt(nz))

    f1 = np.zeros((nx // 2 + 1, nz), dtype=complex)
    if f.f1.any():  # a buoyancy forcing's f1 is 0, and so are its transforms
        f1 = rfft(dct(f.f1, axis=1), axis=0)
    f2 = np.zeros((nx, nz))
    dst1(f.f2[:, 1:-1], axis=1, out=f2[:, 1:])
    f2 = rfft(f2, axis=0)
    # free-slip solve, the defect of its u1 wall rows, the wall forces that
    # cancel it, and the corrected solve; the flux mode is set in both
    modes = _free_slip(fac, f1, f2)
    modes[0, 0, 0] = flux_mode
    v = np.array([(modes[0] * r).sum(axis=1) for r in fac.rz])
    c = fac.cap * v
    f1 -= c[0][:, None] * fac.qz[0] + c[1][:, None] * fac.qz[1]
    _free_slip(fac, f1, f2, modes)
    # continuity and the walls force the x-mean of u2 to 0
    modes[0, 0, 0], modes[1, 0] = flux_mode, 0.0
    # the constant part of the corrected f1 is balanced by the pressure slope
    slope = float(f1[0, 0].real) / (np.sqrt(nz) * nx)
    fields = irfft(modes, n=nx, axis=1)
    del modes, f1, f2  # the z inverses below then reuse their memory
    u1, u2, p = fields
    idct(fields[0::2], axis=-1, out=fields[0::2])
    dst1(u2[:, 1:], axis=1, out=u2[:, 1:])
    return _finish(f, config, u1, u2[:, 1:], p, slope,
                   {"solver": "fft-transform-capacitance", "modes": nx // 2 + 1})


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
    return StokesSolution(u=u, p=p, residual_norm=res,
                          flux=float(flux_profile(u)[0]), pressure_slope=slope,
                          stats={"solver": "closed-form"})
