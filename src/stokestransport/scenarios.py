"""Initial-density presets for simulations and tests.

Presets that claim an exact discrete maximum principle are built with
flat plateaus around both extremes: the density is constant on full grid
rows (or a disk core) near its max and min, perturbations vanish there,
and the walls sit inside the plateaus.  Backward characteristics starting
near an extremum then land where the field is locally constant, so
bilinear sampling reproduces the extreme values exactly instead of
shaving them by an interpolation error.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .domain import DomainSpec, GridSpec, ScalarField, x_centers, z_centers
from .norms import smoothstep

__all__ = ["SCENARIOS", "make_density"]


def constant(grid: GridSpec, domain: DomainSpec, value: float = 1.0) -> ScalarField:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("constant scenario needs a finite value")
    return ScalarField(grid, domain, np.full((grid.nx, grid.nz), value))


def _stratified_profile(zs, lower: float, upper: float, plateau: float):
    ramp = smoothstep((zs - plateau) / (1.0 - 2.0 * plateau))
    return lower + (upper - lower) * ramp


def stratified(grid: GridSpec, domain: DomainSpec, lower: float = 1.0,
               upper: float = 0.0, plateau: float = 0.1) -> ScalarField:
    """Horizontally uniform profile, constant near both walls."""
    if not (0.0 < plateau < 0.5):
        raise ValueError("plateau must lie in (0, 0.5)")
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise ValueError("stratified scenario needs finite levels")
    xs, zs = x_centers(grid)[:, None], z_centers(grid)[None, :]
    vals = (_stratified_profile(zs, float(lower), float(upper), float(plateau))
            * np.ones_like(xs))
    return ScalarField(grid, domain, vals)


def _bump(zs):
    # supported in [0.25, 0.75]: clear of the stratified plateaus
    return smoothstep((zs - 0.25) / 0.1) * smoothstep((0.75 - zs) / 0.1)


def stratified_perturbed(grid: GridSpec, domain: DomainSpec, lower: float = 1.0,
                         upper: float = 0.0, plateau: float = 0.1,
                         eps: float = 0.02, mode: int = 1) -> ScalarField:
    """Stable-ish stratification with a sinusoidal interior perturbation.

    eps is capped so the perturbed values stay strictly between the two
    plateau levels; the extremes of the field remain the plateau values.
    """
    span = abs(float(lower) - float(upper))
    eps = float(eps)
    mode = int(mode)
    if not (0.0 < plateau <= 0.15):
        raise ValueError("plateau must lie in (0, 0.15] to clear the bump")
    if mode < 1:
        raise ValueError("mode must be a positive integer")
    if not (0.0 <= eps <= 0.08 * span):
        raise ValueError(
            f"eps must lie in [0, {0.08 * span:.3g}] so the perturbation "
            "cannot create new extrema")
    xs, zs = x_centers(grid)[:, None], z_centers(grid)[None, :]
    base = _stratified_profile(zs, float(lower), float(upper), float(plateau))
    wig = eps * np.cos(2.0 * np.pi * mode * xs / domain.x_extent) * _bump(zs)
    return ScalarField(grid, domain, base + wig * np.ones_like(base))


def patch(grid: GridSpec, domain: DomainSpec, cx: float | None = None,
          cz: float = 0.7, r_inner: float = 0.12, r_outer: float = 0.25,
          background: float = 0.0, delta: float = 1.0) -> ScalarField:
    """A heavy (or light) disk with a flat core over a flat background."""
    if not (0.0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    if r_outer >= 0.5 * min(1.0, domain.x_extent):
        raise ValueError("patch does not fit the domain")
    if cz - r_outer < 0.0 or cz + r_outer > 1.0:
        raise ValueError("patch must clear both walls")
    if cx is None:
        cx = 0.5 * domain.x_extent
    # |x - cx| <= x_extent + |cx|, whose square must not overflow below
    reach = domain.x_extent + abs(float(cx))
    if not reach * reach < math.inf:
        raise ValueError(
            f"patch distances do not square to finite values: x_extent + |cx| = {reach:.3g}")
    xs, zs = x_centers(grid)[:, None], z_centers(grid)[None, :]
    dx = xs - float(cx)
    if domain.periodic:
        L = domain.x_extent
        dx = dx - L * np.round(dx / L)
    d = np.sqrt(dx ** 2 + (zs - float(cz)) ** 2)
    if not np.any(d < r_outer):
        raise ValueError("the grid does not resolve the patch: no cell centre lies within r_outer")
    core = 1.0 - smoothstep((d - r_inner) / (r_outer - r_inner))
    return ScalarField(grid, domain, float(background) + float(delta) * core)


def checker(grid: GridSpec, domain: DomainSpec, kx: int = 1, kz: int = 1,
            amplitude: float = 1.0) -> ScalarField:
    """Smooth sign-alternating cells; extrema are isolated points."""
    kx, kz = int(kx), int(kz)
    if kx < 1 or kz < 1:
        raise ValueError("wavenumbers must be positive")
    xs, zs = x_centers(grid)[:, None], z_centers(grid)[None, :]
    vals = (float(amplitude) * np.sin(2.0 * np.pi * kx * xs / domain.x_extent)
            * np.sin(2.0 * np.pi * kz * zs))
    return ScalarField(grid, domain, vals * np.ones((grid.nx, grid.nz)))


SCENARIOS = {
    "constant": constant,
    "stratified": stratified,
    "stratified_perturbed": stratified_perturbed,
    "patch": patch,
    "checker": checker,
}


def make_density(name: str, grid: GridSpec, domain: DomainSpec,
                 **params) -> ScalarField:
    """Instantiate a preset by name; unknown names or parameters raise."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    allowed = set(inspect.signature(factory).parameters) - {"grid", "domain"}
    bad = set(params) - allowed
    if bad:
        raise ValueError(
            f"scenario {name!r} does not accept {sorted(bad)}; "
            f"allowed: {sorted(allowed)}")
    return factory(grid, domain, **params)
