"""Steady Stokes flow coupled to density transport on 2D channel geometries.

The package solves -lap(u) + grad(p) = -rho e_z, div(u) = 0 with no-slip
walls on a closed rectangle or a horizontally periodic strip, advects the
density along the resulting velocity with a semi-Lagrangian scheme, and
provides the norms, localization tools, and fixed-point drivers used to
study the coupled system quantitatively.
"""

from .domain import (
    CENTER,
    XFACE,
    ZFACE,
    DomainKind,
    DomainSpec,
    Forcing,
    GridSpec,
    ScalarField,
    VelocityField,
    divergence,
    make_grid,
    max_divergence,
)
from .stokes import (
    StokesConfig,
    StokesSolution,
    StokesSolveError,
    buoyancy_forcing,
    flux_profile,
    momentum_residual,
    poiseuille,
    solve_buoyancy,
    solve_stokes_bounded,
    solve_stokes_strip,
)

__version__ = "0.1.0"

__all__ = [
    "CENTER",
    "XFACE",
    "ZFACE",
    "DomainKind",
    "DomainSpec",
    "Forcing",
    "GridSpec",
    "ScalarField",
    "VelocityField",
    "divergence",
    "make_grid",
    "max_divergence",
    "StokesConfig",
    "StokesSolution",
    "StokesSolveError",
    "buoyancy_forcing",
    "flux_profile",
    "momentum_residual",
    "poiseuille",
    "solve_buoyancy",
    "solve_stokes_bounded",
    "solve_stokes_strip",
    "__version__",
]
