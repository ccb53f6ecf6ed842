import numpy as np
import pytest

from stokestransport.domain import DomainKind, DomainSpec, ScalarField, make_grid


@pytest.fixture(scope="session")
def rect():
    dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
    return dom, make_grid(dom, 32, 32)


@pytest.fixture(scope="session")
def strip():
    dom = DomainSpec(DomainKind.STRIP, 8.0)
    return dom, make_grid(dom, 64, 16)


def random_center_field(grid, dom, rng, smooth: bool = False) -> ScalarField:
    """White-noise cell data; optionally tamed by a one-pass box blur."""
    vals = rng.standard_normal((grid.nx, grid.nz))
    if smooth:
        for axis in (0, 1):
            vals = (np.roll(vals, 1, axis) + vals + np.roll(vals, -1, axis)) / 3.0
    return ScalarField(grid, dom, vals)
