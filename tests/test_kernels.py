"""The transport kernels against their reference, and sampling semantics.

``_reference_kernels`` holds the original vectorized arithmetic.  The
production kernels share index work across fields and channels but keep
every floating-point expression, so everything here demands bitwise
equality, not approximate closeness.
"""

import numpy as np
import pytest

import _reference_kernels as ref
from stokestransport import _kernels
from stokestransport.domain import DomainKind, DomainSpec, make_grid
from stokestransport.scenarios import make_density
from stokestransport.stokes import solve_buoyancy
from stokestransport.transport import TransportConfig, integrate_flow

# (kind, x_extent, nx, nz); the rectangle widths are not dyadic, so the
# scaled coordinates round
_GRIDS = [
    (DomainKind.STRIP, 8.0, 16, 8),
    (DomainKind.STRIP, 8.0, 128, 128),
    (DomainKind.STRIP, 32.0, 512, 16),
    (DomainKind.RECTANGLE, 1.5, 16, 8),
    (DomainKind.RECTANGLE, 1.0, 128, 128),
    (DomainKind.RECTANGLE, 0.7, 512, 16),
]
_IDS = [f"{k.value}-{nx}x{nz}" for k, _, nx, nz in _GRIDS]


def _sample_args(strip, seed=21):
    dom, grid = strip
    rng = np.random.default_rng(seed)
    u1 = rng.standard_normal((grid.nx, grid.nz))
    u2 = rng.standard_normal((grid.nx, grid.nz + 1))
    u2[:, 0] = u2[:, -1] = 0.0
    px = rng.uniform(-2 * dom.x_extent, 3 * dom.x_extent, size=500)
    pz = rng.uniform(-0.5, 1.5, size=500)
    return grid, dom, u1, u2, px, pz


def _case(kind, L, nx, nz, seed=7):
    """Random staggered fields plus probe points on and beyond the domain."""
    dom = DomainSpec(kind, L)
    grid = make_grid(dom, nx, nz)
    rng = np.random.default_rng(seed)
    nf = nx if dom.periodic else nx + 1
    u1 = rng.standard_normal((nf, nz))
    u2 = rng.standard_normal((nx, nz + 1))
    u2[:, 0] = u2[:, -1] = 0.0
    if not dom.periodic:
        u1[0, :] = u1[-1, :] = 0.0
    # random points well outside the closure on every side
    px = rng.uniform(-2 * L, 3 * L, size=4000)
    pz = rng.uniform(-0.5, 1.5, size=4000)
    # exact period multiples, every face and center line, the walls, and
    # the first doubles either side of the ends of the period
    xs = np.concatenate([np.arange(-3, 4) * L,
                         np.arange(nx + 1) * grid.hx,
                         (np.arange(nx) + 0.5) * grid.hx,
                         [-1e-17, np.nextafter(L, 0.0), np.nextafter(L, 2 * L)]])
    zs = np.concatenate([[-0.1, 0.0, 1.0, 1.1],
                         np.arange(nz + 1) * grid.hz,
                         (np.arange(nz) + 0.5) * grid.hz])
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    px = np.concatenate([px, gx.ravel()])
    pz = np.concatenate([pz, gz.ravel()])
    return dom, grid, rng, u1, u2, px, pz


@pytest.mark.parametrize("kind, L, nx, nz", _GRIDS, ids=_IDS)
class TestReferenceParity:
    def test_point_samples_bitwise_equal(self, kind, L, nx, nz):
        dom, grid, rng, u1, u2, px, pz = _case(kind, L, nx, nz)
        # plateau data: blends of equal corners can round past the hull,
        # which the clamp in sample_center must undo
        c = rng.choice([0.1, 0.7, 1.3], size=(nx, nz))
        args = (px, pz, grid.hx, grid.hz, dom.periodic, L)
        assert np.array_equal(_kernels.sample_u1(u1, *args),
                              ref._np_sample_u1(u1, *args))
        assert np.array_equal(_kernels.sample_u2(u2, *args),
                              ref._np_sample_u2(u2, *args))
        assert np.array_equal(_kernels.sample_center(c, *args),
                              ref._np_sample_center(c, *args))

    def test_channels_sampled_together_bitwise_equal(self, kind, L, nx, nz):
        dom, grid, rng, u1, u2, px, pz = _case(kind, L, nx, nz)
        c = rng.standard_normal((nx, nz, 2))
        px, pz = px[:4000].reshape(40, 100), pz[:4000].reshape(40, 100)
        args = (px, pz, grid.hx, grid.hz, dom.periodic, L)
        both = _kernels.sample_center(c, *args)
        assert both.shape == (40, 100, 2)
        for k in range(2):
            alone = _kernels.sample_center(c[:, :, k], *args)
            assert np.array_equal(both[..., k], alone)
            assert np.array_equal(both[..., k],
                                  ref._np_sample_center(c[:, :, k], *args))

    def test_rk4_steps_bitwise_equal(self, kind, L, nx, nz):
        dom, grid, rng, u1, u2, px, pz = _case(kind, L, nx, nz)
        fields = (u1, u2, 0.8 * u1, 1.1 * u2, -0.5 * u1, 0.7 * u2)
        args = (grid.hx, grid.hz, dom.periodic, L)
        new_x, new_z = px.copy(), pz.copy()
        ref_x, ref_z = px.copy(), pz.copy()
        for _ in range(4):
            _kernels.rk4_step(new_x, new_z, 0.05, *fields, *args)
            ref._np_rk4_step(ref_x, ref_z, 0.05, *fields, *args)
            assert np.array_equal(new_x, ref_x)
            assert np.array_equal(new_z, ref_z)


@pytest.mark.parametrize("which", ["rect", "strip"])
def test_flow_maps_bitwise_equal(which, rect, strip, monkeypatch):
    dom, grid = rect if which == "rect" else strip
    rho = make_density("stratified_perturbed", grid, dom, eps=0.05)
    u = solve_buoyancy(rho).u
    cfg = TransportConfig(dt=0.05)
    new = integrate_flow(u, 1.0, 0.0, cfg).displacement
    monkeypatch.setattr(_kernels, "rk4_step", ref._np_rk4_step)
    assert np.array_equal(new, integrate_flow(u, 1.0, 0.0, cfg).displacement)


class TestSamplingSemantics:
    def test_periodic_x_offset_bitwise(self, strip):
        # offsets by the exact period reduce to the same wrapped abscissa
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        pz = np.clip(pz, 0.0, 1.0)
        base = _kernels.sample_u1(u1, px, pz, grid.hx, grid.hz, True, dom.x_extent)
        moved = _kernels.sample_u1(u1, px + dom.x_extent, pz, grid.hx, grid.hz,
                                   True, dom.x_extent)
        assert np.array_equal(base, moved)

    def test_z_clamped_to_walls(self, strip):
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        below = _kernels.sample_u2(u2, px, np.full_like(px, -3.0),
                                   grid.hx, grid.hz, True, dom.x_extent)
        at = _kernels.sample_u2(u2, px, np.zeros_like(px),
                                grid.hx, grid.hz, True, dom.x_extent)
        assert np.array_equal(below, at)
        assert np.all(at == 0.0)  # no-slip row

    def test_u1_vanishes_on_walls(self, strip):
        # tangential velocity blends linearly to zero inside the wall half-cell
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        top = _kernels.sample_u1(u1, px, np.ones_like(px), grid.hx, grid.hz,
                                 True, dom.x_extent)
        assert np.all(top == 0.0)

    def test_center_extension_is_constant_beyond_walls(self, strip):
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        c = np.arange(grid.nx * grid.nz, dtype=float).reshape(grid.nx, grid.nz)
        lo = _kernels.sample_center(c, px, np.full_like(px, -0.2), grid.hx,
                                    grid.hz, True, dom.x_extent)
        wall = _kernels.sample_center(c, px, np.zeros_like(px), grid.hx,
                                      grid.hz, True, dom.x_extent)
        assert np.array_equal(lo, wall)

    def test_rectangle_clamps_x(self, rect):
        dom, grid = rect
        rng = np.random.default_rng(3)
        c = rng.standard_normal((grid.nx, grid.nz))
        pz = np.full(8, 0.5)
        beyond = _kernels.sample_center(c, np.full(8, 2.0), pz, grid.hx,
                                        grid.hz, False, dom.x_extent)
        at = _kernels.sample_center(c, np.full(8, dom.x_extent), pz, grid.hx,
                                    grid.hz, False, dom.x_extent)
        assert np.array_equal(beyond, at)


class TestEnvSelection:
    def test_backend_name_reports_selection(self):
        assert _kernels.backend_name() == "numpy"

    def test_numpy_always_available(self, strip):
        # the one kernel needs nothing beyond numpy to load and sample
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        assert _kernels.backend_name() == "numpy"
        got = _kernels.sample_center(u1, px, pz, grid.hx, grid.hz, True,
                                     dom.x_extent)
        assert got.shape == px.shape and np.all(np.isfinite(got))
