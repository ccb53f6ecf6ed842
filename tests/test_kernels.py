"""The transport kernels against their reference, and sampling semantics.

``_reference_kernels`` holds the original vectorized arithmetic, with one
sampler per staggering and a separate wall rule.  The production kernels
sample every staggering by one rule, through corner tables padded with
ghost lines (minus the edge line where a velocity component is tangential
to a no-slip wall, a copy elsewhere), and keep every floating-point
expression of the reference.  So samples outside the wall half-cells must
equal the reference bit for bit; inside one they may differ by the
rounding of the cell-unit coordinate, 4 n eps max|field| for n cells along
the wall's axis.  The RK4 steps, which read prepared corner tables, are
compared bit for bit with the reference step driven by the production
sampler, and tables blended in time with the tables of the blended field.
Non-finite points must come back as NaN or a clamped wall value, without
raising or hanging.
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


def _bands(grid, periodic, L, px, pz):
    """Wall half-cell bands of the reference's cell-unit coordinates, each
    with the cell count along its axis: z (u1 and centre data) and, on the
    rectangle, x (u2 and centre data)."""
    fz = np.clip(pz, 0.0, 1.0) / grid.hz - 0.5
    fx = np.clip(px, 0.0, L) / grid.hx - 0.5
    z = ((fz < 0) | (fz > grid.nz - 1), grid.nz)
    x = (np.zeros(px.shape, bool) if periodic
         else (fx < 0) | (fx > grid.nx - 1), grid.nx)
    return x, z


def _assert_parity(got, want, field, *bands):
    """Bitwise equal outside the bands.  Inside one, the ghost blend
    (1 - t)(-r) + t r replaces the reference's wall scale s r: both weights
    come from the cell-unit coordinate, whose float64 rounding is about
    n eps for n cells, so they may differ by 4 n eps max|field|."""
    inside = np.zeros(got.shape, bool)
    n = np.zeros(got.shape)
    for band, cells in bands:
        inside |= band
        n[band] = np.maximum(n[band], cells)
    assert np.array_equal(got[~inside], want[~inside])
    tol = 4 * n * np.finfo(float).eps * np.abs(field).max()
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("kind, L, nx, nz", _GRIDS, ids=_IDS)
class TestReferenceParity:
    def test_point_samples_bitwise_equal(self, kind, L, nx, nz):
        dom, grid, rng, u1, u2, px, pz = _case(kind, L, nx, nz)
        # plateau data: blends of equal corners can round past the hull,
        # which the clamp in sample_center must undo
        c = rng.choice([0.1, 0.7, 1.3], size=(nx, nz))
        args = (px, pz, grid.hx, grid.hz, dom.periodic, L)
        xband, zband = _bands(grid, dom.periodic, L, px, pz)
        v1, v2 = _kernels.sample_velocity(u1, u2, *args)
        _assert_parity(v1, ref._np_sample_u1(u1, *args), u1, zband)
        _assert_parity(v2, ref._np_sample_u2(u2, *args), u2, xband)
        _assert_parity(_kernels.sample_center(c, *args),
                       ref._np_sample_center(c, *args), c, xband, zband)

    def test_channels_sampled_together_bitwise_equal(self, kind, L, nx, nz):
        dom, grid, rng, u1, u2, px, pz = _case(kind, L, nx, nz)
        c = rng.standard_normal((2, nx, nz))
        px, pz = px[:4000].reshape(40, 100), pz[:4000].reshape(40, 100)
        args = (px, pz, grid.hx, grid.hz, dom.periodic, L)
        bands = _bands(grid, dom.periodic, L, px, pz)
        both = _kernels.sample_center(c, *args)
        assert both.shape == (2, 40, 100)
        for k in range(2):
            alone = _kernels.sample_center(c[k], *args)
            assert np.array_equal(both[k], alone)
            _assert_parity(both[k], ref._np_sample_center(c[k], *args),
                           c[k], *bands)

    def test_rk4_steps_bitwise_equal(self, kind, L, nx, nz, monkeypatch):
        dom, grid, rng, u1, u2, px, pz = _case(kind, L, nx, nz)
        args = (grid.hx, grid.hz, dom.periodic, L)
        _production_samplers(monkeypatch, nx)
        # distinct stage fields, then one steady field
        for fields in ((u1, u2, 0.8 * u1, 1.1 * u2, -0.5 * u1, 0.7 * u2),
                       (u1, u2) * 3):
            tables = _tables(fields, dom.periodic)
            new_x, new_z = px.copy(), pz.copy()
            ref_x, ref_z = px.copy(), pz.copy()
            for _ in range(4):
                _kernels.rk4_step(new_x, new_z, 0.05, *tables, nz, *args)
                ref._np_rk4_step(ref_x, ref_z, 0.05, *fields, *args)
                assert np.array_equal(new_x, ref_x)
                assert np.array_equal(new_z, ref_z)

    def test_blended_tables_bitwise_equal(self, kind, L, nx, nz):
        # a table holds copies and exact negations of its field, so the
        # time blend of two node tables is the table of the blended field,
        # ghost lines included
        dom, grid, rng, u1, u2, _, _ = _case(kind, L, nx, nz)
        v1, v2 = 0.9 * u1[::-1], -1.3 * u2[::-1]
        a = _kernels.velocity_tables(u1, u2, dom.periodic)
        b = _kernels.velocity_tables(v1, v2, dom.periodic)
        for w in (0.25, 1.0 / 3.0, 0.7, float(rng.uniform())):
            blend = _kernels.velocity_tables((1.0 - w) * u1 + w * v1,
                                             (1.0 - w) * u2 + w * v2,
                                             dom.periodic)
            got = _kernels.blend_tables(w, a, b)
            assert len(got) == 2
            for x, y in zip(got, blend):
                assert x.shape == y.shape
                assert np.array_equal(x, y)


def _tables(fields, periodic):
    """The prepared tables of the stage fields (u1a, u2a, ..., u2c)."""
    return [_kernels.velocity_tables(u1, u2, periodic)
            for u1, u2 in zip(fields[::2], fields[1::2])]


def _production_samplers(monkeypatch, nx):
    """Make ``ref._np_rk4_step`` sample through ``sample_velocity``, so that
    it pins the RK4 tableau and the prepared tables of ``rk4_step`` bit for
    bit; the other component's field is zero."""
    def u1_only(u1, px, pz, hx, hz, periodic, Lx):
        u2 = np.zeros((nx, u1.shape[1] + 1))
        return _kernels.sample_velocity(u1, u2, px, pz, hx, hz, periodic,
                                        Lx)[0]

    def u2_only(u2, px, pz, hx, hz, periodic, Lx):
        u1 = np.zeros((nx if periodic else nx + 1, u2.shape[1] - 1))
        return _kernels.sample_velocity(u1, u2, px, pz, hx, hz, periodic,
                                        Lx)[1]

    monkeypatch.setattr(ref, "_np_sample_u1", u1_only)
    monkeypatch.setattr(ref, "_np_sample_u2", u2_only)


class TestCenterCache:
    @pytest.mark.parametrize("kind, L", [(DomainKind.STRIP, 8.0),
                                         (DomainKind.RECTANGLE, 1.5)],
                             ids=["strip", "rectangle"])
    def test_cached_arrays_are_read_only(self, kind, L):
        points = _kernels.center_points(16, 8, L / 16, 1 / 8)
        assert points.shape == (2, 16 * 8)
        with pytest.raises(ValueError, match="read-only"):
            points[...] = 0


@pytest.mark.parametrize("which", ["rect", "strip"])
def test_flow_maps_bitwise_equal(which, rect, strip):
    dom, grid = rect if which == "rect" else strip
    rho = make_density("stratified_perturbed", grid, dom, eps=0.05)
    u = solve_buoyancy(rho).u
    new = integrate_flow(u, 1.0, 0.0, TransportConfig(dt=0.05)).displacement
    # the same 20 steps back from t = 1 by the reference arithmetic
    seeds = _kernels.center_points(grid.nx, grid.nz, grid.hx, grid.hz)
    px, pz = (s.copy() for s in seeds)
    for _ in range(20):
        ref._np_rk4_step(px, pz, -1.0 / 20, *(u.u1.values, u.u2.values) * 3,
                         grid.hx, grid.hz, dom.periodic, dom.x_extent)
    want = np.stack((px - seeds[0], pz - seeds[1]))
    assert np.array_equal(new, want.reshape(2, grid.nx, grid.nz))


# (kind, x_extent, nx, nz, exact): on the dyadic grids n h rounds back to the
# extent, so the ghost blend at a wall is exactly 0; elsewhere it is zero to
# the rounding of the cell-unit coordinate, 4 n eps max|u| for n cells
_WALL_GRIDS = [(k, L, nx, nz, exact)
               for k, L in ((DomainKind.STRIP, 8.0),
                            (DomainKind.RECTANGLE, 1.0))
               for nx, nz, exact in ((16, 8, True), (64, 16, True),
                                     (128, 128, True), (16, 49, False),
                                     (16, 98, False), (16, 103, False))]
_WALL_GRIDS.append((DomainKind.RECTANGLE, 1.0, 93, 16, False))


@pytest.mark.parametrize(
    "kind, L, nx, nz, exact", _WALL_GRIDS,
    ids=[f"{k.value}-{nx}x{nz}" for k, _, nx, nz, _ in _WALL_GRIDS])
def test_tangential_velocity_vanishes_on_walls(kind, L, nx, nz, exact):
    # u1 on z = 0, 1 and, on the rectangle, u2 on x = 0, Lx: no-slip
    dom, grid, rng, u1, u2, _, _ = _case(kind, L, nx, nz)
    args = (grid.hx, grid.hz, dom.periodic, L)
    xs = np.concatenate([rng.uniform(0.0, L, 200), np.arange(nx) * grid.hx,
                         (np.arange(nx) + 0.5) * grid.hx])
    zs = np.concatenate([rng.uniform(0.0, 1.0, 200), np.arange(nz) * grid.hz,
                         (np.arange(nz) + 0.5) * grid.hz])
    eps = np.finfo(float).eps
    walls = [(_kernels.sample_velocity(u1, u2, xs, np.full_like(xs, z),
                                       *args)[0], nz, u1) for z in (0.0, 1.0)]
    if not dom.periodic:
        walls += [(_kernels.sample_velocity(u1, u2, np.full_like(zs, x), zs,
                                            *args)[1], nx, u2)
                  for x in (0.0, L)]
    for got, n, u in walls:
        tol = 0.0 if exact else 4 * n * eps * np.abs(u).max()
        assert np.all(np.abs(got) <= tol)


class TestSamplingSemantics:
    def test_periodic_x_offset_bitwise(self, strip):
        # offsets by the exact period reduce to the same wrapped abscissa
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        pz = np.clip(pz, 0.0, 1.0)
        args = (grid.hx, grid.hz, True, dom.x_extent)
        base = _kernels.sample_velocity(u1, u2, px, pz, *args)
        moved = _kernels.sample_velocity(u1, u2, px + dom.x_extent, pz, *args)
        assert np.array_equal(base[0], moved[0])
        assert np.array_equal(base[1], moved[1])

    def test_z_clamped_to_walls(self, strip):
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        _, below = _kernels.sample_velocity(u1, u2, px, np.full_like(px, -3.0),
                                            grid.hx, grid.hz, True, dom.x_extent)
        _, at = _kernels.sample_velocity(u1, u2, px, np.zeros_like(px),
                                         grid.hx, grid.hz, True, dom.x_extent)
        assert np.array_equal(below, at)
        assert np.all(at == 0.0)  # no-slip row

    def test_u1_vanishes_on_walls(self, strip):
        # tangential velocity blends linearly to zero inside the wall half-cell
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        top, _ = _kernels.sample_velocity(u1, u2, px, np.ones_like(px),
                                          grid.hx, grid.hz, True, dom.x_extent)
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


@pytest.mark.parametrize("kind, L", [(DomainKind.STRIP, 8.0),
                                     (DomainKind.RECTANGLE, 1.5)],
                         ids=["strip", "rectangle"])
class TestNonFinitePoints:
    """A non-finite point neither raises nor hangs: the clipped gather keeps
    its index in bounds, a NaN weight carries NaN through, and an infinite
    coordinate clamps like any point beyond a wall."""

    _X = [0.0, 0.3, 0.77, 1.5]
    _Z = [0.0, 0.03, 0.5, 0.97, 1.0]

    @staticmethod
    def _sample(kind, L, px, pz):
        dom, grid, rng, u1, u2, _, _ = _case(kind, L, 16, 8)
        c = rng.standard_normal((16, 8))
        args = (np.asarray(px, dtype=float), np.asarray(pz, dtype=float),
                grid.hx, grid.hz, dom.periodic, L)
        with np.errstate(invalid="ignore"):
            return (*_kernels.sample_velocity(u1, u2, *args),
                    _kernels.sample_center(c, *args))

    def test_nan_x_gives_nan(self, kind, L):
        got = self._sample(kind, L, np.full(5, np.nan), self._Z)
        assert all(np.all(np.isnan(v)) for v in got)

    def test_nan_z_gives_nan(self, kind, L):
        got = self._sample(kind, L, self._X, np.full(4, np.nan))
        assert all(np.all(np.isnan(v)) for v in got)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_x(self, kind, L, sign):
        got = self._sample(kind, L, np.full(5, sign * np.inf), self._Z)
        if kind is DomainKind.STRIP:
            assert all(np.all(np.isnan(v)) for v in got)
            return
        edge = self._sample(kind, L, np.full(5, L if sign > 0 else 0.0),
                            self._Z)
        assert all(np.array_equal(a, b) for a, b in zip(got, edge))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_z_clamps_to_wall(self, kind, L, sign):
        got = self._sample(kind, L, self._X, np.full(4, sign * np.inf))
        wall = self._sample(kind, L, self._X, np.full(4, max(sign, 0.0)))
        assert all(np.array_equal(a, b) for a, b in zip(got, wall))
        assert all(np.all(np.isfinite(v)) for v in got)


class TestEnvSelection:
    def test_numpy_always_available(self, strip):
        # the one kernel needs nothing beyond numpy to load and sample
        grid, dom, u1, u2, px, pz = _sample_args(strip)
        assert _kernels.backend_name() == "numpy"
        got = _kernels.sample_center(u1, px, pz, grid.hx, grid.hz, True,
                                     dom.x_extent)
        assert got.shape == px.shape and np.all(np.isfinite(got))
