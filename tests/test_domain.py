import numpy as np
import pytest

from stokestransport import _kernels
from stokestransport.domain import (
    CENTER,
    XFACE,
    ZFACE,
    DomainKind,
    DomainSpec,
    Forcing,
    ScalarField,
    VelocityField,
    cell_center_points,
    divergence,
    expected_shape,
    make_grid,
    max_divergence,
    x_centers,
    x_faces,
    z_centers,
    z_faces,
)
from stokestransport.stokes import buoyancy_forcing


class TestDomainSpec:
    def test_strip_period_must_be_whole(self):
        with pytest.raises(ValueError):
            DomainSpec(DomainKind.STRIP, 8.5)
        with pytest.raises(ValueError):
            DomainSpec(DomainKind.STRIP, 4.0)

    def test_rectangle_any_positive_extent(self):
        assert DomainSpec(DomainKind.RECTANGLE, 2.5).x_extent == 2.5

    def test_extent_must_be_finite_positive(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                DomainSpec(DomainKind.RECTANGLE, bad)

    def test_periodic_flag(self):
        assert DomainSpec(DomainKind.STRIP, 8.0).periodic
        assert not DomainSpec(DomainKind.RECTANGLE, 1.0).periodic


class TestGrid:
    def test_spacings(self, strip):
        dom, grid = strip
        assert grid.hx == pytest.approx(8.0 / 64)
        assert grid.hz == pytest.approx(1.0 / 16)

    def test_minimum_size(self, rect):
        dom, _ = rect
        with pytest.raises(ValueError):
            make_grid(dom, 4, 32)
        with pytest.raises(ValueError):
            make_grid(dom, 32, 4)

    @pytest.mark.parametrize("x_extent", [1e-300, 1e-160])
    def test_cell_width_whose_inverse_square_overflows(self, x_extent):
        # 1 / hx^2 is 1 / 0 at the first width and inf at the second
        with pytest.raises(ValueError, match="1 / h\\^2 overflows"):
            make_grid(DomainSpec(DomainKind.RECTANGLE, x_extent), 8, 8)
        assert make_grid(DomainSpec(DomainKind.RECTANGLE, 1e-150), 8, 8).hx == 1.25e-151

    def test_coordinate_arrays(self, rect):
        dom, grid = rect
        assert x_centers(grid)[0] == pytest.approx(grid.hx / 2)
        assert z_centers(grid)[-1] == pytest.approx(1.0 - grid.hz / 2)
        assert x_faces(grid, dom).shape == (grid.nx + 1,)
        assert z_faces(grid).shape == (grid.nz + 1,)
        assert x_faces(grid, dom)[-1] == pytest.approx(dom.x_extent)

    def test_strip_xfaces_drop_duplicate_seam(self, strip):
        dom, grid = strip
        assert x_faces(grid, dom).shape == (grid.nx,)

    def test_expected_shapes(self, rect, strip):
        rdom, rgrid = rect
        sdom, sgrid = strip
        assert expected_shape(rgrid, rdom, CENTER) == (32, 32)
        assert expected_shape(rgrid, rdom, XFACE) == (33, 32)
        assert expected_shape(rgrid, rdom, ZFACE) == (32, 33)
        assert expected_shape(sgrid, sdom, XFACE) == (64, 16)

    def test_cell_center_points_x_major(self, rect):
        dom, grid = rect
        px, pz = cell_center_points(grid)
        assert px[0] == px[1] == grid.hx / 2
        assert pz[1] - pz[0] == pytest.approx(grid.hz)


class TestScalarField:
    def test_shape_validated(self, rect):
        dom, grid = rect
        with pytest.raises(ValueError):
            ScalarField(grid, dom, np.zeros((grid.nx + 1, grid.nz)))

    def test_nonfinite_rejected(self, rect):
        dom, grid = rect
        vals = np.zeros((grid.nx, grid.nz))
        vals[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid, dom, vals)

    def test_values_are_immutable(self, rect):
        dom, grid = rect
        f = ScalarField(grid, dom, np.zeros((grid.nx, grid.nz)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_constructor_copies_input(self, rect):
        dom, grid = rect
        src = np.zeros((grid.nx, grid.nz))
        f = ScalarField(grid, dom, src)
        src[0, 0] = 7.0
        assert f.values[0, 0] == 0.0

    def test_from_function_samples_centers(self, rect):
        dom, grid = rect
        f = ScalarField.from_function(lambda x, z: x + 2 * z, grid, dom)
        assert f.values[0, 0] == pytest.approx(grid.hx / 2 + grid.hz)
        assert f.values[-1, -1] == pytest.approx(
            (1 - grid.hx / 2) + 2 * (1 - grid.hz / 2))

    def test_from_function_broadcasts_constants(self, rect):
        dom, grid = rect
        f = ScalarField.from_function(lambda x, z: 3.0, grid, dom, ZFACE)
        assert f.values.shape == (grid.nx, grid.nz + 1)
        assert np.all(f.values == 3.0)


class TestVelocityField:
    def test_wall_rows_must_be_exact_zero(self, strip):
        dom, grid = strip
        u2 = np.zeros((grid.nx, grid.nz + 1))
        u2[:, 0] = 1e-300
        with pytest.raises(ValueError):
            VelocityField(
                ScalarField(grid, dom, np.zeros((grid.nx, grid.nz)), XFACE),
                ScalarField(grid, dom, u2, ZFACE),
            )

    def test_from_arrays_enforces_walls(self, strip):
        dom, grid = strip
        u2 = np.full((grid.nx, grid.nz + 1), 0.3)
        v = VelocityField.from_arrays(grid, dom, np.ones((grid.nx, grid.nz)), u2)
        assert np.all(v.u2.values[:, 0] == 0.0)
        assert np.all(v.u2.values[:, -1] == 0.0)

    @pytest.mark.parametrize("enforce_walls", [True, False])
    def test_from_arrays_does_not_alias_the_inputs(self, rect, enforce_walls):
        dom, grid = rect
        a1 = np.zeros((grid.nx + 1, grid.nz))
        a2 = np.zeros((grid.nx, grid.nz + 1))
        a1[1:-1] = 0.25
        a2[:, 1:-1] = -0.5
        v = VelocityField.from_arrays(grid, dom, a1, a2, enforce_walls=enforce_walls)
        a1[...] = 7.0
        a2[...] = 7.0
        assert np.all(v.u1.values[1:-1] == 0.25) and np.all(v.u1.values[[0, -1]] == 0.0)
        assert np.all(v.u2.values[:, 1:-1] == -0.5) and np.all(v.u2.values[:, [0, -1]] == 0.0)

    def test_rectangle_side_walls(self, rect):
        dom, grid = rect
        u1 = np.ones((grid.nx + 1, grid.nz))
        v = VelocityField.from_arrays(grid, dom, u1,
                                      np.zeros((grid.nx, grid.nz + 1)))
        assert np.all(v.u1.values[0, :] == 0.0)
        assert np.all(v.u1.values[-1, :] == 0.0)

    def test_shear_flow_is_exactly_divergence_free(self, strip):
        dom, grid = strip
        profile = np.linspace(0.0, 1.0, grid.nz)
        u1 = np.tile(profile, (grid.nx, 1))
        v = VelocityField.from_arrays(grid, dom, u1,
                                      np.zeros((grid.nx, grid.nz + 1)))
        assert max_divergence(v) == 0.0
        assert divergence(v).shape == (grid.nx, grid.nz)

    @pytest.mark.parametrize("which", ["rect", "strip"])
    def test_divergence_bitwise_equal_to_roll_expression(self, which, rect,
                                                         strip):
        dom, grid = rect if which == "rect" else strip
        rng = np.random.default_rng(3)
        v = VelocityField.from_arrays(
            grid, dom,
            rng.standard_normal((grid.nx + (not dom.periodic), grid.nz)),
            rng.standard_normal((grid.nx, grid.nz + 1)))
        a1, a2 = v.u1.values, v.u2.values
        right = np.roll(a1, -1, axis=0) if dom.periodic else a1[1:, :]
        left = a1 if dom.periodic else a1[:-1, :]
        want = (right - left) / grid.hx + (a2[:, 1:] - a2[:, :-1]) / grid.hz
        assert np.array_equal(divergence(v), want)
        assert max_divergence(v) == float(np.max(np.abs(want)))

    @pytest.mark.parametrize("which", ["rect", "strip"])
    def test_tables_are_kept_read_only_and_equal_velocity_tables(
            self, which, rect, strip):
        dom, grid = rect if which == "rect" else strip
        rng = np.random.default_rng(4)
        v = VelocityField.from_arrays(
            grid, dom,
            rng.standard_normal((grid.nx + (not dom.periodic), grid.nz)),
            rng.standard_normal((grid.nx, grid.nz + 1)))
        tables = v.tables
        assert v.tables is tables
        want = _kernels.velocity_tables(v.u1.values, v.u2.values, dom.periodic)
        assert len(tables) == len(want) == 2
        for got, ref in zip(tables, want):
            assert np.array_equal(got, ref)
            assert not got.flags.writeable
        with pytest.raises(AttributeError):
            v.tables = want
        with pytest.raises(AttributeError):
            del v.tables
        assert v.tables is tables


def _zeros(grid, dom, staggering):
    return ScalarField(grid, dom, np.zeros(expected_shape(grid, dom, staggering)),
                       staggering)


def _side_wall_u1(grid, dom):
    a1 = np.zeros(expected_shape(grid, dom, XFACE))
    a1[0, 3] = 1e-300
    return ScalarField(grid, dom, a1, XFACE)


@pytest.mark.parametrize("exc, match, call", [
    (ValueError, "u1 on x-faces", lambda g, d: VelocityField(
        _zeros(g, d, ZFACE), _zeros(g, d, ZFACE))),
    (ValueError, "share one grid", lambda g, d: VelocityField(
        _zeros(g, d, XFACE), _zeros(make_grid(d, 16, 16), d, ZFACE))),
    (ValueError, "u1 columns", lambda g, d: VelocityField(
        _side_wall_u1(g, d), _zeros(g, d, ZFACE))),
    (ValueError, "f1 has wrong shape", lambda g, d: Forcing(
        g, d, np.zeros((g.nx, g.nz)), _zeros(g, d, ZFACE).values)),
    (ValueError, "f2 has wrong shape", lambda g, d: Forcing(
        g, d, _zeros(g, d, XFACE).values, np.zeros((g.nx, g.nz)))),
    (ValueError, "f2 must all be finite", lambda g, d: Forcing(
        g, d, _zeros(g, d, XFACE).values,
        np.full(expected_shape(g, d, ZFACE), np.inf))),
    (TypeError, "kind must be a DomainKind",
     lambda g, d: DomainSpec("rectangle", 1.0)),
    (ValueError, "unknown staggering", lambda g, d: ScalarField(
        g, d, np.zeros((g.nx, g.nz)), "corner")),
    (ValueError, r"center field has wrong shape \(1024,\), want \(32, 32\)",
     lambda g, d: ScalarField(g, d, np.zeros(g.nx * g.nz))),
    (ValueError, "cell-centered density",
     lambda g, d: buoyancy_forcing(_zeros(g, d, XFACE))),
], ids=["velocity_staggering", "velocity_grids", "velocity_side_wall",
        "forcing_f1_shape", "forcing_f2_shape", "forcing_not_finite",
        "domain_kind_not_an_enum", "unknown_staggering", "field_flat_values",
        "buoyancy_of_face_field"])
def test_bad_fields_are_rejected(rect, exc, match, call):
    dom, grid = rect
    with pytest.raises(exc, match=match):
        call(grid, dom)


def interpolate_velocity(u, point):
    """Both velocity components at one point, through the MAC sampler."""
    g, dom = u.grid, u.domain
    v1, v2 = _kernels.sample_velocity(u.u1.values, u.u2.values, [point[0]],
                                      [point[1]], g.hx, g.hz, dom.periodic,
                                      dom.x_extent)
    return float(v1[0]), float(v2[0])


class TestInterpolation:
    def test_face_sample_points_reproduce_data(self, strip):
        dom, grid = strip
        rng = np.random.default_rng(5)
        u1 = rng.standard_normal((grid.nx, grid.nz))
        v = VelocityField.from_arrays(grid, dom, u1,
                                      np.zeros((grid.nx, grid.nz + 1)))
        i, j = 5, 7
        x = x_faces(grid, dom)[i]
        z = z_centers(grid)[j]
        s1, s2 = interpolate_velocity(v, (x, z))
        assert s1 == pytest.approx(v.u1.values[i, j], abs=1e-14)
        assert s2 == 0.0

    def test_interpolation_is_convex(self, strip):
        dom, grid = strip
        rng = np.random.default_rng(6)
        v = VelocityField.from_arrays(
            grid, dom,
            rng.standard_normal((grid.nx, grid.nz)),
            rng.standard_normal((grid.nx, grid.nz + 1)))
        lo1, hi1 = v.u1.values.min(), v.u1.values.max()
        for x in np.linspace(0, 8, 17):
            for z in np.linspace(0, 1, 9):
                s1, _ = interpolate_velocity(v, (x, z))
                assert min(lo1, 0.0) - 1e-12 <= s1 <= max(hi1, 0.0) + 1e-12

    def test_periodic_wrap_is_exact(self, strip):
        # bit-identical wrap is promised only when x + L is exactly
        # representable, which dyadic abscissae guarantee
        dom, grid = strip
        rng = np.random.default_rng(7)
        v = VelocityField.from_arrays(
            grid, dom,
            rng.standard_normal((grid.nx, grid.nz)),
            rng.standard_normal((grid.nx, grid.nz + 1)))
        for (x, z) in ((0.25, 0.4), (3.5, 0.9), (5.0625, 0.7)):
            a = interpolate_velocity(v, (x, z))
            b = interpolate_velocity(v, (x + dom.x_extent, z))
            assert a == b

    def test_periodic_wrap_general_offset(self, strip):
        # non-dyadic sums pick up one rounding of size ~L * 2^-52, which the
        # bilinear weights amplify by at most the local Lipschitz constant
        dom, grid = strip
        rng = np.random.default_rng(8)
        v = VelocityField.from_arrays(
            grid, dom,
            rng.standard_normal((grid.nx, grid.nz)),
            rng.standard_normal((grid.nx, grid.nz + 1)))
        for (x, z) in ((0.13, 0.4), (3.7, 0.9)):
            a = interpolate_velocity(v, (x, z))
            b = interpolate_velocity(v, (x + dom.x_extent, z))
            assert a[0] == pytest.approx(b[0], abs=1e-12)
            assert a[1] == pytest.approx(b[1], abs=1e-12)
