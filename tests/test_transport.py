import numpy as np
import pytest

from _flows import composition_orders, shear_series
from stokestransport.domain import (
    VelocityField,
    x_centers,
    z_centers,
)
from stokestransport.scenarios import make_density
from stokestransport.stokes import poiseuille, solve_buoyancy
from stokestransport.transport import (
    FlowMap,
    TransportConfig,
    VelocitySeries,
    compose_maps,
    flow_stability,
    integrate_flow,
    _pull_back,
    lipschitz_growth,
)


class TestConfig:
    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            TransportConfig(dt=0.0)
        with pytest.raises(ValueError):
            TransportConfig(dt=-0.1)


class TestFlowMapContainer:
    def test_shape_validated(self, strip):
        dom, grid = strip
        with pytest.raises(ValueError):
            FlowMap(t0=0.0, t1=1.0, grid=grid, domain=dom,
                    displacement=np.zeros((grid.nx, grid.nz)))

    def test_nonfinite_rejected(self, strip):
        dom, grid = strip
        disp = np.zeros((grid.nx, grid.nz, 2))
        disp[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FlowMap(t0=0.0, t1=1.0, grid=grid, domain=dom, displacement=disp)

    def test_map_centers_offsets_by_displacement(self, strip):
        dom, grid = strip
        disp = np.zeros((grid.nx, grid.nz, 2))
        disp[:, :, 0] = 10.0  # larger than the period: stays unwrapped
        fm = FlowMap(t0=0.0, t1=1.0, grid=grid, domain=dom, displacement=disp)
        mx, mz = fm.map_centers()
        assert mx[0, 0] == pytest.approx(x_centers(grid)[0] + 10.0)
        assert np.array_equal(mz, np.tile(z_centers(grid), (grid.nx, 1)))


class TestIntegrateFlow:
    def test_zero_field_is_identity(self, strip):
        dom, grid = strip
        fm = integrate_flow(VelocityField.zero(grid, dom), 0.0, 1.0,
                            TransportConfig(dt=0.125))
        assert np.all(fm.displacement == 0.0)

    def test_empty_interval_is_identity(self, strip):
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        fm = integrate_flow(sol.u, 0.7, 0.7, TransportConfig(dt=0.1))
        assert np.all(fm.displacement == 0.0)
        assert fm.t0 == fm.t1 == 0.7

    def test_steady_shear_advects_exactly(self, strip):
        # u = (a z (1-z), 0): every RK4 stage sees the same speed, so the
        # x-displacement is exactly t * u1(z_c) and z never moves
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        a = abs(sol.pressure_slope) / 2.0
        t = 0.8
        fm = integrate_flow(sol.u, 0.0, t, TransportConfig(dt=0.05))
        zc = z_centers(grid)
        expect = t * a * zc * (1.0 - zc)
        assert np.all(fm.displacement[:, :, 1] == 0.0)
        err = np.abs(fm.displacement[:, :, 0] - expect[None, :])
        assert np.max(err) <= 1e-12 * max(1.0, t * a)

    @pytest.mark.parametrize("t0, t1", [(0.0, np.inf), (0.0, np.nan),
                                        (-np.inf, 0.0), (np.nan, 1.0)])
    def test_non_finite_endpoints_rejected(self, strip, t0, t1):
        dom, grid = strip
        u = poiseuille(1.0, grid, dom).u
        with pytest.raises(ValueError, match="finite"):
            integrate_flow(u, t0, t1, TransportConfig(dt=0.1))

    def test_step_count_honors_exact_division(self, strip):
        # a span that is an exact multiple of dt must not grow an extra step
        dom, grid = strip
        provider = shear_series(grid, dom)
        fm_coarse = integrate_flow(provider, 0.0, 0.5, TransportConfig(dt=0.125))
        fm_exact = integrate_flow(provider, 0.0, 0.5, TransportConfig(dt=0.5 / 4))
        assert np.array_equal(fm_coarse.displacement, fm_exact.displacement)

    def test_overflowing_trajectory_raises(self, strip):
        # one step of 10 at speed 1e308 overflows x to inf, which wraps to
        # NaN; the step check must stop it instead of returning a map
        dom, grid = strip
        u1 = np.full((grid.nx, grid.nz), 1e308)
        u = VelocityField.from_arrays(grid, dom, u1,
                                      np.zeros((grid.nx, grid.nz + 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                integrate_flow(u, 0.0, 10.0, TransportConfig(dt=10.0))


def push_forward(rho0, u, t, config):
    """rho0 transported to time t: sampled at the feet of the backward map."""
    return _pull_back(rho0, integrate_flow(u, t, 0.0, config))


class TestPushForward:
    def test_time_zero_is_bitwise_identity(self, strip):
        dom, grid = strip
        rho = make_density("patch", grid, dom)
        sol = poiseuille(1.0, grid, dom)
        out = push_forward(rho, sol.u, 0.0, TransportConfig(dt=0.1))
        assert np.array_equal(out.values, rho.values)

    def test_max_principle_exact(self, strip):
        dom, grid = strip
        rho = make_density("patch", grid, dom)
        sol = poiseuille(2.0, grid, dom)
        out = push_forward(rho, sol.u, 1.5, TransportConfig(dt=0.05))
        assert out.values.min() >= rho.values.min()
        assert out.values.max() <= rho.values.max()

    def test_pure_shear_l2_drift_vanishes_with_resolution(self):
        # an order-one shear displaces the patch by ~1.5 units, so the single
        # final interpolation smooths it; the smoothing is a discretization
        # artifact and must shrink roughly like h^2 under refinement
        from stokestransport.domain import DomainKind, DomainSpec, make_grid
        from stokestransport.norms import lq_norm

        dom = DomainSpec(DomainKind.STRIP, 8.0)
        drifts = []
        for nx, nz in ((64, 32), (128, 64)):
            grid = make_grid(dom, nx, nz)
            rho = make_density("patch", grid, dom)
            sol = poiseuille(1.0, grid, dom)
            out = push_forward(rho, sol.u, 1.0, TransportConfig(dt=0.05))
            drifts.append(abs(lq_norm(out, 2) - lq_norm(rho, 2)) / lq_norm(rho, 2))
        assert drifts[1] <= 0.02
        assert drifts[0] / drifts[1] >= 2.5


class TestComposition:
    def test_junction_mismatch_rejected(self, strip):
        dom, grid = strip
        provider = shear_series(grid, dom)
        cfg = TransportConfig(dt=0.01)
        a = integrate_flow(provider, 0.0, 0.3, cfg)
        b = integrate_flow(provider, 0.4, 0.8, cfg)
        with pytest.raises(ValueError):
            compose_maps(b, a)

    def test_composed_matches_direct_for_steady_uniform(self, strip):
        # a z-independent steady drift composes exactly: displacements add
        dom, grid = strip
        u1 = np.full((grid.nx, grid.nz), 0.3)
        u = VelocityField.from_arrays(grid, dom, u1,
                                      np.zeros((grid.nx, grid.nz + 1)),
                                      enforce_walls=False)
        cfg = TransportConfig(dt=0.05)
        a = integrate_flow(u, 0.0, 0.4, cfg)
        b = integrate_flow(u, 0.4, 1.0, cfg)
        both = compose_maps(b, a)
        assert np.allclose(both.displacement[:, :, 0], 0.3, rtol=0, atol=1e-13)
        assert both.t0 == 0.0 and both.t1 == 1.0

    def test_defect_is_fourth_order(self, strip):
        dom, grid = strip
        defects, orders = composition_orders(grid, dom, levels=(0, 1, 2))
        assert min(orders) >= 3.8, (defects, orders)


class TestVelocitySeries:
    def _series(self, strip, amps=(0.0, 1.0)):
        dom, grid = strip
        fields = []
        for amp in amps:
            u1 = np.full((grid.nx, grid.nz), amp)
            fields.append(VelocityField.from_arrays(
                grid, dom, u1, np.zeros((grid.nx, grid.nz + 1)),
                enforce_walls=False))
        times = np.linspace(0.0, 1.0, len(amps))
        return VelocitySeries(times=times, fields=tuple(fields))

    def test_linear_interpolation(self, strip):
        s = self._series(strip)
        mid = s(0.5)
        assert np.all(mid.u1.values == 0.5)

    def test_clamps_outside_range(self, strip):
        s = self._series(strip)
        assert np.all(s(-5.0).u1.values == 0.0)
        assert np.all(s(7.0).u1.values == 1.0)

    @pytest.mark.parametrize("which", ["rect", "strip"])
    def test_flow_maps_equal_the_plain_callable(self, which, rect, strip):
        # integrate_flow blends a series' node tables; a plain callable has
        # the series build each stage's field, whose tables it then builds
        dom, grid = rect if which == "rect" else strip
        rng = np.random.default_rng(5)
        fields = [VelocityField.from_arrays(
            grid, dom,
            0.3 * rng.standard_normal((grid.nx + (not dom.periodic), grid.nz)),
            0.3 * rng.standard_normal((grid.nx, grid.nz + 1)))
            for _ in range(5)]
        series = VelocitySeries(np.linspace(0.0, 1.0, 5), fields)
        cfg = TransportConfig(dt=0.07)
        # across three nodes and past both ends, both ways, and from a node
        for t0, t1 in ((0.1, 0.9), (0.95, 0.05), (-0.2, 1.3), (0.5, 0.0)):
            a = integrate_flow(series, t0, t1, cfg).displacement
            b = integrate_flow(lambda t: series(t), t0, t1, cfg).displacement
            assert np.array_equal(a, b)
            assert np.abs(a).max() > 0.0

    def test_tables_are_the_nodes_or_their_blend(self, strip):
        s = self._series(strip, amps=(0.0, 1.0, 3.0))
        assert s.tables(0.5) is s.fields[1].tables
        assert s.tables(-1.0) is s.fields[0].tables
        assert s.tables(2.0) is s.fields[2].tables
        for got, want in zip(s.tables(0.625), s(0.625).tables):
            assert np.array_equal(got, want)

    def test_times_must_increase(self, strip):
        dom, grid = strip
        u = VelocityField.zero(grid, dom)
        with pytest.raises(ValueError):
            VelocitySeries(times=np.array([0.0, 0.0]), fields=(u, u))


class TestLipschitz:
    def test_zero_field(self, strip):
        dom, grid = strip
        u = VelocityField.zero(grid, dom)
        fm = integrate_flow(u, 0.0, 1.0, TransportConfig(dt=0.1))
        rep = lipschitz_growth(fm, u)
        assert rep.bound == 1.0
        assert rep.measured_lip == pytest.approx(1.0, rel=1e-12)
        assert not rep.violation

    def test_shear_respects_bound(self, strip):
        dom, grid = strip
        sol = poiseuille(1.0, grid, dom)
        fm = integrate_flow(sol.u, 0.0, 0.2, TransportConfig(dt=0.02))
        rep = lipschitz_growth(fm, sol.u)
        assert not rep.violation
        assert rep.measured_lip <= rep.bound * (1 + 1e-6)
        assert rep.elapsed == pytest.approx(0.2)


class TestFlowStability:
    def _two_flows(self, strip, t=0.3):
        dom, grid = strip
        rho1 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        rho2 = make_density("stratified_perturbed", grid, dom, eps=0.04)
        u1 = solve_buoyancy(rho1).u
        u2 = solve_buoyancy(rho2).u
        cfg = TransportConfig(dt=t / 8)
        X1 = integrate_flow(u1, 0.0, t, cfg)
        X2 = integrate_flow(u2, 0.0, t, cfg)
        return X1, X2, u1, u2

    @pytest.mark.parametrize("q", [2, np.inf])
    def test_bound_holds(self, strip, q):
        X1, X2, u1, u2 = self._two_flows(strip)
        rep = flow_stability(X1, X2, u1, u2, q)
        assert not rep.violated
        assert rep.left <= rep.right * (1 + 1e-6)

    def test_identical_flows_give_zero_ratio(self, strip):
        X1, _, u1, _ = self._two_flows(strip)
        rep = flow_stability(X1, X1, u1, u1, 2)
        assert rep.left == 0.0
        assert rep.ratio == 0.0 and not rep.violated

    def test_interval_mismatch_rejected(self, strip):
        X1, X2, u1, u2 = self._two_flows(strip)
        Xs = integrate_flow(u2, 0.0, 0.1, TransportConfig(dt=0.05))
        with pytest.raises(ValueError):
            flow_stability(X1, Xs, u1, u2, 2)

    def test_bad_exponent_rejected(self, strip):
        X1, X2, u1, u2 = self._two_flows(strip)
        with pytest.raises(ValueError):
            flow_stability(X1, X2, u1, u2, 1)
