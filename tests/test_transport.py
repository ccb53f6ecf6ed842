import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from _flows import composition_orders, shear_series
from stokestransport import _kernels
from stokestransport.domain import (
    DomainKind,
    DomainSpec,
    VelocityField,
    make_grid,
    x_centers,
    z_centers,
)
from stokestransport.coupling import _advance, _potential_energy
from stokestransport.scenarios import _bump, _stratified_profile, make_density
from stokestransport.snapshots import write_field
from stokestransport.stokes import poiseuille, solve_buoyancy
from stokestransport.transport import (
    FlowMap,
    TransportConfig,
    VelocitySeries,
    compose_maps,
    flow_stability,
    integrate_flow,
    _pull_back,
    _step_count,
    lipschitz_growth,
    read_flowmap,
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
        disp = np.zeros((2, grid.nx, grid.nz))
        disp[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FlowMap(t0=0.0, t1=1.0, grid=grid, domain=dom, displacement=disp)

    def test_owns_its_displacement(self, strip):
        # the map copies what it is given: the caller's array stays
        # writeable, and a later write through its base does not reach it
        dom, grid = strip
        base = np.zeros(2 * grid.nx * grid.nz)
        disp = base.reshape(2, grid.nx, grid.nz)
        fm = FlowMap(t0=0.0, t1=1.0, grid=grid, domain=dom, displacement=disp)
        assert disp.flags.writeable
        base[0] = 5.0
        assert fm.displacement[0, 0, 0] == 0.0
        assert not fm.displacement.flags.writeable

    def test_map_centers_offsets_by_displacement(self, strip):
        dom, grid = strip
        disp = np.zeros((2, grid.nx, grid.nz))
        disp[0] = 10.0  # larger than the period: stays unwrapped
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
        assert np.all(fm.displacement[1] == 0.0)
        err = np.abs(fm.displacement[0] - expect[None, :])
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

    def test_step_count_backs_off_only_rounding(self):
        # 1 / 0.1 is exactly 10 steps; a span 1e-9 longer needs an eleventh,
        # which a backoff of 1e-6 instead of 1e-12 would drop
        assert _step_count(1.0, 0.1) == 10
        assert _step_count(1.0 + 1e-9, 0.1) == 11

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


def test_march_step_peak_memory():
    # one warm march step on a 128 x 128 strip: integrate, compose and pull
    # back.  RK4 stages let their located cells go once read and the
    # samplers blend one gathered corner pair at a time, so the step peaks
    # at about 15 field arrays above its inputs
    dom = DomainSpec(DomainKind.STRIP, 8.0)
    grid = make_grid(dom, 128, 128)
    rho0 = make_density("stratified_perturbed", grid, dom, eps=0.05)
    u = solve_buoyancy(rho0).u
    config = TransportConfig(dt=0.01)

    back, _ = _advance(rho0, None, [u], 0.0, 0.01, config)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _advance(rho0, back, [u], 0.01, 0.02, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 18 * rho0.values.nbytes


@pytest.mark.parametrize("kind, L", [(DomainKind.STRIP, 8.0),
                                     (DomainKind.RECTANGLE, 1.0)],
                         ids=["strip", "rectangle"])
def test_pull_back_energy_defect_is_first_order(kind, L):
    # the energy identity d/dt int rho z = int rho u2 =: W, over one backward
    # map of tau = 0.05 in the steady solve of stratified_perturbed; the
    # defect ((E_p(tau) - E_p(0)) / tau - W) / |W| comes from the bilinear
    # pull-back of rho0, so it halves with h, while the exact density at the
    # same feet meets the identity
    dom = DomainSpec(kind, L)
    tau = 0.05
    defects = []
    for n in (32, 64, 128):
        grid = make_grid(dom, n, n)
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.03,
                            mode=1)
        u = solve_buoyancy(rho0).u
        u2 = u.u2.values
        W = grid.hx * grid.hz * float(
            (rho0.values * 0.5 * (u2[:, :-1] + u2[:, 1:])).sum())
        back = integrate_flow(u, tau, 0.0, TransportConfig(dt=tau / 4))

        def defect(rho):
            gain = _potential_energy(rho) - _potential_energy(rho0)
            return (gain / tau - W) / abs(W)

        defects.append(defect(_pull_back(rho0, back)))
        if n == 32:
            x, z = back.map_centers()
            exact = (_stratified_profile(z, 1.0, 0.0, 0.1)
                     + 0.03 * np.cos(2.0 * np.pi * x / L) * _bump(z))
            assert abs(defect(rho0.with_values(exact))) <= 0.02
    ratios = [a / b for a, b in zip(defects, defects[1:])]
    assert all(1.8 <= r <= 2.2 for r in ratios), (defects, ratios)


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
        assert np.allclose(both.displacement[0], 0.3, rtol=0, atol=1e-13)
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
        # at (or clamped to) a node, the node's own read-only tables, built
        # once per series; between nodes, bit for bit the tables of s(t)
        def tables_of(u):
            return _kernels.velocity_tables(u.u1.values, u.u2.values, True)

        s = self._series(strip, amps=(0.0, 1.0, 3.0))
        for t, i in ((0.5, 1), (-1.0, 0), (2.0, 2)):
            got = s.tables(t)
            assert s.tables(t) is got
            for e, want in zip(got, tables_of(s.fields[i]), strict=True):
                assert np.array_equal(e, want)
                assert not e.flags.writeable
        for got, want in zip(s.tables(0.625), tables_of(s(0.625)),
                             strict=True):
            assert got.tobytes() == want.tobytes()

    def test_node_tables_go_with_the_series(self, strip):
        # the trace owns the tables, not the field: once the series and the
        # tables it returned are gone, so is the node's table, while the
        # node's field lives on
        s = self._series(strip)
        field = s.fields[0]
        table = weakref.ref(s.tables(0.0)[0])
        assert table() is not None
        del s
        gc.collect()
        assert table() is None
        assert field.u1.values.shape == (field.grid.nx, field.grid.nz)

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


def _two_grids(strip):
    dom, grid = strip
    u = VelocityField.zero(grid, dom)
    other = VelocityField.zero(make_grid(dom, 32, 16), dom)
    return (u, other,
            integrate_flow(u, 0.0, 0.1, TransportConfig(dt=0.1)),
            integrate_flow(other, 0.0, 0.1, TransportConfig(dt=0.1)))


@pytest.mark.parametrize("exc, match, call", [
    (ValueError, "one time per field",
     lambda s, tmp: VelocitySeries([0.0, 1.0], _two_grids(s)[:1])),
    (ValueError, "share one grid",
     lambda s, tmp: VelocitySeries([0.0, 1.0], _two_grids(s)[:2])),
    (TypeError, "callable of time",
     lambda s, tmp: integrate_flow(3.0, 0.0, 1.0, TransportConfig(dt=0.1))),
    (ValueError, "different grids",
     lambda s, tmp: compose_maps(*_two_grids(s)[2:])),
    (ValueError, "different grids",
     lambda s, tmp: flow_stability(*_two_grids(s)[2:], *_two_grids(s)[:2], 2)),
    (ValueError, "not a flow map",
     lambda s, tmp: (write_field(tmp / "rho.stf", make_density("patch", s[1], s[0])),
                     read_flowmap(tmp / "rho.stf"))),
    (ValueError, "matching shapes",
     lambda s, tmp: _kernels.sample_center(
         np.zeros((s[1].nx, s[1].nz)), np.zeros(3), np.zeros(4), s[1].hx,
         s[1].hz, True, s[0].x_extent)),
], ids=["series_count", "series_grids", "provider_not_callable",
        "compose_grids", "stability_grids", "scalar_file",
        "sample_points_unpaired"])
def test_bad_inputs_are_rejected(strip, tmp_path, exc, match, call):
    with pytest.raises(exc, match=match):
        call(strip, tmp_path)
