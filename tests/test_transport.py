import gc
import math
import tracemalloc
import warnings
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


def _march_step_peak(L, nx, nz):
    """Peak traced memory of one warm march step on a strip (integrate,
    compose and pull back), in grid arrays above its inputs."""
    dom = DomainSpec(DomainKind.STRIP, L)
    grid = make_grid(dom, nx, nz)
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
    return peak / rho0.values.nbytes


def test_march_step_peak_memory():
    # 128 x 128 is two blocks of the kernels: RK4 stages and samples hold
    # block-sized temporaries, so the step peaks at about 12 field arrays
    assert _march_step_peak(8.0, 128, 128) <= 13


def test_march_step_peak_memory_in_one_block():
    # 512 x 16 is one block: sample_center then builds each field's table
    # only as that field is sampled, so the step stays at about 15 arrays
    assert _march_step_peak(32.0, 512, 16) <= 16


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

    @pytest.mark.parametrize("gap, joins", [(0.5e-12, True), (2e-12, False)])
    def test_junction_tolerance_at_its_edge(self, strip, gap, joins):
        # the inner map's end and the outer map's start may differ by 1e-12
        dom, grid = strip
        zero = np.zeros((2, grid.nx, grid.nz))
        inner = FlowMap(0.0, 1.0, grid, dom, zero)
        outer = FlowMap(1.0 + gap, 2.0, grid, dom, zero)
        if joins:
            both = compose_maps(outer, inner)
            assert (both.t0, both.t1) == (0.0, 2.0)
        else:
            with pytest.raises(ValueError, match="cannot compose"):
                compose_maps(outer, inner)

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

    @pytest.mark.parametrize("stretch, violation", [(0.5e-6, False), (2e-6, True)])
    def test_verdict_at_its_edge(self, strip, stretch, violation):
        # x -> (1 + stretch) x in a zero velocity: the bound is exactly 1, the
        # measured constant 1 + stretch, and the verdict's slack is 1e-6
        dom, grid = strip
        xs = np.broadcast_to(x_centers(grid)[:, None], (grid.nx, grid.nz))
        disp = np.stack((stretch * xs, np.zeros((grid.nx, grid.nz))))
        rep = lipschitz_growth(FlowMap(0.0, 1.0, grid, dom, disp), VelocityField.zero(grid, dom))
        assert rep.bound == 1.0
        assert rep.measured_lip == pytest.approx(1.0 + stretch, rel=1e-12)
        assert rep.violation == violation

    def test_bound_past_the_float_range_is_inf(self, strip):
        # t |grad u|_inf = 10 * 3298: exp overflows, and the bound is just large
        u = _alternating(strip)
        dom, grid = strip
        rep = lipschitz_growth(FlowMap(0.0, 10.0, grid, dom, np.zeros((2, grid.nx, grid.nz))), u)
        assert rep.elapsed * rep.gradient_norm > 710.0
        assert rep.bound == math.inf and not rep.violation


def _alternating(strip):
    """u1 = 100 on every other x-face column of the strip, u2 = 0."""
    dom, grid = strip
    zero = VelocityField.zero(grid, dom)
    a1 = np.zeros(zero.u1.values.shape)
    a1[::2] = 100.0
    return VelocityField.from_arrays(grid, dom, a1, zero.u2.values)


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

    @staticmethod
    def _built(strip, gap):
        # maps gap apart in x over t = 1, and velocities 0 and 1 in x, so
        # that the bound t e^{t |grad 0|} |0 - 1|_q is 1 for q = inf and
        # sqrt(area) for q = 2, and the ratio is gap for both
        dom, grid = strip
        zero = VelocityField.zero(grid, dom)
        one = VelocityField.from_arrays(
            grid, dom, np.ones(zero.u1.values.shape), zero.u2.values)
        d = np.zeros((2, grid.nx, grid.nz))
        X1 = FlowMap(0.0, 1.0, grid, dom, d)
        d[0] = gap
        return X1, FlowMap(0.0, 1.0, grid, dom, d), zero, one

    @pytest.mark.parametrize("q", [2, np.inf])
    def test_distinct_maps_of_equal_velocities_violate(self, strip, q):
        X1, X2, zero, _ = self._built(strip, 0.42)
        rep = flow_stability(X1, X2, zero, zero, q)
        assert rep.right == 0.0 < rep.left
        assert rep.violated and rep.ratio == math.inf

    @pytest.mark.parametrize("q", [2, np.inf])
    @pytest.mark.parametrize("gap, violated", [(1.5, True), (0.5, False)])
    def test_known_ratio_either_side_of_one(self, strip, q, gap, violated):
        X1, X2, zero, one = self._built(strip, gap)
        rep = flow_stability(X1, X2, zero, one, q)
        assert rep.ratio == pytest.approx(gap, rel=1e-12)
        assert rep.violated is violated

    @pytest.mark.parametrize("q", [2, np.inf])
    def test_growth_past_the_float_range_bounds_by_inf_or_0(self, strip, q):
        # over t = 10 the growth factor exp(t |grad u1|_inf) overflows: the
        # bound is inf for distinct velocities and 0 for equal ones
        dom, grid = strip
        u1, zero = _alternating(strip), VelocityField.zero(grid, dom)
        d = np.zeros((2, grid.nx, grid.nz))
        X1 = FlowMap(0.0, 10.0, grid, dom, d)
        d[0] = 0.42
        X2 = FlowMap(0.0, 10.0, grid, dom, d)
        rep = flow_stability(X1, X2, u1, zero, q)
        assert rep.right == math.inf and rep.ratio == 0.0 and not rep.violated
        rep = flow_stability(X1, X2, u1, u1, q)
        assert rep.right == 0.0 and rep.ratio == math.inf and rep.violated
        rep = flow_stability(X1, X1, u1, u1, q)
        assert rep.right == 0.0 and rep.ratio == 0.0 and not rep.violated

    @pytest.mark.parametrize("q", [2, np.inf])
    def test_overflowing_distance_raises(self, strip, q):
        # 1e200 is a valid offset, but its square is not representable; the
        # check must fail instead of warning and returning inf
        X1, X2, zero, one = self._built(strip, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="overflow"):
                flow_stability(X1, X2, zero, one, q)

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
