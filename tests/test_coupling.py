import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stokestransport import _kernels, coupling
from stokestransport.coupling import (
    EnergyLedger,
    contraction_window,
    energy_ledger_check,
    picard_solve,
    random_ledger,
    stability_experiment,
    time_march,
)
from stokestransport.domain import DomainKind, DomainSpec, make_grid
from stokestransport.norms import smoothstep
from stokestransport.scenarios import make_density
from stokestransport.stokes import flux_profile, solve_buoyancy


class TestPicard:
    def test_constant_density_converges_immediately(self, strip):
        dom, grid = strip
        rho0 = make_density("constant", grid, dom, value=0.75)
        states, trace = picard_solve(rho0, T=0.5, n_time_nodes=4)
        assert trace.converged
        assert trace.iterations == 1
        assert trace.diffs[0] == 0.0
        assert np.all(states[-1].rho.values == 0.75)

    def test_exact_fixed_point_converges_with_zero_tol(self, strip):
        # every distance of a constant density is exactly 0: the first sweep
        # is a fixed point, not two equal distances of a stalled iteration
        dom, grid = strip
        rho0 = make_density("constant", grid, dom, value=0.75)
        _, trace = picard_solve(rho0, T=0.5, n_time_nodes=4, tol=0.0,
                                max_picard=3)
        assert trace.converged
        assert trace.diffs.tolist() == [0.0]

    def test_stratified_stays_hydrostatic(self, strip):
        dom, grid = strip
        rho0 = make_density("stratified", grid, dom)
        states, trace = picard_solve(rho0, T=0.5, n_time_nodes=4)
        assert trace.converged
        for s in states:
            assert s.norms["u_linf"] <= 10 * 1e-10

    def test_perturbed_contraction(self, strip):
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.05)
        states, trace = picard_solve(rho0, T=1.0, n_time_nodes=8, tol=1e-8,
                                     max_picard=10)
        assert trace.converged
        assert trace.iterations <= 10
        assert trace.contraction_estimate <= 0.5
        ratios = [trace.diffs[i + 1] / trace.diffs[i]
                  for i in range(len(trace.diffs) - 1) if trace.diffs[i] > 0]
        assert all(r <= 0.6 for r in ratios)

    def test_trace_shape(self, strip):
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        states, trace = picard_solve(rho0, T=0.5, n_time_nodes=5)
        assert len(states) == 5
        assert len(trace.times) == 5
        assert states[0].t == 0.0 and states[-1].t == pytest.approx(0.5)
        assert trace.B >= 0.0
        assert trace.contraction_estimate == pytest.approx(
            trace.B * trace.T * math.exp(trace.B * trace.T))

    def test_validation(self, strip):
        dom, grid = strip
        rho0 = make_density("constant", grid, dom)
        with pytest.raises(ValueError):
            picard_solve(rho0, T=0.0)
        with pytest.raises(ValueError):
            picard_solve(rho0, T=1.0, n_time_nodes=1)
        with pytest.raises(ValueError):
            picard_solve(rho0, T=1.0, max_picard=0)

    def test_each_sweep_solves_each_node_once(self, strip, monkeypatch):
        # rho0 is solved once and node 0 keeps that solve; every sweep then
        # solves nodes 1..n-1 of its new series once, and the last sweep's
        # solutions are the returned states
        calls = []

        def counted(rho, *args, **kwargs):
            calls.append(rho)
            return solve(rho, *args, **kwargs)

        solve = coupling.solve_buoyancy
        monkeypatch.setattr(coupling, "solve_buoyancy", counted)
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        states, trace = picard_solve(rho0, T=0.5, n_time_nodes=4)
        assert trace.iterations >= 2
        assert len(calls) == 1 + trace.iterations * 3
        assert calls[0] is rho0
        assert all(s.rho is r for s, r in zip(states[1:], calls[-3:], strict=True))
        assert np.array_equal(states[0].rho.values, rho0.values)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
    def test_bad_tol_rejected_before_any_solve(self, strip, monkeypatch, tol):
        def refused(*args, **kwargs):
            raise AssertionError("solved before the arguments were checked")

        monkeypatch.setattr(coupling, "solve_buoyancy", refused)
        dom, grid = strip
        rho0 = make_density("constant", grid, dom)
        with pytest.raises(ValueError, match="tol"):
            picard_solve(rho0, T=1.0, tol=tol)

    def test_each_trace_builds_its_own_tables(self, strip, monkeypatch):
        # the RK4 corner tables belong to the trace, not the velocity: each
        # Picard interval's two-node series builds both nodes' tables and
        # lets them go when the interval ends, and a march step traces its
        # steady velocity as a one-node series
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        build = _kernels.velocity_tables
        monkeypatch.setattr(_kernels, "velocity_tables", counted)
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        n = 6
        _, trace = picard_solve(rho0, T=0.5, n_time_nodes=n, tol=0.0,
                                max_picard=3)
        assert trace.iterations == 3
        assert len(builds) == trace.iterations * 2 * (n - 1)
        builds.clear()
        states = time_march(rho0, T=0.5, dt=0.125)
        assert len(builds) == len(states) - 1 == 4

    def test_first_interval_map_starts_each_sweep(self, strip, monkeypatch):
        # each sweep composes every later interval onto one running backward
        # map, which interval 1's map starts: with 3 nodes that is one
        # composition per sweep, running 0.5 -> 0.25 -> 0
        composed = []

        def recorded(outer, inner):
            out = compose(outer, inner)
            composed.append((outer, inner, out))
            return out

        compose = coupling.compose_maps
        monkeypatch.setattr(coupling, "compose_maps", recorded)
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        _, trace = picard_solve(rho0, T=0.5, n_time_nodes=3)
        assert len(composed) == trace.iterations
        for first, step2, back in composed:
            assert (first.t0, first.t1) == (0.25, 0.0)
            assert (step2.t0, step2.t1) == (0.5, 0.25)
            assert (back.t0, back.t1) == (0.5, 0.0)

    def test_peak_memory_grows_by_one_node_per_node(self, strip):
        # a sweep streams its nodes: the run holds each node's density and
        # velocity, not a whole series of solves (with pressure) and flow
        # maps next to two density series
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        picard_solve(rho0, T=0.5, n_time_nodes=4)  # warm the caches

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                _, trace = picard_solve(rho0, T=0.5, n_time_nodes=n, tol=0.0,
                                        max_picard=2)
                size = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert trace.iterations == 2
            return size

        u = solve_buoyancy(rho0).u
        node = rho0.values.nbytes + u.u1.values.nbytes + u.u2.values.nbytes
        per_node = (peak(16) - peak(4)) / 12
        assert per_node <= 1.3 * node

    def test_rectangle_mode(self, rect):
        dom, grid = rect
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        states, trace = picard_solve(rho0, T=0.5, n_time_nodes=4)
        assert trace.converged


class _AppendOnly:
    """An output sink that can be appended to and iterated, not indexed."""

    def __init__(self):
        self._states = []

    def append(self, state):
        self._states.append(state)

    def __iter__(self):
        return iter(self._states)


class TestTimeMarch:
    def test_state_times(self, strip):
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        states = time_march(rho0, T=0.5, dt=0.125)
        assert [s.t for s in states] == pytest.approx([0.0, 0.125, 0.25,
                                                       0.375, 0.5])

    def test_stratified_is_stationary(self, strip):
        dom, grid = strip
        rho0 = make_density("stratified", grid, dom)
        states = time_march(rho0, T=1.0, dt=0.01)
        for s in states:
            assert s.norms["u_linf"] <= 1e-9
        assert np.array_equal(states[-1].rho.values, rho0.values)

    def test_max_principle_exact(self, strip):
        dom, grid = strip
        rho0 = make_density("patch", grid, dom, delta=5.0)
        states = time_march(rho0, T=0.5, dt=0.05)
        for s in states:
            assert s.rho.values.min() >= rho0.values.min()
            assert s.rho.values.max() <= rho0.values.max()

    def test_sup_norm_constant_on_plateau_extrema(self, strip):
        # convex interpolation attains the extremes exactly whenever they
        # sit on plateaus wider than the displacement, as here
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.08)
        states = time_march(rho0, T=1.0, dt=0.1)
        for s in states:
            assert s.norms["rho_linf"] == 1.0
            assert s.rho.values.min() == 0.0

    def test_strip_states_have_zero_flux(self, strip):
        dom, grid = strip
        rho0 = make_density("patch", grid, dom, delta=5.0)
        states = time_march(rho0, T=0.25, dt=0.05)
        for s in states:
            assert abs(s.norms["flux"]) <= 1e-10
            # a state keeps no velocity; the solve of its density is its own,
            # and the state's flux is the one that solve reports
            sol = solve_buoyancy(s.rho)
            assert np.max(np.abs(flux_profile(sol.u))) <= 1e-10
            assert s.norms["flux"] == sol.flux

    @pytest.mark.parametrize("kind, x_extent, nx, nz", [
        (DomainKind.STRIP, 8.0, 128, 32), (DomainKind.RECTANGLE, 1.0, 32, 32)],
        ids=["strip", "rectangle"])
    def test_sinking_patch_keeps_the_bound_and_loses_energy(self, kind, x_extent,
                                                             nx, nz):
        # a heavy patch that sinks to the floor: every state stays inside
        # the exact range [0, 1] of rho0 and E_p never increases.  Every
        # step moves less than a cell, so the advisory warning stays off.
        # The mass drifts by a few percent; the next test pins its cause.
        dom = DomainSpec(kind, x_extent)
        rho0 = make_density("patch", make_grid(dom, nx, nz), dom, r_inner=0.2,
                            r_outer=0.24, cz=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = time_march(rho0, 80.0, 2.5)
        assert (rho0.values.min(), rho0.values.max()) == (0.0, 1.0)
        for s in states:
            assert 0.0 <= s.rho.values.min() and s.rho.values.max() <= 1.0
        energy = [s.norms["potential_energy"] for s in states]
        assert all(b <= a for a, b in zip(energy, energy[1:]))

    def test_sinking_patch_gains_mass_at_first_order_in_h(self):
        # the patch above gains mass by T = 80, +4.39 % on the 32^2 rectangle
        # and +2.20 % on the 64^2 one: the composed map's bilinear sample of
        # the old displacement gives the dense fluid more area, and the error
        # halves with the cell width
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        gains = []
        for n in (32, 64):
            rho0 = make_density("patch", make_grid(dom, n, n), dom, r_inner=0.2,
                                r_outer=0.24, cz=0.7)
            last = time_march(rho0, 80.0, 2.5)[-1]
            gains.append(last.rho.values.sum() / rho0.values.sum() - 1.0)
        assert gains[0] > 0.0 and gains[1] > 0.0
        assert 1.8 <= gains[0] / gains[1] <= 2.2

    @pytest.mark.parametrize("T, dt, match", [
        (0.0, 0.1, "T must be"), (math.inf, 0.1, "T must be"),
        (math.nan, 0.1, "T must be"), (1.0, 0.0, "need 0 < dt"),
        (1.0, 2.0, "need 0 < dt"), (1.0, math.nan, "need 0 < dt"),
    ], ids=["zero_T", "infinite_T", "nan_T", "zero_dt", "dt_above_T", "nan_dt"])
    def test_bad_times_are_rejected(self, strip, T, dt, match):
        dom, grid = strip
        rho0 = make_density("constant", grid, dom)
        with pytest.raises(ValueError, match=match):
            time_march(rho0, T, dt)

    def test_direct_map_keeps_the_mass_the_composed_map_gains(self):
        # the same march, with its frozen step velocities traced back from
        # T = 80 in one go, with no composition: the patch formula at those
        # feet changes its mass by +0.90 % at 32^2 and -0.10 % at 64^2,
        # against the pull-back's +4.39 % and +2.20 %, so the composed map's
        # sample of the old displacement is where the gain comes from
        dom = DomainSpec(DomainKind.RECTANGLE, 1.0)
        for n, share in ((32, 0.3), (64, 0.1)):
            g = make_grid(dom, n, n)
            rho0 = make_density("patch", g, dom, r_inner=0.2, r_outer=0.24,
                                cz=0.7)
            states = time_march(rho0, 80.0, 2.5)
            p = _kernels.center_points(g.nx, g.nz, g.hx, g.hz).copy()
            for state in reversed(states[:-1]):
                u = solve_buoyancy(state.rho).u
                e = _kernels.velocity_tables(u.u1.values, u.u2.values, False)
                _kernels.rk4_step(*p, -2.5, e, e, e, g.nz, g.hx, g.hz,
                                  False, 1.0)
            d = np.hypot(p[0] - 0.5, p[1] - 0.7)
            mass = rho0.values.sum()
            direct = (1.0 - smoothstep((d - 0.2) / 0.04)).sum() / mass - 1.0
            gain = states[-1].rho.values.sum() / mass - 1.0
            assert abs(direct) <= share * gain

    def test_advisory_warning_on_large_step(self, strip):
        dom, grid = strip
        rho0 = make_density("patch", grid, dom, delta=40.0)
        with pytest.warns(UserWarning, match="step"):
            time_march(rho0, T=10.0, dt=5.0)

    def test_advisory_warning_with_an_append_only_sink(self, strip):
        # the warning reads the state just made, not states[-1], which a
        # sink without indexing does not have
        dom, grid = strip
        rho0 = make_density("patch", grid, dom, delta=40.0)
        with pytest.warns(UserWarning, match="step"):
            time_march(rho0, T=10.0, dt=5.0, states=_AppendOnly())

    @pytest.mark.parametrize("sink", [list, _AppendOnly],
                             ids=["list", "append_only_sink"])
    def test_sink_receives_the_states_in_order(self, strip, sink):
        dom, grid = strip
        rho0 = make_density("patch", grid, dom, delta=5.0)
        expected = time_march(rho0, T=0.25, dt=0.05)
        out = sink()
        assert time_march(rho0, T=0.25, dt=0.05, states=out) is out
        got = list(out)
        assert len(got) == len(expected) == 6
        for a, b in zip(got, expected):
            assert a.t == b.t
            assert a.norms == b.norms
            assert np.array_equal(a.rho.values, b.rho.values)

    def test_potential_energy_logged(self, strip):
        dom, grid = strip
        rho0 = make_density("patch", grid, dom, delta=5.0)
        states = time_march(rho0, T=0.25, dt=0.05)
        assert all("potential_energy" in s.norms for s in states)

    def test_picard_consistency(self, strip):
        # the two solution paths share the Stokes/transport building blocks
        # but discretize time differently; for a smooth scenario with tiny
        # velocity they agree to well below the max principle scale
        dom, grid = strip
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.05)
        T = 0.5
        states_p, trace = picard_solve(rho0, T=T, n_time_nodes=9)
        states_m = time_march(rho0, T=T, dt=T / 8)
        assert trace.converged
        d = states_p[-1].rho.values - states_m[-1].rho.values
        gap = math.sqrt(grid.hx * grid.hz * float(np.sum(d * d)))
        # velocities are O(1e-4); both paths advect by O(dt * |u|)
        assert gap <= 1e-5

    @pytest.mark.parametrize("kind", [DomainKind.STRIP, DomainKind.RECTANGLE],
                             ids=["strip", "rectangle"])
    def test_states_keep_one_density_per_step(self, kind):
        # a state is its time, density and norms: the bytes a march retains
        # grow by about one density field per step, not by u1, u2 and p too
        dom = DomainSpec(kind, 8.0 if kind is DomainKind.STRIP else 2.0)
        grid = make_grid(dom, 64, 32)
        rho0 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        dt = 0.01
        time_march(rho0, T=10 * dt, dt=dt)  # warm the solver and kernel caches

        def retained(nsteps):
            gc.collect()
            tracemalloc.start()
            try:
                states = time_march(rho0, T=nsteps * dt, dt=dt)
                gc.collect()
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(states) == nsteps + 1
            return size

        per_step = (retained(40) - retained(10)) / 30
        assert per_step <= 1.5 * rho0.values.nbytes

    def test_refinement_convergence(self):
        # fixed smooth scenario: halving h should cut the solution change
        # by roughly 4 (second-order building blocks)
        dom = DomainSpec(DomainKind.STRIP, 8.0)
        finals = {}
        for nx, nz in ((32, 8), (64, 16), (128, 32)):
            grid = make_grid(dom, nx, nz)
            rho0 = make_density("stratified_perturbed", grid, dom, eps=0.05)
            states = time_march(rho0, T=0.5, dt=0.0625)
            finals[(nx, nz)] = states[-1].rho.values

        def restrict(vals):
            nx, nz = vals.shape
            return vals.reshape(nx // 2, 2, nz // 2, 2).mean(axis=(1, 3))

        def l2(a, grid_cells):
            area = 8.0 / grid_cells[0] * (1.0 / grid_cells[1])
            return math.sqrt(area * float(np.sum(a * a)))

        d_coarse = l2(restrict(finals[(64, 16)]) - finals[(32, 8)], (32, 8))
        d_fine = l2(restrict(finals[(128, 32)]) - finals[(64, 16)], (64, 16))
        assert d_coarse / d_fine >= 2.5


class TestStabilityExperiment:
    def test_identical_data_absolute_branch(self, strip):
        dom, grid = strip
        rho = make_density("stratified_perturbed", grid, dom, eps=0.02)
        rep = stability_experiment(rho, rho, T=0.25)
        assert rep.absolute
        assert max(abs(v) for v in rep.values) <= 1e-12

    def test_ratio_branch_normalized(self, strip):
        dom, grid = strip
        r1 = make_density("stratified", grid, dom)
        r2 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        rep = stability_experiment(r1, r2, T=0.5)
        assert not rep.absolute
        assert rep.values[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.mode == "strip"
        assert len(rep.times) == len(rep.values)

    def test_half_perturbation_linearity(self, strip):
        dom, grid = strip
        base = make_density("stratified", grid, dom)
        full = make_density("stratified_perturbed", grid, dom, eps=0.04)
        half = make_density("stratified_perturbed", grid, dom, eps=0.02)
        rep_f = stability_experiment(base, full, T=0.5)
        rep_h = stability_experiment(base, half, T=0.5)
        gf = np.array(rep_f.values)
        gh = np.array(rep_h.values)
        assert np.max(np.abs(gf - gh) / gf) <= 0.05

    def test_rect_mode_label(self, rect):
        dom, grid = rect
        r1 = make_density("stratified", grid, dom)
        r2 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        rep = stability_experiment(r1, r2, T=0.25)
        assert rep.mode == "bounded"

    def test_grid_mismatch_rejected(self, rect, strip):
        rdom, rgrid = rect
        sdom, sgrid = strip
        r1 = make_density("stratified", rgrid, rdom)
        r2 = make_density("stratified", sgrid, sdom)
        with pytest.raises(ValueError):
            stability_experiment(r1, r2, T=0.25)

    def test_off_period_strip_rejected_before_any_march(self, monkeypatch):
        # the unit windows that measure the gap need nx a multiple of 8
        def no_march(*args, **kwargs):
            raise AssertionError("time_march reached on an off-period strip")

        monkeypatch.setattr(coupling, "time_march", no_march)
        dom = DomainSpec(DomainKind.STRIP, 8.0)
        grid = make_grid(dom, 36, 8)
        r1 = make_density("stratified", grid, dom)
        r2 = make_density("stratified_perturbed", grid, dom, eps=0.02)
        with pytest.raises(ValueError, match="multiple of the period 8"):
            stability_experiment(r1, r2, T=0.25)


class TestContractionWindow:
    def test_lambertw_oracle(self):
        # W(0.4) = 0.29716775067313856: the window solves B T e^{BT} = 0.4
        assert contraction_window(1.0, target=0.4, cap=10.0) == pytest.approx(
            0.29716775067313856, rel=1e-12)

    def test_scaling_in_b(self):
        w1 = contraction_window(1.0, cap=100.0)
        w2 = contraction_window(2.0, cap=100.0)
        assert w2 == pytest.approx(w1 / 2.0, rel=1e-12)

    def test_cap_binds(self):
        assert contraction_window(1e-9) == 1.0
        assert contraction_window(1e-9, cap=2.5) == 2.5

    def test_degenerate_b(self):
        assert contraction_window(0.0) == 1.0
        assert contraction_window(-3.0, cap=0.7) == 0.7

    def test_nan_b_rejected(self):
        with pytest.raises(ValueError):
            contraction_window(math.nan)


class _LinearLedger:
    """E_{n,k} = k F with C = 1: recursion reads k <= 1 * (0 + (k+1))."""

    @staticmethod
    def build(n_max=8, F=0.7):
        E = {n: F * np.arange(1, n + 1, dtype=float) for n in range(1, n_max + 1)}
        return EnergyLedger(E=E, C=1.0, F=F)


class TestLedger:
    def test_linear_family_oracle(self):
        res = energy_ledger_check(_LinearLedger.build())
        assert res.verdict == "pass"
        assert res.C0 == 1.0
        assert res.k0 == 1

    def test_endpoint_violation_detected(self):
        led = _LinearLedger.build()
        E = {n: v.copy() for n, v in led.E.items()}
        E[6][5] = 2.0 * led.C * 6 * led.F + 1.0  # break E_{n,n} <= C n F
        E[6] = np.maximum.accumulate(E[6])
        res = energy_ledger_check(EnergyLedger(E=E, C=led.C, F=led.F))
        assert res.verdict == "hypothesis-failure"
        assert any("endpoint" in msg and "[6]" in msg for msg in res.failures)

    def test_monotonicity_violation_detected(self):
        led = _LinearLedger.build()
        E = {n: v.copy() for n, v in led.E.items()}
        E[5][2] = E[5][3] + 1.0
        res = energy_ledger_check(EnergyLedger(E=E, C=led.C, F=led.F))
        assert res.verdict == "hypothesis-failure"
        assert any("monotonicity" in m for m in res.failures)

    def test_recursion_violation_detected(self):
        # satisfy monotonicity and the endpoint but break the recursion:
        # make E_{n,k} large while E_{n,k+1} - E_{n,k} stays tiny
        F, C = 1.0, 0.5
        n = 6
        E_n = np.array([3.0, 3.0, 3.0, 3.0, 3.0, C * n * F])
        E = {1: np.array([C * F])}
        for m in range(2, n):
            E[m] = np.full(m, C * m * F)
        E[n] = E_n
        res = energy_ledger_check(EnergyLedger(E=E, C=C, F=F))
        assert res.verdict == "hypothesis-failure"
        assert any("recursion" in m for m in res.failures)

    def test_random_families_all_pass(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            C = float(rng.uniform(0.3, 4.0))
            F = float(rng.uniform(0.2, 5.0))
            led = random_ledger(C, F, range(1, 14), rng)
            res = energy_ledger_check(led)
            assert res.verdict == "pass"
            # chosen k0 must sit within the predicted bound (+1 convention)
            assert res.bound == math.inf or res.k0 <= math.floor(res.bound) + 1
            for row in res.scan:
                if math.isfinite(row.bound) and row.c_alpha < 1.0:
                    assert row.ok

    def test_ledger_owns_its_energies(self):
        led = _LinearLedger.build()
        E = {n: v.copy() for n, v in led.E.items()}
        owned = EnergyLedger(E=E, C=led.C, F=led.F)
        E[5][2] = E[5][3] + 1.0  # would break monotonicity in the ledger
        assert np.array_equal(owned.E[5], led.E[5])
        assert energy_ledger_check(owned).verdict == "pass"
        assert not owned.E[5].flags.writeable
        with pytest.raises(ValueError):
            owned.E[5][2] = 0.0

    def test_ledger_mapping_is_read_only(self):
        # no entry can join after the arrays were checked
        led = _LinearLedger.build()
        with pytest.raises(TypeError):
            led.E[9] = np.full(9, np.nan)
        with pytest.raises(TypeError):
            del led.E[5]
        assert sorted(led.E) == list(range(1, 9))

    @pytest.mark.parametrize("E, C, F", [
        ({1: [0.5], 2: [0.7, 0.8]}, 1e308, 0.8),
        ({1: [0.5], 2: [0.7, 1e308]}, 1.5, 0.8),
        ({1: [0.5]}, 1.5, 1e308),
    ], ids=["huge_C", "huge_energy", "huge_F"])
    def test_overflowing_recursion_rejected(self, E, C, F):
        # C (E[k + 1] - E[k] + (k + 1) F) must be finite for every entry
        with pytest.raises(ValueError, match="overflows"):
            EnergyLedger(E=E, C=C, F=F)

    def test_container_validation(self):
        with pytest.raises(ValueError):
            EnergyLedger(E={1: np.array([1.0, 2.0])}, C=1.0, F=1.0)
        with pytest.raises(ValueError):
            EnergyLedger(E={1: np.array([1.0])}, C=0.0, F=1.0)
        with pytest.raises(ValueError):
            EnergyLedger(E={1: np.array([1.0])}, C=1.0, F=-2.0)

    @pytest.mark.parametrize("E, C, F", [
        ({1: [0.5], 2: [0.7, math.nan], 3: [0.1, 0.2, 0.3]}, 1.5, 0.8),
        ({1: [0.5], 2: [0.7, math.inf]}, 1.5, 0.8),
        ({1: [0.5]}, 1.5, math.inf),
        ({1: [0.5]}, math.nan, 0.8),
        ({1: [0.5]}, math.inf, 0.8),
        ({1: [0.5]}, 1.5, math.nan),
    ], ids=["nan_energy", "inf_energy", "inf_F", "nan_C", "inf_C", "nan_F"])
    def test_non_finite_data_rejected(self, E, C, F):
        with pytest.raises(ValueError):
            EnergyLedger(E=E, C=C, F=F)
