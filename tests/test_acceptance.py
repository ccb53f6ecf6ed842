"""End-to-end acceptance checks for the solver and verification stack.

Each test guards one headline guarantee at its stated tolerance and prints a
single PASS line when it holds.  Tolerances are frozen here on purpose: they
are the contract, not tuning knobs.
"""
import math

import numpy as np
import pytest
from _flows import composition_orders
from _manufactured import manufactured_case, velocity_error_l2

from stokestransport.coupling import (
    contraction_window,
    energy_ledger_check,
    picard_solve,
    random_ledger,
    stability_experiment,
    time_march,
)
from stokestransport.domain import (
    CENTER,
    DomainKind,
    DomainSpec,
    Forcing,
    ScalarField,
    cell_center_points,
    make_grid,
)
from stokestransport.norms import (
    C_CHI,
    Partition,
    _windowed_plain,
    grad_inf_norm,
    h1_norm,
    hneg1_norm,
    lq_norm,
    uloc_norm,
    window_energy_bound,
)
from stokestransport.scenarios import make_density
from stokestransport.stokes import (
    flux_profile,
    momentum_residual,
    poiseuille,
    solve_buoyancy,
    solve_stokes_bounded,
    solve_stokes_strip,
)
from stokestransport.transport import (
    TransportConfig,
    flow_stability,
    integrate_flow,
    lipschitz_growth,
)

STRIP = DomainSpec(DomainKind.STRIP, 8.0)
RECT = DomainSpec(DomainKind.RECTANGLE, 1.0)


def _scenario_suite(grid, dom):
    return [
        make_density("stratified", grid, dom),
        make_density("stratified_perturbed", grid, dom, eps=0.05),
        make_density("patch", grid, dom, delta=5.0),
        make_density("checker", grid, dom),
    ]


def test_01_channel_flow_exactness():
    grid = make_grid(STRIP, 64, 16)
    for phi in (1.0, 2.5):
        sol = poiseuille(phi, grid, STRIP)
        resid = momentum_residual(sol.u, sol.p,
                                  pressure_slope=sol.pressure_slope)
        assert resid <= 1e-12 * max(1.0, abs(phi))
        flux = flux_profile(sol.u)
        assert np.max(np.abs(flux - phi)) <= 1e-12 * max(1.0, abs(phi))
    print("PASS: 01 channel flow exact to 1e-12 (residual and flux)")


def test_02_manufactured_convergence_order():
    errs = []
    for n in (32, 64, 128):
        grid, dom, force, ex1, ex2 = manufactured_case(DomainKind.RECTANGLE, n, n)
        sol = solve_stokes_bounded(force)
        errs.append(velocity_error_l2(sol, ex1, ex2))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9
    print(f"PASS: 02 velocity convergence orders {orders[0]:.2f}, "
          f"{orders[1]:.2f} >= 1.9")


def test_03_stratified_steady_state():
    grid = make_grid(STRIP, 64, 16)
    rho0 = make_density("stratified", grid, STRIP)
    states = time_march(rho0, T=1.0, dt=0.01)
    assert len(states) == 101
    worst = max(s.norms["u_linf"] for s in states)
    assert worst <= 1e-9
    print(f"PASS: 03 stratified run kept velocity at {worst:.2e} <= 1e-9 "
          "over 100 steps")


def test_04_range_preservation_and_l2_drift():
    worst_drift = 0.0
    for dom in (RECT, STRIP):
        grid = make_grid(dom, 128, 128)
        for rho0 in _scenario_suite(grid, dom):
            states = time_march(rho0, T=1.0, dt=1e-2)
            lo, hi = rho0.values.min(), rho0.values.max()
            for s in states:
                assert s.rho.values.min() >= lo
                assert s.rho.values.max() <= hi
            l2_0 = lq_norm(rho0, 2)
            worst_drift = max(
                worst_drift,
                abs(states[-1].norms["rho_l2"] - l2_0) / l2_0)
    assert worst_drift <= 0.01
    print(f"PASS: 04 range preserved exactly; L2 drift {worst_drift:.2e} "
          "<= 1% over unit time at 128x128")


def test_05_composition_defect_order():
    grid = make_grid(STRIP, 64, 16)
    _, orders = composition_orders(grid, STRIP)
    assert min(orders) >= 3.8

    u = solve_buoyancy(
        make_density("stratified_perturbed", grid, STRIP, eps=0.05)).u
    X = integrate_flow(u, 0.7, 0.7, TransportConfig(dt=0.1))
    px, pz = X.map_centers()
    cx, cz = cell_center_points(grid)
    assert np.array_equal(px.ravel(), cx) and np.array_equal(pz.ravel(), cz)
    print(f"PASS: 05 composition defect orders {min(orders):.2f} >= 3.8; "
          "identity map exact")


def test_06_growth_bounds_randomized():
    rng = np.random.default_rng(99)
    doms = ((STRIP, 32, 8), (RECT, 32, 32))
    violations = cases = 0
    for i in range(60):
        dom, nx, nz = doms[i % 2]
        grid = make_grid(dom, nx, nz)
        eps1, eps2 = rng.uniform(0.01, 0.08, size=2)
        m1, m2 = rng.integers(1, 5, size=2)
        u1 = solve_buoyancy(make_density(
            "stratified_perturbed", grid, dom, eps=float(eps1),
            mode=int(m1))).u
        u2 = solve_buoyancy(make_density(
            "stratified_perturbed", grid, dom, eps=float(eps2),
            mode=int(m2))).u
        T = min(0.1 / max(grad_inf_norm(u1), 1e-12), 1.0)
        cfg = TransportConfig(dt=T / 8)
        X1 = integrate_flow(u1, 0.0, T, cfg)
        X2 = integrate_flow(u2, 0.0, T, cfg)
        violations += lipschitz_growth(X1, u1).violation
        cases += 1
        for q in (2, np.inf):
            violations += flow_stability(X1, X2, u1, u2, q).violated
            cases += 1
    assert cases >= 100
    assert violations == 0
    print(f"PASS: 06 zero growth-bound violations over {cases} randomized "
          "short-time cases")


def test_07_picard_contraction():
    grid = make_grid(STRIP, 64, 16)
    rho0 = make_density("stratified_perturbed", grid, STRIP, eps=0.05)
    probe = picard_solve(rho0, T=0.5, n_time_nodes=8)[1]
    T = contraction_window(probe.B, target=0.4, cap=1.0)
    states, trace = picard_solve(rho0, T=T, n_time_nodes=8, tol=1e-8,
                                 max_picard=10)
    assert trace.contraction_estimate <= 0.5
    assert trace.converged and trace.iterations <= 10
    ratios = [trace.diffs[i + 1] / trace.diffs[i]
              for i in range(len(trace.diffs) - 1) if trace.diffs[i] > 0]
    assert all(r <= 0.6 for r in ratios)
    print(f"PASS: 07 picard converged in {trace.iterations} <= 10 iterations; "
          f"estimate {trace.contraction_estimate:.2e} <= 0.5")


def test_08_stability_growth_envelope():
    worst_resid = 0.0
    worst_half = 0.0
    pairs = 0
    for dom, nx, nz in ((STRIP, 64, 16), (RECT, 64, 64)):
        grid = make_grid(dom, nx, nz)
        base = make_density("stratified", grid, dom)
        for mode in range(1, 6):
            Gs = {}
            for eps in (0.005, 0.01, 0.02, 0.04):
                pert = make_density("stratified_perturbed", grid, dom,
                                    eps=eps, mode=mode)
                rep = stability_experiment(base, pert, T=1.0)
                assert not rep.absolute
                logs = np.log(rep.values)
                fit = np.polyval(np.polyfit(rep.times, logs, 1), rep.times)
                worst_resid = max(worst_resid,
                                  float(np.max(np.abs(logs - fit))))
                Gs[eps] = np.asarray(rep.values)
                pairs += 1
            for big, small in ((0.04, 0.02), (0.01, 0.005)):
                rel = float(np.max(np.abs(Gs[big] - Gs[small]) / Gs[big]))
                worst_half = max(worst_half, rel)
    assert pairs >= 40
    assert worst_resid <= 0.05
    assert worst_half <= 0.05
    print(f"PASS: 08 log-growth affine envelope (max residual "
          f"{worst_resid:.2e}) and halving shift {worst_half:.2e} <= 5% "
          f"across {pairs} pairs")


def test_09_local_norm_machinery():
    for nx, nz in ((32, 8), (64, 16)):
        grid = make_grid(STRIP, nx, nz)
        part = Partition(grid, STRIP)
        assert np.max(np.abs(part.chi_sum() - 2.0)) <= 1e-12

    grid = make_grid(STRIP, 32, 8)
    part = Partition(grid, STRIP)
    rng = np.random.default_rng(314)
    worst_ratio = 0.0
    web_violations = 0
    for _ in range(1000):
        f = ScalarField(grid, STRIP, rng.standard_normal((grid.nx, grid.nz)))
        plain = {0: 0.0, 1: 0.0}
        for k in range(part.period):
            w = _windowed_plain(f, part, k)
            plain[0] = max(plain[0], lq_norm(w, 2))
            plain[1] = max(plain[1], h1_norm(w))
        for m in (0, 1):
            val = uloc_norm(f, m, part).value
            worst_ratio = max(worst_ratio, val / plain[m], plain[m] / val)
        for n in (1, 2):
            web_violations += window_energy_bound(f, n, part).violated
    assert worst_ratio <= C_CHI
    assert web_violations == 0

    one = ScalarField(grid, STRIP, np.ones((grid.nx, grid.nz)))
    lefts = {n: window_energy_bound(one, n, part).left for n in (1, 2, 3, 4)}
    for n, left in lefts.items():
        assert abs(left / lefts[1] - math.sqrt(n)) <= 1e-3 * math.sqrt(n)
    print(f"PASS: 09 partition sums to 2; equivalence ratios <= "
          f"{worst_ratio:.3f} <= C_chi {C_CHI:.3f} over 1000 fields; window "
          "energy obeys the sqrt(n) law")


def test_10_ledger_checker_battery():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        C = float(rng.uniform(0.2, 5.0))
        F = float(rng.uniform(0.1, 8.0))
        n_max = int(rng.integers(5, 26))
        res = energy_ledger_check(random_ledger(C, F, range(1, n_max + 1), rng))
        assert res.verdict == "pass"
        assert res.bound == math.inf or res.k0 <= math.floor(res.bound) + 1

    led = random_ledger(1.5, 0.8, range(1, 12), np.random.default_rng(5))
    E = {n: v.copy() for n, v in led.E.items()}
    E[7][6] = 2.0 * led.C * 7 * led.F + 1.0
    E[7] = np.maximum.accumulate(E[7])
    broken = energy_ledger_check(type(led)(E=E, C=led.C, F=led.F))
    assert broken.verdict == "hypothesis-failure"
    assert any("endpoint" in m and "[7]" in m for m in broken.failures)
    print("PASS: 10 ledger battery: 1000 generated families verified; "
          "violations pinpointed")


def test_11_dual_norm_accuracy():
    grid = make_grid(RECT, 128, 128)
    f = ScalarField.from_function(
        lambda x, z: np.sin(np.pi * x) * np.sin(np.pi * z), grid, RECT, CENTER)
    val = hneg1_norm(f)
    assert abs(val - 0.10977) <= 1e-3

    rng = np.random.default_rng(8)
    small = make_grid(RECT, 32, 32)
    for _ in range(20):
        g = ScalarField(small, RECT, rng.standard_normal((32, 32)))
        a = float(rng.uniform(0.1, 10.0))
        ga = ScalarField(small, RECT, a * g.values)
        assert abs(hneg1_norm(ga) - a * hneg1_norm(g)) <= 1e-10 * hneg1_norm(ga)
        assert hneg1_norm(g) <= lq_norm(g, 2) * (1.0 + 1e-10) + 1e-10
    print(f"PASS: 11 dual norm {val:.6f} within 1e-3 of 0.10977; "
          "homogeneity and L2 domination to 1e-10")


def test_12_zero_flux_uniqueness():
    grid = make_grid(STRIP, 64, 16)
    f1 = np.ones((grid.nx, grid.nz))
    f2 = np.zeros((grid.nx, grid.nz + 1))
    sol = solve_stokes_strip(Forcing(grid, STRIP, f1, f2))
    umax = max(np.max(np.abs(sol.u.u1.values)), np.max(np.abs(sol.u.u2.values)))
    assert umax <= 1e-10
    assert abs(sol.pressure_slope - 1.0) <= 1e-8
    print(f"PASS: 12 uniform horizontal force absorbed by pressure "
          f"(|u| = {umax:.2e}, slope err {abs(sol.pressure_slope-1.0):.2e})")
