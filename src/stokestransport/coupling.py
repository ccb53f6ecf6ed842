"""Coupled solver: fixed-point iteration, time marching, stability runs.

The coupled system pairs a steady Stokes solve driven by -rho e_z with
pure transport of rho.  Two drivers are provided:

* picard_solve alternates the two solves on a fixed time window and
  measures the dual-norm distance between consecutive density iterates.
  A sweep visits the time nodes once, in order: it integrates interval i
  in the old iterate's velocity, blended between the interval's two
  nodes, composes it onto one running backward map, which interval 1's
  map starts, pulls node i back from rho0, takes its difference to the
  old node and solves it.  Between sweeps an iterate is one density and
  velocity per node; interval maps, pressures and old nodes are let go as
  soon as nothing later reads them.  The contraction indicator B T e^{BT}
  uses the measured operator constant: B is the largest observed
  W^{1,inf}-velocity-to-sup-density ratio times sup |rho0|.
* time_march freezes the velocity over each step and advances a composed
  backward flow map, which the first step's map starts, so the density at
  every output time is a single bilinear sample of the initial data.  Sup
  bounds therefore never decay: the scheme cannot create extrema, and
  plateau-built initial data keeps its sup exactly.

Both step through _advance and return SimulationState records of time,
density and norms only.  The velocity and pressure are the Stokes
response to -rho e_z, so the density is the whole state: each solve is
read for its norms and then let go.
time_march hands each state to an output sink as soon as it is made: by
default a list, which keeps one density field per step, while the CLI's
sink writes the state's series row and snapshot and keeps none, so a CLI
march holds one live density whatever its step count.

Strip-mode density differences are measured in the windowed dual norm
with the solve widened by (measured max speed) x (elapsed time), a
finite-speed enlargement of the window supports.

The energy-ledger checker is the executable form of the descending
induction on windowed energies: given E_{n,k} monotone in k with
E_{n,n} <= C n F and E_{n,k} <= C (E_{n,k+1} - E_{n,k} + (k+1) F),
a violation E_{n,k} > alpha k F at any k >= C_alpha / (1 - C_alpha)
(alpha >= C, C_alpha = (C/(C+1)) (1 + 1/alpha) < 1) would propagate
upward to contradict the k = n hypothesis.  Hence the smallest index k0
from which E_{n,k} <= alpha k F holds through n obeys
k0 <= floor(C_alpha / (1 - C_alpha)) + 1; the + 1 converts the
"no violation at or above the threshold" statement into a bound on the
first all-clear index.  At alpha = C the constant C_alpha equals 1 and
the predicted bound is infinite, so that candidate accepts any k0.
"""

from __future__ import annotations

import math
import types
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .domain import ScalarField, VelocityField, _owned, z_centers
from .norms import (Partition, _velocity_sup, grad_inf_norm, h1_norm,
                    hneg1_norm, lq_norm, uloc_norm)
from .stokes import flux_profile, solve_buoyancy
from .transport import (
    TransportConfig,
    VelocitySeries,
    _pull_back,
    _step_count,
    compose_maps,
    integrate_flow,
)

__all__ = [
    "EnergyLedger",
    "LedgerCheckResult",
    "LedgerScanRow",
    "PicardDivergenceError",
    "PicardTrace",
    "SimulationState",
    "StabilityExperimentReport",
    "contraction_window",
    "energy_ledger_check",
    "picard_solve",
    "random_ledger",
    "stability_experiment",
    "time_march",
]


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration stopped making progress."""


@dataclass(frozen=True)
class SimulationState:
    """A state of the coupled system: its time, density and norms.

    The density is the whole state; ``solve_buoyancy(rho)`` recovers the
    velocity and pressure.  ``norms`` holds the velocity's ``u_linf``,
    ``u_h1`` and ``flux`` next to the density's own norms.
    """

    t: float
    rho: ScalarField
    norms: dict


@dataclass(frozen=True)
class PicardTrace:
    diffs: np.ndarray
    B: float
    T: float
    contraction_estimate: float
    converged: bool
    iterations: int
    times: np.ndarray


def _potential_energy(rho: ScalarField) -> float:
    zc = z_centers(rho.grid)
    return float(rho.grid.hx * rho.grid.hz * (rho.values * zc[None, :]).sum())


def _make_state(t: float, rho: ScalarField, u: VelocityField) -> SimulationState:
    """The state at t of density rho, whose solve gave velocity u.  The flux
    is read from u's x-face column 0 on the strip, as ``solve_buoyancy``
    reports it, and from the middle column on the rectangle."""
    norms = {
        "rho_l2": lq_norm(rho, 2),
        "rho_linf": lq_norm(rho, np.inf),
        "u_linf": _velocity_sup(u),
        "u_h1": h1_norm(u),
        "flux": float(flux_profile(u)[0 if rho.domain.periodic
                                      else len(u.u1.values) // 2]),
        "potential_energy": _potential_energy(rho),
    }
    return SimulationState(t=float(t), rho=rho, norms=norms)


def _diff_norm(a: ScalarField, b: ScalarField, partition: Partition | None,
               margin: float) -> float:
    diff = a.with_values(a.values - b.values)
    if partition is None:
        return hneg1_norm(diff)
    return uloc_norm(diff, -1, partition, margin=margin).value


def _advance(rho0: ScalarField, back, u: list, t0: float, t1: float,
             config: TransportConfig):
    """The running backward map and density at t1 of either driver: trace
    t1 back to t0 in the velocity handed over in the one-item list u (so it
    goes once traced), compose that map onto back, the running map from t0
    to 0, or start it when back is None, and pull rho0 back through it."""
    step = integrate_flow(u.pop(), t1, t0, config)
    back = step if back is None else compose_maps(back, step)
    del step
    return back, _pull_back(rho0, back)


def picard_solve(rho0: ScalarField, T: float, n_time_nodes: int = 16,
                 tol: float = 1e-8, max_picard: int = 25):
    """Alternate Stokes and transport solves on [0, T] to a fixed point.

    Returns (states, trace): the final self-consistent time series and the
    iteration record.  Divergence (no decrease in the iterate distance by
    the iteration cap) raises PicardDivergenceError suggesting a shorter
    window.  Each interval is integrated in its two nodes' velocities with
    a quarter of the node spacing; interval 1's map starts the sweep's map.
    A sweep converges when its distance falls below tol or is exactly 0 (a
    fixed point); otherwise tol = 0 runs all max_picard sweeps.
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if n_time_nodes < 2:
        raise ValueError("need at least two time nodes")
    if not (tol >= 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if max_picard < 1:
        raise ValueError("max_picard must be >= 1")
    n = int(n_time_nodes)
    times = np.linspace(0.0, float(T), n)
    config = TransportConfig(dt=float(times[1] - times[0]) / 4.0)
    g, dom = rho0.grid, rho0.domain
    partition = Partition(g, dom) if dom.periodic else None

    sol = solve_buoyancy(rho0)
    # the iterate, node by node: its density and its solve's velocity, which
    # are all that the next sweep and the states read
    rhos = [rho0] * n
    us = [sol.u] * n
    del sol
    rho0_sup = lq_norm(rho0, np.inf)
    ratio_max = 0.0
    speed_max = 0.0
    diffs: list[float] = []
    converged = False

    for _ in range(max_picard):
        for r, u in zip(rhos, us):
            speed = _velocity_sup(u)
            speed_max = max(speed_max, speed)
            sup = lq_norm(r, np.inf)
            if sup > 0.0:
                # max(speed, |grad u|) is w1inf_norm(u)
                ratio_max = max(ratio_max, max(speed, grad_inf_norm(u)) / sup)
        margin = speed_max * float(T)
        old_us = us[:]
        # node 0 is rho0 itself: its solve is kept and its difference is zero
        back = None
        for i in range(1, n):
            # interval i's series holds its two nodes; a stage time that
            # rounds below times[i - 1] clamps to node i - 1
            back, rho = _advance(rho0, back, [VelocitySeries(
                times[i - 1:i + 1], old_us[i - 1:i + 1])],
                float(times[i - 1]), float(times[i]), config)
            old_us[i - 1] = None
            d = _diff_norm(rho, rhos[i], partition, margin)
            delta = d if i == 1 else max(delta, d)
            rhos[i], us[i] = rho, solve_buoyancy(rho).u
        diffs.append(delta)
        if delta < tol or delta == 0.0:
            converged = True
            break

    if not converged and len(diffs) >= 2 and diffs[-1] >= diffs[-2]:
        raise PicardDivergenceError(
            f"iterate distance stopped decreasing ({diffs[-2]:.3e} -> "
            f"{diffs[-1]:.3e} after {len(diffs)} sweeps); choose a shorter "
            f"window than T = {T}")

    B = ratio_max * rho0_sup
    trace = PicardTrace(
        diffs=np.asarray(diffs),
        B=B,
        T=float(T),
        contraction_estimate=B * T * math.exp(B * T),
        converged=converged,
        iterations=len(diffs),
        times=times,
    )
    states = [_make_state(*node) for node in zip(times, rhos, us)]
    return states, trace


def time_march(rho0: ScalarField, T: float, dt: float, states=None):
    """March the coupled system to time T with velocity frozen per step.

    The states sample every step boundary, t = 0 included.  Each is passed
    to ``states.append`` as soon as it is made, and ``states`` is returned
    (a new list when it is None); a sink that writes each state out and
    keeps none lets a march hold one live density.  The density is always
    rho0 pulled back through one running map, which the first step starts.
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if not (0.0 < dt <= T):
        raise ValueError("need 0 < dt <= T")
    nsteps = _step_count(T, dt)

    def bound(k):  # step k's start time, T for the last
        return T if k == nsteps else min(k * dt, T)

    hmin = min(rho0.grid.hx, rho0.grid.hz)
    back, rho = None, rho0
    if states is None:
        states = []
    warned = False
    for k in range(nsteps + 1):
        sol = solve_buoyancy(rho)
        t0 = bound(k)
        state = _make_state(t0, rho, sol.u)
        states.append(state)
        if k == nsteps:
            break
        t1 = bound(k + 1)
        h = t1 - t0
        if not warned and h * state.norms["u_linf"] > hmin:
            warnings.warn(
                "advective step exceeds one cell; accuracy may suffer "
                f"(dt |u| = {h * state.norms['u_linf']:.3g} > h = {hmin:.3g})",
                stacklevel=2)
            warned = True
        # the step reads only the velocity: the solve's pressure and the
        # state go before it, the velocity once it is traced
        u = [sol.u]
        del sol, state, rho
        back, rho = _advance(rho0, back, u, t0, t1, TransportConfig(dt=h))
    return states


@dataclass(frozen=True)
class StabilityExperimentReport:
    mode: str
    times: np.ndarray
    values: np.ndarray
    absolute: bool
    slope: float
    initial_diff: float


def stability_experiment(rho0_1: ScalarField, rho0_2: ScalarField, T: float,
                         dt: float | None = None) -> StabilityExperimentReport:
    """Evolve two data sets side by side and track their dual-norm gap.

    values holds G(t) = gap(t) / gap(0) when the initial gap is nonzero,
    otherwise the absolute gaps (flagged by ``absolute``).  slope is the
    least-squares slope of log values against t (0 in the absolute branch).
    """
    if (rho0_1.grid, rho0_1.domain) != (rho0_2.grid, rho0_2.domain):
        raise ValueError("both data sets must live on one grid")
    if dt is None:
        dt = T / 16.0
    dom = rho0_1.domain
    partition = Partition(rho0_1.grid, dom) if dom.periodic else None
    s1 = time_march(rho0_1, T, dt)
    s2 = time_march(rho0_2, T, dt)
    speed = max(st.norms["u_linf"] for st in s1 + s2)
    times = np.array([st.t for st in s1])
    gaps = np.array([
        _diff_norm(a.rho, b.rho, partition, margin=speed * a.t)
        for a, b in zip(s1, s2)
    ])
    scale = max(lq_norm(rho0_1, 2), lq_norm(rho0_2, 2), 1e-30)
    if gaps[0] <= 1e-14 * scale:
        return StabilityExperimentReport(
            mode="strip" if dom.periodic else "bounded",
            times=times, values=gaps, absolute=True, slope=0.0,
            initial_diff=float(gaps[0]))
    G = gaps / gaps[0]
    logs = np.log(np.maximum(G, 1e-300))
    slope = float(np.polyfit(times, logs, 1)[0])
    return StabilityExperimentReport(
        mode="strip" if dom.periodic else "bounded",
        times=times, values=G, absolute=False, slope=slope,
        initial_diff=float(gaps[0]))


def contraction_window(B: float, target: float = 0.4, cap: float = 1.0) -> float:
    """Largest T with B T e^{BT} <= target, capped; solves via Lambert W."""
    if not (0.0 < target < 1.0):
        raise ValueError("target must lie in (0, 1)")
    if math.isnan(B):
        raise ValueError("B must be a number, got nan")
    if B <= 0.0:
        return cap
    return min(cap, _lambert_w(target) / B)


def _lambert_w(y: float) -> float:
    """The principal branch of w e^w = y for 0 < y < 1, by Halley's iteration.

    The start log(1 + y) lies within 0.13 of the root on that range, and each
    step about triples the correct digits; the loop stops when a step no
    longer moves w.
    """
    w = math.log1p(y)
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - y
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if w - step == w:
            break
        w -= step
    return w


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyLedger:
    """Windowed-energy family: E[n] holds E_{n,1} .. E_{n,n}, in a
    read-only mapping of read-only arrays.

    A family whose hypothesis checks would overflow, C (2 max |E| +
    (n + 1) F) at its largest n, is rejected.
    """

    E: Mapping[int, np.ndarray]
    C: float
    F: float

    def __post_init__(self):
        if not (0.0 < self.C < math.inf and 0.0 < self.F < math.inf):
            raise ValueError("C and F must be positive and finite")
        owned = {}
        reach = 0.0
        for n, a in self.E.items():
            n = int(n)
            owned[n] = _owned(a, (n,), f"E[{n}]")
            # bounds C (E[k + 1] - E[k] + (k + 1) F) in the recursion check
            top = 2.0 * float(np.abs(owned[n]).max(initial=0.0))
            reach = max(reach, self.C * (top + (n + 1) * self.F))
        if not reach * (1.0 + _REL_SLACK) < math.inf:
            raise ValueError(
                "the family's recursion check overflows: "
                f"C (2 max |E| + (n + 1) F) = {reach:.3g}")
        object.__setattr__(self, "E", types.MappingProxyType(owned))


@dataclass(frozen=True)
class LedgerScanRow:
    alpha: float
    k0: int
    c_alpha: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class LedgerCheckResult:
    verdict: str  # "pass", "hypothesis-failure", or "fail"
    C0: float | None
    k0: int | None
    bound: float | None
    failures: tuple
    scan: tuple


_ALPHA_MULTIPLIERS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
_REL_SLACK = 1e-12


def energy_ledger_check(ledger: EnergyLedger) -> LedgerCheckResult:
    """Validate the ledger hypotheses, then hunt for (C0, k0).

    The candidate grid for C0 is C times _ALPHA_MULTIPLIERS, scanned in
    ascending order; the verdict is "pass" at the first candidate whose
    measured first all-clear index satisfies the propagation bound
    floor(C_alpha / (1 - C_alpha)) + 1 (infinite when C_alpha >= 1).
    """
    C, F = ledger.C, ledger.F
    failures = []
    for n in sorted(ledger.E):
        a = ledger.E[n]
        for k in range(1, n):
            if a[k - 1] > a[k] * (1.0 + _REL_SLACK) + 1e-300:
                failures.append(
                    f"monotonicity: E[{n}][{k}] = {a[k - 1]:.6g} > "
                    f"E[{n}][{k + 1}] = {a[k]:.6g}")
        if a[n - 1] > C * n * F * (1.0 + _REL_SLACK):
            failures.append(
                f"endpoint: E[{n}][{n}] = {a[n - 1]:.6g} > C n F = "
                f"{C * n * F:.6g}")
        for k in range(1, n):
            lhs = a[k - 1]
            rhs = C * (a[k] - a[k - 1] + (k + 1) * F)
            if lhs > rhs * (1.0 + _REL_SLACK) + 1e-300:
                failures.append(
                    f"recursion: E[{n}][{k}] = {lhs:.6g} > "
                    f"C (E[{n}][{k + 1}] - E[{n}][{k}] + {k + 1} F) = {rhs:.6g}")
    if failures:
        return LedgerCheckResult(verdict="hypothesis-failure", C0=None, k0=None,
                                 bound=None, failures=tuple(failures), scan=())

    scan = []
    chosen = None
    for mult in _ALPHA_MULTIPLIERS:
        alpha = C * mult
        k0 = 1
        for n in sorted(ledger.E):
            a = ledger.E[n]
            kn = n
            for k in range(n, 0, -1):
                if a[k - 1] <= alpha * k * F * (1.0 + _REL_SLACK):
                    kn = k
                else:
                    break
            k0 = max(k0, kn)
        c_alpha = (C / (C + 1.0)) * (1.0 + 1.0 / alpha)
        bound = math.inf if c_alpha >= 1.0 else c_alpha / (1.0 - c_alpha)
        ok = math.isinf(bound) or k0 <= math.floor(bound) + 1
        scan.append(LedgerScanRow(alpha=alpha, k0=k0, c_alpha=c_alpha,
                                  bound=bound, ok=ok))
        if ok and chosen is None:
            chosen = scan[-1]
    if chosen is None:
        return LedgerCheckResult(verdict="fail", C0=None, k0=None, bound=None,
                                 failures=(), scan=tuple(scan))
    return LedgerCheckResult(verdict="pass", C0=chosen.alpha, k0=chosen.k0,
                             bound=chosen.bound, failures=(), scan=tuple(scan))


def random_ledger(C: float, F: float, n_values, rng) -> EnergyLedger:
    """Generate a hypothesis-satisfying family by running the recursion down.

    Starting from E_{n,n} = C n F, each step takes the recursion's fixed
    point scaled by a random factor in [1/2, 1] and never exceeds the
    level above, so monotonicity, the endpoint bound, and the recursion
    hold by construction.
    """
    gamma = C / (1.0 + C)
    E = {}
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("window indices must be >= 1")
        a = np.empty(n)
        a[n - 1] = C * n * F
        for k in range(n - 1, 0, -1):
            cap = gamma * (a[k] + (k + 1) * F)
            a[k - 1] = min(a[k], float(rng.uniform(0.5, 1.0)) * cap)
        E[n] = a
    return EnergyLedger(E=E, C=float(C), F=float(F))
