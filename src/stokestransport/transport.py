"""Characteristic tracing and semi-Lagrangian density transport.

A FlowMap is the discrete characteristic map: for every cell center x it
stores the displacement X(t1; t0, x) - x, where X solves dX/dt = u(t, X)
from t0 to t1 (either time order).  Densities are transported by the
push-forward rule rho(t) = rho0 composed with the backward map, so the
scheme inherits the convex-interpolation maximum principle exactly: a
transported field never leaves [min rho0, max rho0].

Velocity providers are either a single VelocityField (steady) or a
callable t -> VelocityField; a VelocitySeries interpolates linearly
between stored time nodes, matching how the fixed-point driver stores
velocities at discrete times.  The integrator is the classical 4-stage
Runge-Kutta method with a fixed step; stage points are clamped to the
closed z-interval, which only absorbs floating-point drift because the
vertical velocity vanishes at the walls.  Every provider reaches the RK4
kernel as corner tables, which the trace owns, not the velocity: a series
builds each node's tables once (``_kernels.velocity_tables``) and keeps
them as long as the series lives, and between nodes it blends the tables
of its two bracketing nodes, which equals building the tables of the
blended field bit for bit.  A steady VelocityField is traced as a one-node
series and a plain callable through the tables of each u(t), so a trace's
tables go when it ends and a field never holds more than its arrays.

Container note: a map holds its displacement as a (2, nx, nz) stack, x
offsets then z offsets; it serializes with the raster tag reserved for
two-channel data, whose payload interleaves the two channels point by
point.  The time endpoints are not part of the container and must be
supplied on read if downstream logic needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, snapshots
from .domain import DomainSpec, GridSpec, ScalarField, VelocityField, _owned
from .norms import _to_centers, grad_inf_norm

__all__ = [
    "FlowMap",
    "LipschitzReport",
    "StabilityReport",
    "TransportConfig",
    "VelocitySeries",
    "compose_maps",
    "flow_stability",
    "integrate_flow",
    "lipschitz_growth",
    "read_flowmap",
    "write_flowmap",
]


@dataclass(frozen=True)
class TransportConfig:
    dt: float = 0.01

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True)
class FlowMap:
    """Cell-center characteristic map stored as a displacement raster."""

    t0: float
    t1: float
    grid: GridSpec
    domain: DomainSpec
    displacement: np.ndarray  # (2, nx, nz), x offsets then z offsets

    def __post_init__(self):
        want = (2, self.grid.nx, self.grid.nz)
        object.__setattr__(self, "displacement", _owned(
            self.displacement, want, "displacement"))

    def map_centers(self):
        """Mapped cell centres as a (2, nx, nz) stack, x left unwrapped."""
        g = self.grid
        seeds = _kernels.center_points(g.nx, g.nz, g.hx, g.hz)
        return seeds.reshape(self.displacement.shape) + self.displacement


class VelocitySeries:
    """Linear-in-time interpolation between velocity snapshots.

    Queries outside [times[0], times[-1]] clamp to the nearest endpoint.
    """

    def __init__(self, times, fields):
        times = np.asarray(times, dtype=float)
        fields = list(fields)
        if times.ndim != 1 or times.size != len(fields) or times.size == 0:
            raise ValueError("need one time per field, at least one of each")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        g, dom = fields[0].grid, fields[0].domain
        for f in fields:
            if (f.grid, f.domain) != (g, dom):
                raise ValueError("all fields must share one grid and domain")
        self.times = times
        self.fields = fields
        self.grid = g
        self.domain = dom
        self._node_tables = [None] * len(fields)

    def _bracket(self, t: float):
        """(i, w): the velocity at t is node i's when w is None, else the
        blend (1 - w) node i + w node i + 1."""
        ts = self.times
        if t <= ts[0] or ts.size == 1:
            return 0, None
        if t >= ts[-1]:
            return ts.size - 1, None
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if ts[i] == t:
            return i, None
        return i, (t - ts[i]) / (ts[i + 1] - ts[i])

    def __call__(self, t: float) -> VelocityField:
        i, w = self._bracket(t)
        if w is None:
            return self.fields[i]
        ua, ub = self.fields[i], self.fields[i + 1]
        a1 = (1.0 - w) * ua.u1.values + w * ub.u1.values
        a2 = (1.0 - w) * ua.u2.values + w * ub.u2.values
        return VelocityField.from_arrays(self.grid, self.domain, a1, a2,
                                         enforce_walls=False)

    def _node(self, i: int):
        """Node i's read-only corner tables, built on first use and kept as
        long as the series."""
        tables = self._node_tables[i]
        if tables is None:
            tables = self._node_tables[i] = _tables_of(self.fields[i])
            for e in tables:
                e.flags.writeable = False
        return tables

    def tables(self, t: float):
        """The corner tables of self(t): a node's own, or the blend of its
        two bracketing nodes' tables, bit for bit the same."""
        i, w = self._bracket(t)
        if w is None:
            return self._node(i)
        return _kernels.blend_tables(w, self._node(i), self._node(i + 1))


def _tables_of(u: VelocityField):
    """The RK4 kernel's corner tables of one velocity."""
    return _kernels.velocity_tables(u.u1.values, u.u2.values,
                                    u.domain.periodic)


def _step_count(span: float, dt: float) -> int:
    """How many equal steps of at most dt cover |span|, at least one unless
    span is 0; the backoff keeps an exactly divisible span from gaining a
    step to rounding in the quotient."""
    steps = abs(span) / dt
    if not math.isfinite(steps):
        raise ValueError(f"the step count |{span}| / {dt} = {steps} is not finite")
    return 0 if span == 0.0 else max(1, int(math.ceil(steps - 1e-12)))


def integrate_flow(u, t0: float, t1: float, config: TransportConfig) -> FlowMap:
    """Trace every cell-center seed from t0 to t1 (backward allowed).

    u is a VelocityField, a VelocitySeries or any callable t ->
    VelocityField.  Each RK4 step reads the corner tables of its three
    stage velocities, and a step's end tables start the next step.  A
    steady field is traced as a one-node series, so its tables are built
    once, at the first step, and go with the trace.
    """
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    if isinstance(u, VelocityField):
        u = VelocitySeries([t0], [u])
    if isinstance(u, VelocitySeries):
        g, dom, tables = u.grid, u.domain, u.tables
    elif callable(u):
        f = u(t0)
        g, dom, tables = f.grid, f.domain, lambda t: _tables_of(u(t))
    else:
        raise TypeError("velocity must be a VelocityField or a callable of time")
    span = t1 - t0
    nsteps = _step_count(span, config.dt)
    seeds = _kernels.center_points(g.nx, g.nz, g.hx, g.hz)
    p = seeds.copy()
    if nsteps:
        h = span / nsteps
        va = tables(t0)
        t = t0
        for k in range(nsteps):
            vb = tables(t + 0.5 * h)
            vc = tables(t + h)
            _kernels.rk4_step(*p, h, va, vb, vc, g.nz, g.hx, g.hz,
                              dom.periodic, dom.x_extent)
            if not np.all(np.isfinite(p)):
                raise RuntimeError(
                    f"trajectory became non-finite at step {k + 1}/{nsteps} "
                    f"(t = {t + h:.6g})")
            va = vc
            t = t0 + (k + 1) * h
    p -= seeds
    return FlowMap(t0=t0, t1=t1, grid=g, domain=dom,
                   displacement=p.reshape(2, g.nx, g.nz))


def compose_maps(outer: FlowMap, inner: FlowMap) -> FlowMap:
    """Map running inner first, then outer; requires inner.t1 == outer.t0."""
    if (inner.grid, inner.domain) != (outer.grid, outer.domain):
        raise ValueError("maps live on different grids")
    if not math.isclose(inner.t1, outer.t0, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(
            f"cannot compose: inner ends at t = {inner.t1}, outer starts at "
            f"t = {outer.t0}")
    g, dom = outer.grid, outer.domain
    d = _kernels.sample_center(outer.displacement, *inner.map_centers(),
                               g.hx, g.hz, dom.periodic, dom.x_extent)
    d += inner.displacement
    return FlowMap(t0=inner.t0, t1=outer.t1, grid=inner.grid,
                   domain=inner.domain, displacement=d)


def _pull_back(rho0: ScalarField, back: FlowMap) -> ScalarField:
    """Sample rho0 at the feet of a backward map (identity map is a no-op)."""
    if not back.displacement.any():
        return rho0.with_values(rho0.values)
    g, dom = rho0.grid, rho0.domain
    vals = _kernels.sample_center(rho0.values, *back.map_centers(),
                                  g.hx, g.hz, dom.periodic, dom.x_extent)
    return rho0.with_values(vals)


# ---------------------------------------------------------------------------
# flow bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LipschitzReport:
    measured_lip: float
    bound: float
    gradient_norm: float
    elapsed: float
    violation: bool


def lipschitz_growth(X: FlowMap, u: VelocityField) -> LipschitzReport:
    """Edge-based Lipschitz constant of the map against its a-priori bound.

    The bound is exp(elapsed * |grad u|_inf) with unit constant in the
    exponent; the gradient is measured from the discrete field, wall shear
    included.
    """
    g, dom = X.grid, X.domain
    mx, mz = X.map_centers()
    ratios = []
    dxh = np.diff(mx, axis=0)
    dzh = np.diff(mz, axis=0)
    ratios.append(np.sqrt(dxh ** 2 + dzh ** 2) / g.hx)
    if dom.periodic:
        wx = (mx[0, :] + dom.x_extent) - mx[-1, :]
        wz = mz[0, :] - mz[-1, :]
        ratios.append(np.sqrt(wx ** 2 + wz ** 2) / g.hx)
    dxv = np.diff(mx, axis=1)
    dzv = np.diff(mz, axis=1)
    ratios.append(np.sqrt(dxv ** 2 + dzv ** 2) / g.hz)
    measured = max(float(r.max()) for r in ratios)
    elapsed = abs(X.t1 - X.t0)
    gnorm = grad_inf_norm(u)
    bound = math.exp(elapsed * gnorm)
    return LipschitzReport(measured_lip=measured, bound=bound,
                           gradient_norm=gnorm, elapsed=elapsed,
                           violation=measured > bound * (1.0 + 1e-6))


@dataclass(frozen=True)
class StabilityReport:
    q: float
    left: float
    right: float
    ratio: float
    violated: bool


def _centered_speed_diff(u1: VelocityField, u2: VelocityField) -> np.ndarray:
    d1 = _to_centers(u1.u1) - _to_centers(u2.u1)
    d2 = _to_centers(u1.u2) - _to_centers(u2.u2)
    return np.sqrt(d1 ** 2 + d2 ** 2)


def flow_stability(X1: FlowMap, X2: FlowMap, u1: VelocityField,
                   u2: VelocityField, q) -> StabilityReport:
    """Distance between two maps against t e^{t |grad u1|} |u1 - u2|_q."""
    if (X1.grid, X1.domain) != (X2.grid, X2.domain):
        raise ValueError("maps live on different grids")
    if X1.t0 != X2.t0 or X1.t1 != X2.t1:
        raise ValueError("maps cover mismatched intervals")
    if q not in (2, np.inf):
        raise ValueError("q must be 2 or inf")
    g = X1.grid
    d = X1.displacement - X2.displacement
    pointwise = np.sqrt(d[0] ** 2 + d[1] ** 2)
    speed = _centered_speed_diff(u1, u2)
    if q == 2:
        w = g.hx * g.hz
        left = math.sqrt(w * float((pointwise ** 2).sum()))
        udiff = math.sqrt(w * float((speed ** 2).sum()))
    else:
        left = float(pointwise.max())
        udiff = float(speed.max())
    t = abs(X1.t1 - X1.t0)
    right = t * math.exp(t * grad_inf_norm(u1)) * udiff
    ratio = left / right if right > 0.0 else 0.0
    return StabilityReport(q=float(q), left=left, right=right, ratio=ratio,
                           violated=ratio > 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_flowmap(path, fm: FlowMap) -> None:
    """Store a map; the payload interleaves its x and z offsets per point."""
    snapshots.write_raster(path, fm.domain, fm.grid.nx, fm.grid.nz,
                           snapshots.FLOWMAP_TAG,
                           np.moveaxis(fm.displacement, 0, -1))


def read_flowmap(path, t0: float = 0.0, t1: float = 0.0) -> FlowMap:
    """Load a stored map; supply the endpoints, which the container omits."""
    domain, grid, code, values = snapshots.read_raster(path)
    if code != snapshots.FLOWMAP_TAG:
        raise ValueError(f"raster at {path} is not a flow map")
    return FlowMap(t0=t0, t1=t1, grid=grid, domain=domain,
                   displacement=np.moveaxis(values, -1, 0))
