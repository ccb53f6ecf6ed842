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
vertical velocity vanishes at the walls.

Container note: flow maps serialize with the raster tag reserved for
two-channel data; the time endpoints are not part of the container and
must be supplied on read if downstream logic needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, snapshots
from .domain import (
    CENTER,
    DomainSpec,
    GridSpec,
    ScalarField,
    VelocityField,
    cell_center_points,
    x_centers,
    z_centers,
)
from .norms import grad_inf_norm

__all__ = [
    "FlowMap",
    "LipschitzReport",
    "StabilityReport",
    "TransportConfig",
    "VelocitySeries",
    "backward_flow_maps",
    "compose_maps",
    "flow_stability",
    "integrate_flow",
    "lipschitz_growth",
    "push_forward",
    "read_flowmap",
    "steady",
    "write_flowmap",
]


@dataclass(frozen=True)
class TransportConfig:
    dt: float = 0.01
    integrator: str = "rk4"

    def __post_init__(self):
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.integrator != "rk4":
            raise ValueError(f"unsupported integrator {self.integrator!r}")


@dataclass(frozen=True)
class FlowMap:
    """Cell-center characteristic map stored as a displacement raster."""

    t0: float
    t1: float
    grid: GridSpec
    domain: DomainSpec
    displacement: np.ndarray  # (nx, nz, 2), x-offset then z-offset

    def __post_init__(self):
        d = np.ascontiguousarray(self.displacement, dtype=np.float64)
        if d.shape != (self.grid.nx, self.grid.nz, 2):
            raise ValueError(
                f"displacement must have shape {(self.grid.nx, self.grid.nz, 2)}, "
                f"got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "displacement", d)

    def map_centers(self):
        """Mapped cell-center positions, x left unwrapped."""
        px, pz = np.meshgrid(x_centers(self.grid), z_centers(self.grid),
                             indexing="ij")
        return px + self.displacement[:, :, 0], pz + self.displacement[:, :, 1]

    def _sampled_disp(self, px, pz):
        g, dom = self.grid, self.domain
        d = _kernels.sample_center(self.displacement, px, pz, g.hx, g.hz,
                                   dom.periodic, dom.x_extent)
        return d[..., 0], d[..., 1]

    def evaluate(self, px, pz):
        """Map arbitrary points; results stay in the closed domain."""
        px = np.asarray(px, dtype=float)
        pz = np.asarray(pz, dtype=float)
        dx, dz = self._sampled_disp(px, pz)
        qx = px + dx
        qz = np.clip(pz + dz, 0.0, 1.0)
        L = self.domain.x_extent
        if self.domain.periodic:
            qx = qx - L * np.floor(qx / L)
        else:
            qx = np.clip(qx, 0.0, L)
        return qx, qz


class _Steady:
    def __init__(self, u: VelocityField):
        self.u = u

    def __call__(self, t: float) -> VelocityField:
        return self.u


def steady(u: VelocityField):
    """Wrap a single field as a constant-in-time provider."""
    return _Steady(u)


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

    def __call__(self, t: float) -> VelocityField:
        ts = self.times
        if t <= ts[0] or len(self.fields) == 1:
            return self.fields[0]
        if t >= ts[-1]:
            return self.fields[-1]
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if ts[i] == t:
            return self.fields[i]
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        ua, ub = self.fields[i], self.fields[i + 1]
        a1 = (1.0 - w) * ua.u1.values + w * ub.u1.values
        a2 = (1.0 - w) * ua.u2.values + w * ub.u2.values
        return VelocityField.from_arrays(self.grid, self.domain, a1, a2,
                                         enforce_walls=False)


def _as_provider(u):
    if isinstance(u, VelocityField):
        return _Steady(u)
    if callable(u):
        return u
    raise TypeError("velocity must be a VelocityField or a callable of time")


def integrate_flow(u, t0: float, t1: float, config: TransportConfig) -> FlowMap:
    """Trace every cell-center seed from t0 to t1 (backward allowed)."""
    provider = _as_provider(u)
    f = provider(t0)
    g, dom = f.grid, f.domain
    span = t1 - t0
    # the small backoff keeps an exactly-divisible span from gaining a step
    # to floating-point noise in the quotient
    nsteps = (0 if span == 0.0
              else max(1, int(math.ceil(abs(span) / config.dt - 1e-12))))
    px, pz = cell_center_points(g)
    seeds_x, seeds_z = px.copy(), pz.copy()
    if nsteps:
        h = span / nsteps
        fa = f
        t = t0
        for k in range(nsteps):
            fb = provider(t + 0.5 * h)
            fc = provider(t + h)
            _kernels.rk4_step(px, pz, h,
                              fa.u1.values, fa.u2.values,
                              fb.u1.values, fb.u2.values,
                              fc.u1.values, fc.u2.values,
                              g.hx, g.hz, dom.periodic, dom.x_extent)
            if not (np.all(np.isfinite(px)) and np.all(np.isfinite(pz))):
                raise RuntimeError(
                    f"trajectory became non-finite at step {k + 1}/{nsteps} "
                    f"(t = {t + h:.6g})")
            fa = fc
            t = t0 + (k + 1) * h
    disp = np.empty((g.nx, g.nz, 2))
    disp[:, :, 0] = (px - seeds_x).reshape(g.nx, g.nz)
    disp[:, :, 1] = (pz - seeds_z).reshape(g.nx, g.nz)
    return FlowMap(t0=t0, t1=t1, grid=g, domain=dom, displacement=disp)


def compose_maps(outer: FlowMap, inner: FlowMap) -> FlowMap:
    """Map running inner first, then outer; requires inner.t1 == outer.t0."""
    if (inner.grid, inner.domain) != (outer.grid, outer.domain):
        raise ValueError("maps live on different grids")
    if not math.isclose(inner.t1, outer.t0, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(
            f"cannot compose: inner ends at t = {inner.t1}, outer starts at "
            f"t = {outer.t0}")
    qx, qz = inner.map_centers()
    dx, dz = outer._sampled_disp(qx.ravel(), qz.ravel())
    disp = np.empty_like(inner.displacement)
    disp[:, :, 0] = inner.displacement[:, :, 0] + dx.reshape(qx.shape)
    disp[:, :, 1] = inner.displacement[:, :, 1] + dz.reshape(qz.shape)
    return FlowMap(t0=inner.t0, t1=outer.t1, grid=inner.grid,
                   domain=inner.domain, displacement=disp)


def push_forward(rho0: ScalarField, u, t: float,
                 config: TransportConfig) -> ScalarField:
    """Transport rho0 to time t by sampling it along backward characteristics."""
    if rho0.staggering != CENTER:
        raise ValueError("transport acts on cell-centered densities")
    back = integrate_flow(u, t, 0.0, config)
    return _pull_back(rho0, back)


def _pull_back(rho0: ScalarField, back: FlowMap) -> ScalarField:
    """Sample rho0 at the feet of a backward map (identity map is a no-op)."""
    if not back.displacement.any():
        return rho0.with_values(rho0.values)
    g, dom = rho0.grid, rho0.domain
    qx, qz = back.map_centers()
    vals = _kernels.sample_center(rho0.values, qx.ravel(), qz.ravel(),
                                  g.hx, g.hz, dom.periodic, dom.x_extent)
    return rho0.with_values(vals.reshape(g.nx, g.nz))


def backward_flow_maps(u, times, config: TransportConfig):
    """Composed backward maps times[i] -> times[0] for every node.

    Each interval is integrated once and composed onto the accumulated
    map, so the cost is linear in the number of nodes and the transported
    density can always be sampled from its initial state.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("need at least one time node")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    provider = _as_provider(u)
    f = provider(times[0])
    g, dom = f.grid, f.domain
    maps = [FlowMap(t0=float(times[0]), t1=float(times[0]), grid=g, domain=dom,
                    displacement=np.zeros((g.nx, g.nz, 2)))]
    for i in range(1, times.size):
        step = integrate_flow(provider, float(times[i]), float(times[i - 1]),
                              config)
        maps.append(compose_maps(maps[-1], step))
    return maps


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
    from .norms import _to_centers
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
    pointwise = np.sqrt(d[:, :, 0] ** 2 + d[:, :, 1] ** 2)
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
    snapshots.write_raster(path, fm.domain, fm.grid.nx, fm.grid.nz,
                           snapshots.FLOWMAP_TAG, fm.displacement)


def read_flowmap(path, t0: float = 0.0, t1: float = 0.0) -> FlowMap:
    """Load a stored map; supply the endpoints, which the container omits."""
    domain, grid, code, values = snapshots.read_raster(path)
    if code != snapshots.FLOWMAP_TAG:
        raise ValueError(f"raster at {path} is not a flow map")
    return FlowMap(t0=t0, t1=t1, grid=grid, domain=domain, displacement=values)
