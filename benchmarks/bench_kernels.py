"""Time the transport kernels on full center-seed flow maps.

Integrates the flow map of every cell center for a buoyancy-driven velocity
field at a few grid sizes and reports the best wall time over the repeats
and the throughput in millions of seed-steps per second.

Run:  python3 benchmarks/bench_kernels.py [--sizes 64,128,256] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from stokestransport.domain import DomainKind, DomainSpec, make_grid
from stokestransport.scenarios import make_density
from stokestransport.stokes import solve_buoyancy
from stokestransport.transport import TransportConfig, integrate_flow


def _case(nx: int, nz: int):
    dom = DomainSpec(DomainKind.STRIP, 8.0)
    grid = make_grid(dom, nx, nz)
    rho = make_density("stratified_perturbed", grid, dom, eps=0.05)
    return solve_buoyancy(rho).u


def _best_time(u, dt: float, repeats: int) -> float:
    cfg = TransportConfig(dt=dt)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        integrate_flow(u, 1.0, 0.0, cfg)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="64,128,256",
                    help="comma-separated nx values (nz = nx // 4)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    header = f"{'grid':>12} {'best [s]':>10} {'Mseed-steps/s':>14}"
    print(header)
    print("-" * len(header))
    for nx in sizes:
        nz = max(8, nx // 4)
        u = _case(nx, nz)
        nsteps = int(np.ceil(1.0 / args.dt))
        _best_time(u, args.dt, 1)  # fill caches before timing
        sec = _best_time(u, args.dt, args.repeats)
        rate = nx * nz * nsteps / sec / 1e6
        print(f"{nx:>6}x{nz:<5} {sec:>10.4f} {rate:>14.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
