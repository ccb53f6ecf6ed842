"""One measured process: set-up, then repeated CLI runs of one workload.

Usage: python3 perfbench/child.py JOB.json

The harness starts a fresh interpreter per measurement, so the module
factor caches start empty and set-up pays the cold factorization.  The
job file names the workload, the seed, the mode ("setup" stops after
set-up; "run" then repeats the CLI subcommand for the given seconds),
whether to trace layers (traced runs then alternate with untraced ones),
and the directory to write into.  The result is printed as one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from stokestransport import _kernels, cli
from stokestransport.domain import DomainKind, DomainSpec, make_grid
from stokestransport.scenarios import make_density
from stokestransport.stokes import solve_buoyancy

import checks
import layertrace
from workloads import Workload

_TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(wl: Workload, params: dict):
    """Grid, initial density and the first (cold) buoyancy solve."""
    kind = DomainKind.STRIP if wl.domain == "strip" else DomainKind.RECTANGLE
    t0 = time.perf_counter()
    dom = DomainSpec(kind, float(wl.x_extent))
    rho0 = make_density(wl.scenario, make_grid(dom, wl.nx, wl.nz), dom,
                        **params)
    rss0 = _maxrss_mb()
    t1 = time.perf_counter()
    solve_buoyancy(rho0)
    t2 = time.perf_counter()
    return rho0, {"setup_s": t2 - t0, "cold_solve_s": t2 - t1,
                  "factor_rss_mb": _maxrss_mb() - rss0}


def _cli_run(argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed run, not a harness error
        traceback.print_exc()
        rc = None
    return time.perf_counter() - t0, rc, buf.getvalue()


def _tail(samples):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    p = max((q for q in _TAIL_LADDER if n * (1.0 - q / 100.0) >= 10.0),
            default=50.0)
    return p, float(np.percentile(samples, p))


def _layers(tracer, setup):
    per_run = [layertrace.layer_split(tracer.spans, root, members)
               for root, members in layertrace.runs(tracer.spans)]
    out = {k: statistics.median_low(r[k] for r in per_run) for k in per_run[0]}
    rates = [r["kernels.seed_steps"] / r["kernels.rk4_s"] / 1e6
             for r in per_run if r["kernels.rk4_s"] > 0]
    out["kernels.mseed_steps_per_s"] = statistics.median(rates) if rates else 0.0
    solves_ms = [1e3 * (s.end - s.start) for s in tracer.spans
                 if s.name == "stokes.solve"]
    out["stokes.solve_ms_p50"] = statistics.median(solves_ms)
    pct, out["stokes.solve_ms_tail"] = _tail(solves_ms)
    out["stokes.factor_s"] = setup["cold_solve_s"] - out["stokes.solve_ms_p50"] / 1e3
    out["stokes.factor_rss_mb"] = setup["factor_rss_mb"]
    return out, {"solve_tail_percentile": pct, "solve_samples": len(solves_ms),
                 "traced_runs": len(per_run)}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    wl = Workload(**job["workload"])
    rho0, result = _setup(wl, wl.params(job["seed"]))
    result["env"] = {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "kernels_backend": _kernels.backend_name()}
    if job["mode"] == "run":
        work = Path(job["work"])
        config = work / "run.ini"
        config.write_text(wl.config(job["seed"]))
        lo, hi = float(rho0.values.min()), float(rho0.values.max())
        tracer = layertrace.Tracer() if job["trace"] else None
        times, traced_times, failed, updates = [], [], 0, 0
        start = time.perf_counter()
        # with tracing on, traced runs alternate with untraced ones, so the
        # overhead ratio compares runs made under the same machine load
        while (not times or time.perf_counter() - start < job["seconds"]
               or (tracer and len(traced_times) < len(times))):
            traced = tracer is not None and len(traced_times) < len(times)
            out = work / ("out_traced" if traced else "out")
            argv = [wl.command, "--config", str(config), "--out", str(out)]
            shutil.rmtree(out, ignore_errors=True)
            with (layertrace.tracing(tracer) if traced
                  else contextlib.nullcontext()):
                elapsed, rc, stdout = _cli_run(argv)
            (traced_times if traced else times).append(elapsed)
            try:
                problems, n = checks.check_run(wl, out, rc, stdout, lo, hi)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, n = [f"unreadable output: {exc!r}"], 0
            updates = max(updates, n)
            if problems:
                failed += 1
                print(f"{wl.name}: run failed: " + "; ".join(problems),
                      file=sys.stderr)
        result.update(run_s=times, attempted=len(times) + len(traced_times),
                      failed=failed, updates=updates, peak_rss_mb=_maxrss_mb())
        if tracer is not None:
            (work / "spans.json").write_text(
                json.dumps([s.as_list() for s in tracer.spans]))
            result["layers"], result["trace_info"] = _layers(tracer, result)
            result["layers"]["trace.overhead_frac"] = statistics.median(
                t / u for t, u in zip(traced_times, times)) - 1.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
