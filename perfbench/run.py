"""End-to-end benchmark of the stokes-transport CLI, with a traced layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is strip_march, rect_march, strip_picard, or ``all`` for each in
turn.  With ``--trace 0`` the end-to-end metrics are measured: set-up
runs in several fresh interpreters, and the last of them then repeats
the CLI subcommand through ``stokestransport.cli.main`` for S seconds.  With ``--trace 1`` one process alternates untraced and traced
runs for S seconds and reports the per-layer split.  Every CLI
run is checked (see checks.py).  Human-readable lines come first; the
last line of each workload's output is one JSON object with the keys
correct, attempted, failed and metrics.  Names and units of the metrics
are those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-up-only processes before the run process: at least SETUP_MIN, and
# more (up to SETUP_MAX) while they stay within SETUP_BUDGET_S in total, so
# cheap set-ups get a steadier median without tripling a slow one.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 6, 10.0
RUN_BUDGET_S = 170.0  # wall-clock cap on one benchmark invocation
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _declared(section: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


class Harness:
    """Starts the child processes for one workload, within a deadline."""

    def __init__(self, root: Path, work: Path, seconds: float):
        self.root = root
        self.work = work
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), ST_NUMBA="0",
                        **{v: str(_nproc()) for v in _THREAD_VARS})

    def child(self, wl, seed: int, mode: str, tag: str, trace: bool = False):
        work = self.work / tag
        work.mkdir(parents=True)
        job = work / "job.json"
        job.write_text(json.dumps({
            "workload": asdict(wl), "seed": seed, "mode": mode,
            "trace": trace, "seconds": self.seconds, "work": str(work)}))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next child")
        try:
            r = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)],
                               cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                               text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: timed out after {timeout:.0f} s") from exc
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            raise BenchError(f"{tag}: child exited with {r.returncode}")
        return json.loads(lines[-1])


def measure(wl, seed: int, seconds: float, trace: bool, work: Path,
            root: Path) -> dict:
    """Run one workload; returns the result object plus notes and env."""
    shutil.rmtree(work, ignore_errors=True)
    h = Harness(root, work, seconds)
    if trace:
        traced = h.child(wl, seed, "run", "traced", trace=True)
        metrics = traced["layers"]
        runs = (traced,)
        info = traced["trace_info"]
        notes = {"trace.overhead_frac":
                     "median over paired runs of traced / untraced - 1",
                 "stokes.solve_ms_tail":
                     f"p{info['solve_tail_percentile']:g} of "
                     f"{info['solve_samples']} warm solves"}
        notes.update({k: f"median of {info['traced_runs']} traced runs"
                      for k in metrics if k not in notes})
    else:
        setups, start = [], time.monotonic()
        while len(setups) < SETUP_MIN or (
                len(setups) < SETUP_MAX
                and time.monotonic() - start < SETUP_BUDGET_S):
            setups.append(h.child(wl, seed, "setup", f"setup{len(setups)}"))
        run = h.child(wl, seed, "run", "run")
        setup_samples = [c["setup_s"] for c in setups] + [run["setup_s"]]
        run_s = statistics.median(run["run_s"])
        metrics = {"setup_s": statistics.median(setup_samples),
                   "run_s": run_s,
                   "updates_per_s": run["updates"] / run_s,
                   "peak_rss_mb": run["peak_rss_mb"]}
        runs = (run,)
        notes = {"setup_s": f"median of {len(setup_samples)} fresh processes",
                 "run_s": f"median of {len(run['run_s'])} runs",
                 "updates_per_s": f"{run['updates']} density fields per run",
                 "peak_rss_mb": "ru_maxrss of the run process"}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = dict(runs[-1]["env"], nproc=_nproc(), git_sha=_git_sha(root),
               seed=seed, **{v: h.env[v] for v in _THREAD_VARS})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "env": env}


def report(name: str, res: dict, section: str) -> None:
    units = _declared(section)
    if set(units) != set(res["metrics"]):
        raise BenchError(f"metrics {sorted(res['metrics'])} do not match "
                         f"the {section} list in BENCHMARK.json")
    print(f"# {name}  env {json.dumps(res['env'], sort_keys=True)}")
    for k, unit in units.items():
        print(f"{name}  {k} = {res['metrics'][k]:.6g} {unit}"
              f"  ({res['notes'][k]})")
    print(f"{name}  failed_frac = {res['failed'] / res['attempted']:.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} runs)")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u}
                    for k, u in units.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "stokestransport" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding "
              "src/stokestransport", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    try:
        for name in names:
            res = measure(WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace), root / ".bench_run" / name, root)
            report(name, res, section)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
