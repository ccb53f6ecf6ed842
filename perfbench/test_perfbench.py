"""Tests of the benchmark harness itself, on tiny grids.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("ST_NUMBA", "0")

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "strip_march": dict(nx=16, nz=8, t_final=0.04, dt=0.01, snapshot_every=2),
    "rect_march": dict(nx=16, nz=16, t_final=0.04, dt=0.02),
    "strip_picard": dict(nx=64, nz=8, n_time_nodes=4),
}


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def test_same_seed_gives_same_config():
    for wl in WORKLOADS.values():
        assert wl.config(7) == wl.config(7)
        assert len({wl.config(s) for s in range(8)}) > 1


def test_workload_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_checks_and_reports_declared_metrics(name, tmp_path):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    plain = run.measure(wl, 3, 0.01, False, tmp_path / "e2e", ROOT)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == _declared("end_to_end")
    assert all(v > 0 for v in plain["metrics"].values())

    traced = run.measure(wl, 3, 0.01, True, tmp_path / "layers", ROOT)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == _declared("per_layer")
    assert traced["metrics"]["stokes.solve_calls"] > 0
    series = [(tmp_path / "layers" / "traced" / out / "series.csv").read_bytes()
              for out in ("out", "out_traced")]
    assert series[0] == series[1]


def test_tracing_restores_every_patched_attribute():
    import layertrace

    before = [(o, a, o.__dict__[a]) for o, a, _, _ in layertrace._targets()]
    with layertrace.tracing(layertrace.Tracer()):
        assert all(o.__dict__[a] is not f for o, a, f in before)
    assert all(o.__dict__[a] is f for o, a, f in before)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "strip_march", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode != 0
    assert "correct" not in r.stdout
