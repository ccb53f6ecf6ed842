"""Paired end-to-end benchmark runs of a base revision against the working tree.

``python3 tests/_pairs.py --base REV --label L [--pairs N --seconds S --seed0 K]``

builds two copies in a temporary directory: the base from ``git archive
REV``, the change from the working tree's files (tracked and untracked, not
ignored).  Pair i runs ``perfbench/run.py --workload all --trace 0 --seed
K + i --seconds S`` once in each copy, the base first in even pairs and the
change first in odd ones, so that neither side always meets the other's
leftovers.  Both sides run from copies because the checkout's own directory
moves ``peak_rss_mb``.

It writes ``BENCH_L.json`` at the repository root: per workload and
end-to-end metric of ``BENCHMARK.json``, both sides' values, medians and
quartiles, the median of the paired ratios change / base, the pairs the
change won and each side's failed runs; and nproc, the versions, both SHAs
and ``PYTHONDONTWRITEBYTECODE``.  A metric is ``unresolved`` when the base's
IQR / median exceeds its bound: the base alone then spreads wider than the
change the bound allows.  ``worse_than_bound`` compares the two medians
with that bound.

A pair takes about a minute at S = 3, which is why tier-1 does not collect
this script; ``test_pairs.py`` checks its parsing and statistics on canned
output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse(stdout: str) -> dict:
    """The workloads of one ``run.py --trace 0`` output: name -> its env
    line's object and its result object (correct, attempted, failed,
    metrics)."""
    out, name = {}, None
    for line in stdout.splitlines():
        head = re.match(r"# (\S+)  env (\{.*\})$", line)
        if head:
            name = head.group(1)
            out[name] = {"env": json.loads(head.group(2))}
        elif line.startswith("{") and name is not None:
            out[name]["result"] = json.loads(line)
            name = None
    return {k: v for k, v in out.items() if "result" in v}


def _side(values):
    """One side's values, median and quartiles (None without values)."""
    if not values:
        return {"values": [], "median": None, "q1": None, "q3": None}
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def summarize(pairs, spec: dict, workloads) -> dict:
    """Per-workload statistics of ``pairs``, a list of {side: parse(...)}.

    A workload missing from a side's output counts as one failed run of that
    side, and its pair is left out of the values and the paired ratios.
    """
    out = {}
    for name in workloads:
        failed = dict.fromkeys(SIDES, 0)
        attempted = dict.fromkeys(SIDES, 0)
        got = []
        for pair in pairs:
            res = {s: pair.get(s, {}).get(name, {}).get("result") for s in SIDES}
            for s in SIDES:
                if res[s] is None:
                    failed[s] += 1
                    attempted[s] += 1
                else:
                    failed[s] += res[s]["failed"]
                    attempted[s] += res[s]["attempted"]
            if all(res.values()):
                got.append(res)
        metrics = {}
        for m in spec["end_to_end"]:
            key, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            vals = {s: [r[s]["metrics"][key]["value"] for r in got] for s in SIDES}
            sides = {s: _side(vals[s]) for s in SIDES}
            ratios = [c / b for b, c in zip(vals["base"], vals["change"]) if b]
            won = sum((c < b) if lower else (c > b)
                      for b, c in zip(vals["base"], vals["change"]))
            b, c = sides["base"], sides["change"]
            row = {"unit": m["unit"], "better": m["better"], "bound": bound,
                   **sides, "median_ratio": statistics.median(ratios) if ratios else None,
                   "pairs_won": won, "pairs": len(got),
                   "unresolved": None, "worse_than_bound": None}
            if b["median"]:
                row["unresolved"] = (b["q3"] - b["q1"]) / abs(b["median"]) > bound
                limit = b["median"] * (1.0 + bound if lower else 1.0 - bound)
                row["worse_than_bound"] = (c["median"] > limit if lower
                                           else c["median"] < limit)
            metrics[key] = row
        out[name] = {"metrics": metrics, "failed_runs": failed,
                     "attempted_runs": attempted}
    return out


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def _build_base(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _copy_tree(dest: Path) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(copy: Path, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "0",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return parse(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--seed0", type=int, default=21)
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error("the label may hold letters, digits, '_', '.' and '-' only")
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    dirty = bool(_git("status", "--porcelain").strip())
    shas = {"base": _git("rev-parse", args.base).strip(),
            "change": _git("rev-parse", "HEAD").strip() + ("+dirty" if dirty else "")}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        copies = {s: Path(tmp) / s for s in SIDES}
        _build_base(args.base, copies["base"])
        _copy_tree(copies["change"])
        for i in range(args.pairs):
            seed = args.seed0 + i
            pair = {}
            for s in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[s] = _run(copies[s], seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", flush=True)
    env = next((w["env"] for p in pairs for side in p.values() for w in side.values()), {})
    report = {
        "label": args.label, "base": {"rev": args.base, "sha": shas["base"]},
        "change": {"sha": shas["change"]},
        "command": "perfbench/run.py --workload all --trace 0",
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [args.seed0 + i for i in range(args.pairs)],
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": env.get("python"),
                 "numpy": env.get("numpy"), "scipy": env.get("scipy"),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": summarize(pairs, spec, workloads),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, w in report["workloads"].items():
        for key, m in w["metrics"].items():
            flag = "  unresolved" if m["unresolved"] else ""
            print(f"{name} {key}: {m['base']['median']} -> {m['change']['median']}"
                  f"  won {m['pairs_won']}/{m['pairs']}{flag}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
