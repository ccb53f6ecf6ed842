"""``_pairs.py``'s parsing and statistics, on canned ``run.py`` output."""

import json
import statistics

import pytest

import _pairs

# the end-to-end section of a BENCHMARK.json
_SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "updates_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]}
_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}


def _output(values: dict, failed=0) -> str:
    """What ``run.py --workload all --trace 0`` prints, for workloads of
    metric values {name: {metric: value}}."""
    lines = ["perfbench: a stray stderr line merged into the stream"]
    for name, metrics in values.items():
        env = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "seed": 21}
        lines.append(f"# {name}  env {json.dumps(env, sort_keys=True)}")
        lines += [f"{name}  {k} = {v:.6g} {_UNITS[k]}  (note)" for k, v in metrics.items()]
        lines.append(f"{name}  failed_frac = 0 ratio  ({failed} of 9 runs)")
        lines.append(json.dumps({
            "correct": not failed, "attempted": 9, "failed": failed,
            "metrics": {k: {"value": v, "unit": _UNITS[k]} for k, v in metrics.items()}}))
    return "\n".join(lines) + "\n"


def _metrics(run_s, peak):
    return {"setup_s": 0.005, "run_s": run_s, "updates_per_s": 100.0 / run_s,
            "peak_rss_mb": peak}


def test_parse_reads_every_workload_and_its_env():
    got = _pairs.parse(_output({"strip_march": _metrics(0.5, 36.3),
                                "rect_march": _metrics(0.25, 37.1)}))
    assert list(got) == ["strip_march", "rect_march"]
    assert got["rect_march"]["env"]["numpy"] == "2.4.6"
    result = got["strip_march"]["result"]
    assert result["attempted"] == 9 and result["failed"] == 0
    assert result["metrics"]["peak_rss_mb"]["value"] == 36.3


def test_parse_drops_a_workload_without_its_result_line():
    text = _output({"strip_march": _metrics(0.5, 36.3)})
    cut = text[:text.index("{\"correct\"")]
    assert _pairs.parse(cut) == {}


def test_summary_statistics():
    base_peak = [36.30, 36.40, 36.35, 36.30, 36.32]
    change_peak = [35.70, 35.75, 36.50, 35.72, 35.71]
    base_run = [0.50, 0.80, 0.60, 0.40, 0.55]
    change_run = [0.52, 0.60, 0.58, 0.45, 0.50]
    pairs = [{"base": _pairs.parse(_output({"strip_march": _metrics(br, bp)})),
              "change": _pairs.parse(_output({"strip_march": _metrics(cr, cp)},
                                             failed=int(i == 1)))}
             for i, (bp, cp, br, cr) in enumerate(zip(base_peak, change_peak,
                                                       base_run, change_run))]
    # a sixth pair whose change run printed nothing: one failed run, no values
    pairs.append({"base": _pairs.parse(_output({"strip_march": _metrics(0.5, 36.3)})),
                  "change": {}})
    out = _pairs.summarize(pairs, _SPEC, ["strip_march"])["strip_march"]
    assert out["failed_runs"] == {"base": 0, "change": 2}
    assert out["attempted_runs"] == {"base": 54, "change": 46}
    peak = out["metrics"]["peak_rss_mb"]
    assert peak["pairs"] == 5 and peak["pairs_won"] == 4
    assert peak["base"]["values"] == base_peak
    assert peak["base"]["median"] == 36.32
    assert (peak["base"]["q1"], peak["base"]["q3"]) == (36.30, 36.35)
    assert peak["change"]["median"] == 35.72
    assert peak["median_ratio"] == statistics.median(
        c / b for b, c in zip(base_peak, change_peak))
    # IQR / median 0.05 / 36.32 = 0.0014 is inside the 0.05 bound
    assert peak["unresolved"] is False and peak["worse_than_bound"] is False
    run = out["metrics"]["run_s"]
    # the base's IQR / median is (0.6 - 0.5) / 0.55 = 0.18, inside 0.25
    assert run["base"]["median"] == 0.55 and run["unresolved"] is False
    assert run["pairs_won"] == 3
    ups = out["metrics"]["updates_per_s"]
    assert ups["better"] == "higher" and ups["pairs_won"] == 3
    assert out["metrics"]["setup_s"]["pairs_won"] == 0


def test_a_base_that_spreads_wider_than_its_bound_is_unresolved():
    base, change = [0.3, 0.5, 0.7, 0.9], [0.95, 0.95, 0.95, 0.95]
    pairs = [{"base": _pairs.parse(_output({"rect_march": _metrics(b, 37.0)})),
              "change": _pairs.parse(_output({"rect_march": _metrics(c, 37.0)}))}
             for b, c in zip(base, change)]
    run = _pairs.summarize(pairs, _SPEC, ["rect_march"])["rect_march"]["metrics"]["run_s"]
    assert run["unresolved"] is True
    # 0.95 against a median of 0.6: worse by more than the 25 % bound
    assert run["worse_than_bound"] is True
    assert run["median_ratio"] == pytest.approx(0.5 * (0.95 / 0.5 + 0.95 / 0.7))
