import configparser
import csv
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stokestransport import cli
from stokestransport.coupling import time_march
from stokestransport.domain import DomainKind, DomainSpec, make_grid
from stokestransport.scenarios import make_density


def write_cfg(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEmitSeries:
    def _states(self, strip, n=3):
        dom, grid = strip
        rho0 = make_density("stratified", grid, dom)
        return time_march(rho0, T=0.1 * n, dt=0.1)

    def test_header_and_row_count(self, strip):
        states = self._states(strip)
        text = cli.emit_series(states)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "rho_l2", "rho_linf", "u_linf", "u_h1",
                           "flux", "potential_energy"]
        assert len(rows) == len(states) + 1

    def test_roundtrip_precision(self, strip):
        # %.17g output must parse back to the exact stored double
        states = self._states(strip)
        rows = list(csv.reader(io.StringIO(cli.emit_series(states))))
        for state, row in zip(states, rows[1:]):
            assert float(row[0]) == state.t
            assert float(row[1]) == state.norms["rho_l2"]
            assert float(row[5]) == state.norms["flux"]

    def test_linf_column_constant(self, strip):
        states = self._states(strip, n=5)
        rows = list(csv.reader(io.StringIO(cli.emit_series(states))))
        vals = {row[2] for row in rows[1:]}
        assert len(vals) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cli.emit_series([])


class TestStokesCommand:
    def test_poiseuille_flux_column(self, tmp_path):
        out = tmp_path / "pois"
        cfg = write_cfg(tmp_path, "[stokes]\nnx = 32\nnz = 16\n")
        rc = cli.main(["stokes", "--config", cfg, "--poiseuille", "1.0",
                       "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "flux.csv")
        assert rows[0] == ["index", "flux"]
        for row in rows[1:]:
            assert abs(float(row[1]) - 1.0) <= 1e-12

    def test_outputs_exist(self, tmp_path):
        out = tmp_path / "pois"
        cfg = write_cfg(tmp_path, "[stokes]\nnx = 32\nnz = 16\n")
        cli.main(["stokes", "--config", cfg, "--poiseuille", "0.5",
                  "--out", str(out)])
        for name in ("u1.stf", "u2.stf", "p.stf", "flux.csv",
                     "summary.txt", "resolved.ini"):
            assert (out / name).exists()

    def test_buoyancy_problem(self, tmp_path):
        out = tmp_path / "buoy"
        cfg = write_cfg(
            tmp_path,
            "[stokes]\nproblem = buoyancy\nscenario = stratified_perturbed\n"
            "scenario.eps = 0.02\nnx = 32\nnz = 16\n")
        rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "u1.stf").exists()


class TestConfigErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["stokes", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err.lower()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "[stokes]\nnnx = 32\n")
        rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_missing_out_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[stokes]\nnx = 32\n")
        assert cli.main(["stokes", "--config", cfg]) == 2

    @pytest.mark.parametrize("times", [
        "t_final = 0.1\ndt = 0.2\n",
        "t_final = -1\n",
        "t_final = inf\n",
        "dt = nan\n",
    ], ids=["dt_above_t_final", "negative_t_final", "infinite_t_final",
            "nan_dt"])
    def test_bad_simulate_times_exit_2(self, tmp_path, capsys, monkeypatch,
                                       times):
        def no_solve(*args, **kwargs):
            raise AssertionError("time_march reached with a bad config")

        monkeypatch.setattr(cli, "time_march", no_solve)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "[simulate]\nnx = 32\nnz = 16\n" + times)
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_stratified_series_velocity(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_cfg(
            tmp_path,
            "[simulate]\nscenario = stratified\nnx = 32\nnz = 16\n"
            "t_final = 0.5\ndt = 0.125\n")
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "series.csv")
        i = rows[0].index("u_linf")
        assert all(float(r[i]) <= 1e-9 for r in rows[1:])

    def test_snapshot_cadence(self, tmp_path):
        out = tmp_path / "sim"
        cfg = write_cfg(
            tmp_path,
            "[simulate]\nscenario = stratified_perturbed\nnx = 32\nnz = 16\n"
            "t_final = 0.25\ndt = 0.0625\nsnapshot_every = 2\n")
        cli.main(["simulate", "--config", cfg, "--out", str(out)])
        snaps = sorted(out.glob("rho_*.stf"))
        assert len(snaps) == 3  # steps 0, 2, 4

    def test_determinism(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[simulate]\nscenario = stratified_perturbed\nnx = 32\nnz = 16\n"
            "t_final = 0.25\ndt = 0.0625\n")
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", cfg, "--out", str(a)])
        cli.main(["simulate", "--config", cfg, "--out", str(b)])
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


class TestOtherCommands:
    def test_transport(self, tmp_path):
        out = tmp_path / "tr"
        cfg = write_cfg(
            tmp_path,
            "[transport]\nscenario = patch\nnx = 32\nnz = 16\n"
            "t_final = 0.5\ndt = 0.125\n")
        rc = cli.main(["transport", "--config", cfg, "--out", str(out)])
        assert rc == 0
        for name in ("rho0.stf", "rho_final.stf", "flowmap.stf",
                     "transport.csv"):
            assert (out / name).exists()

    def test_picard(self, tmp_path):
        out = tmp_path / "pi"
        cfg = write_cfg(
            tmp_path,
            "[picard]\nscenario = stratified_perturbed\nscenario.eps = 0.02\n"
            "nx = 32\nnz = 16\nt_final = 0.5\nn_time_nodes = 4\n")
        rc = cli.main(["picard", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "picard.csv")
        assert rows[0] == ["N", "delta", "ratio"]
        assert rows[1][2] == ""  # no ratio for the first difference
        assert (out / "series.csv").exists()

    def test_stability(self, tmp_path):
        out = tmp_path / "st"
        cfg = write_cfg(
            tmp_path,
            "[stability]\nscenario = stratified\n"
            "scenario2 = stratified_perturbed\nscenario2.eps = 0.02\n"
            "nx = 32\nnz = 16\nt_final = 0.25\ndt = 0.0625\n")
        rc = cli.main(["stability", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "stability.csv")
        assert rows[0] == ["t", "G"]

    def test_norms(self, tmp_path):
        out = tmp_path / "no"
        cfg = write_cfg(
            tmp_path,
            "[norms]\ndomain = strip\nx_extent = 8\nnx = 64\nnz = 16\n"
            "scenario = checker\n")
        rc = cli.main(["norms", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "norms.csv")
        names = {r[0] for r in rows}
        assert {"l1", "l2", "linf", "h1", "hneg1"} <= names

    def test_ledger_pass(self, tmp_path):
        out = tmp_path / "le"
        cfg = write_cfg(tmp_path, "[ledger]\nfamilies = 20\nseed = 3\n")
        rc = cli.main(["ledger", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "ledger.csv")
        assert len(rows) == 21
        assert all(r[1] == "pass" for r in rows[1:])

    def test_seed_flag_changes_stream(self, tmp_path):
        def run(seed, tag):
            out = tmp_path / tag
            cfg = write_cfg(
                tmp_path,
                "[norms]\ndomain = strip\nx_extent = 8\nnx = 32\nnz = 8\n"
                "scenario = checker\nsweep_fields = 5\n", name=f"{tag}.ini")
            cli.main(["norms", "--config", cfg, "--seed", str(seed),
                      "--out", str(out)])
            return (out / "sweep.txt").read_text()

        assert run(1, "s1") != run(2, "s2")
        assert run(7, "s7") == run(7, "s7b")


class TestResolvedManifest:
    def test_parseable_and_complete(self, tmp_path):
        out = tmp_path / "m"
        cfg = write_cfg(
            tmp_path,
            "[simulate]\nscenario = stratified_perturbed\nnx = 32\nnz = 16\n"
            "t_final = 0.25\ndt = 0.0625\n")
        cli.main(["simulate", "--config", cfg, "--out", str(out)])
        parser = configparser.ConfigParser()
        parser.read(out / "resolved.ini")
        sec = parser["simulate"]
        assert sec["nx"] == "32"
        assert sec["scenario"] == "stratified_perturbed"
        assert "dt" in sec and "domain" in sec


# Runs one simulation to warm up, then prints the minor page faults of a
# second, identical one.
_REPEAT_FAULTS = """
import resource, sys
from stokestransport import cli

def faults(out):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["simulate", "--config", sys.argv[1], "--out", out]) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(sys.argv[2])
print(faults(sys.argv[3]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="heap thresholds are set through glibc's mallopt")
def test_repeat_run_reuses_freed_heap(tmp_path):
    # in a fresh process, so no earlier test has moved glibc's thresholds;
    # with the defaults this second run takes 15-20 k minor faults
    cfg = write_cfg(
        tmp_path,
        "[simulate]\nscenario = stratified_perturbed\nnx = 128\nnz = 128\n"
        "t_final = 0.1\ndt = 0.01\nsnapshot_every = 5\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run(
        [sys.executable, "-c", _REPEAT_FAULTS, cfg, str(tmp_path / "a"),
         str(tmp_path / "b")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert int(r.stdout.split()[-1]) < 2000
