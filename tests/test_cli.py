import configparser
import csv
import gc
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokestransport import cli, coupling, stokes
from stokestransport.coupling import LedgerCheckResult, picard_solve, time_march
from stokestransport.domain import DomainKind, DomainSpec, ScalarField, make_grid
from stokestransport.norms import Partition, _windowed_plain, lq_norm, uloc_norm
from stokestransport.scenarios import make_density
from stokestransport.stokes import StokesSolveError


def write_cfg(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


_SMALL = "nx = 32\nnz = 16\n"
_STRIP_NORMS = "domain = strip\nx_extent = 8\nnx = 32\nnz = 8\n"
_RECT_NORMS = "domain = rectangle\nx_extent = 1\nnx = 32\nnz = 8\n"
# a small valid section for each command
_QUICK = {
    "stokes": _SMALL, "norms": _SMALL, "ledger": "families = 3\n",
    "transport": _SMALL + "t_final = 0.1\ndt = 0.05\n",
    "simulate": _SMALL + "t_final = 0.1\ndt = 0.05\n",
    "picard": _SMALL + "t_final = 0.1\nn_time_nodes = 3\n",
    "stability": _SMALL + "t_final = 0.1\ndt = 0.05\n",
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSeriesFile:
    """``series.csv`` of ``simulate`` and of ``picard``: one header, and
    cells that read back as the library's doubles for the same config."""

    _CFG = "domain = strip\nx_extent = 8\nnx = 64\nnz = 16\nt_final = 0.3\n"

    def _runs(self, tmp_path, strip, scenario):
        dom, grid = strip
        rho0 = make_density(scenario, grid, dom)
        runs = {"simulate": ("dt = 0.1\n", time_march(rho0, T=0.3, dt=0.1)),
                "picard": ("n_time_nodes = 4\n",
                           picard_solve(rho0, T=0.3, n_time_nodes=4)[0])}
        files = {}
        for cmd, (extra, states) in runs.items():
            out = tmp_path / cmd
            cfg = write_cfg(tmp_path, f"[{cmd}]\nscenario = {scenario}\n"
                            + self._CFG + extra, name=f"{cmd}.ini")
            assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 0
            files[cmd] = (read_csv(out / "series.csv"), states)
        return files

    def test_header_and_row_count(self, tmp_path, strip):
        for rows, states in self._runs(tmp_path, strip, "stratified").values():
            assert rows[0] == ["t", "rho_l2", "rho_linf", "u_linf", "u_h1",
                               "flux", "potential_energy"]
            assert len(rows) == len(states) + 1

    def test_roundtrip_precision(self, tmp_path, strip):
        # 17 significant digits parse back to the exact stored double
        runs = self._runs(tmp_path, strip, "stratified_perturbed")
        for rows, states in runs.values():
            for state, row in zip(states, rows[1:], strict=True):
                want = [state.t] + [state.norms[c] for c in rows[0][1:]]
                assert [float(v) for v in row] == want

    def test_linf_column_constant(self, tmp_path, strip):
        for rows, _ in self._runs(tmp_path, strip, "stratified").values():
            assert len({row[2] for row in rows[1:]}) == 1


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

    @pytest.mark.parametrize("domain, x_extent", [("rectangle", 1), ("strip", 8)])
    def test_summary_holds_the_solve_stats(self, tmp_path, domain, x_extent):
        # the solver's stats by key, then the residual, the strip's flux
        # and the pressure slope
        out = tmp_path / domain
        cfg = write_cfg(tmp_path, f"[stokes]\ndomain = {domain}\nx_extent = {x_extent}\n"
                                  "nx = 32\nnz = 16\nproblem = buoyancy\n")
        assert cli.main(["stokes", "--config", cfg, "--out", str(out)]) == 0
        pairs = [line.split("=") for line in (out / "summary.txt").read_text().splitlines()]
        keys = [k for k, _ in pairs]
        flux = ["flux"] if domain == "strip" else []
        assert keys[-2 - len(flux):] == ["residual", *flux, "pressure_slope"]
        values = dict(pairs)
        if domain == "rectangle":
            assert values["capacitance"] == str(2 * (32 + 16 - 2))
            assert values["solver"] == "transform-capacitance"
        assert float(values["residual"]) <= 1e-10

    def test_large_flux_passes_the_residual_gate(self, tmp_path):
        # the residual of a flux-driven solve grows with the flux
        out = tmp_path / "flux"
        cfg = write_cfg(tmp_path, "[stokes]\nproblem = buoyancy\nflux = 1e5\n")
        rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "flux.csv")
        assert float(rows[1][1]) == pytest.approx(1e5, rel=1e-12)

    def test_buoyancy_problem(self, tmp_path):
        out = tmp_path / "buoy"
        cfg = write_cfg(
            tmp_path,
            "[stokes]\nproblem = buoyancy\nscenario = stratified_perturbed\n"
            "scenario.eps = 0.02\nnx = 32\nnz = 16\n")
        rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "u1.stf").exists()

    def test_poiseuille_flag_overrides_a_buoyancy_phi(self, tmp_path):
        # the flag selects the channel profile, which reads phi from the flag
        out = tmp_path / "pois"
        cfg = write_cfg(tmp_path, "[stokes]\nproblem = buoyancy\nphi = 7.0\n"
                                  + _SMALL)
        assert cli.main(["stokes", "--config", cfg, "--poiseuille", "0.5",
                         "--out", str(out)]) == 0
        assert float(read_csv(out / "flux.csv")[1][1]) == pytest.approx(0.5)

    def test_zero_flux_stays_valid_on_the_rectangle(self, tmp_path):
        out = tmp_path / "box"
        cfg = write_cfg(tmp_path, "[stokes]\ndomain = rectangle\nx_extent = 1\n"
                                  "problem = buoyancy\nflux = 0\n" + _SMALL)
        assert cli.main(["stokes", "--config", cfg, "--out", str(out)]) == 0
        assert "flux=" not in (out / "summary.txt").read_text()

    def test_divergence_gate_failure_exits_1_and_leaves_nothing(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(stokes, "max_divergence", lambda u: 1.0)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "[stokes]\n" + _SMALL + "problem = buoyancy\n")
        rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "solver failure: discrete divergence")
        assert not out.exists()


class TestConfigErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["stokes", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "config error: config file not found" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "[stokes]\nnnx = 32\n")
        rc = cli.main(["stokes", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"[stokes]\nnx = 16\xff\n")
        rc = cli.main(["stokes", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"config error: cannot parse {cfg}" in capsys.readouterr().err

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

    def test_transport_dt_above_t_final_exits_2(self, tmp_path, capsys,
                                                monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("integrate_flow reached with a bad config")

        monkeypatch.setattr(coupling, "integrate_flow", no_flow)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "[transport]\nnx = 64\nnz = 32\n"
                                  "t_final = 0.5\ndt = 2.0\n")
        rc = cli.main(["transport", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "need dt <= t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["transport", "simulate", "stability"])
    def test_dt_at_and_just_above_t_final(self, tmp_path, capsys, cmd):
        # dt = t_final is one step; dt a billionth above it is a config error
        body = f"[{cmd}]\nnx = 32\nnz = 16\nt_final = 0.25\n"
        cfg = write_cfg(tmp_path, body + "dt = 0.25\n", name="edge.ini")
        assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "edge")]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, body + "dt = 0.25000000025\n", name="above.ini")
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "need dt <= t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, body, message", [
        ("stokes", "x_extent = 8.5\n" + _SMALL, "strip period must be an integer >= 8"),
        ("transport", _SMALL + "t_final = 0.5\ndt = 2.0\n", "need dt <= t_final"),
        ("transport", "nx = 16\nnz = 8\nscenario = patch\nscenario.delta = 3\n",
         "the grid does not resolve the patch"),
    ], ids=["strip_x_extent_not_whole", "transport_dt_above_t_final",
            "transport_unresolved_patch"])
    def test_config_is_settled_before_the_output_directory(
            self, tmp_path, capsys, monkeypatch, cmd, body, message):
        def no_output(*args, **kwargs):
            raise AssertionError("output directory reached with a bad config")

        monkeypatch.setattr(cli, "_Output", no_output)
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + body)
        assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize("cmd, body, flags", [
        ("stability", "nx = 60\nnz = 16\n", []),
        ("norms", "domain = strip\nx_extent = 8\nnx = 60\nnz = 16\n"
                  "uloc = 1\n", []),
        ("stokes", _SMALL + "phi = -inf\n", []),
        ("stokes", _SMALL, ["--poiseuille", "nan"]),
        ("transport", _SMALL + "problem = buoyancy\nflux = -inf\n", []),
        ("norms", _STRIP_NORMS + "sweep_fields = 2\n", ["--seed", "-3"]),
        ("norms", _STRIP_NORMS + "uloc = maybe\n", []),
        ("ledger", "families = 3\n", ["--seed", "-3"]),
        ("simulate", "nx = 32\nnz = 16\nfoo.bar = 1\n", []),
        ("simulate", "nx = 32\nnz = 16\nscenario2.eps = 0.3\n", []),
        ("ledger", "families = 3\nscenario.eps = 0.3\n", []),
        ("stokes", _SMALL + "domain = rectangle\nx_extent = 1\n"
                   "problem = buoyancy\nflux = 5.0\n", []),
        ("transport", _SMALL + "domain = rectangle\nx_extent = 1\n"
                      "problem = buoyancy\nflux = 5.0\n", []),
        ("stokes", _SMALL + "flux = 5.0\n", []),
        ("stokes", _SMALL + "problem = poiseuille\nflux = -0.5\n", []),
        ("transport", _SMALL + "flux = 5.0\n", []),
        ("stokes", _SMALL + "problem = buoyancy\nphi = 7.0\n", []),
        ("transport", _SMALL + "problem = buoyancy\nphi = 1.0\n", []),
        ("stokes", _SMALL + "problem = poiseuille\nflux = 0\n", []),
        ("stokes", _SMALL + "problem = buoyancy\nflux = 0.5\n",
         ["--poiseuille", "1.0"]),
        ("picard", "x_extent = 8\nnx = 36\nnz = 16\n", []),
        ("norms", _RECT_NORMS + "uloc = 1\n", []),
        ("norms", _RECT_NORMS + "sweep_fields = 2\n", []),
        ("stokes", _SMALL + "domain = rectangle\nx_extent = 1\n"
                   "problem = poiseuille\n", []),
        ("transport", _SMALL + "domain = rectangle\nx_extent = 1\n"
                      "problem = poiseuille\n", []),
        ("stokes", _SMALL + "problem = poiseuille\nscenario = patch\n", []),
        ("stokes", _SMALL + "problem = buoyancy\nscenario.delta = 3\n",
         ["--poiseuille", "1.0"]),
        ("transport", "nx = 16\nnz = 8\nscenario = patch\nscenario.delta = 3\n", []),
    ], ids=["stability_nx_off_period", "norms_uloc_nx_off_period",
            "stokes_inf_phi", "stokes_poiseuille_flag_nan",
            "transport_inf_flux", "norms_negative_seed_flag",
            "norms_uloc_not_a_boolean", "ledger_negative_seed_flag",
            "simulate_unknown_dotted_key", "simulate_scenario2_param",
            "ledger_scenario_param", "stokes_rectangle_flux",
            "transport_rectangle_flux", "stokes_poiseuille_flux",
            "stokes_poiseuille_negative_flux", "transport_poiseuille_flux",
            "stokes_buoyancy_phi", "transport_buoyancy_default_phi",
            "stokes_poiseuille_zero_flux", "stokes_poiseuille_flag_flux",
            "picard_nx_off_period", "norms_uloc_rectangle",
            "norms_sweep_rectangle", "stokes_poiseuille_rectangle",
            "transport_poiseuille_rectangle", "stokes_poiseuille_scenario",
            "stokes_poiseuille_flag_scenario_param", "transport_unresolved_patch"])
    def test_bad_config_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                   cmd, body, flags):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + body)
        rc = cli.main([cmd, "--config", cfg, "--out", str(out), *flags])
        assert rc == 2
        assert list(out.iterdir()) == []
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, body, message", [
        ("picard", "x_extent = 8\nnx = 36\nnz = 16\n",
         "nx = 36 must be a multiple of the period 8"),
        ("norms", _RECT_NORMS + "sweep_fields = 2\n",
         "partitions are defined on the strip"),
        ("transport", _SMALL + "domain = rectangle\nx_extent = 1\n",
         "the channel profile lives on the strip"),
        ("stokes", _SMALL + "domain = rectangle\nx_extent = 1\n"
                   "problem = buoyancy\nflux = 5.0\n",
         "a closed rectangle carries no net flux"),
    ], ids=["picard_partition", "norms_partition", "transport_channel",
            "stokes_rectangle_flux"])
    def test_library_message_is_the_config_error(self, tmp_path, capsys,
                                                 cmd, body, message):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + body)
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, body", [
        ("stokes", "problem = buoyancy\n"), ("simulate", "t_final = 0.5\ndt = 0.25\n")],
        ids=["stokes", "simulate"])
    def test_cell_width_whose_square_underflows_exits_2(self, tmp_path, capsys, cmd, body):
        # hx^2 = 1.6e-602 rounds to 0, so the MAC stencil's 1 / h^2 is no number
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, f"[{cmd}]\ndomain = rectangle\nx_extent = 1e-300\n"
                                  f"nx = 8\nnz = 8\n{body}")
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: cell width 1.25e-301" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    @pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
    def test_out_at_or_under_a_file_exits_2(self, tmp_path, capsys, cmd, under):
        work = tmp_path / "work"
        work.mkdir()
        afile = work / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if under else afile
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + _QUICK[cmd])
        rc = cli.main([cmd, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert list(work.iterdir()) == [afile] and afile.read_text() == "kept\n"
        assert f"config error: output directory {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
    def test_out_that_cannot_be_made_exits_2(self, tmp_path, capsys, cmd):
        # the parent is made, then the name is too long for a directory
        work = tmp_path / "work"
        work.mkdir()
        out = work / "x" / ("n" * 300)
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + _QUICK[cmd])
        rc = cli.main([cmd, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert list(work.iterdir()) == []
        assert f"config error: output directory {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
    def test_config_that_cannot_be_opened_exits_2(self, tmp_path, capsys, cmd):
        out = tmp_path / "o"
        cfg = tmp_path / ("a" * 300 + ".ini")
        rc = cli.main([cmd, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert f"config error: cannot read {cfg}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["stokes", "transport", "simulate",
                                     "picard", "stability"])
    def test_seed_flag_rejected_without_a_seed_key(self, tmp_path, capsys, cmd):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + _SMALL)
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, "--config", cfg, "--out", str(out), "--seed", "5"])
        assert exc.value.code == 2
        assert list(out.iterdir()) == []
        assert "--seed" in capsys.readouterr().err


# The exit-code sweep: every command x key x edge value over its _QUICK
# section.  Integer keys also take their floor and the integer below it.
_EDGES = ("0", "-1", "nan", "inf", "text", "1e300", "1e-300", "5e-324")
_FLOORS = {"nx": 8, "nz": 8, "snapshot_every": 0, "n_time_nodes": 2,
           "max_picard": 1, "sweep_fields": 0, "seed": 0, "families": 1,
           "n_max": 2}
# a parameter of each command's default scenario, as a dotted key
_DOTTED = {"stokes": ["scenario.lower"], "transport": ["scenario.cz"],
           "simulate": ["scenario.eps"], "picard": ["scenario.eps"],
           "stability": ["scenario.upper", "scenario2.eps"],
           "norms": ["scenario.amplitude"], "ledger": []}
# Left out, because they would allocate or run without bound until a step
# and memory budget rejects them: a finite but huge t_final / dt (1e300
# steps and more), and a huge x_extent where a Partition is built, whose
# window count is x_extent.
_UNBOUNDED = {(cmd, key, value)
              for cmd in ("transport", "simulate", "stability")
              for key, value in (("t_final", "1e300"), ("dt", "1e-300"))}
_UNBOUNDED |= {(cmd, "x_extent", "1e300") for cmd in ("picard", "stability", "norms")}


@pytest.mark.parametrize("cmd, key", [
    (cmd, key) for cmd in sorted(cli._COMMANDS)
    for key in sorted(set(cli._DEFAULTS[cmd]) - {"out"}) + _DOTTED[cmd]])
def test_every_edge_value_keeps_the_exit_code_contract(tmp_path, capsys, cmd, key):
    # no value raises out of main: exit 2 is a config error line and
    # nothing written, exit 1 a solver failure line and nothing written;
    # a value that the key's parser rejects exits 2
    base = dict(line.split(" = ") for line in _QUICK[cmd].splitlines())
    values = list(_EDGES)
    if key in _FLOORS:
        values += [str(_FLOORS[key]), str(_FLOORS[key] - 1)]
    for i, value in enumerate(values):
        if (cmd, key, value) in _UNBOUNDED:
            continue
        section = {**base, key: value}
        cfg = write_cfg(tmp_path, f"[{cmd}]\n" + "".join(
            f"{k} = {v}\n" for k, v in section.items()), name=f"{i}.ini")
        out = tmp_path / f"o{i}"
        rc = cli.main([cmd, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (key, value)
        try:
            cli._convert({key: value})
        except cli.ConfigError:
            assert rc == 2, (key, value)
        if rc:
            line = "config error: " if rc == 2 else "solver failure: "
            assert err.startswith(line) and not out.exists(), (key, value, err)


class TestKeyTable:
    def test_every_default_parses_under_its_type(self):
        keys = set()
        for raw in cli._DEFAULTS.values():
            assert set(cli._convert(raw)) == set(raw)
            keys |= set(raw)
        assert keys == set(cli._TYPES)  # no parser for a key nothing reads

    @settings(max_examples=400, deadline=None)
    @given(key=st.sampled_from(sorted(cli._TYPES) + ["scenario.eps"]),
           text=st.one_of(
               st.text(),
               st.floats().map(repr),
               st.integers(-10, 10 ** 30).map(str),
               st.sampled_from(["Yes", " off ", "TRUE", "Strip", " patch",
                                "1e400", "-0", "0x10", "1_0", ""])))
    def test_any_text_is_a_value_or_a_config_error(self, key, text):
        try:
            value = cli._convert({key: text})[key]
        except cli.ConfigError:
            return
        assert cli._convert({key: str(value)})[key] == value

    @pytest.mark.parametrize("word, rows", [("yes", True), ("Off", False),
                                            ("1", True), ("false", False)])
    def test_uloc_takes_the_boolean_words(self, tmp_path, word, rows):
        out = tmp_path / "no"
        cfg = write_cfg(tmp_path, f"[norms]\n{_STRIP_NORMS}uloc = {word}\n")
        assert cli.main(["norms", "--config", cfg, "--out", str(out)]) == 0
        names = {r[0] for r in read_csv(out / "norms.csv")}
        assert ("uloc_l2" in names) == rows



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

    def test_live_memory_does_not_grow_with_the_step_count(self, tmp_path):
        # each state is written as it is made and let go: the peak traced
        # memory of a run grows by far less than one density per extra step
        dt = 0.015625

        def peak(nsteps, tag):
            cfg = write_cfg(
                tmp_path, f"[simulate]\nnx = 64\nnz = 32\nt_final = "
                f"{nsteps * dt}\ndt = {dt}\nsnapshot_every = 1\n",
                name=f"{tag}.ini")
            out = tmp_path / tag
            gc.collect()
            tracemalloc.start()
            try:
                assert cli.main(["simulate", "--config", cfg,
                                 "--out", str(out)]) == 0
                size = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(list(out.glob("rho_*.stf"))) == nsteps + 1
            return size

        peak(10, "warm")  # fill the solver and kernel caches
        per_step = (peak(40, "long") - peak(10, "short")) / 30
        assert per_step <= 0.25 * 64 * 32 * 8

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new_out", "existing_out"])
    def test_solver_failure_exits_1_and_leaves_nothing(
            self, tmp_path, monkeypatch, capsys, existing):
        # three states are written before the fourth solve fails; the run
        # removes them, and the directories it created
        solve = coupling.solve_buoyancy
        calls = []

        def failing_solve(rho, *args, **kwargs):
            calls.append(rho)
            if len(calls) == 4:
                raise StokesSolveError("injected failure")
            return solve(rho, *args, **kwargs)

        monkeypatch.setattr(coupling, "solve_buoyancy", failing_solve)
        top = tmp_path / "runs"
        out = top / "sim"
        if existing:
            out.mkdir(parents=True)
        cfg = write_cfg(
            tmp_path,
            "[simulate]\nnx = 32\nnz = 16\nt_final = 0.5\ndt = 0.0625\n"
            "snapshot_every = 1\n")
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert len(calls) == 4
        assert "solver failure" in capsys.readouterr().err
        _assert_nothing_left(top, out, existing)

    def test_singular_factor_exits_1_and_leaves_nothing(
            self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet a singular factor is a
        # solver failure, not a configuration error
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("injected singular factor")

        monkeypatch.setattr(cli, "time_march", singular)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "[simulate]\n" + _QUICK["simulate"])
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "solver failure: injected singular factor" in capsys.readouterr().err
        assert not out.exists()


def _assert_nothing_left(top, out, existing):
    if existing:
        assert list(out.iterdir()) == []
    else:
        assert not top.exists()


@pytest.mark.parametrize("existing", [False, True],
                         ids=["new_out", "existing_out"])
@pytest.mark.parametrize("cmd", sorted(cli._COMMANDS))
def test_failed_last_write_leaves_nothing(tmp_path, monkeypatch, cmd,
                                          existing):
    # resolved.ini is the last file of every command; every file the run
    # wrote before it, and the directories it created, are removed
    def failing_write(self, fh, *args, **kwargs):
        fh.write("[partial")
        raise OSError("injected failure")

    top = tmp_path / "runs"
    out = top / cmd
    if existing:
        out.mkdir(parents=True)
    cfg = write_cfg(tmp_path, f"[{cmd}]\n" + _QUICK[cmd])
    monkeypatch.setattr(configparser.ConfigParser, "write", failing_write)
    with pytest.raises(OSError, match="injected failure"):
        cli.main([cmd, "--config", cfg, "--out", str(out)])
    _assert_nothing_left(top, out, existing)


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

    def test_transport_builds_a_buoyancy_density_once(self, tmp_path, monkeypatch):
        # the initial density is also the buoyancy solve's density
        built = []

        def counted(name, *args, **kwargs):
            built.append(name)
            return make_density(name, *args, **kwargs)

        monkeypatch.setattr(cli, "make_density", counted)
        cfg = write_cfg(tmp_path, "[transport]\nproblem = buoyancy\nnx = 32\nnz = 16\n"
                                  "t_final = 0.25\ndt = 0.125\n")
        assert cli.main(["transport", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert built == ["patch"]

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

    def test_picard_contraction_estimate_past_the_float_range(self, tmp_path, capsys):
        # B T about 2e5 overflows exp: the run still succeeds and reports inf
        out = tmp_path / "pi"
        cfg = write_cfg(
            tmp_path,
            "[picard]\ndomain = strip\nx_extent = 8\nnx = 32\nnz = 16\n"
            "scenario = patch\nscenario.delta = 100000\nt_final = 0.5\n"
            "n_time_nodes = 4\nmax_picard = 3\ntol = 1e300\n")
        assert cli.main(["picard", "--config", cfg, "--out", str(out)]) == 0
        assert "  contraction_estimate = inf\n" in capsys.readouterr().out
        assert read_csv(out / "picard.csv")[0] == ["N", "delta", "ratio"]

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

    def test_norms_uloc_rows(self, tmp_path):
        # each uloc row: its name, its value, then one cell per window of
        # the period; the value is the largest window
        out = tmp_path / "no"
        cfg = write_cfg(tmp_path, "[norms]\n" + _STRIP_NORMS + "uloc = 1\n")
        assert cli.main(["norms", "--config", cfg, "--out", str(out)]) == 0
        rows = [r for r in read_csv(out / "norms.csv") if r[0].startswith("uloc_")]
        assert [r[0] for r in rows] == ["uloc_hneg1", "uloc_l2", "uloc_h1"]
        for row in rows:
            assert len(row) == 2 + 8
            assert float(row[1]) == max(float(v) for v in row[2:])

    def test_norms_overflow_exits_1_and_writes_nothing(self, tmp_path):
        # every sample is finite, but the dual-norm sum of 1e200 is not
        out = tmp_path / "no"
        cfg = write_cfg(
            tmp_path,
            "[norms]\ndomain = strip\nx_extent = 8\nnx = 64\nnz = 16\n"
            "scenario = checker\nscenario.amplitude = 1e200\n")
        rc = cli.main(["norms", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_ledger_pass(self, tmp_path):
        out = tmp_path / "le"
        cfg = write_cfg(tmp_path, "[ledger]\nfamilies = 20\nseed = 3\n")
        rc = cli.main(["ledger", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "ledger.csv")
        assert len(rows) == 21
        assert all(r[1] == "pass" for r in rows[1:])

    def test_ledger_failure_exits_1_and_leaves_nothing(self, tmp_path,
                                                       monkeypatch, capsys):
        def failing_check(ledger):
            return LedgerCheckResult(verdict="fail", C0=None, k0=None,
                                     bound=None, failures=(), scan=())

        monkeypatch.setattr(cli, "energy_ledger_check", failing_check)
        out = tmp_path / "le"
        cfg = write_cfg(tmp_path, "[ledger]\nfamilies = 3\n")
        rc = cli.main(["ledger", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert "solver failure: 3 of 3 families failed" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("period, nx, nz", [(8, 32, 8), (32, 512, 16)],
                             ids=["32x8", "512x16"])
    def test_sweep_ratio_matches_one_window_at_a_time(self, tmp_path, period,
                                                      nx, nz):
        # reference: the plain L2 norm of each window's restriction, one
        # full-size copy per window, for the same seeded fields
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, f"[norms]\ndomain = strip\nx_extent = {period}\n"
                                  f"nx = {nx}\nnz = {nz}\nsweep_fields = 4\n")
        assert cli.main(["norms", "--config", cfg, "--seed", "11",
                         "--out", str(out)]) == 0
        dom = DomainSpec(DomainKind.STRIP, period)
        grid = make_grid(dom, nx, nz)
        part = Partition(grid, dom)
        rng = np.random.default_rng(11)
        want = 0.0
        for _ in range(4):
            f = ScalarField(grid, dom, rng.standard_normal((nx, nz)))
            plain = max(lq_norm(_windowed_plain(f, part, k), 2)
                        for k in range(period))
            want = max(want, uloc_norm(f, 0, part).value / plain)
        lines = (out / "sweep.txt").read_text().split()
        got = float(dict(line.split("=") for line in lines)["ratio_max"])
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


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
