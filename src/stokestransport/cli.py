"""Command-line driver.

Subcommands: stokes, transport, simulate, picard, stability, norms,
ledger.  Each reads one section of an INI-style config (section name =
subcommand name), applies defaults for anything unset, and lets the
flag --out, and --seed where the section has a seed key (norms, ledger),
override their config keys.  Every key has one parser in ``_TYPES``; the
whole section is converted and range-checked there before any command
runs.  Past dt <= t_final and the key set, the rules that join keys are
the library's own: any value it rejects with a ValueError (nx not a
multiple of the strip period for picard, stability and norms; uloc,
sweep_fields or the channel profile on the rectangle; a nonzero flux in
a closed box) is a configuration error.  A run writes the resolved key
set, as text, to resolved.ini beside the outputs and prints a short
summary block.  Numeric output uses 17 significant digits so values
round-trip through text exactly.

Exit codes: 0 success, 1 solver failure (a failed solve gate, a Picard
divergence, a singular factor, a failed ledger family), 2 configuration
error (nothing is written in that case).  A failed run of any command
removes every file it wrote, a same-name file it overwrote included, and
the directories it made.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import math
import sys
from pathlib import Path

import numpy as np

from .coupling import (
    energy_ledger_check,
    picard_solve,
    random_ledger,
    stability_experiment,
    time_march,
)
from .domain import DomainKind, DomainSpec, ScalarField, make_grid
from .norms import (
    C_CHI,
    Partition,
    h1_norm,
    hneg1_norm,
    lq_norm,
    uloc_norm,
    window_energy_bound,
)
from .scenarios import SCENARIOS, make_density
from .snapshots import write_field
from .stokes import (
    StokesConfig,
    flux_profile,
    poiseuille,
    solve_buoyancy,
    solver_stats_text,
)
from .transport import TransportConfig, _pull_back, integrate_flow, write_flowmap

__all__ = ["main", "emit_series", "ConfigError"]


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


_SERIES_COLUMNS = ("t", "rho_l2", "rho_linf", "u_linf", "u_h1", "flux",
                   "potential_energy")
_SERIES_HEADER = ",".join(_SERIES_COLUMNS) + "\n"


def _series_row(state) -> str:
    row = [state.t] + [state.norms[c] for c in _SERIES_COLUMNS[1:]]
    return ",".join(_fmt(v) for v in row) + "\n"


def emit_series(states) -> str:
    """Render a state series as CSV with the fixed column order."""
    if not states:
        raise ValueError("history must be non-empty")
    return _SERIES_HEADER + "".join(_series_row(s) for s in states)


class _Output:
    """The output directory of a run, and every file written into it.

    Opening it makes ``out`` and its missing parents one level at a time and
    records each; an ``OSError`` there is a configuration error.  ``file``
    names and records a file of the run.  ``discard`` removes every recorded
    file, then the directories it made, deepest first.
    """

    def __init__(self, out: str):
        if not out:
            raise ConfigError("no output directory; pass --out or set out=")
        self.dir = Path(out)
        self._made: list[Path] = []
        self._files: list[Path] = []
        try:
            for d in (*reversed(self.dir.parents), self.dir):
                try:
                    d.mkdir()
                    self._made.append(d)
                except FileExistsError:
                    if not d.is_dir():
                        raise
        except OSError as exc:
            self.discard()
            raise ConfigError(f"output directory {out} cannot be made: "
                              f"{exc.filename}: {exc.strerror}") from None

    def file(self, name: str) -> Path:
        self._files.append(self.dir / name)
        return self._files[-1]

    def discard(self) -> None:
        for path in self._files:
            path.unlink(missing_ok=True)
        for d in reversed(self._made):
            d.rmdir()


class _MarchWriter:
    """The output sink of ``simulate``: writes each state as it is made.

    Creating it opens ``series.csv`` and writes its header.  ``append``
    writes a state's series row, and its snapshot when the step index is a
    multiple of ``every`` (none when ``every`` is 0); only the state count
    and the last norms are kept, for the summary lines.
    """

    def __init__(self, out: _Output, every: int):
        self._out = out
        self._every = every
        self.count = 0
        self.norms = None
        self._series = open(out.file("series.csv"), "w")
        self._series.write(_SERIES_HEADER)

    def append(self, state) -> None:
        k = self.count
        if self._every and k % self._every == 0:
            write_field(self._out.file(f"rho_{k:06d}.stf"), state.rho)
        self._series.write(_series_row(state))
        self.count = k + 1
        self.norms = state.norms

    def close(self) -> None:
        self._series.close()


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "stokes": {
        "domain": "strip", "x_extent": "8", "nx": "64", "nz": "32",
        "problem": "poiseuille", "phi": "1.0", "flux": "0.0",
        "scenario": "stratified", "out": "",
    },
    "transport": {
        "domain": "strip", "x_extent": "8", "nx": "64", "nz": "32",
        "problem": "poiseuille", "phi": "1.0", "flux": "0.0",
        "scenario": "patch", "t_final": "1.0", "dt": "0.01", "out": "",
    },
    "simulate": {
        "domain": "strip", "x_extent": "8", "nx": "64", "nz": "32",
        "scenario": "stratified_perturbed", "t_final": "1.0", "dt": "0.0625",
        "snapshot_every": "0", "out": "",
    },
    "picard": {
        "domain": "strip", "x_extent": "8", "nx": "64", "nz": "32",
        "scenario": "stratified_perturbed", "t_final": "0.5",
        "n_time_nodes": "16", "tol": "1e-8", "max_picard": "25", "out": "",
    },
    "stability": {
        "domain": "strip", "x_extent": "8", "nx": "64", "nz": "32",
        "scenario": "stratified", "scenario2": "stratified_perturbed",
        "t_final": "0.5", "dt": "0.03125", "out": "",
    },
    "norms": {
        "domain": "rectangle", "x_extent": "1", "nx": "64", "nz": "64",
        "scenario": "checker", "uloc": "0", "sweep_fields": "0",
        "seed": "0", "out": "",
    },
    "ledger": {
        "families": "100", "recursion_c": "2.0", "datum_f": "0.7",
        "n_max": "24", "seed": "0", "out": "",
    },
}


# A parser maps a key's text to its value, or raises ValueError naming
# what the key accepts.

def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError("a finite number")
    return x


def _positive(text: str) -> float:
    x = _finite(text)
    if x <= 0.0:
        raise ValueError("a positive finite number")
    return x


def _integer(floor: int):
    def parse(text: str) -> int:
        try:
            n = int(text, 10)
        except ValueError:
            n = floor - 1
        if n < floor:
            raise ValueError(f"an integer >= {floor}")
        return n
    return parse


def _boolean(text: str) -> bool:
    words = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return words[text.strip().lower()]
    except KeyError:
        raise ValueError(f"one of {', '.join(words)}") from None


def _choice(*names: str):
    def parse(text: str) -> str:
        word = text.strip().lower()
        if word not in names:
            raise ValueError(f"one of {', '.join(names)}")
        return word
    return parse


_SCENARIO = _choice(*sorted(SCENARIOS))

# Dotted keys (scenario.eps, scenario2.mode, ...) are scenario parameters
# and parse as finite numbers.
_TYPES = {
    "domain": _choice("strip", "rectangle"),
    "problem": _choice("poiseuille", "buoyancy"),
    "scenario": _SCENARIO, "scenario2": _SCENARIO,
    "out": str,
    "x_extent": _positive, "t_final": _positive, "dt": _positive,
    "tol": _positive, "recursion_c": _positive, "datum_f": _positive,
    "phi": _finite, "flux": _finite,
    "nx": _integer(8), "nz": _integer(8), "snapshot_every": _integer(0),
    "n_time_nodes": _integer(2), "max_picard": _integer(1),
    "sweep_fields": _integer(0), "seed": _integer(0), "families": _integer(1),
    "n_max": _integer(2),
    "uloc": _boolean,
}


def _load_section(cmd: str, config_path: str | None):
    """Raw key texts over the defaults, and the set of keys the file set."""
    merged = dict(_DEFAULTS[cmd])
    scen_keys: dict[str, str] = {}
    given: set[str] = set()
    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read {config_path}: {exc.strerror}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {config_path}: {exc}") from exc
        if parser.has_section(cmd):
            for key, value in parser.items(cmd):
                # a dotted key passes a parameter to a scenario key
                prefix, dot, _ = key.partition(".")
                if prefix not in merged or (
                        dot and prefix not in ("scenario", "scenario2")):
                    raise ConfigError(
                        f"unknown key {key!r} in section [{cmd}] of "
                        f"{config_path}")
                (scen_keys if dot else merged)[key] = value
                given.add(key)
    merged.update(scen_keys)
    return merged, given


def _convert(raw: dict) -> dict:
    """Parse every key of a section through its entry in _TYPES."""
    cfg = {}
    for key, text in raw.items():
        parse = _finite if "." in key else _TYPES[key]
        try:
            cfg[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key} must be {exc}, got {text!r}") from None
    return cfg


def _build_domain(cfg: dict):
    kind = DomainKind.STRIP if cfg["domain"] == "strip" else DomainKind.RECTANGLE
    dom = DomainSpec(kind, cfg["x_extent"])
    return dom, make_grid(dom, cfg["nx"], cfg["nz"])


def _build_density(cfg: dict, grid, dom, key: str = "scenario") -> ScalarField:
    params = {k[len(key) + 1:]: v for k, v in cfg.items()
              if k.startswith(key + ".")}
    return make_density(cfg[key], grid, dom, **params)


def _stokes_solution(cfg: dict, grid, dom):
    """The Stokes solution named by the problem, phi and flux keys."""
    if cfg["problem"] == "poiseuille":
        return poiseuille(cfg["phi"], grid, dom)
    rho = _build_density(cfg, grid, dom)
    return solve_buoyancy(rho, StokesConfig(flux_target=cfg["flux"]))


def _check_dt(cfg: dict) -> None:
    if cfg["dt"] > cfg["t_final"]:
        raise ConfigError(f"need dt <= t_final, got dt = {cfg['dt']}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_stokes(cfg: dict, out: _Output) -> list[str]:
    dom, grid = _build_domain(cfg)
    sol = _stokes_solution(cfg, grid, dom)

    write_field(out.file("u1.stf"), sol.u.u1)
    write_field(out.file("u2.stf"), sol.u.u2)
    write_field(out.file("p.stf"), sol.p)
    prof = flux_profile(sol.u)
    rows = ["index,flux", *(f"{i},{_fmt(v)}" for i, v in enumerate(prof))]
    out.file("flux.csv").write_text("\n".join(rows) + "\n")
    out.file("summary.txt").write_text(solver_stats_text(sol))
    return [f"residual = {_fmt(sol.residual_norm)}",
            f"flux = {_fmt(prof[0])}",
            f"pressure_slope = {_fmt(sol.pressure_slope)}"]


def _cmd_transport(cfg: dict, out: _Output) -> list[str]:
    dom, grid = _build_domain(cfg)
    _check_dt(cfg)
    T = cfg["t_final"]
    rho0 = _build_density(cfg, grid, dom)
    u = _stokes_solution(cfg, grid, dom).u
    fm = integrate_flow(u, T, 0.0, TransportConfig(dt=cfg["dt"]))
    rho_T = _pull_back(rho0, fm)

    write_field(out.file("rho0.stf"), rho0)
    write_field(out.file("rho_final.stf"), rho_T)
    write_flowmap(out.file("flowmap.stf"), fm)
    rows = ["t,rho_l2,rho_linf"]
    for t, r in ((0.0, rho0), (T, rho_T)):
        rows.append(f"{_fmt(t)},{_fmt(lq_norm(r, 2))},{_fmt(lq_norm(r, np.inf))}")
    out.file("transport.csv").write_text("\n".join(rows) + "\n")
    return [f"rho_linf(0) = {_fmt(lq_norm(rho0, np.inf))}",
            f"rho_linf(T) = {_fmt(lq_norm(rho_T, np.inf))}"]


def _cmd_simulate(cfg: dict, out: _Output) -> list[str]:
    dom, grid = _build_domain(cfg)
    _check_dt(cfg)
    rho0 = _build_density(cfg, grid, dom)

    sink = _MarchWriter(out, cfg["snapshot_every"])
    try:
        time_march(rho0, cfg["t_final"], cfg["dt"], sink)
    finally:
        sink.close()
    return [f"steps = {sink.count - 1}",
            f"rho_linf = {_fmt(sink.norms['rho_linf'])}",
            f"u_linf = {_fmt(sink.norms['u_linf'])}"]


def _cmd_picard(cfg: dict, out: _Output) -> list[str]:
    dom, grid = _build_domain(cfg)
    rho0 = _build_density(cfg, grid, dom)
    states, trace = picard_solve(rho0, T=cfg["t_final"],
                                 n_time_nodes=cfg["n_time_nodes"],
                                 tol=cfg["tol"], max_picard=cfg["max_picard"])
    rows = ["N,delta,ratio"]
    for i, d in enumerate(trace.diffs):
        ratio = "" if i == 0 else _fmt(trace.diffs[i] / trace.diffs[i - 1])
        rows.append(f"{i},{_fmt(d)},{ratio}")
    out.file("picard.csv").write_text("\n".join(rows) + "\n")
    out.file("series.csv").write_text(emit_series(states))
    return [f"converged = {trace.converged}",
            f"iterations = {trace.iterations}",
            f"B = {_fmt(trace.B)}",
            f"contraction_estimate = {_fmt(trace.contraction_estimate)}"]


def _cmd_stability(cfg: dict, out: _Output) -> list[str]:
    dom, grid = _build_domain(cfg)
    _check_dt(cfg)
    rho1 = _build_density(cfg, grid, dom, key="scenario")
    rho2 = _build_density(cfg, grid, dom, key="scenario2")
    rep = stability_experiment(rho1, rho2, T=cfg["t_final"], dt=cfg["dt"])
    col = "abs_diff" if rep.absolute else "G"
    rows = [f"t,{col}", *(f"{_fmt(t)},{_fmt(v)}" for t, v in zip(rep.times, rep.values))]
    out.file("stability.csv").write_text("\n".join(rows) + "\n")
    return [f"mode = {rep.mode}", f"absolute = {rep.absolute}",
            f"slope = {_fmt(rep.slope)}",
            f"initial_diff = {_fmt(rep.initial_diff)}"]


def _cmd_norms(cfg: dict, out: _Output) -> list[str]:
    dom, grid = _build_domain(cfg)
    field = _build_density(cfg, grid, dom)
    want_uloc = cfg["uloc"]
    sweep_n = cfg["sweep_fields"]
    part = Partition(grid, dom) if want_uloc or sweep_n else None

    rows = [f"l1,{_fmt(lq_norm(field, 1))}", f"l2,{_fmt(lq_norm(field, 2))}",
            f"linf,{_fmt(lq_norm(field, np.inf))}", f"h1,{_fmt(h1_norm(field))}",
            f"hneg1,{_fmt(hneg1_norm(field))}"]
    summary = [f"l2 = {_fmt(lq_norm(field, 2))}"]
    if want_uloc:
        reps = [uloc_norm(field, m, part) for m in (-1, 0, 1)]
        rows.extend(rep.to_csv_row() for rep in reps)
        web = window_energy_bound(field, 1, part)
        rows.append(f"window_energy_n1,{_fmt(web.left)}")
        summary.append(f"uloc_l2 = {_fmt(reps[1].value)}")
    sweep_worst = None
    if sweep_n:
        rng = np.random.default_rng(cfg["seed"])
        sweep_worst = 0.0
        for _ in range(sweep_n):
            f = ScalarField(grid, dom, rng.standard_normal((grid.nx, grid.nz)))
            rep = uloc_norm(f, 0, part)
            # window k holds units k - 1, k and k + 1 of the period
            units = (f.values ** 2).reshape(part.period, -1).sum(axis=1)
            windows = units + np.roll(units, 1) + np.roll(units, -1)
            plain = math.sqrt(grid.hx * grid.hz * float(windows.max()))
            if plain > 0:
                sweep_worst = max(sweep_worst, rep.value / plain)
        summary.append(f"sweep_ratio_max = {_fmt(sweep_worst)} (C_chi = {_fmt(C_CHI)})")

    out.file("norms.csv").write_text("\n".join(rows) + "\n")
    if sweep_worst is not None:
        out.file("sweep.txt").write_text(
            f"fields={sweep_n}\nratio_max={_fmt(sweep_worst)}\n"
            f"c_chi={_fmt(C_CHI)}\n")
    return summary


def _cmd_ledger(cfg: dict, out: _Output) -> list[str]:
    families = cfg["families"]
    rng = np.random.default_rng(cfg["seed"])
    rows = ["family,verdict,C0,k0,bound"]
    n_pass = 0
    for i in range(families):
        led = random_ledger(cfg["recursion_c"], cfg["datum_f"],
                            range(1, cfg["n_max"] + 1), rng)
        res = energy_ledger_check(led)
        if res.verdict == "pass":
            n_pass += 1
        bound = "inf" if res.bound is not None and math.isinf(res.bound) \
            else ("" if res.bound is None else _fmt(res.bound))
        rows.append(f"{i},{res.verdict},"
                    f"{'' if res.C0 is None else _fmt(res.C0)},"
                    f"{'' if res.k0 is None else res.k0},{bound}")
    out.file("ledger.csv").write_text("\n".join(rows) + "\n")
    if n_pass != families:
        raise RuntimeError(f"{families - n_pass} of {families} families failed")
    return [f"families = {families}", f"passed = {n_pass}"]


_COMMANDS = {
    "stokes": _cmd_stokes,
    "transport": _cmd_transport,
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "stability": _cmd_stability,
    "norms": _cmd_norms,
    "ledger": _cmd_ledger,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stokes-transport",
        description="Buoyancy-coupled Stokes flow and density transport")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", default=None, help="INI config path")
        s.add_argument("--out", default=None, help="output directory")
        if "seed" in _DEFAULTS[name]:
            s.add_argument("--seed", type=int, default=None,
                           help="seed for randomized suites")
        if name == "stokes":
            s.add_argument("--poiseuille", type=float, default=None,
                           metavar="PHI", help="channel-flow shortcut")
    return p


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap blocks for reuse instead of unmapping them.

    A run allocates and frees numpy temporaries of 64-256 KB at every
    step.  Under glibc's default, history-dependent thresholds these are
    served by mmap, or the heap top is trimmed once 128 KB of it is free,
    so each step page-faults the same memory in again: 125-175 k minor
    faults, varying from run to run, and about 0.3 s of system time in a
    100-step 128x128 strip simulation.  Fixed thresholds keep such blocks
    in the heap, where the next step reuses them.  A no-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the 64-bit maximum
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    cmd = args.command
    try:
        raw, given = _load_section(cmd, args.config)
        if cmd == "stokes" and args.poiseuille is not None:
            raw["problem"] = "poiseuille"
            raw["phi"] = str(args.poiseuille)
        seed = getattr(args, "seed", None)
        if seed is not None:
            raw["seed"] = str(seed)
        cfg = _convert(raw)
        # phi is the channel profile's flux, flux the buoyancy flux target;
        # stokes's channel profile reads no density
        problem = cfg.get("problem")
        unread = {"poiseuille": ["flux"], "buoyancy": ["phi"]}.get(problem, [])
        if cmd == "stokes" and problem == "poiseuille":
            unread.append("scenario")
        for key in sorted(given):
            if key.partition(".")[0] in unread:
                raise ConfigError(f"{key} is not read by problem = {problem}")
        out = _Output(args.out or cfg["out"])
        try:
            summary = _COMMANDS[cmd](cfg, out)
            resolved = configparser.ConfigParser(interpolation=None)
            resolved[cmd] = {k: str(v) for k, v in sorted(raw.items())}
            with open(out.file("resolved.ini"), "w") as fh:
                resolved.write(fh)
        except BaseException:  # a failed run leaves nothing behind
            out.discard()
            raise
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # first: LinAlgError is a ValueError, but a singular factor is a
        # solver failure
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # any value the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(f"[{cmd}] done")
    for line in summary:
        print(f"  {line}")
    print(f"  outputs: {out.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
