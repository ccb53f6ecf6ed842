"""Command-line driver.

Subcommands: stokes, transport, simulate, picard, stability, norms,
ledger.  Each reads one section of an INI-style config (section name =
subcommand name), applies defaults for anything unset, and lets the
flags --out and --seed override their config keys.  Every run validates
its whole configuration before touching the filesystem, writes the fully
resolved key set to resolved.ini beside the outputs, and prints a short
summary block.  Numeric output uses 17 significant digits so values
round-trip through text exactly.

Exit codes: 0 success, 1 solver failure, 2 configuration error (nothing
is written in that case).
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
    PicardDivergenceError,
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
    _windowed_plain,
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
    StokesSolveError,
    flux_profile,
    poiseuille,
    solve_buoyancy,
    solver_stats_text,
)
from .transport import (
    TransportConfig,
    integrate_flow,
    push_forward,
    write_flowmap,
)

__all__ = ["main", "emit_series", "ConfigError"]


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".17g")


_SERIES_COLUMNS = ("t", "rho_l2", "rho_linf", "u_linf", "u_h1", "flux",
                   "potential_energy")


def emit_series(states) -> str:
    """Render a state series as CSV with the fixed column order."""
    if not states:
        raise ValueError("history must be non-empty")
    lines = [",".join(_SERIES_COLUMNS)]
    for s in states:
        row = [s.t] + [s.norms[c] for c in _SERIES_COLUMNS[1:]]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


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


def _load_section(cmd: str, config_path: str | None) -> dict:
    merged = dict(_DEFAULTS[cmd])
    scen_keys: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {config_path}: {exc}") from exc
        if parser.has_section(cmd):
            for key, value in parser.items(cmd):
                if "." in key:
                    scen_keys[key] = value
                elif key in merged:
                    merged[key] = value
                else:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{cmd}] of "
                        f"{config_path}")
    merged.update(scen_keys)
    return merged


def _as_float(cfg: dict, key: str) -> float:
    try:
        return float(cfg[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc


def _as_int(cfg: dict, key: str) -> int:
    try:
        return int(str(cfg[key]), 10)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _build_domain(cfg: dict):
    kind = cfg["domain"].strip().lower()
    if kind not in ("strip", "rectangle"):
        raise ConfigError(f"domain must be 'strip' or 'rectangle', got {kind!r}")
    dom_kind = DomainKind.STRIP if kind == "strip" else DomainKind.RECTANGLE
    try:
        dom = DomainSpec(dom_kind, _as_float(cfg, "x_extent"))
        grid = make_grid(dom, _as_int(cfg, "nx"), _as_int(cfg, "nz"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return dom, grid


def _scenario_params(cfg: dict, prefix: str) -> dict:
    params = {}
    for key, value in cfg.items():
        if key.startswith(prefix + "."):
            name = key[len(prefix) + 1:]
            try:
                params[name] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{key} must be numeric, got {value!r}") from exc
    return params


def _build_density(cfg: dict, grid, dom, key: str = "scenario") -> ScalarField:
    name = cfg[key].strip()
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    try:
        return make_density(name, grid, dom, **_scenario_params(cfg, key))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_out(cfg: dict, flag_value: str | None) -> Path:
    out = flag_value or cfg.get("out") or ""
    if not out:
        raise ConfigError("no output directory; pass --out or set out=")
    return Path(out)


def _write_resolved(out: Path, cmd: str, cfg: dict) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser[cmd] = {k: str(v) for k, v in sorted(cfg.items())}
    with open(out / "resolved.ini", "w") as fh:
        parser.write(fh)


def _write(out: Path, name: str, text: str) -> Path:
    p = out / name
    with open(p, "w") as fh:
        fh.write(text)
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_stokes(cfg: dict, out: Path) -> list[str]:
    dom, grid = _build_domain(cfg)
    problem = cfg["problem"].strip().lower()
    if problem not in ("poiseuille", "buoyancy"):
        raise ConfigError(f"problem must be 'poiseuille' or 'buoyancy', "
                          f"got {problem!r}")
    if problem == "poiseuille":
        if not dom.periodic:
            raise ConfigError("the channel profile needs domain = strip")
        sol = poiseuille(_as_float(cfg, "phi"), grid, dom)
    else:
        rho = _build_density(cfg, grid, dom)
        sol = solve_buoyancy(rho, StokesConfig(flux_target=_as_float(cfg, "flux")))

    out.mkdir(parents=True, exist_ok=True)
    write_field(out / "u1.stf", sol.u.u1)
    write_field(out / "u2.stf", sol.u.u2)
    write_field(out / "p.stf", sol.p)
    prof = flux_profile(sol.u)
    rows = ["index,flux"]
    rows += [f"{i},{_fmt(v)}" for i, v in enumerate(prof)]
    _write(out, "flux.csv", "\n".join(rows) + "\n")
    _write(out, "summary.txt", solver_stats_text(sol))
    return [f"residual = {_fmt(sol.residual_norm)}",
            f"flux = {_fmt(prof[0])}",
            f"pressure_slope = {_fmt(sol.pressure_slope)}"]


def _velocity_for(cfg: dict, grid, dom):
    problem = cfg["problem"].strip().lower()
    if problem == "poiseuille":
        if not dom.periodic:
            raise ConfigError("the channel profile needs domain = strip")
        return poiseuille(_as_float(cfg, "phi"), grid, dom).u
    if problem == "buoyancy":
        rho = _build_density(cfg, grid, dom)
        return solve_buoyancy(rho, StokesConfig(flux_target=_as_float(cfg, "flux"))).u
    raise ConfigError(f"problem must be 'poiseuille' or 'buoyancy', got {problem!r}")


def _cmd_transport(cfg: dict, out: Path) -> list[str]:
    dom, grid = _build_domain(cfg)
    T = _as_float(cfg, "t_final")
    dt = _as_float(cfg, "dt")
    if not (T > 0 and dt > 0):
        raise ConfigError("t_final and dt must be positive")
    rho0 = _build_density(cfg, grid, dom)
    u = _velocity_for(cfg, grid, dom)
    tcfg = TransportConfig(dt=dt)
    rho_T = push_forward(rho0, u, T, tcfg)
    fm = integrate_flow(u, T, 0.0, tcfg)

    out.mkdir(parents=True, exist_ok=True)
    write_field(out / "rho0.stf", rho0)
    write_field(out / "rho_final.stf", rho_T)
    write_flowmap(out / "flowmap.stf", fm)
    rows = ["t,rho_l2,rho_linf"]
    for t, r in ((0.0, rho0), (T, rho_T)):
        rows.append(f"{_fmt(t)},{_fmt(lq_norm(r, 2))},{_fmt(lq_norm(r, np.inf))}")
    _write(out, "transport.csv", "\n".join(rows) + "\n")
    return [f"rho_linf(0) = {_fmt(lq_norm(rho0, np.inf))}",
            f"rho_linf(T) = {_fmt(lq_norm(rho_T, np.inf))}"]


def _cmd_simulate(cfg: dict, out: Path) -> list[str]:
    dom, grid = _build_domain(cfg)
    T = _as_float(cfg, "t_final")
    dt = _as_float(cfg, "dt")
    if not (0.0 < T < math.inf):
        raise ConfigError(f"t_final must be positive and finite, got {T}")
    if not (0.0 < dt <= T):
        raise ConfigError(f"need 0 < dt <= t_final, got dt = {dt}")
    every = _as_int(cfg, "snapshot_every")
    if every < 0:
        raise ConfigError("snapshot_every must be >= 0")
    rho0 = _build_density(cfg, grid, dom)
    states = time_march(rho0, T, dt)

    out.mkdir(parents=True, exist_ok=True)
    _write(out, "series.csv", emit_series(states))
    if every:
        for k in range(0, len(states), every):
            write_field(out / f"rho_{k:06d}.stf", states[k].rho)
    last = states[-1]
    return [f"steps = {len(states) - 1}",
            f"rho_linf = {_fmt(last.norms['rho_linf'])}",
            f"u_linf = {_fmt(last.norms['u_linf'])}"]


def _cmd_picard(cfg: dict, out: Path) -> list[str]:
    dom, grid = _build_domain(cfg)
    rho0 = _build_density(cfg, grid, dom)
    states, trace = picard_solve(
        rho0,
        T=_as_float(cfg, "t_final"),
        n_time_nodes=_as_int(cfg, "n_time_nodes"),
        tol=_as_float(cfg, "tol"),
        max_picard=_as_int(cfg, "max_picard"),
    )
    out.mkdir(parents=True, exist_ok=True)
    rows = ["N,delta,ratio"]
    for i, d in enumerate(trace.diffs):
        ratio = "" if i == 0 else _fmt(trace.diffs[i] / trace.diffs[i - 1])
        rows.append(f"{i},{_fmt(d)},{ratio}")
    _write(out, "picard.csv", "\n".join(rows) + "\n")
    _write(out, "series.csv", emit_series(states))
    return [f"converged = {trace.converged}",
            f"iterations = {trace.iterations}",
            f"B = {_fmt(trace.B)}",
            f"contraction_estimate = {_fmt(trace.contraction_estimate)}"]


def _cmd_stability(cfg: dict, out: Path) -> list[str]:
    dom, grid = _build_domain(cfg)
    rho1 = _build_density(cfg, grid, dom, key="scenario")
    rho2 = _build_density(cfg, grid, dom, key="scenario2")
    rep = stability_experiment(rho1, rho2, T=_as_float(cfg, "t_final"),
                               dt=_as_float(cfg, "dt"))
    out.mkdir(parents=True, exist_ok=True)
    col = "abs_diff" if rep.absolute else "G"
    rows = [f"t,{col}"]
    rows += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(rep.times, rep.values)]
    _write(out, "stability.csv", "\n".join(rows) + "\n")
    return [f"mode = {rep.mode}", f"absolute = {rep.absolute}",
            f"slope = {_fmt(rep.slope)}",
            f"initial_diff = {_fmt(rep.initial_diff)}"]


def _cmd_norms(cfg: dict, out: Path, seed: int | None) -> list[str]:
    dom, grid = _build_domain(cfg)
    field = _build_density(cfg, grid, dom)
    want_uloc = cfg["uloc"].strip() not in ("0", "false", "no", "")
    sweep_n = _as_int(cfg, "sweep_fields")
    if seed is None:
        seed = _as_int(cfg, "seed")
    if want_uloc and not dom.periodic:
        raise ConfigError("uloc norms need domain = strip")

    rows = []
    rows.append(f"l1,{_fmt(lq_norm(field, 1))}")
    rows.append(f"l2,{_fmt(lq_norm(field, 2))}")
    rows.append(f"linf,{_fmt(lq_norm(field, np.inf))}")
    rows.append(f"h1,{_fmt(h1_norm(field))}")
    rows.append(f"hneg1,{_fmt(hneg1_norm(field))}")
    summary = [f"l2 = {_fmt(lq_norm(field, 2))}"]
    if want_uloc:
        part = Partition(grid, dom)
        for m in (-1, 0, 1):
            rows.append(uloc_norm(field, m, part).to_csv_row())
        web = window_energy_bound(field, 1, part)
        rows.append(f"window_energy_n1,{_fmt(web.left)}")
        summary.append(f"uloc_l2 = {_fmt(uloc_norm(field, 0, part).value)}")
    sweep_worst = None
    if sweep_n:
        if not dom.periodic:
            raise ConfigError("sweep_fields needs domain = strip")
        part = Partition(grid, dom)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(sweep_n):
            f = ScalarField(grid, dom, rng.standard_normal((grid.nx, grid.nz)))
            rep = uloc_norm(f, 0, part)
            plain = max(lq_norm(_windowed_plain(f, part, k), 2)
                        for k in range(part.period))
            if plain > 0:
                worst = max(worst, rep.value / plain)
        sweep_worst = worst
        summary.append(f"sweep_ratio_max = {_fmt(worst)} (C_chi = {_fmt(C_CHI)})")

    out.mkdir(parents=True, exist_ok=True)
    _write(out, "norms.csv", "\n".join(rows) + "\n")
    if sweep_worst is not None:
        _write(out, "sweep.txt",
               f"fields={sweep_n}\nratio_max={_fmt(sweep_worst)}\n"
               f"c_chi={_fmt(C_CHI)}\n")
    return summary


def _cmd_ledger(cfg: dict, out: Path, seed: int | None) -> list[str]:
    families = _as_int(cfg, "families")
    C = _as_float(cfg, "recursion_c")
    F = _as_float(cfg, "datum_f")
    n_max = _as_int(cfg, "n_max")
    if seed is None:
        seed = _as_int(cfg, "seed")
    if families < 1 or n_max < 2:
        raise ConfigError("need families >= 1 and n_max >= 2")
    if C <= 0 or F <= 0:
        raise ConfigError("recursion_c and datum_f must be positive")

    rng = np.random.default_rng(seed)
    rows = ["family,verdict,C0,k0,bound"]
    n_pass = 0
    for i in range(families):
        led = random_ledger(C, F, range(1, n_max + 1), rng)
        res = energy_ledger_check(led)
        if res.verdict == "pass":
            n_pass += 1
        bound = "inf" if res.bound is not None and math.isinf(res.bound) \
            else ("" if res.bound is None else _fmt(res.bound))
        rows.append(f"{i},{res.verdict},"
                    f"{'' if res.C0 is None else _fmt(res.C0)},"
                    f"{'' if res.k0 is None else res.k0},{bound}")
    out.mkdir(parents=True, exist_ok=True)
    _write(out, "ledger.csv", "\n".join(rows) + "\n")
    if n_pass != families:
        raise RuntimeError(f"{families - n_pass} of {families} families failed")
    return [f"families = {families}", f"passed = {n_pass}"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stokes-transport",
        description="Buoyancy-coupled Stokes flow and density transport")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("stokes", "transport", "simulate", "picard", "stability",
                 "norms", "ledger"):
        s = sub.add_parser(name)
        s.add_argument("--config", default=None, help="INI config path")
        s.add_argument("--out", default=None, help="output directory")
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
        cfg = _load_section(cmd, args.config)
        if cmd == "stokes" and args.poiseuille is not None:
            cfg["problem"] = "poiseuille"
            cfg["phi"] = str(args.poiseuille)
        if args.seed is not None and "seed" in cfg:
            cfg["seed"] = str(args.seed)
        out = _resolve_out(cfg, args.out)
        if cmd == "norms":
            summary = _cmd_norms(cfg, out, args.seed)
        elif cmd == "ledger":
            summary = _cmd_ledger(cfg, out, args.seed)
        else:
            summary = {
                "stokes": _cmd_stokes,
                "transport": _cmd_transport,
                "simulate": _cmd_simulate,
                "picard": _cmd_picard,
                "stability": _cmd_stability,
            }[cmd](cfg, out)
        _write_resolved(out, cmd, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StokesSolveError, PicardDivergenceError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1

    print(f"[{cmd}] done")
    for line in summary:
        print(f"  {line}")
    print(f"  outputs: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
