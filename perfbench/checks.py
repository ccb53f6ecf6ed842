"""Output checks applied to every CLI run the benchmark makes.

A run counts as failed unless the CLI exits 0 and its outputs hold up:
the density sup never grows (exact comparison: the scenarios are built
with plateaus, so the scheme keeps the extremes bit for bit), the strip
flux stays at the prescribed zero within the solver's own gate, Picard
converges with strictly decreasing deltas, and every STF1 snapshot reads
back on the run's grid inside the initial density range.
"""

from __future__ import annotations

import csv
from pathlib import Path

from stokestransport.domain import DomainKind
from stokestransport.snapshots import read_field
from stokestransport.stokes import StokesConfig


def flux_gate(rho_sup: float) -> float:
    """The tolerance _check_solution applies to a buoyancy solve."""
    return 10.0 * StokesConfig().linear_solver_tolerance * max(1.0, rho_sup)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) if v else None for k, v in row.items()}
                for row in csv.DictReader(fh)]


def check_run(wl, out: Path, rc, stdout: str, rho_lo: float, rho_hi: float):
    """Return (problems, updates) for one finished CLI run."""
    if rc != 0:
        return [f"exit code {rc}"], 0
    problems = []
    series = _rows(out / "series.csv")
    sup0 = series[0]["rho_linf"]
    if any(r["rho_linf"] > sup0 for r in series):
        problems.append("rho_linf exceeds its t = 0 value")
    if wl.domain == "strip":
        gate = flux_gate(max(abs(rho_lo), abs(rho_hi)))
        worst = max(abs(r["flux"]) for r in series)
        if worst > gate:
            problems.append(f"strip flux {worst:.3e} exceeds the gate {gate:.1e}")

    if wl.command == "picard":
        deltas = [r["delta"] for r in _rows(out / "picard.csv")]
        if "converged = True" not in stdout:
            problems.append("picard did not report convergence")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            problems.append("picard deltas are not strictly decreasing")
        updates = wl.updates_per_run(len(deltas))
        if len(series) != wl.n_time_nodes:
            problems.append(f"series has {len(series)} rows, "
                            f"want {wl.n_time_nodes}")
    else:
        updates = wl.updates_per_run()
        if len(series) != updates:
            problems.append(f"series has {len(series)} rows, want {updates}")

    snaps = sorted(out.glob("rho_*.stf"))
    want = (len(range(0, len(series), wl.snapshot_every))
            if wl.command == "simulate" and wl.snapshot_every else 0)
    if len(snaps) != want:
        problems.append(f"{len(snaps)} snapshots, want {want}")
    kind = DomainKind.STRIP if wl.domain == "strip" else DomainKind.RECTANGLE
    for path in snaps:
        try:
            f = read_field(path)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if ((f.grid.nx, f.grid.nz) != (wl.nx, wl.nz) or f.domain.kind != kind
                or f.domain.x_extent != wl.x_extent):
            problems.append(f"{path.name}: wrong grid or domain")
        elif f.values.min() < rho_lo or f.values.max() > rho_hi:
            problems.append(f"{path.name}: values leave [{rho_lo}, {rho_hi}]")
    return problems, updates
