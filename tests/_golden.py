"""Golden end-to-end outputs of the seven CLI commands on small grids.

``CASES`` names each run: a subcommand, the body of its INI section and its
extra flags.  ``PYTHONPATH=src python3 tests/_golden.py [DIR]`` writes every
case's output directory to ``DIR/<case>/`` (by default ``tests/golden/``),
replacing what is there; ``tests/test_golden.py`` runs the cases again and
compares the two directories with ``compare_dirs``.  Writing the cases of
two checkouts to two directories and comparing them with ``diff -r`` shows
whether a change moves any output byte.

Strings and integers must match exactly.  Floats must match to ``RTOL``
times the largest float magnitude of their file, not of their column: the
``flux`` column of a zero-flux run is pure rounding (about 1e-17), so a
per-column scale would turn last-bit noise into a 100 % difference.  A
``flux.csv`` is the exception: its values are ``hz * sum(u1)`` over each
column, so their rounding scales with the case's max |u1|, and in a closed
box every value is that rounding; its floats must match to ``RTOL`` times
the max |u1| of the golden ``u1.stf`` beside it.  The ``residual=`` of a
``stokes`` summary is the solve's momentum residual, rounding that the
solve gate accepts up to ``stokes._gate_tolerance``; it must match to that
tolerance, with the forcing rebuilt from the golden ``resolved.ini`` (the
file scale would be the residual itself).  STF1 snapshots are read
back through ``snapshots.read_field`` (the flow map, which is not a scalar
field, through ``read_raster``) and their values compared to ``RTOL`` times
the largest magnitude of the field.
"""

from __future__ import annotations

import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from stokestransport import cli, snapshots, stokes

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10

_STRIP = "domain = strip\nx_extent = 8\nnx = 32\nnz = 16\n"
_RECT = "domain = rectangle\nx_extent = 1\nnx = 32\nnz = 16\n"
_MARCH = "scenario = patch\nt_final = 0.25\ndt = 0.0625\n"

CASES = {
    "stokes_strip": ("stokes", _STRIP + "problem = buoyancy\n"
                     "scenario = stratified_perturbed\nflux = 0.5\n", []),
    "stokes_rect": ("stokes", _RECT + "problem = buoyancy\n"
                    "scenario = stratified_perturbed\n", []),
    "transport_strip": ("transport", _STRIP + "problem = buoyancy\n" + _MARCH, []),
    "simulate_strip": ("simulate", _STRIP + _MARCH + "snapshot_every = 2\n", []),
    "simulate_rect": ("simulate", _RECT + _MARCH + "snapshot_every = 2\n", []),
    "picard_strip": ("picard", _STRIP + "scenario = patch\nt_final = 0.25\n"
                     "n_time_nodes = 6\ntol = 1e-6\n", []),
    "stability_strip": ("stability", _STRIP + _MARCH + "scenario2 = stratified\n", []),
    "norms_strip": ("norms", _STRIP + "scenario = patch\nuloc = 1\n"
                    "sweep_fields = 3\n", ["--seed", "5"]),
    "ledger": ("ledger", "families = 6\nn_max = 12\n", ["--seed", "7"]),
}


def run_case(name: str, out: Path) -> int:
    """Run one case through ``cli.main`` into ``out``; returns the exit code."""
    cmd, body, flags = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(f"[{cmd}]\n{body}")
        return cli.main([cmd, "--config", str(config), "--out", str(out), *flags])


_SEP = re.compile(r"([,=\s]+)")
_INT = re.compile(r"[+-]?\d+\Z")
_FLOAT = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


def _compare_text(got: str, want: str, scale: float | None = None,
                  keyed: dict | None = None) -> str | None:
    """Token-wise comparison; floats to ``RTOL`` times ``scale``, by default
    the largest float magnitude of ``want``, and a ``key=`` value named in
    ``keyed`` to the tolerance given there."""
    a, b = _SEP.split(got), _SEP.split(want)
    if len(a) != len(b):
        return f"{len(a)} tokens, want {len(b)}"
    if scale is None:
        floats = [abs(float(t)) for t in b if _FLOAT.match(t) and not _INT.match(t)]
        scale = max(floats, default=0.0)
    keyed = keyed or {}
    for n, (x, y) in enumerate(zip(a, b)):
        if _INT.match(x) and _INT.match(y):
            if x != y:
                return f"integer {x!r}, want {y!r}"
        elif _FLOAT.match(x) and _FLOAT.match(y):
            tol = keyed.get(b[n - 2], RTOL * scale) if b[n - 1] == "=" else RTOL * scale
            if abs(float(x) - float(y)) > tol:
                return f"float {x}, want {y} (tolerance {tol:.3g})"
        elif x != y:
            return f"token {x!r}, want {y!r}"
    return None


def _read_stf(path: Path):
    if path.name == "flowmap.stf":
        domain, grid, code, values = snapshots.read_raster(path)
        return (domain, grid, code), values
    field = snapshots.read_field(path)
    return (field.domain, field.grid, field.staggering), field.values


def _compare_stf(got: Path, want: Path) -> str | None:
    (head_a, a), (head_b, b) = _read_stf(got), _read_stf(want)
    if head_a != head_b or a.shape != b.shape:
        return f"header {head_a} {a.shape}, want {head_b} {b.shape}"
    err, tol = float(np.max(np.abs(a - b))), RTOL * float(np.max(np.abs(b)))
    return None if err <= tol else f"max deviation {err:.3g} > {tol:.3g}"


def residual_tolerance(case: Path) -> float:
    """The solve gate's tolerance for the buoyancy ``stokes`` run in ``case``."""
    raw, _ = cli._load_section("stokes", str(case / "resolved.ini"))
    cfg = cli._convert(raw)
    dom, grid = cli._build_domain(cfg)
    f = stokes.buoyancy_forcing(cli._build_density(cfg, grid, dom))
    return stokes._gate_tolerance(f, stokes.StokesConfig(flux_target=cfg["flux"]))


def compare_dirs(got: Path, want: Path) -> list[str]:
    """One message per file of ``got`` that differs from its golden twin."""
    names = sorted(p.name for p in want.iterdir())
    found = sorted(p.name for p in got.iterdir())
    if names != found:
        return [f"files {found}, want {names}"]
    problems = []
    for name in names:
        if name.endswith(".stf"):
            msg = _compare_stf(got / name, want / name)
        else:
            # a column flux is hz * sum(u1), so it rounds at the scale of u1
            scale = (float(np.max(np.abs(snapshots.read_field(want / "u1.stf").values)))
                     if name == "flux.csv" else None)
            # only the stokes command writes a summary.txt
            keyed = {"residual": residual_tolerance(want)} if name == "summary.txt" else None
            msg = _compare_text((got / name).read_text(), (want / name).read_text(), scale, keyed)
        if msg:
            problems.append(f"{name}: {msg}")
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else GOLDEN
    for name in CASES:
        out = root / name
        shutil.rmtree(out, ignore_errors=True)
        code = run_case(name, out)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
