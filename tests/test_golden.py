"""The CLI's outputs on small grids against the committed golden files.

``tests/_golden.py`` holds the cases, the comparison rule and the script
that regenerates ``tests/golden/``.
"""

import configparser
import shutil

import numpy as np
import pytest

import _golden
from stokestransport import snapshots


@pytest.mark.parametrize("name", sorted(_golden.CASES))
def test_outputs_match_golden(name, tmp_path):
    out = tmp_path / name
    assert _golden.run_case(name, out) == 0
    assert _golden.compare_dirs(out, _golden.GOLDEN / name) == []
    assert _format_problems(out) == []


def _format_problems(out):
    """Cells of the run's CSV and key=value files outside the one format.

    Every number is written as ``format(x, ".17g")``, and every CSV row has
    as many cells as its header.  ``norms.csv`` has no header: its rows
    hold a name and a value, and a uloc row one more cell per window of the
    period.  ``resolved.ini`` echoes the config's text and is not checked.
    """
    problems = []
    for path in sorted(out.iterdir()):
        if path.suffix not in (".csv", ".txt"):
            continue
        lines = path.read_text().splitlines()
        if path.suffix == ".txt":
            cells = [line.split("=", 1)[1] for line in lines]
        else:
            rows = [line.split(",") for line in lines]
            widths = {len(rows[0])}
            if path.name == "norms.csv":
                ini = configparser.ConfigParser()
                ini.read(out / "resolved.ini")
                widths = {2, 2 + round(float(ini["norms"]["x_extent"]))}
            problems += [f"{path.name}: {len(r)} cells in {r}" for r in rows
                         if len(r) not in widths]
            cells = [c for r in rows for c in r]
        for cell in cells:
            try:
                x = float(cell)
            except ValueError:
                continue
            if cell != format(x, ".17g"):
                problems.append(f"{path.name}: {cell!r}")
    return problems


def test_comparison_sees_a_small_change(tmp_path):
    # a 1e-8 relative change of one float or of one field value is caught
    want = _golden.GOLDEN / "stokes_strip"
    got = tmp_path / "stokes_strip"
    shutil.copytree(want, got)
    assert _golden.compare_dirs(got, want) == []
    text = (want / "summary.txt").read_text()
    (got / "summary.txt").write_text(text.replace("-5.98830409", "-5.98830415"))
    dom, grid, code, u1 = snapshots.read_raster(want / "u1.stf")
    u1[5, 7] += 1e-8 * np.max(np.abs(u1))
    snapshots.write_raster(got / "u1.stf", dom, grid.nx, grid.nz, code, u1)
    assert [m.split(":")[0] for m in _golden.compare_dirs(got, want)] == [
        "summary.txt", "u1.stf"]
    # a closed box's column fluxes are all rounding, so they are compared at
    # the scale of max|u1|: 1e-8 of it is caught, 1e-12 of it is not
    want = _golden.GOLDEN / "stokes_rect"
    got = tmp_path / "stokes_rect"
    shutil.copytree(want, got)
    # the solve's residual is compared at the gate's tolerance, 1e-9 here: a
    # rounding-level change passes, a residual beyond the gate's scale does not
    text = (want / "summary.txt").read_text()
    token = text.split("residual=")[1].split()[0]
    res, tol = float(token), _golden.residual_tolerance(want)
    for new, found in ((0.99 * res, []), (res + 2 * tol, ["summary.txt"])):
        (got / "summary.txt").write_text(text.replace(token, repr(new)))
        assert [m.split(":")[0] for m in _golden.compare_dirs(got, want)] == found
    (got / "summary.txt").write_text(text)
    scale = float(np.max(np.abs(snapshots.read_field(want / "u1.stf").values)))
    rows = (want / "flux.csv").read_text().splitlines()
    i, v = rows[5].split(",")
    for rel, found in ((1e-8, ["flux.csv"]), (1e-12, [])):
        (got / "flux.csv").write_text("\n".join(
            rows[:5] + [f"{i},{float(v) + rel * scale!r}"] + rows[6:]) + "\n")
        assert [m.split(":")[0] for m in _golden.compare_dirs(got, want)] == found
