"""One-line mutations of the package's checks, each of which tier-1 must fail.

``MUTANTS`` holds one row per mutation: a name, the file under the
repository root, the exact old text (which must occur there once), the new
text and why the mutation matters.  A row marked ``equivalent`` cannot
change any result that a test can see, and is expected to survive.

``python3 tests/_mutants.py [NAME ...]`` runs every row, or the named ones.
For each it copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` to a temporary directory, applies the row there, runs
``pytest -x -q`` in that copy and prints KILLED with the first failing
test, or SURVIVED.  It exits 1 if a row that is not equivalent survives or
if a row's old text is not found exactly once.  A row takes 20-40 s on two
cores, which is why tier-1 does not collect this script.  Tier-1's
``test_mutant_rows.py`` checks only the table: every row's old text occurs
once and no two rows share a name.  The mutated copies leave that file
out, since a mutated file no longer holds its row's old text.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
_SRC = "src/stokestransport/"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = (
    Mutant("residual_gate_100x", _SRC + "stokes.py",
           "if res > tol:", "if res > 100 * tol:",
           "the momentum residual gate of every solve, 100 times looser"),
    Mutant("divergence_gate_100x", _SRC + "stokes.py",
           "if dmax > tol:", "if dmax > 100 * tol:",
           "the discrete incompressibility gate of every solve, 100 times looser"),
    Mutant("strip_capacitance_not_inverted", _SRC + "stokes.py",
           "return _StripFactor(gx, gz, inv, qz, rz, 1.0 / own)",
           "return _StripFactor(gx, gz, inv, qz, rz, own)",
           "the strip applies its wall capacitance instead of its inverse"),
    Mutant("wall_modes_q_unscaled", _SRC + "stokes.py",
           "dct(units / np.sqrt(2.0), axis=1)", "dct(units, axis=1)",
           "the walls' sum and difference of q lose their 1/sqrt(2)"),
    Mutant("u2_x_wall_ghost_even", _SRC + "_kernels.py",
           "_padded(u2, periodic, gx=-1.0)", "_padded(u2, periodic, gx=1.0)",
           "u2's ghost beyond the rectangle's x walls mirrors instead of negating"),
    Mutant("owned_no_copy", _SRC + "domain.py",
           'out = np.array(values, dtype=np.float64, order="C")',
           'out = np.asarray(values, dtype=np.float64, order="C")',
           "a container shares the caller's array instead of owning a copy"),
    Mutant("owned_writeable", _SRC + "domain.py",
           "out.flags.writeable = False", "out.flags.writeable = True",
           "a container's arrays stay writeable"),
    Mutant("owned_no_shape_check", _SRC + "domain.py",
           "if out.shape != shape:", "if out.shape != shape and False:",
           "a container accepts an array of the wrong shape"),
    Mutant("owned_accepts_inf", _SRC + "domain.py",
           "if not np.all(np.isfinite(out)):", "if np.any(np.isnan(out)):",
           "a container accepts infinite values"),
    Mutant("window_whole_strip_at_2_periods", _SRC + "norms.py",
           "periodic = ncols >= g.nx", "periodic = ncols >= 2 * g.nx",
           "a padded window that covers the period once stays a Dirichlet window"),
    Mutant("window_energy_verdict_2x", _SRC + "norms.py",
           "violated=left > right * (1.0 + 1e-12) + 1e-300",
           "violated=left > right * 2.0 + 1e-300",
           "the window-energy verdict at twice its bound"),
    Mutant("squared_norm_no_overflow_check", _SRC + "norms.py",
           "if not np.all(np.isfinite(s)):", "if False:",
           "every L2, H1 and dual-norm sum returns inf instead of raising"),
    Mutant("lipschitz_verdict_never", _SRC + "transport.py",
           "violation=measured > bound * (1.0 + 1e-6)", "violation=False",
           "a flow map's Lipschitz constant is never reported above its bound"),
    Mutant("compose_junction_1e-3", _SRC + "transport.py",
           "abs_tol=1e-12", "abs_tol=1e-3",
           "maps whose end and start times differ by a thousandth still compose"),
    Mutant("stability_absolute_switch_1e-6", _SRC + "coupling.py",
           "gaps[0] <= 1e-14 * scale", "gaps[0] <= 1e-6 * scale",
           "stability runs report absolute gaps for initial gaps far above rounding"),
    Mutant("dt_rule_1.5x", _SRC + "cli.py",
           'cfg["dt"] > cfg["t_final"]', 'cfg["dt"] > 1.5 * cfg["t_final"]',
           "the CLI runs a step up to half again longer than t_final"),
    Mutant("dt_rule_rejects_t_final", _SRC + "cli.py",
           'cfg["dt"] > cfg["t_final"]', 'cfg["dt"] >= cfg["t_final"]',
           "the CLI rejects dt = t_final, a run of one step"),
    Mutant("step_count_backoff_1e-6", _SRC + "transport.py",
           "math.ceil(steps - 1e-12)", "math.ceil(steps - 1e-6)",
           "the step count forgives a millionth of a step, not only rounding"),
    Mutant("flow_stability_verdict_2x", _SRC + "transport.py",
           "violated=left > right * (1.0 + 1e-6)", "violated=left > right * 2.0",
           "the flow-map stability verdict at twice its bound"),
    Mutant("one_cell_warning_2x", _SRC + "coupling.py",
           'h * state.norms["u_linf"] > hmin:', 'h * state.norms["u_linf"] > 2.0 * hmin:',
           "time_march's advisory warning at two cells instead of one"),
    Mutant("picard_delta_min", _SRC + "coupling.py",
           "delta = d if i == 1 else max(delta, d)", "delta = d if i == 1 else min(delta, d)",
           "the Picard distance as the smallest node difference, not the largest"),
    Mutant("picard_divergence_2x", _SRC + "coupling.py",
           "diffs[-1] >= diffs[-2]", "diffs[-1] >= 2.0 * diffs[-2]",
           "Picard reports divergence only once a distance doubles"),
    Mutant("picard_margin_0", _SRC + "coupling.py",
           "margin = speed_max * float(T)", "margin = 0.0",
           "the Picard windows lose the distance the flow can carry mass"),
    Mutant("lambert_w_two_steps", _SRC + "coupling.py",
           "for _ in range(8):", "for _ in range(2):",
           "the contraction window's Lambert W stops after two Halley steps"),
    Mutant("patch_bottom_wall_strict", _SRC + "scenarios.py",
           "cz - r_outer < 0.0", "cz - r_outer <= 0.0",
           "a patch whose disk touches the bottom wall is rejected"),
    Mutant("patch_top_wall_strict", _SRC + "scenarios.py",
           "cz + r_outer > 1.0", "cz + r_outer >= 1.0",
           "a patch whose disk touches the top wall is rejected"),
    Mutant("stability_default_dt_24", _SRC + "coupling.py",
           "dt = T / 16.0", "dt = T / 24.0",
           "stability_experiment's default step a 24th of T instead of a 16th"),
    Mutant("ledger_slack_1e-3", _SRC + "coupling.py",
           "_REL_SLACK = 1e-12", "_REL_SLACK = 1e-3",
           "the ledger accepts families that break the recursion by 0.1 %"),
    Mutant("ledger_c_alpha_half", _SRC + "coupling.py",
           "(1.0 + 1.0 / alpha)", "(1.0 + 0.5 / alpha)",
           "the ledger's contraction factor C_alpha too small"),
    Mutant("ledger_bound_plus_0", _SRC + "coupling.py",
           "k0 - 1 <= bound", "k0 <= bound",
           "the ledger bound without the + 1 that turns a count into an index"),
    Mutant("ledger_bound_plus_2", _SRC + "coupling.py",
           "k0 - 1 <= bound", "k0 - 2 <= bound",
           "loosens only the verdict, and by the theorem no family that meets "
           "the hypotheses has k0 above floor(bound) + 1", equivalent=True),
)


def occurrences(mutant: Mutant) -> int:
    """How many times the row's old text occurs in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old)


def _first_failure(output: str) -> str:
    """The first FAILED or ERROR line of a pytest summary, or the last line."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    if found:
        return found.group(1)
    lines = output.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` in a fresh copy and run tier-1; (killed, detail)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(src, work / name)
        target = work / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore", str(work / "tests" / "test_mutant_rows.py")],
                cwd=work, env=env, capture_output=True, text=True, timeout=1800)
        except subprocess.TimeoutExpired:
            return True, "tier-1 timed out"
        if proc.returncode == 0:
            return False, _first_failure(proc.stdout)
        return True, _first_failure(proc.stdout + proc.stderr)


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for m in (m for m in MUTANTS if not argv or m.name in argv):
        count = occurrences(m)
        if count != 1:
            print(f"{m.name}: STALE, old text found {count} times in {m.path}")
            bad += 1
            continue
        killed, detail = run(m)
        verdict = "KILLED" if killed else "SURVIVED"
        if not killed and m.equivalent:
            verdict += " (equivalent)"
        elif not killed:
            bad += 1
        print(f"{m.name}: {verdict}  {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
