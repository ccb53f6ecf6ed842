"""Every name a module of the package imports is read there or exported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stokestransport

SRC = Path(stokestransport.__file__).resolve().parent


def _unread_imports(source: str) -> list[str]:
    """Imported names that no expression reads and ``__all__`` does not list."""
    bound, exported, read = [], set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            read.add(ast.unparse(node))
    # ``import a.b`` binds ``a`` but is used only through ``a.b...``
    return [name for name in bound if name not in exported
            and not any(r == name or r.startswith(name + ".") for r in read)]


def test_scan_finds_unread_imports():
    source = ("import os\nimport scipy.fft\nimport scipy.linalg\n"
              "from m import x, y as z\n__all__ = ['x']\nscipy.fft.rfft(z)\n")
    assert _unread_imports(source) == ["os", "scipy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


_RUN_THEN_LIST = (
    "import sys\n"
    "from stokestransport import cli\n"
    "for cmd, config, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):\n"
    "    assert cli.main([cmd, '--config', config, '--out', out]) == 0\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")


def test_runs_leave_scipy_unloaded(tmp_path):
    # importing any of scipy's fft, sparse or special modules costs about
    # 27 MB and 0.4 s per run, and the tests import scipy as an oracle, so
    # the runs go through cli.main in a fresh process
    march = "t_final = 0.125\ndt = 0.0625\n"
    runs = {"strip": ("simulate", "domain = strip\nx_extent = 8\n" + march),
            "rectangle": ("simulate", "domain = rectangle\nx_extent = 1\n" + march),
            "picard": ("picard", "domain = strip\nx_extent = 8\nt_final = 0.125\n"
                       "n_time_nodes = 3\n")}
    args = []
    for name, (cmd, body) in runs.items():
        config = tmp_path / f"{name}.ini"
        config.write_text(f"[{cmd}]\nnx = 32\nnz = 8\nscenario = patch\n{body}")
        args += [cmd, str(config), str(tmp_path / name)]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", _RUN_THEN_LIST, *args], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    assert r.stdout.splitlines()[-1] == "[]"
