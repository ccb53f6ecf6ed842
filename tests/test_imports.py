"""Every name a module of the package imports is read there or exported,
and every name it exports is bound at its top level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stokestransport

SRC = Path(stokestransport.__file__).resolve().parent


def _exports(tree: ast.Module) -> list[str]:
    """The names that the module's ``__all__`` lists."""
    return [name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _unread_imports(source: str) -> list[str]:
    """Imported names that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    bound, exported, read = [], set(_exports(tree)), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
            read.add(ast.unparse(node))
    # ``import a.b`` binds ``a`` but is used only through ``a.b...``
    return [name for name in bound if name not in exported
            and not any(r == name or r.startswith(name + ".") for r in read)]


def _stale_exports(source: str) -> list[str]:
    """Names that ``__all__`` lists and the module's top level does not bind."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return [name for name in _exports(tree) if name not in bound]


def test_scan_finds_unread_imports():
    source = ("import os\nimport scipy.fft\nimport scipy.linalg\n"
              "from m import x, y as z\n__all__ = ['x']\nscipy.fft.rfft(z)\n")
    assert _unread_imports(source) == ["os", "scipy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_scan_finds_stale_exports():
    source = ("import os\nfrom m import y as z\nA, (B, C) = 1, (2, 3)\nD: int = 4\n"
              "class K:\n    inner = 5\n"
              "def f():\n    def g(): pass\n    h = 6\n"
              "__all__ = ['os', 'z', 'A', 'B', 'C', 'D', 'K', 'f', 'g', 'h', 'inner', 'y']\n")
    assert _stale_exports(source) == ["g", "h", "inner", "y"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert _stale_exports(path.read_text()) == []


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
