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


_SIMULATE_THEN_LIST = (
    "import sys\n"
    "from stokestransport import cli\n"
    "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
    "    assert cli.main(['simulate', '--config', config, '--out', out]) == 0\n"
    "print('scipy.linalg' in sys.modules)\n")


def test_simulate_leaves_scipy_linalg_unloaded(tmp_path):
    # scipy.linalg brings a second LAPACK beside numpy's and about 6 MB that
    # neither solve needs; a fresh process, as the test oracle imports it
    args = []
    for domain in ("strip\nx_extent = 8", "rectangle\nx_extent = 1"):
        config = tmp_path / f"{domain.split()[0]}.ini"
        config.write_text(f"[simulate]\ndomain = {domain}\nnx = 16\nnz = 8\n"
                          "scenario = patch\nt_final = 0.125\ndt = 0.0625\n")
        args += [str(config), str(tmp_path / domain.split()[0])]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", _SIMULATE_THEN_LIST, *args], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    assert r.stdout.split()[-1] == "False"
