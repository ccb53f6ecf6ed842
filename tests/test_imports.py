"""Every name a module of the package imports is read there or exported."""

import ast
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
