"""The package names the benchmark's layer tracer patches.

``perfbench/layertrace.py`` wraps call sites by ``owner.__dict__[attr]``,
so renaming or moving any of them breaks a traced benchmark run while the
package's own tests still pass.  This loads the tracer from its file and
checks that every site it names is still there.
"""

import types
from pathlib import Path

from stokestransport import _kernels

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    # run the source rather than import it, so no bytecode cache is written
    # into the benchmark's directory
    module = types.ModuleType("_perfbench_layertrace")
    module.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"),
         module.__dict__)
    return module


def test_every_traced_site_is_defined_on_its_owner():
    targets = _layertrace()._targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        assert callable(owner.__dict__[attr])


def test_kernel_backend_name_is_recorded():
    assert _kernels.backend_name() == "numpy"
