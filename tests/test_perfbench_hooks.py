"""The package names the benchmark's layer tracer patches.

``perfbench/layertrace.py`` wraps call sites by ``owner.__dict__[attr]``,
so renaming or moving any of them breaks a traced benchmark run while the
package's own tests still pass.  This loads the tracer from its file and
checks that every site it names is still there, and that a traced run
counts the work its counters read from each call's arguments.
"""

import types
from pathlib import Path

from stokestransport import _kernels, cli

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


def test_traced_runs_count_seeds_and_points(tmp_path):
    # the counters read the seed and point counts off positional arguments,
    # so a kernel signature that moves them shows here as a wrong count
    layertrace = _layertrace()
    tracer = layertrace.Tracer()
    grid = "domain = strip\nx_extent = 8\nnx = 32\nnz = 16\nscenario = patch\n"
    runs = {"simulate": "t_final = 0.25\ndt = 0.0625\n",
            "picard": "n_time_nodes = 4\n"}
    with layertrace.tracing(tracer):
        for cmd, times in runs.items():
            cfg = tmp_path / f"{cmd}.ini"
            cfg.write_text(f"[{cmd}]\n{grid}{times}")
            out = tmp_path / cmd
            assert cli.main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span.count)
    assert len(layertrace.runs(tracer.spans)) == 2
    assert spans["kernels.rk4"] and set(spans["kernels.rk4"]) == {32 * 16}
    assert spans["kernels.sample"] and set(spans["kernels.sample"]) == {32 * 16}
    for name in ("stokes.solve", "transport.compose", "norms.state"):
        assert name in spans
