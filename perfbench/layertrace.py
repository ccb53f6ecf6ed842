"""Layer spans recorded from outside the package.

Each traced name is patched in the namespace where callers look it up:
``cli`` and ``coupling`` import their collaborators by name, ``transport``
reaches the kernels through the ``_kernels`` module, and ``picard_solve``
reaches ``integrate_flow`` and ``compose_maps`` through ``transport``'s own
globals (inside ``backward_flow_maps``).  Spans stay in memory until the
run ends; every patched attribute is restored on exit.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager


def _targets():
    """(owner, attribute, span name, counter) for every traced call site.

    A counter maps the call's positional arguments and result to the work
    it did: seeds stepped, points sampled, bytes written, Picard sweeps.
    """
    from stokestransport import _kernels, cli, coupling, transport

    return [
        (cli, "main", "cli.main", None),
        (cli, "time_march", "coupling.entry", None),
        (cli, "picard_solve", "coupling.entry",
         lambda args, result: result[1].iterations),
        (cli, "write_field", "snapshots.write",
         lambda args, result: os.path.getsize(args[0])),
        (coupling, "solve_buoyancy", "stokes.solve", None),
        (coupling, "integrate_flow", "transport.integrate", None),
        (coupling, "compose_maps", "transport.compose", None),
        (coupling, "_pull_back", "transport.pull_back", None),
        (coupling, "_make_state", "norms.state", None),
        (coupling, "_diff_norm", "norms.diff", None),
        (transport, "integrate_flow", "transport.integrate", None),
        (transport, "compose_maps", "transport.compose", None),
        (transport.VelocitySeries, "__call__", "transport.series_eval", None),
        (_kernels, "rk4_step", "kernels.rk4",
         lambda args, result: args[0].size),
        (_kernels, "sample_center", "kernels.sample",
         lambda args, result: args[1].size),
    ]


class Span:
    __slots__ = ("name", "parent", "start", "end", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = 0

    def as_list(self):
        return [self.name, self.parent, self.start, self.end, self.count]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.count = counter(args, result)
            return result

        return traced


@contextmanager
def tracing(tracer: Tracer):
    """Patch every target for the duration of the block, recording into tracer."""
    saved = []
    try:
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def runs(spans):
    """Split the span list into one list per top-level span (one CLI run)."""
    out = []
    for i, s in enumerate(spans):
        if s.parent == -1:
            out.append((i, []))
        out[-1][1].append(i)
    return out


def self_time(spans, idx, members):
    """Span duration minus the time its direct children cover."""
    s = spans[idx]
    covered = sum(spans[j].end - spans[j].start for j in members
                  if spans[j].parent == idx)
    return (s.end - s.start) - covered


def _total(spans, members, name):
    picked = [spans[j] for j in members if spans[j].name == name]
    return sum(s.end - s.start for s in picked), len(picked), \
        sum(s.count for s in picked)


def layer_split(spans, root, members):
    """Per-layer times and counts of one CLI run (the span tree at root)."""
    out = {"cli.self_s": self_time(spans, root, members)}
    entry = [j for j in members if spans[j].name == "coupling.entry"]
    out["coupling.self_s"] = sum(self_time(spans, j, members) for j in entry)
    out["coupling.picard_sweeps"] = sum(spans[j].count for j in entry)
    out["stokes.solve_s"], out["stokes.solve_calls"], _ = \
        _total(spans, members, "stokes.solve")
    out["kernels.rk4_s"], _, out["kernels.seed_steps"] = \
        _total(spans, members, "kernels.rk4")
    out["kernels.sample_s"], _, out["kernels.points_sampled"] = \
        _total(spans, members, "kernels.sample")
    out["transport.integrate_s"], out["transport.integrate_calls"], _ = \
        _total(spans, members, "transport.integrate")
    out["transport.compose_s"] = _total(spans, members, "transport.compose")[0]
    out["transport.pull_back_s"] = _total(spans, members, "transport.pull_back")[0]
    out["transport.series_eval_s"] = \
        _total(spans, members, "transport.series_eval")[0]
    out["norms.diff_s"], out["norms.diff_calls"], _ = \
        _total(spans, members, "norms.diff")
    out["norms.state_s"] = _total(spans, members, "norms.state")[0]
    out["snapshots.write_s"], _, out["snapshots.bytes"] = \
        _total(spans, members, "snapshots.write")
    return out
