"""Run one repro CLI in this process with per-layer spans recorded.

Usage::

    python perfbench/probe.py TRACE_DIR MODULE [ARGS...]

imports ``MODULE`` (``repro.experiments.cli``, ``repro.experiments.
sweepcli`` or ``repro.service.servecli``), wraps the public entry
points of each pipeline layer, and calls ``MODULE.main(ARGS)``. The
wrappers live here, not in ``src/``: the program runs unchanged, and
the untraced benchmark runs never load this file.

Each process of the run (this one and every pool worker forked from
it) appends its totals to ``TRACE_DIR/<pid>.jsonl`` whenever its
outermost span closes, so workers that exit without running ``atexit``
handlers lose nothing. A record holds, per layer, the *self* time
(time during which that layer's span was the innermost open one on
its thread) and the *top* time (inclusive time of spans opened with
no other span open), plus exact work counts.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

LAYERS = ("trace", "l1", "l2", "sweep", "checkpoint", "report")


class Recorder:
    """Exclusive per-layer span time and counts for one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked pool worker starts from an empty record: the parent
        # flushes its own totals, and its open spans are not ours.
        self._local = threading.local()
        self._self = dict.fromkeys(LAYERS, 0.0)
        self._top = dict.fromkeys(LAYERS, 0.0)
        self._counts = {}
        #: Replays in this process, never reset by a flush.
        self.replays = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.mark = 0.0
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    @contextmanager
    def span(self, layer: str):
        stack = self._stack()
        start = time.perf_counter()
        with self._lock:
            if stack:
                self._self[stack[-1]] += start - self._local.mark
        stack.append(layer)
        self._local.mark = start
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._self[layer] += end - self._local.mark
                if not stack:
                    self._top[layer] += end - start
            self._local.mark = end
            if not stack:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            record = {
                "pid": os.getpid(),
                "worker": os.getpid() != self.main_pid,
                "self": self._self,
                "top": self._top,
                "counts": self._counts,
            }
            self._self = dict.fromkeys(LAYERS, 0.0)
            self._top = dict.fromkeys(LAYERS, 0.0)
            self._counts = {}
        path = self.out_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


def _wrap(owner, name: str, layer: str, rec: Recorder, after=None) -> None:
    """Replace ``owner.name`` with a version timed as ``layer``."""
    original = getattr(owner, name)

    @wraps(original)
    def traced(*args, **kwargs):
        with rec.span(layer):
            result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
        return result

    setattr(owner, name, traced)


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points (module globals and methods)."""
    from repro.cache import hierarchy
    from repro.core.engine import FusedProbeEngine
    from repro.experiments import cli, figures, runner, tables
    from repro.resilience.checkpoint import SweepCheckpoint

    flush_marker = hierarchy.FLUSH_MARKER
    capture = hierarchy.capture_miss_stream

    def requests(stream) -> int:
        return len(stream.events) - stream.events.count(flush_marker)

    def traced_capture(trace, l1):
        # Materialising the references first splits generator time
        # (layer ``trace``) from the L1 simulation that consumes it.
        with rec.span("l1"):
            with rec.span("trace"):
                references = list(trace)
            stream = capture(references, l1)
            rec.count("trace.refs", stream.processor_references)
            rec.count("l1.captures")
            rec.count("l1.events", requests(stream))
        return stream

    hierarchy.capture_miss_stream = traced_capture

    def after_replay(args, _result):
        rec.replays += 1
        rec.count("l2.replays")
        rec.count("l2.requests", requests(args[0]))

    # ``runner`` imported these names, so patch them where they are used.
    _wrap(runner, "replay_miss_stream", "l2", rec, after_replay)
    _wrap(FusedProbeEngine, "finalize", "l2", rec)

    run = runner.ExperimentRunner.run

    @wraps(run)
    def traced_run(self, *args, **kwargs):
        with rec.span("l2"):
            before = rec.replays
            result = run(self, *args, **kwargs)
            rec.count("l2.runs")
            if rec.replays == before:
                rec.count("l2.memo_hits")
        return result

    runner.ExperimentRunner.run = traced_run

    run_points = runner.ParallelSweepRunner.run_points

    @wraps(run_points)
    def traced_run_points(self, points, *args, **kwargs):
        with rec.span("sweep"):
            start = time.perf_counter()
            outcome = run_points(self, points, *args, **kwargs)
            processes = self.processes or os.cpu_count() or 1
            rec.count("sweep.points", len(points))
            rec.count("sweep.retries", getattr(outcome, "retries", 0))
            rec.count(
                "sweep.capacity_s",
                processes * (time.perf_counter() - start),
            )
        return outcome

    runner.ParallelSweepRunner.run_points = traced_run_points

    _wrap(SweepCheckpoint, "load", "checkpoint", rec)
    _wrap(SweepCheckpoint, "record", "checkpoint", rec)

    for name in dir(cli):
        if name.startswith("build_"):
            _wrap(cli, name, "report", rec)
    for cls in (
        tables.Table1, tables.Table2, tables.Table3, tables.Table4,
        figures.FigureSeries, figures.Figure5, figures.Figure6,
    ):
        _wrap(cls, "render", "report", rec)


def main(argv) -> int:
    trace_dir, module_name, cli_args = Path(argv[0]), argv[1], argv[2:]
    module = importlib.import_module(module_name)
    rec = Recorder(trace_dir)
    install(rec)
    # The set-up boundary on the clock the parent process also reads.
    (trace_dir / "setup.json").write_text(
        json.dumps({"ready": time.perf_counter()}), encoding="utf-8"
    )
    try:
        return module.main(cli_args)
    finally:
        rec.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
