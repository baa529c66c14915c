"""Per-layer tracing from outside the program.

The traced pass times calls into each layer's public functions by wrapping
them for the duration of the pass; nothing inside ``src/`` is changed.  A
span records its inclusive time and its self time (inclusive time minus the
time of the spans it caused).  When a span nests inside a span of the same
layer (the batched search delegating a one-lane batch to the scalar search),
only the outermost one adds to the layer's inclusive time and call count,
so a layer is never counted twice.

Worker processes forked by the process tier inherit the wrappers.  Each
worker starts with empty totals and writes them to ``<dump_dir>/<pid>.json``
when it exits; the parent merges those files after the pool has shut down.
A server subprocess started through ``serve_traced.py`` does the same.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """Span and counter totals for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.dump_dir: Path | None = None
        self._owner = os.getpid()
        self._exit_hook_pid: int | None = None
        self.spans: dict[str, list[float]] = {}  # layer -> [inclusive, self, calls]
        self.counts: dict[str, float] = {}

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> tuple[list[Any], bool]:
        stack = self._stack()
        outermost = not any(frame[0] == layer for frame in stack)
        frame = [layer, time.perf_counter(), 0.0, outermost]
        stack.append(frame)
        return frame, outermost

    def leave(self, frame: list[Any]) -> None:
        stack = self._stack()
        stack.pop()
        duration = time.perf_counter() - frame[1]
        if stack:
            stack[-1][2] += duration
        layer, _start, children, outermost = frame
        self._ensure_exit_hook()
        with self._lock:
            totals = self.spans.setdefault(layer, [0.0, 0.0, 0])
            if outermost:
                totals[0] += duration
                totals[2] += 1
            totals[1] += duration - children

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, layer: str) -> Iterator[bool]:
        frame, outermost = self.enter(layer)
        try:
            yield outermost
        finally:
            self.leave(frame)

    # -- process plumbing ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
            }

    def after_fork_in_child(self) -> None:
        # A forked worker must not report the parent's totals as its own,
        # and must not inherit a lock another parent thread was holding.
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = {}
        self.counts = {}
        self._exit_hook_pid = None

    def _ensure_exit_hook(self) -> None:
        pid = os.getpid()
        if pid == self._owner or self._exit_hook_pid == pid or self.dump_dir is None:
            return
        # Registered lazily, from inside a task: a multiprocessing child
        # clears its finalizer registry while it boots, so a hook installed
        # at fork time would be dropped before the worker ran anything.
        from multiprocessing import util

        self._exit_hook_pid = pid
        util.Finalize(None, self.dump, exitpriority=10)

    def dump(self, path: Path | None = None) -> None:
        if path is None:
            if self.dump_dir is None:
                return
            path = self.dump_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))


def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum span and counter totals of several processes."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for snap in snapshots:
        for layer, values in snap["spans"].items():
            totals = spans.setdefault(layer, [0.0, 0.0, 0])
            for index, value in enumerate(values):
                totals[index] += value
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def read_dumps(directory: Path) -> list[dict[str, Any]]:
    return [json.loads(path.read_text()) for path in sorted(directory.glob("*.json"))]


# ----------------------------------------------------------------------
# Hooks into the program's public functions
# ----------------------------------------------------------------------
def _patch(owner: Any, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]],
           undo: list[Callable[[], None]]) -> None:
    static = inspect.getattr_static(owner, name)
    if isinstance(static, classmethod):
        wrapped: Any = classmethod(make(static.__func__))
    else:
        wrapped = functools.wraps(static)(make(static))
    setattr(owner, name, wrapped)
    undo.append(lambda: setattr(owner, name, static))


def _timed(tracer: Tracer, layer: str,
           after: Callable[[bool, tuple[Any, ...], dict[str, Any], Any], None] | None = None
           ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def make(function: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame, outermost = tracer.enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(outermost, args, kwargs, result)
            return result

        return wrapper

    return make


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer entry point; returns the function that unwraps them."""
    import repro.api as api
    import repro.service as service
    from repro.core.mixing_set import BatchedMixingSetSearch, MixingSetSearch
    from repro.core.parameters import CDRWParameters
    from repro.core.stopping import GrowthStoppingRule
    from repro.execution_process import ProcessGraphPool
    from repro.randomwalk.batched import BatchedWalkDistribution
    from repro.session import DetectionSession

    undo: list[Callable[[], None]] = []
    count = tracer.count

    def walk_step(outermost: bool, args: tuple, kwargs: dict, result: Any) -> None:
        steps = kwargs.get("count", args[1] if len(args) > 1 else 1)
        count("walk.steps", steps)
        count("walk.lane_steps", steps * args[0].num_walks)

    def batched_scan(outermost: bool, args: tuple, kwargs: dict, result: Any) -> None:
        count("search.calls")
        if outermost:
            count("search.lanes", len(result))
            count("search.sizes_examined", sum(r.sizes_examined for r in result))

    def scalar_scan(outermost: bool, args: tuple, kwargs: dict, result: Any) -> None:
        count("search.scalar_calls")
        if outermost:
            count("search.lanes", 1)
            count("search.sizes_examined", result.sizes_examined)

    def wave(outermost: bool, args: tuple, kwargs: dict, result: Any) -> None:
        count("session.waves")
        count("session.wave_seeds", len(result.detection.communities))

    _patch(CDRWParameters, "resolve_delta", _timed(tracer, "setup.delta"), undo)
    _patch(BatchedMixingSetSearch, "from_parameters", _timed(tracer, "setup.search"), undo)
    _patch(BatchedWalkDistribution, "__init__", _timed(tracer, "setup.walk_init"), undo)
    _patch(BatchedWalkDistribution, "step", _timed(tracer, "walk.step", walk_step), undo)
    _patch(BatchedMixingSetSearch, "largest_mixing_sets",
           _timed(tracer, "search.scan", batched_scan), undo)
    _patch(MixingSetSearch, "largest_mixing_set",
           _timed(tracer, "search.scan", scalar_scan), undo)
    _patch(GrowthStoppingRule, "observe", _timed(tracer, "stopping.observe"), undo)
    _patch(api, "detect", _timed(tracer, "api.detect"), undo)
    # The service binds the splitter by name at import time.
    _patch(service, "split_batched_report", _timed(tracer, "api.split"), undo)
    _patch(DetectionSession, "detect_batch", _timed(tracer, "session.wave", wave), undo)

    def run_seeds(function: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(pool: Any, *args: Any, **kwargs: Any) -> Any:
            mark = pool.mark()
            with tracer.span("process.run_seeds"):
                result = function(pool, *args, **kwargs)
            timings = pool.shard_timings(since=mark)
            count("process.shards", pool.mark() - mark)
            count("process.shard_s", timings["shard_seconds_total"])
            count("process.shard_max_s", timings["shard_seconds_max"])
            # Computed, not observed: the size the shard results take when
            # pickled back across the pipe.  Its own span keeps the pickling
            # out of the driver's self time.
            with tracer.span("trace.result_pickle"):
                count("process.result_bytes", len(pickle.dumps(result)))
            return result

        return wrapper

    _patch(ProcessGraphPool, "run_seeds", run_seeds, undo)

    if tracer.dump_dir is not None:
        os.register_at_fork(after_in_child=tracer.after_fork_in_child)

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()

    return uninstall
