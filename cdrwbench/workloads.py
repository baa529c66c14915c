"""The three benchmark workloads and the passes that drive them.

A run has ``BLOCKS`` blocks.  Each block replays its own fixed input
sequence (its *cycle*), derived from the workload seed, in whole cycles,
through a closed loop:

* ``partition`` -- one-shot ``repro.api.detect`` pool rounds of 16 seeds on
  the thread tier, one call per graph per cycle; one caller.
* ``serve_waves`` -- an in-process ``DetectionService`` on the process tier;
  one generator submits ``DEPTH`` distinct seeds and awaits them all.
* ``wire_file`` -- a ``repro serve --graph-file G.csr --storage memmap``
  subprocess; one ``ServiceClient`` connection, one request at a time.

See README.md for why each exists and which layers it exercises.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from checks import Answer, ExactnessGate

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Requests the serve_waves generator keeps outstanding: one full wave.
#: Cycle lengths are multiples of it.
DEPTH = 16
#: Requests per measurement window on the serving workloads: two waves on
#: serve_waves, about 0.6 s of requests on wire_file.
WINDOW = 32
#: Graphs the partition workload spreads its calls over.
GRAPHS = 4
#: Set-up-and-measure rounds per end-to-end run, each with its own cycle.
BLOCKS = 3
#: Set-ups per end-to-end run: one per block, the rest set up, warm up and
#: tear down before the first block.  setup_s is their median.
SETUPS = 5
#: Longest wait for one reply before the operation counts as failed.
REPLY_TIMEOUT_S = 120.0
SERVER_START_TIMEOUT_S = 60.0


def worker_count() -> int:
    """Process-tier workers: leave the parent's dispatcher and generator a core."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


def ppm(n: int, blocks: int, seed: int) -> tuple[Any, float]:
    """The PPM of ``repro detect``/``repro serve``: p = 2 ln²n / n, q = 0.6 / n."""
    from repro.graphs import planted_partition_graph, ppm_expected_conductance

    p = min(1.0, 2.0 * math.log(n) ** 2 / n)
    q = 0.6 / n
    return planted_partition_graph(n, blocks, p, q, seed=seed), ppm_expected_conductance(
        n, blocks, p, q
    )


@dataclass
class Op:
    """One timed operation: a partition call or one request."""

    submitted: float
    done: float | None = None
    answers: list[Answer] | None = None
    error: BaseException | None = None
    timings: dict[str, float] = field(default_factory=dict)
    report: Any = None

    @property
    def latency(self) -> float:
        return (self.done or self.submitted) - self.submitted


@dataclass
class Pass:
    """The operations of one closed-loop pass over whole cycles."""

    ops: list[Op]
    elapsed: float


class Workload:
    """Common shape: untimed prep, timed setup-to-first-answer, closed-loop passes."""

    name = ""

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.graph_seed = int(self.rng.integers(2**31))
        self.build_s = 0.0
        self.gate: ExactnessGate | None = None

    # Subclasses implement these.
    def prep(self) -> None:
        raise NotImplementedError

    def setup(self, traced: bool = False) -> Any:
        raise NotImplementedError

    def warm_up(self, handle: Any, block: int) -> list[Op]:
        raise NotImplementedError

    #: Cycle entries one closed-loop step sends before it waits for replies.
    step_size = 1
    #: Operations per measurement window (``None``: the whole pass).  Cycle
    #: lengths are multiples of it, so every window is whole.
    window: int | None = None

    def step(self, handle: Any, entries: list[Any]) -> list[Op]:
        """Send ``entries`` and wait for every answer."""
        raise NotImplementedError

    def run(self, handle: Any, block: int, seconds: float, cycles: int | None = None) -> Pass:
        """Replay cycle ``block`` in whole cycles until ``seconds`` have passed,
        or ``cycles`` times."""
        cycle = self.cycles[block]
        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            first = len(ops) % len(cycle)
            ops += self.step(handle, cycle[first:first + self.step_size])
            done, rest = divmod(len(ops), len(cycle))
            if rest == 0 and (done >= cycles if cycles is not None
                              else time.perf_counter() - start >= seconds):
                return Pass(ops, max(op.done for op in ops) - start)

    def teardown(self, handle: Any) -> None:
        raise NotImplementedError

    def service_metrics(self, handle: Any) -> dict[str, Any]:
        return {}

    # Shared helpers.
    def _gate(self, truths: list[tuple[Any, Any]], delta: float) -> ExactnessGate:
        """The gate over ``(graph, planted partition)`` pairs, indexed as answered."""
        from repro.api import detect
        from repro.metrics.scores import score_community

        def reference(index: int, seed: int) -> tuple[Answer, float]:
            graph, partition = truths[index]
            report = detect(graph, "batched", seeds=(seed,), capture_history=False,
                            workers=1, executor="thread", delta_hint=delta)
            result = report.detection.communities[0]
            score = score_community(seed, result.community, partition).f_score
            return Answer.of(result, index), score

        return ExactnessGate(reference)


# ----------------------------------------------------------------------
# partition
# ----------------------------------------------------------------------
class PartitionWorkload(Workload):
    name = "partition"

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        super().__init__(seed, toy, workdir)
        self.n, self.r = (512, 2) if toy else (8192, 8)
        # One call per graph per cycle, over several graphs: the work a call
        # does depends on its graph (walk lengths), so a single graph would
        # make that graph's luck the run's result.
        graphs = 2 if toy else GRAPHS
        self.graph_seeds = [int(s) for s in self.rng.integers(2**31, size=graphs)]
        self.cycles = [[(index, int(s)) for index, s in
                        enumerate(self.rng.integers(2**31, size=graphs))]
                       for _ in range(BLOCKS)]

    def _graphs(self) -> list[Any]:
        return [ppm(self.n, self.r, seed)[0] for seed in self.graph_seeds]

    def prep(self) -> None:
        self.delta = ppm(self.n, self.r, self.graph_seeds[0])[1]
        self.gate = self._gate([(t.graph, t.partition) for t in self._graphs()], self.delta)

    def setup(self, traced: bool = False) -> list[Any]:
        start = time.perf_counter()
        graphs = [truth.graph for truth in self._graphs()]
        self.build_s = time.perf_counter() - start
        return graphs

    def _call(self, graphs: list[Any], index: int, rng_seed: int) -> Op:
        import repro.api as api  # looked up per call so the traced pass sees its wrapper

        op = Op(submitted=time.perf_counter())
        try:
            report = api.detect(graphs[index], "batched", seed=rng_seed, batch_size=16,
                                max_seeds=16, capture_history=False, workers=1,
                                executor="thread", delta_hint=self.delta)
            op.done = time.perf_counter()
            op.answers = [Answer.of(c, index) for c in report.detection.communities]
        except Exception as error:
            op.done = time.perf_counter()
            op.error = error
        return op

    def warm_up(self, graphs: list[Any], block: int) -> list[Op]:
        return self.step(graphs, self.cycles[block][:1])

    def step(self, graphs: list[Any], entries: list[tuple[int, int]]) -> list[Op]:
        return [self._call(graphs, index, rng_seed) for index, rng_seed in entries]

    def teardown(self, graphs: list[Any]) -> None:
        pass


# ----------------------------------------------------------------------
# serve_waves
# ----------------------------------------------------------------------
class ServeWavesWorkload(Workload):
    name = "serve_waves"

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        super().__init__(seed, toy, workdir)
        self.n, self.r = (512, 2) if toy else (4096, 4)
        length = 32 if toy else 64
        order = [int(s) for s in self.rng.permutation(self.n)]
        self.cycles = [order[b * length:(b + 1) * length] for b in range(BLOCKS)]

    def prep(self) -> None:
        truth, self.delta = ppm(self.n, self.r, self.graph_seed)
        self.gate = self._gate([(truth.graph, truth.partition)], self.delta)

    def setup(self, traced: bool = False) -> Any:
        from repro.api import RunConfig
        from repro.service import DetectionService

        start = time.perf_counter()
        graph = ppm(self.n, self.r, self.graph_seed)[0].graph
        self.build_s = time.perf_counter() - start
        config = RunConfig(executor="process", workers=worker_count(), capture_history=False)
        return DetectionService(graph, config=config, delta_hint=self.delta, start=False)

    def warm_up(self, service: Any, block: int) -> list[Op]:
        # One full wave: forks the pool and fills the session's caches.  The
        # dispatcher starts only once the wave is queued; started earlier,
        # it can catch the first request alone on its way into its wait.
        window = self._submit(service, self.cycles[block][:DEPTH])
        service.start()
        return self._collect(window)

    # Submit a whole window, then wait for every reply.  Refilling one slot
    # per reply lets the dispatcher catch the first refill alone and split
    # the next wave in two; refilling the window at once keeps every wave
    # DEPTH wide.
    step_size = DEPTH
    window = WINDOW

    def step(self, service: Any, entries: list[int]) -> list[Op]:
        return self._collect(self._submit(service, entries))

    @staticmethod
    def _submit(service: Any, seeds: list[int]) -> list[tuple[Op, Any]]:
        window = []
        for seed in seeds:
            op = Op(submitted=time.perf_counter())
            try:
                future = service.submit(seed)
            except Exception as error:
                op.done, op.error = time.perf_counter(), error
                future = None
            else:
                # The reply time is taken when the dispatcher resolves the
                # future, not when the generator gets round to it.
                future.add_done_callback(
                    lambda _f, op=op: setattr(op, "done", time.perf_counter()))
            window.append((op, future))
        return window

    @staticmethod
    def _collect(window: list[tuple[Op, Any]]) -> list[Op]:
        for op, future in window:
            if future is None:
                continue
            try:
                report = future.result(timeout=REPLY_TIMEOUT_S)
            except Exception as error:
                op.error = error
                future.cancel()
            else:
                op.answers = [Answer.of(report.detection.communities[0])]
                op.timings = dict(report.timings)
        ops = [op for op, _ in window]
        _await_callbacks(ops)
        return ops

    def service_metrics(self, service: Any) -> dict[str, Any]:
        return dict(service.metrics())

    def teardown(self, service: Any) -> None:
        service.close()


def _await_callbacks(ops: list[Op]) -> None:
    """Wait (briefly) for done-callbacks that run just after a result is set."""
    deadline = time.perf_counter() + 1.0
    for op in ops:
        while op.done is None and time.perf_counter() < deadline:
            time.sleep(0.0005)
        if op.done is None:  # timed out or cancelled: no reply time exists
            op.done = time.perf_counter()


# ----------------------------------------------------------------------
# wire_file
# ----------------------------------------------------------------------
@dataclass
class ServerHandle:
    process: subprocess.Popen
    client: Any


class WireFileWorkload(Workload):
    name = "wire_file"

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        super().__init__(seed, toy, workdir)
        self.n, self.r = (256, 2) if toy else (1024, 2)
        length = 32 if toy else 128
        order = [int(s) for s in self.rng.permutation(self.n)]
        self.cycles = [order[b * length:(b + 1) * length] for b in range(BLOCKS)]
        self.graph_file = workdir / "G.csr"
        self.keep_reports = False

    def prep(self) -> None:
        from repro.core.parameters import CDRWParameters
        from repro.graphs import load_graph_file, write_csr_graph

        truth, _hint = ppm(self.n, self.r, self.graph_seed)
        write_csr_graph(truth.graph, self.graph_file)
        graph = load_graph_file(self.graph_file, storage="memmap")[0]
        # The server gets no hint and estimates δ spectrally; the
        # references resolve it the same way, once, on the same file.
        self.delta = CDRWParameters().resolve_delta(graph, None)
        self.gate = self._gate([(graph, truth.partition)], self.delta)

    def load_graph(self) -> float:
        """Time an in-process memmap load of the served file: the graph layer
        the server runs, timed where the benchmark can see it."""
        from repro.graphs import load_graph_file

        start = time.perf_counter()
        graph = load_graph_file(self.graph_file, storage="memmap")[0]
        elapsed = time.perf_counter() - start
        del graph
        return elapsed

    def setup(self, traced: bool = False) -> ServerHandle:
        from repro.service_net import ServiceClient

        serve = ["serve", "--graph-file", str(self.graph_file), "--storage", "memmap",
                 "--executor", "thread", "--port", "0"]
        self.keep_reports = traced
        if traced:
            self.build_s = self.load_graph()
            dump = self.workdir / "trace" / "server.json"
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(dump), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC_DIR)
        process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                   env=env, cwd=self.workdir)
        try:
            host, port = _await_ready(process)
            client = ServiceClient(host, port, timeout=REPLY_TIMEOUT_S)
        except BaseException:
            _stop_server(process)
            raise
        return ServerHandle(process, client)

    def _request(self, client: Any, seed: int) -> Op:
        op = Op(submitted=time.perf_counter())
        try:
            report = client.detect(seed)
            op.done = time.perf_counter()
            op.answers = [Answer.of(report.detection.communities[0])]
            op.timings = dict(report.timings)
            if self.keep_reports:  # the traced pass re-decodes the replies
                op.report = report
        except Exception as error:
            op.done = time.perf_counter()
            op.error = error
        return op

    window = WINDOW

    def warm_up(self, handle: ServerHandle, block: int) -> list[Op]:
        return self.step(handle, self.cycles[block][:1])

    def step(self, handle: ServerHandle, entries: list[int]) -> list[Op]:
        return [self._request(handle.client, seed) for seed in entries]

    def service_metrics(self, handle: ServerHandle) -> dict[str, Any]:
        return dict(handle.client.metrics())

    def teardown(self, handle: ServerHandle) -> None:
        try:
            handle.client.close()
        finally:
            _stop_server(handle.process)


def _await_ready(process: subprocess.Popen) -> tuple[str, int]:
    """Read the server's output until it announces its bound address."""
    marker = b"serving detections on "
    buffer = b""
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    assert process.stdout is not None
    fd = process.stdout.fileno()
    while True:
        for line in buffer.split(b"\n")[:-1]:
            if line.startswith(marker):
                host, port = line[len(marker):].decode().strip().rsplit(":", 1)
                return host, int(port)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("server did not announce its address in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited before serving: {buffer.decode(errors='replace')}")
            buffer += chunk


def _stop_server(process: subprocess.Popen) -> None:
    """SIGINT (the server drains and exits), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PartitionWorkload, ServeWavesWorkload, WireFileWorkload)
}


def reply_json_line(report: Any) -> bytes:
    """The reply line the server sent for ``report`` (same encoder, same fields)."""
    payload = {"id": 0, "ok": True, "report": report.to_dict()}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
