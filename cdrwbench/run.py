"""Benchmark entry point: one workload per invocation.

    python3 cdrwbench/run.py --workload partition --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with no
tracing; with ``--trace 1`` it prints the per-layer metrics of a separate
traced pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host and the code the numbers were taken on.  ``--out FILE``
appends both, as one JSON line, to FILE for ``compare.py``.

The exit code is 0 only when every answer matched its reference and the
workload left no shared-memory segment or child process behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["partition", "serve_waves", "wire_file"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny graphs and cycles, for the benchmark's own tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the host record and the result to this JSON-lines file")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host and code record
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _check(gate: Any, ops: list[Any]) -> list[Any]:
    """Gate every operation; returns the ones answered correctly."""
    return [op for op in ops if gate.check(op.answers, op.error)]


def _answers(ops: list[Any]) -> int:
    """Communities answered: 16 per partition call, one per request."""
    return sum(len(op.answers) for op in ops)


def _setup(workload: Any, block: int, traced: bool = False) -> tuple[Any, float, list[Any]]:
    """One set-up, timed from its start to the first answer."""
    start = time.perf_counter()
    handle = workload.setup(traced=traced)
    warm = workload.warm_up(handle, block)
    first = min(op.done for op in warm)
    return handle, first - start, warm


def _windows(ops: list[Any], size: int | None) -> list[list[Any]]:
    """Consecutive windows of ``size`` operations; the whole pass if ``None``
    or if the pass is shorter than one window."""
    if size is None or len(ops) < size:
        return [ops]
    return [ops[i:i + size] for i in range(0, len(ops) - size + 1, size)]


def _window_figures(window: list[Any], ok: list[Any]) -> tuple[float, float, float]:
    """Throughput, p50 and p90 latency of one window, from its correct answers."""
    good = {id(op) for op in ok}
    correct = [op for op in window if id(op) in good]
    elapsed = max(op.done for op in window) - min(op.submitted for op in window)
    latencies = [op.latency * 1e3 for op in correct]
    return (_answers(correct) / elapsed, percentile(latencies, 50),
            percentile(latencies, 90))


def end_to_end(workload: Any, seconds: float) -> dict[str, Any]:
    """``BLOCKS`` rounds of set-up, a measured block and an untimed check.

    The blocks share ``seconds`` between them and each replays its own
    cycle.  Each block's pass is cut into windows of ``workload.window``
    operations (the whole pass when that is ``None``), and throughput, p50
    and p90 are the medians of their per-window values over the run.  The
    host's speed drifts for seconds at a time: a window it slows is
    outvoted by the windows it does not, where a percentile over the whole
    pass would take the slow stretch in.  Set-up time is the median of
    ``SETUPS`` set-ups: the blocks' and some made only to be timed.
    """
    from workloads import BLOCKS, SETUPS

    setups: list[float] = []
    for extra in range(SETUPS - BLOCKS):
        handle, seconds_to_answer, warm = _setup(workload, extra % BLOCKS)
        workload.teardown(handle)
        _check(workload.gate, warm)
        setups.append(seconds_to_answer)
    windows: list[tuple[float, float, float]] = []
    keys: set[tuple[int, int]] = set()
    for block in range(BLOCKS):
        handle, seconds_to_answer, warm = _setup(workload, block)
        setups.append(seconds_to_answer)
        measured = workload.run(handle, block, seconds / BLOCKS)
        workload.teardown(handle)
        _check(workload.gate, warm)
        ok = _check(workload.gate, measured.ops)
        windows += [_window_figures(window, ok)
                    for window in _windows(measured.ops, workload.window)]
        keys.update(a.key for op in measured.ops for a in (op.answers or ()))
    gate = workload.gate
    rates, p50s, p90s = zip(*windows)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "throughput_rps": _metric(statistics.median(rates), "1/s"),
        "latency_p50_ms": _metric(statistics.median(p50s), "ms"),
        "latency_p90_ms": _metric(statistics.median(p90s), "ms"),
        "f_score": _metric(gate.mean_f_score(sorted(keys)), "1"),
        "ok_ratio": _metric((gate.attempted - gate.failed) / max(1, gate.attempted), "1"),
        "peak_rss_mb": _metric((own + children) / 1024.0, "MB"),
    }


def per_layer(workload: Any, seconds: float) -> dict[str, Any]:
    import layers
    from workloads import BLOCKS

    # One untraced block first: trace.overhead compares the two.
    handle, _, warm = _setup(workload, 0)
    _check(workload.gate, warm)
    plain = workload.run(handle, 0, seconds / BLOCKS)
    workload.teardown(handle)
    plain_ok = _check(workload.gate, plain.ops)

    trace_dir = workload.workdir / "trace"
    trace_dir.mkdir(exist_ok=True)
    tracer = layers.Tracer()
    tracer.dump_dir = trace_dir
    uninstall = layers.install(tracer)
    try:
        handle, _, warm = _setup(workload, 0, traced=True)
        before = workload.service_metrics(handle)
        traced = workload.run(handle, 0, 0.0, cycles=1)
        after = workload.service_metrics(handle)
        workload.teardown(handle)
    finally:
        uninstall()
    _check(workload.gate, warm)
    traced_ok = _check(workload.gate, traced.ops)
    totals = layers.merge([tracer.snapshot(), *layers.read_dumps(trace_dir)])

    plain_rate = _answers(plain_ok) / plain.elapsed
    traced_rate = _answers(traced_ok) / traced.elapsed
    return layer_metrics(totals, traced_ok, before, after, workload.build_s,
                         overhead=plain_rate / traced_rate - 1.0 if traced_rate else 0.0,
                         traced_ops=len(warm) + len(traced.ops))


def layer_metrics(totals: dict[str, Any], ops: list[Any], before: dict[str, Any],
                  after: dict[str, Any], build_s: float, *, overhead: float,
                  traced_ops: int) -> dict[str, Any]:
    from repro.api import RunReport
    from workloads import reply_json_line

    spans, counts = totals["spans"], totals["counts"]

    def inclusive(layer: str) -> float:
        return spans.get(layer, [0.0, 0.0, 0])[0]

    def calls(layer: str) -> float:
        return spans.get(layer, [0.0, 0.0, 0])[2]

    def delta(key: str) -> float:
        return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)

    # The search's share of the compute in the process where it ran: the
    # worker shards on the process tier, the detect calls otherwise.
    shard_s = counts.get("process.shard_s", 0.0)
    compute = shard_s if shard_s > 0 else inclusive("api.detect")
    waits = [op.timings.get("service_queue_wait_seconds", 0.0) * 1e3 for op in ops]
    waves = [op.timings.get("service_wave_seconds", 0.0) * 1e3 for op in ops]
    roundtrip, decode, overheads, sizes = [], [], [], []
    for op, wait, wave in zip(ops, waits, waves):
        if op.report is not None:  # kept by the wire workload's traced pass
            line = reply_json_line(op.report)
            start = time.perf_counter()
            RunReport.from_dict(json.loads(line)["report"])
            seconds = (time.perf_counter() - start) * 1e3
            roundtrip.append(op.latency * 1e3)
            decode.append(seconds)
            overheads.append(op.latency * 1e3 - wait - wave - seconds)
            sizes.append(len(line))
    served, wave_count = delta("requests_served"), delta("waves")
    return {
        "graphs.build_s": _metric(build_s, "s"),
        "setup.delta_s": _metric(inclusive("setup.delta"), "s"),
        "setup.search_s": _metric(inclusive("setup.search"), "s"),
        "setup.walk_init_s": _metric(inclusive("setup.walk_init"), "s"),
        "walk.step_s": _metric(inclusive("walk.step"), "s"),
        "walk.steps": _metric(counts.get("walk.steps", 0), "count"),
        "walk.lane_steps": _metric(counts.get("walk.lane_steps", 0), "count"),
        "search.scan_s": _metric(inclusive("search.scan"), "s"),
        "search.share": _metric(inclusive("search.scan") / compute if compute else 0.0, "1"),
        "search.calls": _metric(counts.get("search.calls", 0), "count"),
        "search.scalar_calls": _metric(counts.get("search.scalar_calls", 0), "count"),
        "search.lanes": _metric(counts.get("search.lanes", 0), "count"),
        "search.sizes_examined": _metric(counts.get("search.sizes_examined", 0), "count"),
        "stopping.observe_s": _metric(inclusive("stopping.observe"), "s"),
        "stopping.calls": _metric(calls("stopping.observe"), "count"),
        "api.detect_s": _metric(inclusive("api.detect"), "s"),
        "driver.self_s": _metric(spans.get("api.detect", [0.0, 0.0, 0])[1], "s"),
        "api.split_s": _metric(inclusive("api.split"), "s"),
        "process.shards": _metric(counts.get("process.shards", 0), "count"),
        "process.shard_s": _metric(shard_s, "s"),
        "process.ipc_s": _metric(
            max(0.0, inclusive("process.run_seeds") - counts.get("process.shard_max_s", 0.0)),
            "s"),
        "process.result_bytes": _metric(counts.get("process.result_bytes", 0), "B"),
        "session.wave_s": _metric(inclusive("session.wave"), "s"),
        "session.wave_width": _metric(
            counts.get("session.wave_seeds", 0) / max(1, counts.get("session.waves", 0)),
            "count"),
        "service.queue_wait_ms_p50": _metric(percentile(waits, 50), "ms"),
        "service.queue_wait_ms_max": _metric(max(waits, default=0.0), "ms"),
        "service.wave_ms": _metric(percentile(waves, 50), "ms"),
        "service.waves": _metric(wave_count, "count"),
        "service.coalescing_ratio": _metric(served / wave_count if wave_count else 0.0, "1"),
        "service.rejected": _metric(delta("requests_rejected"), "count"),
        "service.expired": _metric(delta("requests_expired"), "count"),
        "wire.roundtrip_ms": _metric(percentile(roundtrip, 50), "ms"),
        "wire.decode_ms": _metric(percentile(decode, 50), "ms"),
        "wire.overhead_ms": _metric(percentile(overheads, 50), "ms"),
        "wire.reply_bytes": _metric(statistics.fmean(sizes) if sizes else 0.0, "B"),
        "trace.overhead": _metric(overhead, "1"),
        "trace.ops": _metric(traced_ops, "count"),
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cdrwbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    workdir = ROOT / ".cdrwbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.toy, workdir)
    hygiene = checks.Hygiene()
    try:
        workload.prep()
        if args.trace:
            metrics = per_layer(workload, args.seconds)
        else:
            metrics = end_to_end(workload, args.seconds)
    except Exception as error:  # a set-up or harness failure: no result to report
        print(f"cdrwbench: {args.workload} failed: {error!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    gate = workload.gate
    leaks = hygiene.leaks()
    checks.stop_resource_tracker()
    for problem in gate.problems + leaks:
        print(f"cdrwbench: {problem}", file=sys.stderr)
    correct = gate.failed == 0 and not leaks
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "host": host_record(),
        "commit": _git_commit(), "src_sha256": _src_digest(), "leaks": leaks,
    }
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    if args.out is not None:
        with args.out.open("a") as stream:
            stream.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
