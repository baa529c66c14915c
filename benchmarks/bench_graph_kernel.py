"""Throughput benchmark: vectorized graph kernel vs the seed scalar path.

Measures, on a 1M-edge random graph:

* **construction** — ``Graph.from_edge_array`` (COO→CSR scatter) against the
  seed's one-tuple-at-a-time set loop (:func:`repro.graphs.reference.scalar_csr_arrays`);
* **subset kernels** — vectorized ``cut_size`` / ``induced_edge_count`` /
  ``induced_subgraph`` against the per-vertex reference loops;
* **64-seed walk advance** — one :class:`BatchedWalkDistribution` (single
  CSR SpMM per step) against the seed scalar path, which pays one operator
  construction (``transition_matrix(G).T.tocsr()``, exactly as the seed
  ``WalkDistribution.__init__`` did) plus one mat-vec *per seed* — that is
  what 64 sequential ``detect_community`` calls cost per walk step;
* **steady-state step** — batched vs scalar stepping with operators already
  built, reported for transparency (the win here is bounded by memory
  bandwidth, not by call overhead);
* **batched mixing-set search** — one
  :class:`BatchedMixingSetSearch.largest_mixing_sets` call over ``B``
  walk columns against ``B`` scalar ``largest_mixing_set`` calls (what the
  pre-batching ``detect_community_batch`` inner loop paid per step), at
  ``B ∈ {1, 8, 64}`` on a 20k-edge random graph (where no lane accepts a
  size, so only the screen runs), and again on the walk columns of a
  4-block PPM at walk lengths where every lane finds a set (the
  ``search{B}_ppm_*`` rows, which time the accept path);
* **parallel detection** — ``detect_communities_parallel`` (one shared
  batched walk + conflict resolution) against the pre-port scalar per-seed
  loop over the same spread seeds, at ``r ∈ {1, 8, 64}`` on an 8-block PPM;
* **worker scaling** — the 64-seed steady-state step and the B=64 batched
  mixing-set search at ``workers ∈ {1, 2, 4}`` threads (the multi-core
  execution layer of :mod:`repro.execution`; results are bit-identical at
  every worker count, only the wall clock moves);
* **process executor** — a 32-seed batched detection through the facade on
  the serial in-process path against the shared-memory process tier
  (:mod:`repro.execution_process`) at ``workers ∈ {1, 2, 4}`` processes;
  detections are identical on every row, only the wall clock moves;
* **storage tiers** — the 32-seed detection once more on the same graph
  read back from a memmapped binary CSR file (``memmap_detect_s``), gated
  on producing the exact in-RAM detection;
* **sharded executor** — the same detection through the ``"sharded"``
  backend at ``workers ∈ {1, 2, 4}`` shard processes, each holding only its
  vertex partition's operator rows; detections must equal the serial rows
  exactly, and the boundary traffic of the k=4 run is archived
  (``sharded_boundary_bytes``);
* **resident session** — a stream of small detection requests on the same
  graph answered once with a fresh ``detect()`` per request (each paying
  the broadcast + pool fork + operator build) and once through a single
  :class:`repro.DetectionSession`, which broadcasts exactly once and keeps
  the pool and cached operators resident; answers are bit-identical;
* **coalescing service** — a stream of single-seed requests answered once
  by a serialized session loop (one full batched pass per request) and
  once through :class:`repro.DetectionService` at ``clients ∈ {1, 4, 16}``
  concurrent submitters, whose dispatcher coalesces pending requests into
  ``detect_batch`` waves where width is nearly free; every reply must be
  bit-identical to its serialized counterpart, and at 16 clients the
  stream must collapse into fewer waves than requests.

Run directly (``python benchmarks/bench_graph_kernel.py``) for the table, or
through pytest (``pytest benchmarks/bench_graph_kernel.py``) to enforce the
acceptance thresholds: construction and the 64-seed walk advance must be at
least 10× faster than the seed scalar path, the 64-column batched
mixing-set search must beat the per-column loop, on machines with at least
two cores the threaded step and threaded search must each beat their
``workers=1`` timing by ≥ 1.3×, and on machines with at least four cores
the process tier must beat the serial facade by ≥ 1.5×, the resident
session must beat the per-call setup loop by ≥ 2×, and the coalescing
service at 16 concurrent clients must beat the serialized session loop by
≥ 2× (the scaling guards are skipped on smaller hosts, where the
equivalence tests still gate the parallel paths and the session/service
identity and coalescing checks still run).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import platform
import tempfile
import time

import threading

import numpy as np
import pytest

from repro.api import RunConfig, RunReport, detect
from repro.core import BatchedMixingSetSearch, MixingSetSearch
from repro.core.parallel import select_spread_seeds
from repro.graphs import (
    Graph,
    planted_partition_graph,
    ppm_expected_conductance,
    read_csr_graph,
    write_csr_graph,
)
from repro.graphs.reference import (
    scalar_csr_arrays,
    scalar_cut_size,
    scalar_induced_edge_count,
    scalar_induced_subgraph_edges,
)
from repro.randomwalk import BatchedWalkDistribution, transition_matrix
from repro.service import DetectionService
from repro.session import DetectionSession
from repro.utils import log_size

NUM_VERTICES = 200_000
NUM_EDGES = 1_000_000
NUM_SEEDS = 64
REQUIRED_SPEEDUP = 10.0

# The mixing-set search and parallel detection scan the full candidate-size
# schedule per walk step, so they are measured on smaller instances sized
# like the experiment workloads (at n ≳ 50k the search is memory-bound and
# batched ≈ scalar on one core; the batching win is call-overhead and
# shared-target amortization, which dominates at experiment sizes).
SEARCH_VERTICES = 4_096
SEARCH_EDGES = 20_000
SEARCH_PPM_BLOCKS = 4
SEARCH_PPM_LENGTHS = (1, 3, 5)
PARALLEL_VERTICES = 2_048
PARALLEL_BLOCKS = 8
BATCH_WIDTHS = (1, 8, 64)
WORKER_COUNTS = (1, 2, 4)
THREADED_REQUIRED_SPEEDUP = 1.3

# The process tier pays pool start-up and result pickling, so it is measured
# on a full multi-seed detection (where the per-seed work dwarfs both) and
# its speedup guard applies on hosts with >= 4 cores.
PROCESS_VERTICES = 4_096
PROCESS_BLOCKS = 8
PROCESS_SEEDS = 32
PROCESS_WORKER_COUNTS = (1, 2, 4)
PROCESS_REQUIRED_SPEEDUP = 1.5
PROCESS_REQUIRED_CORES = 4

# The resident session amortises the per-call setup of the process tier
# (graph broadcast, pool fork) across a stream of small requests, so it is
# measured as repeated few-seed detections on the process-tier PPM; the
# speedup guard applies on hosts with >= 4 cores, the identity and
# single-broadcast checks everywhere.
SESSION_REPEATS = 6
SESSION_SEEDS_PER_CALL = 4
SESSION_WORKERS = 4
SESSION_REQUIRED_SPEEDUP = 2.0

# The coalescing service amortises whole batched passes: N pending
# single-seed requests become one detect_batch wave instead of N sequential
# single-seed passes.  Measured as a fixed stream of distinct single-seed
# requests on the process-tier PPM, submitted by {1, 4, 16} concurrent
# client threads; the >= 2x guard (16 clients vs the serialized session
# loop) applies on hosts with >= 4 cores, the identity and coalescing
# checks everywhere.
SERVICE_REQUESTS = 16
SERVICE_CONCURRENCY = (1, 4, 16)
SERVICE_REQUIRED_SPEEDUP = 2.0


def _best_of(function, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _random_edge_array(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, NUM_VERTICES, size=(NUM_EDGES, 2), dtype=np.int64)
    return edges[edges[:, 0] != edges[:, 1]]


@functools.lru_cache(maxsize=1)
def run_benchmark() -> dict[str, float]:
    """Run every measurement once and return ``{metric: value}`` timings."""
    results: dict[str, float] = {}
    edges = _random_edge_array()

    # -- construction ---------------------------------------------------
    results["construct_vectorized_s"] = _best_of(
        lambda: Graph.from_edge_array(NUM_VERTICES, edges)
    )
    results["construct_scalar_s"] = _best_of(
        lambda: scalar_csr_arrays(NUM_VERTICES, map(tuple, edges.tolist())), repeats=1
    )
    results["construct_speedup"] = (
        results["construct_scalar_s"] / results["construct_vectorized_s"]
    )
    graph = Graph.from_edge_array(NUM_VERTICES, edges)

    # -- subset kernels -------------------------------------------------
    subset = np.random.default_rng(1).permutation(NUM_VERTICES)[: NUM_VERTICES // 2]
    subset_list = subset.tolist()
    results["cut_vectorized_s"] = _best_of(lambda: graph.cut_size(subset))
    results["cut_scalar_s"] = _best_of(lambda: scalar_cut_size(graph, subset_list), repeats=1)
    results["cut_speedup"] = results["cut_scalar_s"] / results["cut_vectorized_s"]
    results["induced_vectorized_s"] = _best_of(lambda: graph.induced_subgraph(subset))
    results["induced_scalar_s"] = _best_of(
        lambda: scalar_induced_subgraph_edges(graph, subset_list), repeats=1
    )
    results["induced_speedup"] = (
        results["induced_scalar_s"] / results["induced_vectorized_s"]
    )
    results["count_vectorized_s"] = _best_of(lambda: graph.induced_edge_count(subset))
    results["count_scalar_s"] = _best_of(
        lambda: scalar_induced_edge_count(graph, subset_list), repeats=1
    )
    results["count_speedup"] = results["count_scalar_s"] / results["count_vectorized_s"]

    # -- 64-seed walk advance (operator build + one step per seed) ------
    seeds = np.random.default_rng(2).integers(0, NUM_VERTICES, size=NUM_SEEDS).tolist()

    def seed_scalar_walk_advance():
        # The seed code built the reverse operator per WalkDistribution via
        # transition_matrix(G).T — replicated here verbatim as the baseline.
        for s in seeds:
            operator = transition_matrix(graph).T.tocsr()
            distribution = np.zeros(NUM_VERTICES)
            distribution[s] = 1.0
            operator @ distribution

    def batched_walk_advance():
        BatchedWalkDistribution(graph, seeds).step()

    results["walk_advance_scalar_s"] = _best_of(seed_scalar_walk_advance, repeats=1)
    results["walk_advance_batched_s"] = _best_of(batched_walk_advance)
    results["walk_advance_speedup"] = (
        results["walk_advance_scalar_s"] / results["walk_advance_batched_s"]
    )

    # -- steady-state stepping (operators pre-built) --------------------
    operator = transition_matrix(graph).T.tocsr()
    matrix = np.zeros((NUM_VERTICES, NUM_SEEDS))
    matrix[seeds, np.arange(NUM_SEEDS)] = 1.0
    columns = [matrix[:, j].copy() for j in range(NUM_SEEDS)]
    results["step_scalar_s"] = _best_of(lambda: [operator @ c for c in columns])
    results["step_batched_s"] = _best_of(lambda: operator @ matrix)
    results["step_speedup"] = results["step_scalar_s"] / results["step_batched_s"]

    # -- worker scaling: threaded steady-state step ---------------------
    for workers in WORKER_COUNTS:
        walk = BatchedWalkDistribution(graph, seeds, workers=workers)
        results[f"step_workers{workers}_s"] = _best_of(walk.step)
    results["step_threads_speedup"] = results["step_workers1_s"] / min(
        results[f"step_workers{workers}_s"] for workers in WORKER_COUNTS if workers > 1
    )

    # -- batched mixing-set search (per walk step, B ∈ {1, 8, 64}) ------
    search_edges = np.random.default_rng(3).integers(
        0, SEARCH_VERTICES, size=(SEARCH_EDGES, 2), dtype=np.int64
    )
    search_graph = Graph.from_edge_array(
        SEARCH_VERTICES, search_edges[search_edges[:, 0] != search_edges[:, 1]]
    )
    search_seeds = (
        np.random.default_rng(4).integers(0, SEARCH_VERTICES, size=max(BATCH_WIDTHS)).tolist()
    )
    search_walk = BatchedWalkDistribution(search_graph, search_seeds)
    search_walk.step(5)
    distributions = np.array(search_walk.probabilities())
    initial_size = log_size(SEARCH_VERTICES)
    scalar_search = MixingSetSearch(search_graph, initial_size=initial_size)
    batched_search = BatchedMixingSetSearch(search_graph, initial_size=initial_size)
    for width in BATCH_WIDTHS:
        subset = np.ascontiguousarray(distributions[:, :width])
        per_column = [np.ascontiguousarray(subset[:, j]) for j in range(width)]
        results[f"search{width}_scalar_s"] = _best_of(
            lambda: [scalar_search.largest_mixing_set(c, 5) for c in per_column],
            repeats=1,
        )
        results[f"search{width}_batched_s"] = _best_of(
            lambda: batched_search.largest_mixing_sets(subset, 5), repeats=1
        )
        results[f"search{width}_speedup"] = (
            results[f"search{width}_scalar_s"] / results[f"search{width}_batched_s"]
        )

    # -- the same search on PPM walk columns, where sets are found ------
    n = SEARCH_VERTICES
    search_ppm = planted_partition_graph(
        n, SEARCH_PPM_BLOCKS, 2.0 * np.log(n) ** 2 / n, 0.6 / n, seed=3
    )
    ppm_walk = BatchedWalkDistribution(search_ppm.graph, search_seeds)
    ppm_columns = []
    for length in range(1, max(SEARCH_PPM_LENGTHS) + 1):
        ppm_walk.step()
        if length in SEARCH_PPM_LENGTHS:
            ppm_columns.append((length, np.array(ppm_walk.probabilities())))
    ppm_scalar_search = MixingSetSearch(search_ppm.graph, initial_size=initial_size)
    ppm_batched_search = BatchedMixingSetSearch(search_ppm.graph, initial_size=initial_size)
    for width in BATCH_WIDTHS:
        subsets = [
            (length, np.ascontiguousarray(columns[:, :width])) for length, columns in ppm_columns
        ]
        per_column = [
            (length, [np.ascontiguousarray(subset[:, j]) for j in range(width)])
            for length, subset in subsets
        ]
        results[f"search{width}_ppm_scalar_s"] = _best_of(
            lambda: [
                ppm_scalar_search.largest_mixing_set(column, length)
                for length, columns in per_column
                for column in columns
            ],
            repeats=1,
        )
        results[f"search{width}_ppm_batched_s"] = _best_of(
            lambda: [
                ppm_batched_search.largest_mixing_sets(subset, length)
                for length, subset in subsets
            ],
            repeats=1,
        )
        results[f"search{width}_ppm_speedup"] = (
            results[f"search{width}_ppm_scalar_s"] / results[f"search{width}_ppm_batched_s"]
        )
    # Identity: how many (lane, length) searches accept a size, so a
    # change that stops these rows from timing the accept path is flagged.
    results["search_ppm_found"] = float(
        sum(
            result.found
            for length, columns in ppm_columns
            for result in ppm_batched_search.largest_mixing_sets(columns, length)
        )
    )

    # -- worker scaling: threaded B=64 mixing-set search ----------------
    widest = np.ascontiguousarray(distributions[:, : max(BATCH_WIDTHS)])
    for workers in WORKER_COUNTS:
        threaded_search = BatchedMixingSetSearch(
            search_graph, initial_size=initial_size, workers=workers
        )
        # Best-of-3 like the step timings: this row backs an enforced
        # acceptance threshold, so a single scheduler hiccup must not
        # deflate the cached speedup.
        results[f"search_workers{workers}_s"] = _best_of(
            lambda: threaded_search.largest_mixing_sets(widest, 5)
        )
    results["search_threads_speedup"] = results["search_workers1_s"] / min(
        results[f"search_workers{workers}_s"] for workers in WORKER_COUNTS if workers > 1
    )

    # -- parallel detection (shared batched walk, r ∈ {1, 8, 64}) -------
    n = PARALLEL_VERTICES
    p = min(1.0, 2.0 * np.log(n) ** 2 / n)
    q = 1.0 / n
    ppm = planted_partition_graph(n, PARALLEL_BLOCKS, p, q, seed=5)
    delta = ppm_expected_conductance(n, PARALLEL_BLOCKS, p, q)
    for width in BATCH_WIDTHS:
        # Both rows run through the unified facade (repro.api.detect): the
        # scalar per-seed loop as the "scalar" backend over the explicit
        # spread seeds, the shared-walk path as the "parallel" backend.
        spread = select_spread_seeds(ppm.graph, width, seed=6)
        results[f"parallel{width}_scalar_s"] = _best_of(
            lambda: detect(
                ppm.graph,
                backend="scalar",
                delta_hint=delta,
                config=RunConfig(seeds=tuple(spread)),
            ),
            repeats=1,
        )
        results[f"parallel{width}_batched_s"] = _best_of(
            lambda: detect(
                ppm.graph,
                backend="parallel",
                delta_hint=delta,
                config=RunConfig(seed=6, num_communities=width),
            ),
            repeats=1,
        )
        results[f"parallel{width}_speedup"] = (
            results[f"parallel{width}_scalar_s"] / results[f"parallel{width}_batched_s"]
        )

    # -- process executor (shared-memory worker pool) -------------------
    n = PROCESS_VERTICES
    p = min(1.0, 2.0 * np.log(n) ** 2 / n)
    q = 1.0 / n
    process_ppm = planted_partition_graph(n, PROCESS_BLOCKS, p, q, seed=7)
    process_delta = ppm_expected_conductance(n, PROCESS_BLOCKS, p, q)
    process_seeds = tuple(
        int(v)
        for v in np.random.default_rng(8).choice(n, size=PROCESS_SEEDS, replace=False)
    )

    def detect_with(executor: str, workers: int):
        return detect(
            process_ppm.graph,
            backend="batched",
            delta_hint=process_delta,
            config=RunConfig(seeds=process_seeds, workers=workers, executor=executor),
        )

    start = time.perf_counter()
    baseline_report = detect_with("thread", 1)
    results["process_serial_s"] = time.perf_counter() - start
    identical = 1.0
    for workers in PROCESS_WORKER_COUNTS:
        start = time.perf_counter()
        report = detect_with("process", workers)
        results[f"process_workers{workers}_s"] = time.perf_counter() - start
        if report.detection != baseline_report.detection:
            identical = 0.0
    results["process_identical"] = identical
    results["process_speedup"] = results["process_serial_s"] / min(
        results[f"process_workers{workers}_s"]
        for workers in PROCESS_WORKER_COUNTS
        if workers > 1
    )

    # -- storage tiers: the same detection on a memmapped CSR file ------
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        csr_path = os.path.join(tmp, "bench.csr")
        write_csr_graph(process_ppm.graph, csr_path)
        mapped_graph = read_csr_graph(csr_path)
        start = time.perf_counter()
        mapped_report = detect(
            mapped_graph,
            backend="batched",
            delta_hint=process_delta,
            config=RunConfig(seeds=process_seeds),
        )
        results["memmap_detect_s"] = time.perf_counter() - start
    results["memmap_identical"] = float(
        mapped_report.detection == baseline_report.detection
    )

    # -- sharded executor (row-partitioned walk, one shard per process) --
    sharded_identical = 1.0
    boundary_bytes = 0.0
    for workers in PROCESS_WORKER_COUNTS:
        start = time.perf_counter()
        report = detect(
            process_ppm.graph,
            backend="sharded",
            delta_hint=process_delta,
            config=RunConfig(seeds=process_seeds, workers=workers),
        )
        results[f"sharded_workers{workers}_s"] = time.perf_counter() - start
        if report.detection != baseline_report.detection:
            sharded_identical = 0.0
        exchange = report.metadata.get("exchange", {})
        boundary_bytes = float(exchange.get("boundary_bytes", 0))
    results["sharded_identical"] = sharded_identical
    # Boundary traffic of the widest run (workers = 4): what a real
    # deployment would put on the wire for this detection.
    results["sharded_boundary_bytes"] = boundary_bytes

    # -- resident session (amortised broadcast / pool / operator setup) --
    session_rng = np.random.default_rng(9)
    session_requests = [
        tuple(
            int(v)
            for v in session_rng.choice(n, size=SESSION_SEEDS_PER_CALL, replace=False)
        )
        for _ in range(SESSION_REPEATS)
    ]
    session_config = RunConfig(
        batch_size=SESSION_SEEDS_PER_CALL,
        workers=SESSION_WORKERS,
        executor="process",
    )

    start = time.perf_counter()
    one_shot_reports = [
        detect(
            process_ppm.graph,
            backend="batched",
            delta_hint=process_delta,
            config=session_config.with_overrides(seeds=request),
        )
        for request in session_requests
    ]
    results["session_oneshot_s"] = time.perf_counter() - start

    start = time.perf_counter()
    with DetectionSession(
        process_ppm.graph, config=session_config, delta_hint=process_delta
    ) as session:
        resident_reports = [
            session.detect(seeds=request) for request in session_requests
        ]
        results["session_broadcasts"] = float(session.broadcasts)
    results["session_resident_s"] = time.perf_counter() - start
    results["session_identical"] = float(
        all(
            fresh.detection == cached.detection
            for fresh, cached in zip(one_shot_reports, resident_reports)
        )
    )
    results["session_speedup"] = (
        results["session_oneshot_s"] / results["session_resident_s"]
    )

    # -- coalescing service (admission queue in front of one session) ----
    service_rng = np.random.default_rng(10)
    service_stream = tuple(
        int(v)
        for v in service_rng.choice(n, size=SERVICE_REQUESTS, replace=False)
    )
    service_config = RunConfig(workers=SESSION_WORKERS)

    start = time.perf_counter()
    with DetectionSession(
        process_ppm.graph, config=service_config, delta_hint=process_delta
    ) as serialized_session:
        serialized_replies = {
            vertex: serialized_session.detect(seeds=(vertex,))
            for vertex in service_stream
        }
    results["service_serialized_s"] = time.perf_counter() - start

    service_identical = 1.0
    for clients in SERVICE_CONCURRENCY:
        shards = [service_stream[index::clients] for index in range(clients)]
        replies: dict[int, RunReport] = {}
        replies_lock = threading.Lock()
        client_barrier = threading.Barrier(clients)

        def serve_shard(shard: tuple[int, ...]) -> None:
            client_barrier.wait()
            futures = [(vertex, service.submit(vertex)) for vertex in shard]
            for vertex, future in futures:
                report = future.result(timeout=600)
                with replies_lock:
                    replies[vertex] = report

        start = time.perf_counter()
        with DetectionService(
            process_ppm.graph, config=service_config, delta_hint=process_delta
        ) as service:
            client_threads = [
                threading.Thread(target=serve_shard, args=(shard,))
                for shard in shards
            ]
            for thread in client_threads:
                thread.start()
            for thread in client_threads:
                thread.join()
            service_metrics = service.metrics()
        results[f"service_clients{clients}_s"] = time.perf_counter() - start
        results[f"service_clients{clients}_waves"] = float(service_metrics["waves"])
        if any(
            replies[vertex].detection != serialized_replies[vertex].detection
            for vertex in service_stream
        ):
            service_identical = 0.0
    results["service_identical"] = service_identical
    results["service_speedup"] = (
        results["service_serialized_s"]
        / results[f"service_clients{max(SERVICE_CONCURRENCY)}_s"]
    )
    return results


def print_table(results: dict[str, float]) -> None:
    rows = [
        ("construction (1M edges)", "construct_scalar_s", "construct_vectorized_s", "construct_speedup"),
        ("cut_size (100k subset)", "cut_scalar_s", "cut_vectorized_s", "cut_speedup"),
        ("induced_edge_count", "count_scalar_s", "count_vectorized_s", "count_speedup"),
        ("induced_subgraph", "induced_scalar_s", "induced_vectorized_s", "induced_speedup"),
        ("64-seed walk advance", "walk_advance_scalar_s", "walk_advance_batched_s", "walk_advance_speedup"),
        ("64-seed steady step", "step_scalar_s", "step_batched_s", "step_speedup"),
    ]
    for width in BATCH_WIDTHS:
        rows.append(
            (
                f"mixing search B={width}",
                f"search{width}_scalar_s",
                f"search{width}_batched_s",
                f"search{width}_speedup",
            )
        )
    for width in BATCH_WIDTHS:
        rows.append(
            (
                f"mixing search PPM B={width}",
                f"search{width}_ppm_scalar_s",
                f"search{width}_ppm_batched_s",
                f"search{width}_ppm_speedup",
            )
        )
    for width in BATCH_WIDTHS:
        rows.append(
            (
                f"parallel detect r={width}",
                f"parallel{width}_scalar_s",
                f"parallel{width}_batched_s",
                f"parallel{width}_speedup",
            )
        )
    print(f"{'kernel':26s} {'scalar [s]':>11s} {'vectorized [s]':>15s} {'speedup':>9s}")
    for label, scalar_key, vector_key, speedup_key in rows:
        print(
            f"{label:26s} {results[scalar_key]:11.4f} "
            f"{results[vector_key]:15.4f} {results[speedup_key]:8.1f}x"
        )
    print()
    print_workers_table(results)


def print_workers_table(results: dict[str, float]) -> None:
    """Print the workers ∈ {1, 2, 4} scaling table of the two threaded kernels."""
    header = "".join(f"{f'workers={w} [s]':>15s}" for w in WORKER_COUNTS)
    print(f"{'threaded kernel':26s}{header} {'best speedup':>13s}")
    for label, prefix, speedup_key in (
        ("64-seed steady step", "step_workers", "step_threads_speedup"),
        (f"mixing search B={max(BATCH_WIDTHS)}", "search_workers", "search_threads_speedup"),
        (f"process detect {PROCESS_SEEDS} seeds", "process_workers", "process_speedup"),
    ):
        timings = "".join(f"{results[f'{prefix}{w}_s']:15.4f}" for w in WORKER_COUNTS)
        print(f"{label:26s}{timings} {results[speedup_key]:12.1f}x")
    print(
        f"{'(process serial baseline)':26s}{results['process_serial_s']:15.4f} "
        f"identical={results['process_identical']:.0f}"
    )
    sharded = "".join(
        f"{results[f'sharded_workers{w}_s']:15.4f}" for w in PROCESS_WORKER_COUNTS
    )
    print(
        f"{'sharded detect (k shards)':26s}{sharded} "
        f"identical={results['sharded_identical']:.0f}"
    )
    print(
        f"memmapped CSR detect: {results['memmap_detect_s']:.4f}s "
        f"(identical={results['memmap_identical']:.0f}); "
        f"sharded boundary traffic at k=4: "
        f"{results['sharded_boundary_bytes'] / 1e6:.2f} MB"
    )
    print(
        f"resident session ({SESSION_REPEATS} requests x {SESSION_SEEDS_PER_CALL} "
        f"seeds, workers={SESSION_WORKERS}): "
        f"one-shot {results['session_oneshot_s']:.4f}s, "
        f"session {results['session_resident_s']:.4f}s "
        f"({results['session_speedup']:.1f}x, "
        f"broadcasts={results['session_broadcasts']:.0f}, "
        f"identical={results['session_identical']:.0f})"
    )
    service_levels = ", ".join(
        f"x{clients} {results[f'service_clients{clients}_s']:.4f}s "
        f"({results[f'service_clients{clients}_waves']:.0f} waves)"
        for clients in SERVICE_CONCURRENCY
    )
    print(
        f"coalescing service ({SERVICE_REQUESTS} single-seed requests): "
        f"serialized {results['service_serialized_s']:.4f}s, {service_levels} "
        f"({results['service_speedup']:.1f}x at x{max(SERVICE_CONCURRENCY)}, "
        f"identical={results['service_identical']:.0f})"
    )
    cores = os.cpu_count() or 1
    print(f"(host has {cores} core{'s' if cores != 1 else ''}; "
          f"threaded and process results are identical to workers=1 at any count)")


@pytest.mark.perf
def test_construction_speedup_at_least_10x():
    results = run_benchmark()
    assert results["construct_speedup"] >= REQUIRED_SPEEDUP, results


@pytest.mark.perf
def test_batched_walk_advance_speedup_at_least_10x():
    results = run_benchmark()
    assert results["walk_advance_speedup"] >= REQUIRED_SPEEDUP, results


@pytest.mark.perf
def test_subset_kernels_faster_than_scalar():
    results = run_benchmark()
    assert results["cut_speedup"] > 1.0, results
    assert results["count_speedup"] > 1.0, results
    assert results["induced_speedup"] > 1.0, results


@pytest.mark.perf
def test_batched_mixing_search_beats_per_column_loop_at_64():
    """Acceptance: one batched search call must beat 64 sequential scans."""
    results = run_benchmark()
    assert results["search64_speedup"] > 1.0, results


@pytest.mark.perf
def test_parallel_detection_beats_scalar_loop_at_64():
    results = run_benchmark()
    assert results["parallel64_speedup"] > 1.0, results


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="threaded speedups need >= 2 cores; equivalence tests gate single-core runners",
)
def test_threaded_steady_step_speedup_at_least_1_3x():
    """Acceptance: the column-blocked step must scale on multi-core hosts."""
    results = run_benchmark()
    assert results["step_threads_speedup"] >= THREADED_REQUIRED_SPEEDUP, results


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="threaded speedups need >= 2 cores; equivalence tests gate single-core runners",
)
def test_threaded_search_speedup_at_least_1_3x():
    """Acceptance: the lane-blocked B=64 search must scale on multi-core hosts."""
    results = run_benchmark()
    assert results["search_threads_speedup"] >= THREADED_REQUIRED_SPEEDUP, results


@pytest.mark.perf
def test_process_executor_detections_identical_to_serial():
    """The process tier must reproduce the serial facade's detections exactly."""
    results = run_benchmark()
    assert results["process_identical"] == 1.0, results


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < PROCESS_REQUIRED_CORES,
    reason="process-tier speedup needs >= 4 cores; the identity tests gate smaller hosts",
)
def test_process_executor_speedup_at_least_1_5x():
    """Acceptance: the shared-memory process pool must scale on >= 4-core hosts."""
    results = run_benchmark()
    assert results["process_speedup"] >= PROCESS_REQUIRED_SPEEDUP, results


@pytest.mark.perf
def test_memmap_detection_identical_to_in_ram():
    """A detection on the memmapped CSR file must equal the in-RAM one exactly."""
    results = run_benchmark()
    assert results["memmap_identical"] == 1.0, results


@pytest.mark.perf
def test_sharded_detections_identical_to_serial():
    """The sharded executor must reproduce the serial detections at every k."""
    results = run_benchmark()
    assert results["sharded_identical"] == 1.0, results
    assert results["sharded_boundary_bytes"] > 0.0, results


@pytest.mark.perf
def test_session_detections_identical_and_broadcast_once():
    """The resident session must answer exactly like one-shot, broadcasting once."""
    results = run_benchmark()
    assert results["session_identical"] == 1.0, results
    assert results["session_broadcasts"] == 1.0, results


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < PROCESS_REQUIRED_CORES,
    reason="session speedup needs >= 4 cores; the identity test gates smaller hosts",
)
def test_session_beats_per_call_setup_at_least_2x():
    """Acceptance: amortising the broadcast/pool must pay >= 2x on >= 4-core hosts."""
    results = run_benchmark()
    assert results["session_speedup"] >= SESSION_REQUIRED_SPEEDUP, results


@pytest.mark.perf
def test_service_replies_identical_and_coalesced():
    """Service replies must equal the serialized session's, in fewer waves."""
    results = run_benchmark()
    assert results["service_identical"] == 1.0, results
    widest = max(SERVICE_CONCURRENCY)
    assert results[f"service_clients{widest}_waves"] < SERVICE_REQUESTS, results


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < PROCESS_REQUIRED_CORES,
    reason="service speedup needs >= 4 cores; the identity/coalescing test gates smaller hosts",
)
def test_service_beats_serialized_session_at_least_2x():
    """Acceptance: coalescing 16 concurrent clients must pay >= 2x on >= 4-core hosts."""
    results = run_benchmark()
    assert results["service_speedup"] >= SERVICE_REQUIRED_SPEEDUP, results


def machine_facts() -> dict[str, object]:
    """Facts that make an archived timing interpretable on another host."""
    import scipy

    import repro

    return {
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count() or 1,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "repro_version": getattr(repro, "__version__", "unknown"),
    }


def dump_json(results: dict[str, float], path: str) -> None:
    """Archive the timings plus machine facts and enforced thresholds."""
    document = {
        "benchmark": "bench_graph_kernel",
        "machine": machine_facts(),
        "workload": {
            "num_vertices": NUM_VERTICES,
            "num_edges": NUM_EDGES,
            "num_seeds": NUM_SEEDS,
            "search_vertices": SEARCH_VERTICES,
            "search_edges": SEARCH_EDGES,
            "search_ppm_blocks": SEARCH_PPM_BLOCKS,
            "search_ppm_lengths": list(SEARCH_PPM_LENGTHS),
            "parallel_vertices": PARALLEL_VERTICES,
            "parallel_blocks": PARALLEL_BLOCKS,
            "batch_widths": list(BATCH_WIDTHS),
            "worker_counts": list(WORKER_COUNTS),
            "process_vertices": PROCESS_VERTICES,
            "process_seeds": PROCESS_SEEDS,
            "session_repeats": SESSION_REPEATS,
            "session_seeds_per_call": SESSION_SEEDS_PER_CALL,
            "service_requests": SERVICE_REQUESTS,
            "service_concurrency": list(SERVICE_CONCURRENCY),
        },
        "thresholds": {
            "required_speedup": REQUIRED_SPEEDUP,
            "threaded_required_speedup": THREADED_REQUIRED_SPEEDUP,
            "process_required_speedup": PROCESS_REQUIRED_SPEEDUP,
            "session_required_speedup": SESSION_REQUIRED_SPEEDUP,
            "service_required_speedup": SERVICE_REQUIRED_SPEEDUP,
        },
        "results": {key: results[key] for key in sorted(results)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"\nwrote {path}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Graph-kernel throughput benchmark (see module docstring)."
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also archive the timings + machine facts as JSON at PATH",
    )
    arguments = parser.parse_args(argv)
    table = run_benchmark()
    print_table(table)
    if arguments.json:
        dump_json(table, arguments.json)
    failed = []
    if table["construct_speedup"] < REQUIRED_SPEEDUP:
        failed.append("construction")
    if table["walk_advance_speedup"] < REQUIRED_SPEEDUP:
        failed.append("walk advance")
    if table["search64_speedup"] <= 1.0:
        failed.append("64-column mixing search")
    if table["process_identical"] != 1.0:
        failed.append("process-tier detection identity")
    if table["memmap_identical"] != 1.0:
        failed.append("memmapped-storage detection identity")
    if table["sharded_identical"] != 1.0:
        failed.append("sharded-executor detection identity")
    if table["session_identical"] != 1.0 or table["session_broadcasts"] != 1.0:
        failed.append("resident-session identity/broadcast")
    if (
        table["service_identical"] != 1.0
        or table[f"service_clients{max(SERVICE_CONCURRENCY)}_waves"]
        >= SERVICE_REQUESTS
    ):
        failed.append("coalescing-service identity/wave count")
    multicore = (os.cpu_count() or 1) >= 2
    manycore = (os.cpu_count() or 1) >= PROCESS_REQUIRED_CORES
    if multicore:
        if table["step_threads_speedup"] < THREADED_REQUIRED_SPEEDUP:
            failed.append("threaded steady step")
        if table["search_threads_speedup"] < THREADED_REQUIRED_SPEEDUP:
            failed.append("threaded mixing search")
    if manycore:
        if table["process_speedup"] < PROCESS_REQUIRED_SPEEDUP:
            failed.append("process executor")
        if table["session_speedup"] < SESSION_REQUIRED_SPEEDUP:
            failed.append("resident session")
        if table["service_speedup"] < SERVICE_REQUIRED_SPEEDUP:
            failed.append("coalescing service")
    if failed:
        raise SystemExit(f"speedup thresholds not met for: {', '.join(failed)}")
    print(
        f"\nacceptance: construction and 64-seed walk advance >= {REQUIRED_SPEEDUP}x, "
        f"64-column batched search > 1x, process detections identical"
        + (
            f", threaded step/search >= {THREADED_REQUIRED_SPEEDUP}x"
            if multicore
            else " (single core: threaded thresholds not enforced)"
        )
        + (
            f", process tier >= {PROCESS_REQUIRED_SPEEDUP}x, "
            f"resident session >= {SESSION_REQUIRED_SPEEDUP}x, "
            f"coalescing service >= {SERVICE_REQUIRED_SPEEDUP}x"
            if manycore
            else (
                f" (< {PROCESS_REQUIRED_CORES} cores: process/session "
                "thresholds not enforced)"
            )
        )
    )


if __name__ == "__main__":
    main()
