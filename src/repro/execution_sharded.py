"""Genuinely sharded execution tier: each worker holds one vertex partition.

The process tier (:mod:`repro.execution_process`) parallelizes over *seeds*:
every worker attaches the **whole** graph and runs complete detections.
That mirrors the paper's experiments but not its model — in the k-machine
model (Section II) no machine ever holds more than its random vertex
partition of the graph.  This module makes that real: the ``"sharded"``
backend partitions the vertices with the *same*
:class:`~repro.kmachine.partition.RandomVertexPartition` the k-machine
simulator uses, gives each worker process **only its partition's rows of
the walk operator**, and advances the batched walk by exchanging boundary
probability mass between shards every step — the dense-flooding round of
Algorithm 1, executed rather than simulated.

Bit-identity by construction
----------------------------
The detection driver — δ resolution, stopping rules, pool draws, the
retain schedule — is literally
:func:`repro.core.batched._detect_communities_batched_impl`, entered
through its ``walk_factory`` hook; only the walk's step is swapped out.
The step itself is exact, not approximately parallel: scipy's CSR SpMM
accumulates each output row over that row's nonzeros **in storage order**,
independently of every other row.  Row-slicing the operator keeps each
row's nonzeros in the same order, and compacting the column space with a
*monotone* remap (``np.searchsorted`` over the sorted needed-vertex list)
permutes neither the nonzeros nor the operand values — so every output
float of ``shard_op @ gathered_input`` equals the corresponding rows of the
serial ``op @ input`` bit for bit, at any shard count.
``tests/test_sharded.py`` pins detections, cost totals and report payloads
against the serial ``batched`` backend at 1, 2 and 4 shards.

Exchange accounting, reconciled with the simulator
--------------------------------------------------
Each step, shard ``s`` needs the current probability rows of the vertices
its operator columns touch (``need_s``); the values not owned by ``s`` are
the **boundary mass** that would cross the network in a real deployment.
The pool counts them exactly — per step, per active walk column, in
float64 bytes — and computes, once, what
:class:`~repro.kmachine.simulator.KMachineNetwork` charges for the same
flooding pattern on the same partition: one message per *cross arc* per
step, and the bandwidth-limited round count for the full arc load.  The two
agree by a set identity: the boundary pairs are exactly the distinct
``(vertex, destination machine)`` pairs of the cross arcs, so
``boundary_pairs ≤ cross_arcs`` always, with equality when no vertex has
two neighbours on one foreign machine — the per-pair counters are the
deduplicated (gather once per machine) form of the simulator's per-arc
message count.  Both sit side by side in the report's
``metadata["exchange"]`` and the test suite asserts the identity.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .core.batched import _detect_communities_batched_impl
from .core.parameters import CDRWParameters
from .core.result import DetectionResult
from .exceptions import RandomWalkError, ReproError
from .execution import resolve_workers
from .execution_process import _preferred_context
from .graphs.graph import Graph
from .kmachine.partition import RandomVertexPartition
from .kmachine.simulator import KMachineNetwork
from .randomwalk.transition import lazy_transition_matrix, reverse_transition_matrix
from .session import _is_trivial, _validate_batched_seeds

__all__ = [
    "ShardedWalkPool",
    "ShardedBatchedWalk",
    "detect_batched_sharded",
]


# ----------------------------------------------------------------------
# Worker-process side: one compacted operator slice per process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardOperator:
    """The picklable row slice a shard worker holds: its CSR pieces.

    ``indices`` are *compact* column positions into the shard's sorted
    needed-vertex list, not global vertex ids — the worker never sees (or
    needs) the global vertex space.
    """

    num_rows: int
    num_inputs: int
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


#: Set by :func:`_init_shard` when a shard's (single-process) executor
#: starts; holds the compacted operator for the life of the worker.
_shard_operator: sp.csr_matrix | None = None


def _init_shard(operator: _ShardOperator) -> None:
    global _shard_operator
    # Adopting (data, indices, indptr) verbatim keeps the nonzero order of
    # the parent's row slice — the accumulation-order half of the
    # bit-identity argument in the module docstring.
    _shard_operator = sp.csr_matrix(
        (operator.data, operator.indices, operator.indptr),
        shape=(operator.num_rows, operator.num_inputs),
    )


def _advance_shard(gathered: np.ndarray) -> np.ndarray:
    """One walk step for one shard: its operator slice times its inputs."""
    if _shard_operator is None:
        raise ReproError("shard worker was not initialised with its operator slice")
    result: np.ndarray = _shard_operator @ gathered
    return result


# ----------------------------------------------------------------------
# Parent side: the pool of shard processes and the exchange accounting
# ----------------------------------------------------------------------
class ShardedWalkPool:
    """``k`` worker processes, each owning one vertex partition's operator rows.

    The parent builds the full walk operator exactly as the serial walk
    would (same floats), slices it by the hash partition's machines, and
    ships each shard its compacted slice once, at pool start.  Each step
    then moves only probability mass: the parent gathers every shard's
    needed input rows from the current ``(n, B)`` matrix, the shards
    multiply, and the parent scatters the outputs back into the next
    matrix.  Each shard runs on its own **single-process** executor so the
    operator slice shipped at init is pinned to exactly one worker (a
    multi-worker executor assigns tasks to whichever process is free).

    The pool is walk-agnostic state: one pool serves every batch of a
    detection run, accumulating the exchange counters across all of them.
    """

    #: Per-step exchange records are kept individually up to this many steps;
    #: past it only the running totals grow (reports stay bounded).
    MAX_STEP_RECORDS = 16

    def __init__(
        self,
        graph: Graph,
        shards: int | None = None,
        *,
        lazy: bool = False,
        partition_seed: int | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        self.shards = resolve_workers(shards)
        self.num_vertices = graph.num_vertices
        self.partition = RandomVertexPartition(
            graph.num_vertices, self.shards, method="hash", seed=partition_seed
        )
        if lazy:
            operator = lazy_transition_matrix(graph).T.tocsr()
        else:
            operator = reverse_transition_matrix(graph)
        assignment = self.partition.assignment
        context = mp_context or _preferred_context()
        self._shard_rows: list[np.ndarray] = []
        self._shard_needs: list[np.ndarray] = []
        self._executors: list[ProcessPoolExecutor | None] = []
        boundary_pairs = 0
        gathered_values = 0
        try:
            for machine in range(self.shards):
                rows = self.partition.vertices_of(machine)
                self._shard_rows.append(rows)
                if rows.size == 0:
                    # A machine that drew no vertices (k > n corner) owns no
                    # operator rows and contributes nothing to any step.
                    self._shard_needs.append(np.empty(0, dtype=np.int64))
                    self._executors.append(None)
                    continue
                block = operator[rows, :]
                need = np.unique(block.indices).astype(np.int64)
                self._shard_needs.append(need)
                boundary_pairs += int(np.count_nonzero(assignment[need] != machine))
                gathered_values += int(need.size)
                shard_operator = _ShardOperator(
                    num_rows=int(rows.size),
                    num_inputs=int(need.size),
                    data=block.data,
                    indices=np.searchsorted(need, block.indices),
                    indptr=block.indptr,
                )
                self._executors.append(
                    ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=context,
                        initializer=_init_shard,
                        initargs=(shard_operator,),
                    )
                )
        except BaseException:
            self.close()
            raise
        self._boundary_pairs_per_column = boundary_pairs
        self._gathered_per_column = gathered_values
        # The simulator's verdict for the same flooding pattern on the same
        # partition: one message per arc per step (dense flooding — the
        # batched walk keeps every vertex's value live), cross arcs priced
        # as inter-machine messages, rounds from the bandwidth-limited
        # heaviest link.  The pattern is static, so this is computed once.
        network = KMachineNetwork(self.partition)
        tails = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), graph.degrees()
        )
        heads = graph.csr_arrays()[1]
        loads, inter, local = network.link_loads(tails, heads)
        self._cross_arcs = int(inter)
        self._local_arcs = int(local)
        self._rounds_per_step = int(network.rounds_for_loads(loads))
        self.steps = 0
        self.boundary_values = 0
        self.gathered_values = 0
        self._step_records: list[dict[str, int]] = []

    # ------------------------------------------------------------------
    # Walk construction and stepping
    # ------------------------------------------------------------------
    def make_walk(self, sources: Sequence[int]) -> "ShardedBatchedWalk":
        """The ``walk_factory`` hook for the batched detection driver."""
        return ShardedBatchedWalk(self, sources)

    def advance(self, matrix: np.ndarray) -> np.ndarray:
        """One walk step: gather, shard-multiply, scatter; count the exchange.

        ``matrix`` is the current ``(n, B)`` distribution matrix; the return
        value is the next one, every column bit-identical to the serial
        ``operator @ matrix`` (see the module docstring).
        """
        width = int(matrix.shape[1])
        pending: list[tuple[int, Future[np.ndarray]]] = []
        for machine in range(self.shards):
            executor = self._executors[machine]
            if executor is None:
                continue
            gathered = matrix[self._shard_needs[machine], :]
            pending.append((machine, executor.submit(_advance_shard, gathered)))
        advanced = np.empty((self.num_vertices, width), dtype=np.float64)
        for machine, future in pending:
            advanced[self._shard_rows[machine], :] = future.result()
        self._record_step(width)
        return advanced

    def _record_step(self, width: int) -> None:
        self.steps += 1
        boundary = self._boundary_pairs_per_column * width
        gathered = self._gathered_per_column * width
        self.boundary_values += boundary
        self.gathered_values += gathered
        if len(self._step_records) < self.MAX_STEP_RECORDS:
            self._step_records.append(
                {
                    "columns": width,
                    "boundary_values": boundary,
                    "boundary_bytes": boundary * 8,
                    "simulated_messages": self._cross_arcs,
                    "simulated_rounds": self._rounds_per_step,
                }
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def exchange_report(self) -> dict[str, object]:
        """Totals of what the shards exchanged vs. what the simulator charges.

        ``boundary_*`` counts the float64 values actually gathered across a
        partition boundary (deduplicated per ``(vertex, machine)`` pair —
        each shard receives each foreign vertex's value once per step per
        column); ``gathered_*`` additionally includes shard-local rows (the
        full physical traffic through the parent).  ``simulated_*`` is
        :class:`~repro.kmachine.simulator.KMachineNetwork`'s per-arc price
        for the same dense flooding on the same partition, times the steps
        taken; ``boundary_pairs_per_column_step <= cross_arcs`` is the
        reconciliation identity the tests assert.
        """
        return {
            "machines": self.shards,
            "partition_method": "hash",
            "steps": self.steps,
            "boundary_pairs_per_column_step": self._boundary_pairs_per_column,
            "boundary_values": self.boundary_values,
            "boundary_bytes": self.boundary_values * 8,
            "gathered_values": self.gathered_values,
            "gathered_bytes": self.gathered_values * 8,
            "cross_arcs": self._cross_arcs,
            "local_arcs": self._local_arcs,
            "simulated_inter_machine_messages": self._cross_arcs * self.steps,
            "simulated_local_messages": self._local_arcs * self.steps,
            "simulated_rounds_per_step": self._rounds_per_step,
            "simulated_rounds": self._rounds_per_step * self.steps,
            "per_step": list(self._step_records),
        }

    def close(self) -> None:
        """Shut every shard executor down (idempotent)."""
        while self._executors:
            executor = self._executors.pop()
            if executor is not None:
                executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedWalkPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ShardedBatchedWalk:
    """Drop-in for :class:`~repro.randomwalk.batched.BatchedWalkDistribution`
    whose step runs row-sharded on a :class:`ShardedWalkPool`.

    The parent holds the full ``(n, B)`` distribution matrix (probability
    mass is dense long before communities stop — holding it sharded would
    save nothing and double the exchange); the *operator* is what never
    exists in one process.  Implements the
    :class:`~repro.core.batched.BatchedWalk` protocol the driver consumes.
    """

    def __init__(self, pool: ShardedWalkPool, sources: Sequence[int]) -> None:
        source_array = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if source_array.ndim != 1 or source_array.size == 0:
            raise RandomWalkError("batched walk needs a flat, non-empty source sequence")
        if (source_array < 0).any() or (source_array >= pool.num_vertices).any():
            raise RandomWalkError(
                f"sources {sources!r} contain vertices outside the graph"
            )
        self._pool = pool
        self._sources = tuple(int(s) for s in source_array)
        # Same one-hot init as BatchedWalkDistribution._init_blocks.
        matrix = np.zeros((pool.num_vertices, source_array.size), dtype=np.float64)
        matrix[source_array, np.arange(source_array.size)] = 1.0
        self._matrix = matrix
        self._steps = 0

    @property
    def sources(self) -> tuple[int, ...]:
        """The seed vertex of every walk, in column order."""
        return self._sources

    @property
    def num_walks(self) -> int:
        """The batch width ``B``."""
        return len(self._sources)

    @property
    def steps(self) -> int:
        """The number of steps taken so far (the current walk length ``ℓ``)."""
        return self._steps

    def step(self, count: int = 1) -> np.ndarray:
        """Advance all walks ``count`` steps on the shard pool."""
        if count < 0:
            raise RandomWalkError(f"cannot step a negative number of times: {count}")
        for _ in range(count):
            self._matrix = self._pool.advance(self._matrix)
            self._steps += 1
        return self.probabilities()

    def probabilities(self) -> np.ndarray:
        """Return the current ``(n, B)`` distribution matrix (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def column(self, walk: int) -> np.ndarray:
        """Return walk ``walk``'s distribution as a contiguous read-only vector."""
        if not (0 <= walk < len(self._sources)):
            raise RandomWalkError(
                f"walk index {walk} out of range for a batch of {len(self._sources)}"
            )
        vector = np.ascontiguousarray(self._matrix[:, walk])
        vector.flags.writeable = False
        return vector

    def columns(self, walks: Sequence[int]) -> np.ndarray:
        """Return a contiguous ``(n, k)`` read-only copy of the selected columns."""
        indices = np.asarray([int(w) for w in walks], dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self._sources)):
            raise RandomWalkError(
                f"walk indices {walks!r} out of range for a batch of {len(self._sources)}"
            )
        matrix = np.ascontiguousarray(self._matrix[:, indices])
        matrix.flags.writeable = False
        return matrix

    def retain(self, walks: Sequence[int]) -> None:
        """Narrow the batch to the given walk columns (in the given order)."""
        kept = np.asarray([int(w) for w in walks], dtype=np.int64)
        if kept.size == 0:
            raise RandomWalkError("cannot retain an empty set of walks")
        if (kept < 0).any() or (kept >= len(self._sources)).any():
            raise RandomWalkError(
                f"walk indices {walks!r} out of range for a batch of {len(self._sources)}"
            )
        # A column gather copies each surviving column unchanged — the same
        # floats BatchedWalkDistribution.retain preserves.
        self._matrix = np.ascontiguousarray(self._matrix[:, kept])
        self._sources = tuple(self._sources[int(w)] for w in kept)

    def __repr__(self) -> str:
        return (
            f"ShardedBatchedWalk(num_walks={len(self._sources)}, "
            f"steps={self._steps}, shards={self._pool.shards})"
        )


# ----------------------------------------------------------------------
# Backend entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessOutcome:
    """What the sharded tier hands back to the :mod:`repro.api` runner."""

    detection: DetectionResult
    final_distributions: np.ndarray | None = None
    timings: dict[str, float] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)


def detect_batched_sharded(
    graph: Graph,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    *,
    seed: int | np.random.Generator | None = None,
    max_seeds: int | None = None,
    batch_size: int = 8,
    seeds: tuple[int, ...] | list[int] | None = None,
    workers: int | None = None,
    partition_seed: int | None = None,
    dtype: str = "float64",
    capture_distributions: bool = False,
    capture_history: bool = True,
    mp_context: multiprocessing.context.BaseContext | None = None,
) -> ProcessOutcome:
    """The ``"sharded"`` backend: the batched pool loop on a sharded walk.

    Detections, walk lengths, stop reasons and final distributions are
    bit-identical to the serial ``batched`` backend with the same knobs at
    every shard count (``workers``); the report's metadata additionally
    carries the :meth:`ShardedWalkPool.exchange_report` counters.
    ``partition_seed`` salts the hash vertex partition exactly as the
    ``kmachine`` backend's ``RunConfig.partition_seed`` does, so the
    exchange numbers are directly comparable to a simulator run on the same
    partition.
    """
    parameters = parameters or CDRWParameters()
    explicit = _validate_batched_seeds(graph, seeds, max_seeds, batch_size)

    if _is_trivial(graph, explicit):
        # Edgeless / empty runs take the scalar fast path inline — there is
        # no walk to shard (identical results by the batch guarantee).
        outcome = _detect_communities_batched_impl(
            graph,
            parameters,
            delta_hint,
            seed=seed,
            max_seeds=max_seeds,
            batch_size=batch_size,
            seeds=explicit if seeds is not None else None,
            workers=1,
            dtype=np.dtype(dtype),
            capture_distributions=capture_distributions,
            capture_history=capture_history,
        )
        if capture_distributions:
            detection, finals = outcome
        else:
            detection, finals = outcome, None
        return ProcessOutcome(
            detection=detection,
            final_distributions=finals,
            extras={"executor": "sharded", "shard_processes": 0, "exchange": {}},
        )

    with ShardedWalkPool(
        graph,
        workers,
        lazy=parameters.lazy_walk,
        partition_seed=partition_seed,
        mp_context=mp_context,
    ) as pool:
        outcome = _detect_communities_batched_impl(
            graph,
            parameters,
            delta_hint,
            seed=seed,
            max_seeds=max_seeds,
            batch_size=batch_size,
            seeds=explicit if seeds is not None else None,
            workers=1,
            dtype=np.dtype(dtype),
            capture_distributions=capture_distributions,
            capture_history=capture_history,
            walk_factory=pool.make_walk,
        )
        if capture_distributions:
            detection, finals = outcome
        else:
            detection, finals = outcome, None
        return ProcessOutcome(
            detection=detection,
            final_distributions=finals,
            extras={
                "executor": "sharded",
                "shard_processes": pool.shards,
                "exchange": pool.exchange_report(),
            },
        )
