"""The one execution path of the ``batched`` and ``parallel`` backends.

Every run of these two backends — a one-shot :func:`repro.api.detect` call
as much as a call on a long-lived session — executes here, on a
:class:`DetectionSession`.  A one-shot call opens a private session, runs
one call on it and closes it; a service keeps one open across calls.

Each backend has **one driver**, which owns everything the tiers share:
argument validation, the edgeless/empty fast path, Algorithm 1's pool loop
(:func:`~repro.core.batched._pool_loop`) or the parallel spread-seed draw,
the merge/resolve step and the bundling of ``final_distributions``.  The
execution tier is a **strategy** the driver is handed — one callable
``run(seeds, batch_size) -> (results, finals | None)``:

* ``"thread"`` — the in-process batched kernel, fed the session's cached
  transition operator and batched mixing-set search;
* ``"process"`` — :meth:`~repro.execution_process.ProcessGraphPool.run_seeds`
  on the session's worker pool, which shards the whole seed list across
  the workers in one concurrent wave.

All randomness stays in the driver, in the calling process, so both tiers
see the exact draw sequence, and per-seed results do not depend on how a
strategy groups the seeds (the batched kernels' per-column contracts).
The computed payload — detections, cost totals, artifacts — is therefore
identical on both tiers at every worker count
(``tests/test_process_executor.py``) and between resident and one-shot
calls (``tests/test_session.py``).

What a session keeps resident across calls:

* **One broadcast.**  The first process-tier call copies the CSR arrays
  into :class:`~repro.execution_process.SharedGraph` segments; every later
  call reuses them (``session_broadcasts`` stays at 1).  The
  :class:`~repro.execution_process.ProcessGraphPool` persists too — a
  worker-count change rebuilds only the executor, never the broadcast.
* **Cached derived state.**  The walk operator (per laziness flag), the
  batched search (per parameters/workers/dtype) and the resolved δ (per
  parameters/hint) are built once; the stationary distribution at most
  once.  All are deterministic functions of the graph and the knobs, so
  reuse changes no float.  Within one call they are resolved once, however
  many pool rounds the call runs.
* **Request coalescing.**  :meth:`DetectionSession.detect_batch` folds many
  single-seed requests into one shard wave.

Every report carries ``session_calls`` / ``session_broadcasts`` and the
per-tier reuse flags (``session_pool_reused`` or ``session_operator_reused``
/ ``session_search_reused``, plus ``session_delta_reused``); a one-shot
report shows the first-call values.

Usage::

    with DetectionSession(graph, config=RunConfig(executor="process")) as s:
        first = s.detect(seeds=[0, 1, 2])
        second = s.detect(seeds=[3, 4, 5])   # no new broadcast, same pool

The session serves **one call at a time** by contract: a second ``detect()``
arriving while one is in flight raises
:class:`~repro.exceptions.SessionBusyError` instead of silently racing the
caches.  Concurrent callers belong behind
:class:`repro.service.DetectionService`, which coalesces them into
``detect_batch`` waves on a single dispatcher thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .api import BackendOutcome, RunConfig, RunReport, _distribution_rows
from .core.batched import _detect_community_batch_impl, _pool_loop
from .core.parallel import _merge_and_resolve, select_spread_seeds
from .core.parameters import CDRWParameters
from .core.result import CommunityResult, DetectionResult
from .exceptions import AlgorithmError, BackendError, SessionBusyError
from .execution import EXECUTOR_PROCESS, resolve_executor, resolve_workers
from .graphs.graph import Graph
from .utils import as_rng

if TYPE_CHECKING:
    from .core.mixing_set import BatchedMixingSetSearch
    from .execution_process import ProcessGraphPool, SharedGraph

__all__ = ["DetectionSession"]


class DetectionSession:
    """A resident detection service for one graph.

    Parameters
    ----------
    graph:
        The graph every call of this session detects on.  The facade
        enforces identity (``graph is session.graph``): the broadcast and
        every cache are keyed to this exact object.
    config:
        Default :class:`~repro.api.RunConfig` for calls that do not pass
        their own (per-call configs and keyword overrides still work).
    params:
        Default :class:`~repro.core.parameters.CDRWParameters` for calls
        that do not pass their own.
    delta_hint:
        Default externally-known conductance for δ resolution.

    Use as a context manager (or call :meth:`close`) to release the worker
    pool and the shared-memory segments; the segments are additionally
    guarded by :class:`~repro.execution_process.SharedGraph`'s finalizer,
    so an abandoned session cannot leak them past interpreter exit.
    """

    def __init__(
        self,
        graph: Graph,
        config: RunConfig | None = None,
        params: CDRWParameters | None = None,
        delta_hint: float | None = None,
    ) -> None:
        if not isinstance(graph, Graph):
            raise BackendError(
                f"DetectionSession needs a Graph, got {type(graph).__name__}"
            )
        self.graph = graph
        self.config = config or RunConfig()
        self.params = params
        self.delta_hint = delta_hint
        # One-call-at-a-time contract: held for the duration of every
        # backend run; a concurrent caller gets SessionBusyError, never a
        # silent race on the caches below.
        self._busy = threading.Lock()
        # Cheap observable state lives under its own lock so ``closed`` /
        # ``calls`` / ``broadcasts`` never block behind an in-flight call
        # (the facade reads ``closed`` before dispatching; blocking there
        # would turn SessionBusyError into silent serialization).  Order
        # when nested: _busy, then _state_lock.
        self._state_lock = threading.Lock()
        self._closed = False  # repro: guarded-by(_state_lock)
        # Derived-state caches (thread tier; δ serves both tiers).
        self._operators: dict[bool, sp.csr_matrix] = {}  # repro: guarded-by(_busy)
        self._searches: dict[
            tuple[object, ...], BatchedMixingSetSearch
        ] = {}  # repro: guarded-by(_busy)
        self._deltas: dict[
            tuple[CDRWParameters, float | None], float
        ] = {}  # repro: guarded-by(_busy)
        self._stationary: np.ndarray | None = None  # repro: guarded-by(_busy)
        # Process-tier residents.
        self._shared: SharedGraph | None = None  # repro: guarded-by(_busy)
        self._pool: ProcessGraphPool | None = None  # repro: guarded-by(_busy)
        # Observability counters surfaced through report metadata.
        self._calls = 0  # repro: guarded-by(_state_lock)
        self._broadcasts = 0  # repro: guarded-by(_state_lock)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._closed

    @property
    def calls(self) -> int:
        """Number of detection calls served so far."""
        with self._state_lock:
            return self._calls

    @property
    def broadcasts(self) -> int:
        """Number of shared-memory graph broadcasts performed (0 or 1)."""
        with self._state_lock:
            return self._broadcasts

    def detect(
        self,
        seeds: Iterable[int] | None = None,
        backend: str = "batched",
        *,
        params: CDRWParameters | None = None,
        config: RunConfig | None = None,
        delta_hint: float | None = None,
        **overrides: object,
    ) -> RunReport:
        """Run one detection through the facade with this session resident.

        ``seeds`` is a convenience for the common service request shape
        (an explicit seed list); it becomes ``config.seeds``.  Everything
        else mirrors :func:`repro.api.detect` — omitted ``params`` /
        ``config`` / ``delta_hint`` fall back to the session defaults, and
        keyword ``overrides`` apply on top.
        """
        from .api import detect as _facade_detect

        if seeds is not None:
            overrides["seeds"] = tuple(int(s) for s in seeds)
        return _facade_detect(
            self.graph,
            backend=backend,
            params=params,
            config=config,
            delta_hint=delta_hint,
            session=self,
            **overrides,
        )

    def detect_batch(self, seeds: Iterable[int], **overrides: object) -> RunReport:
        """Coalesce many single-seed requests into one shard wave.

        Sets ``batch_size`` to the request width (unless overridden), so the
        whole list runs as one batched pass — on the process tier that is
        exactly ``workers`` shards.  Per-seed results are independent of
        batch composition (the PR 1/2 kernel contracts), so the answers are
        identical to ``len(seeds)`` one-at-a-time calls, at a fraction of
        the dispatch cost.

        The request is validated up front — empty, duplicated or
        out-of-range seeds raise before any pool work (no broadcast, no
        shard dispatch), so a malformed wave cannot cost a fork.
        Duplicates are rejected rather than silently re-run because a
        coalescing front end should fan one answer out to the duplicate
        requesters (:class:`repro.service.DetectionService` does exactly
        that).
        """
        seed_tuple = tuple(int(s) for s in seeds)
        if not seed_tuple:
            raise BackendError(
                "detect_batch needs at least one seed; got an empty seed iterable"
            )
        if len(set(seed_tuple)) != len(seed_tuple):
            seen: set[int] = set()
            duplicates = sorted(
                {s for s in seed_tuple if s in seen or bool(seen.add(s))}
            )
            raise BackendError(
                f"detect_batch seeds must be unique; duplicated seed "
                f"vertices: {duplicates} (coalesce duplicates and share the "
                f"answer instead of re-running them)"
            )
        for vertex in seed_tuple:
            if not 0 <= vertex < self.graph.num_vertices:
                raise AlgorithmError(
                    f"seed vertex {vertex} is not a vertex of {self.graph!r}"
                )
        overrides.setdefault("batch_size", max(1, len(seed_tuple)))
        return self.detect(seed_tuple, **overrides)

    @property
    def stationary_distribution(self) -> np.ndarray:
        """The graph's stationary distribution ``d(u) / 2|E|``, computed once.

        Takes the call slot (blocking): the cached array lives with the
        other ``_busy``-guarded derived state, and the computation is cheap
        enough that waiting out an in-flight call beats racing its caches.
        """
        with self._busy:
            if self._stationary is None:
                from .randomwalk.stationary import stationary_distribution

                self._stationary = stationary_distribution(self.graph)
            return self._stationary

    def close(self) -> None:
        """Release the worker pool, the broadcast segments and every cache.

        Waits out an in-flight call (blocking acquire of the call slot), so
        teardown can never race a backend run's cache accesses.
        """
        with self._busy:
            with self._state_lock:
                if self._closed:
                    return
                self._closed = True
            if self._pool is not None:
                self._pool.close()  # executor only: the session owns the broadcast
                self._pool = None
            if self._shared is not None:
                self._shared.close()
                self._shared = None
            self._operators.clear()
            self._searches.clear()
            self._deltas.clear()
            self._stationary = None

    def __enter__(self) -> "DetectionSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._state_lock:
            state = "closed" if self._closed else "open"
            calls = self._calls
            broadcasts = self._broadcasts
        return (
            f"DetectionSession({self.graph!r}, calls={calls}, "
            f"broadcasts={broadcasts}, {state})"
        )

    # ------------------------------------------------------------------
    # Derived-state caches
    # ------------------------------------------------------------------
    def _walk_operator(self, lazy: bool) -> tuple[sp.csr_matrix, bool]:  # repro: requires(_busy)
        """The batched walk's transition operator for ``lazy``, cached.

        Construction is a deterministic function of the graph, so the cached
        copy is the exact matrix a fresh call would build (same floats, same
        sparsity) — injecting it changes no result.
        """
        operator = self._operators.get(lazy)
        if operator is not None:
            return operator, True
        from .randomwalk.transition import (
            lazy_transition_matrix,
            reverse_transition_matrix,
        )

        if lazy:
            operator = lazy_transition_matrix(self.graph).T.tocsr()
        else:
            operator = reverse_transition_matrix(self.graph)
        self._operators[lazy] = operator
        return operator, False

    def _search(  # repro: requires(_busy)
        self, params: CDRWParameters, workers: int | None, dtype: str | np.dtype
    ) -> tuple[BatchedMixingSetSearch, bool]:
        """The batched mixing-set search for these knobs, cached.

        The search is stateless across calls (PR 2 contract); it is keyed by
        everything its construction reads — parameters, the resolved initial
        size, the resolved worker count and the scan dtype.
        """
        initial_size = params.resolve_initial_size(self.graph)
        key = (params, initial_size, resolve_workers(workers), str(np.dtype(dtype)))
        search = self._searches.get(key)
        if search is not None:
            return search, True
        from .core.mixing_set import BatchedMixingSetSearch

        search = BatchedMixingSetSearch.from_parameters(
            self.graph, params, initial_size, workers=workers, dtype=np.dtype(dtype)
        )
        self._searches[key] = search
        return search, False

    def _resolve_delta(  # repro: requires(_busy)
        self, params: CDRWParameters, delta_hint: float | None
    ) -> tuple[float, bool]:
        """δ for these knobs, resolved once per ``(params, hint)``.

        ``resolve_delta`` is idempotent on its own output (the process tier
        already relies on this to ship δ pre-resolved to workers), so
        feeding the cached value back through the kernels' own resolution
        reproduces it exactly — including the spectral estimate, which a
        fresh call would otherwise recompute per call.
        """
        key = (params, delta_hint)
        cached = self._deltas.get(key)
        if cached is not None:
            return cached, True
        resolved = params.resolve_delta(self.graph, delta_hint)
        self._deltas[key] = resolved
        return resolved, False

    # ------------------------------------------------------------------
    # Process-tier residents
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int | None) -> tuple[ProcessGraphPool, bool]:  # repro: requires(_busy)
        """The persistent worker pool, broadcasting the graph at most once.

        A worker-count change rebuilds only the executor; the shared-memory
        segments belong to the session, not the pool, so they survive it and
        ``session_broadcasts`` never exceeds 1.
        """
        from .execution_process import ProcessGraphPool, SharedGraph

        if self._shared is None:
            self._shared = SharedGraph(self.graph)
            with self._state_lock:
                self._broadcasts += 1
        resolved = resolve_workers(workers)
        if self._pool is not None and self._pool.workers == resolved:
            return self._pool, True
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._pool = ProcessGraphPool(self._shared, resolved)
        return self._pool, False

    # ------------------------------------------------------------------
    # Backend entry points (called by the api runners)
    # ------------------------------------------------------------------
    #: SessionBusyError text shared by both backend entry points.
    _BUSY_MESSAGE = (
        "DetectionSession serves one call at a time: another detect() "
        "is already in flight on this session. Serialize callers, or "
        "put a repro.service.DetectionService in front to coalesce "
        "concurrent requests into waves."
    )

    def _run_batched(
        self,
        params: CDRWParameters | None,
        config: RunConfig,
        delta_hint: float | None,
    ) -> BackendOutcome:
        """The ``"batched"`` backend on this session: admission, then the driver."""
        if not self._busy.acquire(blocking=False):
            raise SessionBusyError(self._BUSY_MESSAGE)
        try:
            self._admit()
            return self._drive_batched(params or CDRWParameters(), config, delta_hint)
        finally:
            self._busy.release()

    def _run_parallel(
        self,
        params: CDRWParameters | None,
        config: RunConfig,
        delta_hint: float | None,
    ) -> BackendOutcome:
        """The ``"parallel"`` backend on this session: admission, then the driver."""
        if not self._busy.acquire(blocking=False):
            raise SessionBusyError(self._BUSY_MESSAGE)
        try:
            self._admit()
            return self._drive_parallel(params or CDRWParameters(), config, delta_hint)
        finally:
            self._busy.release()

    def _admit(self) -> None:  # repro: requires(_busy)
        with self._state_lock:
            if self._closed:
                raise BackendError("the detection session is closed")
            self._calls += 1

    # ------------------------------------------------------------------
    # The drivers
    # ------------------------------------------------------------------
    def _drive_batched(  # repro: requires(_busy)
        self, params: CDRWParameters, config: RunConfig, delta_hint: float | None
    ) -> BackendOutcome:
        """Algorithm 1's pool loop, or an explicit seed list, on the call's tier.

        Explicit seeds go to the strategy as one list (the process tier
        shards it in one wave); pool mode draws each round in this process,
        so both tiers see the same draw sequence, and hands the round to
        the strategy.
        """
        graph = self.graph
        explicit = _validate_batched_seeds(
            graph, config.seeds, config.max_seeds, config.batch_size
        )
        tier = self._tier(
            params,
            config,
            delta_hint,
            trivial=_is_trivial(graph, explicit),
            dtype=config.dtype,
            capture_distributions=config.capture_distributions,
        )
        final_chunks: list[np.ndarray] = []

        def run_batch(seeds: list[int]) -> list[CommunityResult]:
            results, finals = tier.run(seeds, config.batch_size)
            if finals is not None:
                final_chunks.append(finals)
            return results

        if explicit is not None:
            results = run_batch(explicit)
        else:
            results = _pool_loop(
                graph, as_rng(config.seed), config.batch_size, config.max_seeds, run_batch
            )
        detection = DetectionResult(
            num_vertices=graph.num_vertices, communities=tuple(results)
        )
        finals = None
        if config.capture_distributions:
            finals = (
                np.hstack(final_chunks)
                if final_chunks
                else np.zeros((graph.num_vertices, 0), dtype=np.float64)
            )
        return self._outcome(tier, detection, finals)

    def _drive_parallel(  # repro: requires(_busy)
        self, params: CDRWParameters, config: RunConfig, delta_hint: float | None
    ) -> BackendOutcome:
        """The ``r`` spread seeds as one batch, then duplicate merge and overlap
        resolution on their final distributions."""
        graph = self.graph
        count = _validate_parallel_args(
            config.num_communities, config.overlap_merge_threshold
        )
        spread = select_spread_seeds(
            graph, count, min_distance=config.seed_min_distance, seed=as_rng(config.seed)
        )
        # The scan runs in float64 whatever config.dtype says: conflict
        # resolution compares final distributions exactly.
        tier = self._tier(
            params,
            config,
            delta_hint,
            trivial=_is_trivial(graph, spread),
            dtype="float64",
            capture_distributions=True,
        )
        raw_results, distributions = tier.run(spread, len(spread))
        assert distributions is not None
        resolved = _merge_and_resolve(
            raw_results, distributions, config.overlap_merge_threshold
        )
        detection = DetectionResult(
            num_vertices=graph.num_vertices, communities=tuple(resolved)
        )
        return self._outcome(tier, detection, None)

    def _tier(  # repro: requires(_busy)
        self,
        params: CDRWParameters,
        config: RunConfig,
        delta_hint: float | None,
        *,
        trivial: bool,
        dtype: str,
        capture_distributions: bool,
    ) -> _Tier:
        """Resolve the call's setup and choose its strategy.

        A trivial run (see :func:`_is_trivial`) takes the kernel's edgeless
        fast path inline on either tier: it reads no δ, operator or search —
        on an edgeless graph they could not even be built — and no pool is
        worth starting for it.
        """
        executor = resolve_executor(config.executor)
        process = executor == EXECUTOR_PROCESS
        if trivial:
            run = _kernel_strategy(
                self.graph, params, delta_hint, config, dtype, capture_distributions
            )
            if process:
                flags: dict[str, object] = {
                    "worker_processes": 0,
                    "process_tasks": 0,
                    "session_pool_reused": False,
                }
            else:
                flags = {"session_operator_reused": False, "session_search_reused": False}
            return _Tier(run, {"executor": executor, **flags, "session_delta_reused": False})
        delta, delta_reused = self._resolve_delta(params, delta_hint)
        if process:
            pool, pool_reused = self._ensure_pool(config.workers)

            def run_on_pool(
                seeds: list[int], batch_size: int
            ) -> tuple[list[CommunityResult], np.ndarray | None]:
                return pool.run_seeds(
                    seeds,
                    params,
                    delta,
                    batch_size=batch_size,
                    capture_distributions=capture_distributions,
                    dtype=dtype,
                    capture_history=config.capture_history,
                )

            extras: dict[str, object] = {
                "executor": executor,
                "worker_processes": pool.workers,
                "session_pool_reused": pool_reused,
                "session_delta_reused": delta_reused,
            }
            return _Tier(run_on_pool, extras, pool=pool, mark=pool.mark())
        operator, operator_reused = self._walk_operator(params.lazy_walk)
        search, search_reused = self._search(params, config.workers, dtype)
        run = _kernel_strategy(
            self.graph, params, delta, config, dtype, capture_distributions, operator, search
        )
        extras = {
            "executor": executor,
            "session_operator_reused": operator_reused,
            "session_search_reused": search_reused,
            "session_delta_reused": delta_reused,
        }
        return _Tier(run, extras)

    def _outcome(
        self, tier: _Tier, detection: DetectionResult, finals: np.ndarray | None
    ) -> BackendOutcome:
        timings, extras = tier.report()
        with self._state_lock:
            extras["session_calls"] = self._calls
            extras["session_broadcasts"] = self._broadcasts
        artifacts: dict[str, object] = {}
        if finals is not None:
            artifacts["final_distributions"] = _distribution_rows(finals)
        # The raw (n, k) matrix rides along as the (unserialized) native
        # result so in-memory consumers — detect_community_batch — read it
        # back without re-parsing the list artifact.
        return BackendOutcome(
            detection=detection,
            timings=timings,
            extras=extras,
            artifacts=artifacts,
            native=finals,
        )


# ----------------------------------------------------------------------
# Strategies and the drivers' shared helpers
# ----------------------------------------------------------------------
#: A tier's whole contract with the drivers: detect every seed of the list,
#: at most ``batch_size`` per batched pass, and return the per-seed results
#: in seed order plus — when distributions are captured — the ``(n,
#: len(seeds))`` final-distribution matrix.
Strategy = Callable[[list[int], int], tuple[list[CommunityResult], np.ndarray | None]]


@dataclass
class _Tier:
    """One call's strategy and what its report says about the tier."""

    run: Strategy
    extras: dict[str, object]
    pool: ProcessGraphPool | None = None
    mark: int = 0

    def report(self) -> tuple[dict[str, float], dict[str, object]]:
        """Timings and metadata of the call, the pool's shards since ``mark``."""
        if self.pool is None:
            return {}, dict(self.extras)
        extras = {**self.extras, "process_tasks": self.pool.tasks_issued - self.mark}
        return self.pool.shard_timings(since=self.mark), extras


def _kernel_strategy(
    graph: Graph,
    params: CDRWParameters,
    delta: float | None,
    config: RunConfig,
    dtype: str,
    capture_distributions: bool,
    operator: sp.csr_matrix | None = None,
    search: BatchedMixingSetSearch | None = None,
) -> Strategy:
    """The thread tier: the in-process kernel, ``batch_size`` seeds per pass."""

    def run(
        seeds: list[int], batch_size: int
    ) -> tuple[list[CommunityResult], np.ndarray | None]:
        results: list[CommunityResult] = []
        chunks: list[np.ndarray] = []
        for start in range(0, len(seeds), batch_size):
            outcome = _detect_community_batch_impl(
                graph,
                seeds[start:start + batch_size],
                params,
                delta,
                capture_distributions=capture_distributions,
                workers=config.workers,
                dtype=np.dtype(dtype),
                capture_history=config.capture_history,
                walk_operator=operator,
                search=search,
            )
            if isinstance(outcome, tuple):
                batch, finals = outcome
                chunks.append(finals)
            else:
                batch = outcome
            results.extend(batch)
        return results, (np.hstack(chunks) if chunks else None)

    return run


def _validate_batched_seeds(
    graph: Graph,
    seeds: tuple[int, ...] | list[int] | None,
    max_seeds: int | None,
    batch_size: int,
) -> list[int] | None:
    """Check a batched run's knobs before any setup or pool work.

    Returns the truncated explicit seed list, or ``None`` in pool mode.
    """
    if batch_size < 1:
        raise AlgorithmError(f"batch_size must be >= 1, got {batch_size}")
    if seeds is None:
        return None
    explicit = [int(s) for s in seeds]
    if max_seeds is not None:
        explicit = explicit[:max_seeds]
    for seed_vertex in explicit:
        if seed_vertex not in graph:
            raise AlgorithmError(
                f"seed vertex {seed_vertex} is not a vertex of {graph!r}"
            )
    return explicit


def _is_trivial(graph: Graph, explicit: list[int] | None) -> bool:
    """Whether a run needs no setup: edgeless/empty graph or an empty seed list.

    ``explicit`` is ``None`` in pool mode.
    """
    return (
        graph.num_edges == 0
        or graph.num_vertices == 0
        or (explicit is not None and not explicit)
    )


def _validate_parallel_args(
    num_communities: int | None, overlap_merge_threshold: float
) -> int:
    """Check the parallel backend's knobs; returns the community count ``r``."""
    if num_communities is None:
        raise BackendError(
            "the 'parallel' backend needs the community-count estimate r: "
            "pass config=RunConfig(num_communities=...)"
        )
    if num_communities < 1:
        raise AlgorithmError(f"num_communities must be >= 1, got {num_communities}")
    if not (0.0 < overlap_merge_threshold <= 1.0):
        raise AlgorithmError(
            f"overlap_merge_threshold must be in (0, 1], got {overlap_merge_threshold}"
        )
    return num_communities
