"""The localized largest-mixing-set search at a fixed walk length.

This implements lines 12-17 of Algorithm 1.  Given the walk distribution
``p_ℓ`` after ``ℓ`` steps:

1. every vertex ``u`` computes ``x_u = | p_ℓ(u) − d(u)/µ'(S) |`` where
   ``µ'(S) = (2m/n)·|S|`` is the *average* volume of a size-``|S|`` set (the
   localized stand-in for the true volume ``µ(S)``, which a vertex cannot know
   without learning the whole set);
2. the seed collects the ``|S|`` smallest ``x_u`` values (distributedly this
   is done by binary search over a BFS tree — see
   :mod:`repro.congest.aggregation`) and accepts the size when their sum is
   below the threshold ``1/(2e)``;
3. candidate sizes grow geometrically by ``(1 + 1/8e)`` starting from
   ``R = log n``; the search reports the largest accepted size together
   with the vertices attaining it.

The classes here are the *centralized executor* of this search: they
perform the same arithmetic as the CONGEST node programs and are what the
accuracy experiments run (the distributed implementation produces identical
sets — asserted by integration tests).  The executor evaluates only what
decides the answer:

* **Descending scan.**  In the default full-scan mode the answer is the
  largest accepted size, so the schedule is walked from the largest size
  down and a walk stops at its first accepted size.  With
  ``stop_at_first_failure=True`` the same loop walks the schedule upwards
  and stops at the first failing size.
* **Certified screen.**  Before any index work for a size ``k``, the ``k``
  smallest deviations are summed by value (an in-place partition, no
  argpartition, sort or gather).  That multiset is the one the exact path
  sums, whatever the tie-break; only the summation order differs, and both
  sums are over the same ``k`` non-negative floats, so each is within
  ``γ = (k−1)·u / (1 − (k−1)·u)`` relative of the true sum (``u`` the unit
  roundoff), in any summation order.  A size is rejected without index
  work when ``screened·(1−g) ≥ threshold·(1+g)`` with ``g = 4·k·u``, which
  covers ``γ`` for both sums plus the rounding of the comparison; everything else
  (the guard band, NaNs, sizes that pass the deficit but may fail the mass
  condition) takes the exact path, whose floats are the reported ones.

Neither shortcut changes an output bit: ``LargestMixingSet.sizes_examined``
keeps reporting the model's count, not the executor's work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

import numpy as np
from numpy.typing import DTypeLike

from ..exceptions import AlgorithmError
from ..execution import parallel_map_blocks, resolve_workers
from ..graphs.graph import Graph
from ..utils import GROWTH_FACTOR, MIXING_THRESHOLD, geometric_sizes, linear_sizes

if TYPE_CHECKING:
    from .parameters import CDRWParameters

__all__ = [
    "MixingSetSearch",
    "BatchedMixingSetSearch",
    "LargestMixingSet",
    "deviation_values",
    "mixing_deficit_for_size",
]

#: Per-block working-array budget of the batched search (bytes).  One block
#: holds `block_width` walk distributions of `n` float64s; ~1 MB keeps the
#: block cache-resident across the whole candidate-size schedule while still
#: amortizing the shared per-size target computation over several lanes
#: (measured the best compromise across n = 8k–50k at B = 64 on one core).
#: With the screened scan, which holds a partition buffer of the same size,
#: 256 KB–1 MB stay within ~10% of each other at n = 8k–32k and B = 64 on
#: a 2-core host, and 2 MB and up are slower.
_SEARCH_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class LargestMixingSet:
    """Outcome of the largest-mixing-set search at one walk length.

    Attributes
    ----------
    walk_length:
        The walk length ``ℓ`` the search was run at.
    size:
        Size of the largest accepted candidate (0 when none was accepted).
    members:
        The accepted vertex set (empty when ``size`` is 0).
    deficit:
        The sum of the ``size`` smallest ``x_u`` values of the accepted set.
    mass:
        The total walk probability currently held by the accepted set.
    sizes_examined:
        The model's count of candidate sizes the search evaluates: the whole
        schedule in full-scan mode, and up to and including the first
        failing size under ``stop_at_first_failure``.  The distributed cost
        accounting reads it; it is not the work the centralized executor
        did (which skips most sizes).
    """

    walk_length: int
    size: int
    members: frozenset[int]
    deficit: float
    mass: float
    sizes_examined: int

    @property
    def found(self) -> bool:
        """Whether any candidate size satisfied the mixing condition."""
        return self.size > 0


def deviation_values(graph: Graph, distribution: np.ndarray, subset_size: int) -> np.ndarray:
    """Return the per-vertex deviations ``x_u = |p(u) − d(u)/µ'(S)|`` for ``|S| = subset_size``."""
    if subset_size < 1:
        raise AlgorithmError(f"subset size must be >= 1, got {subset_size}")
    if graph.num_edges == 0:
        raise AlgorithmError("the mixing-set search requires a graph with at least one edge")
    distribution = np.asarray(distribution, dtype=np.float64)
    if distribution.shape != (graph.num_vertices,):
        raise AlgorithmError(
            f"distribution has shape {distribution.shape}, expected ({graph.num_vertices},)"
        )
    average_volume = graph.volume / graph.num_vertices * subset_size
    targets = graph.degrees().astype(np.float64) / average_volume
    return np.abs(distribution - targets)


def mixing_deficit_for_size(
    graph: Graph, distribution: np.ndarray, subset_size: int
) -> tuple[float, float, np.ndarray]:
    """Return ``(deficit, mass, members)`` for one candidate size.

    ``deficit`` is the sum of the ``subset_size`` smallest ``x_u`` values,
    ``mass`` is the walk probability held by the selected vertices and
    ``members`` are the selected vertices in increasing id order.  Among
    tied deviations the selection is ``np.argpartition``'s: deterministic
    for a given value sequence, and shared by every search path in this
    package, but not a specified order such as "smallest vertex id first".
    """
    deviations = deviation_values(graph, distribution, subset_size)
    distribution = np.asarray(distribution, dtype=np.float64)
    if subset_size >= graph.num_vertices:
        members = np.arange(graph.num_vertices, dtype=np.int64)
        return float(deviations.sum()), float(distribution.sum()), members
    # argpartition gives the smallest `subset_size` entries in O(n).
    chosen = np.argpartition(deviations, subset_size - 1)[:subset_size]
    chosen = np.sort(chosen)
    return float(deviations[chosen].sum()), float(distribution[chosen].sum()), chosen


class MixingSetSearch:
    """Runs the largest-mixing-set search of Algorithm 1 for one graph.

    The search object precomputes the candidate-size schedule and the
    per-vertex degrees once so that repeated calls (one per walk length)
    stay cheap.
    """

    def __init__(
        self,
        graph: Graph,
        initial_size: int,
        mixing_threshold: float = MIXING_THRESHOLD,
        growth_factor: float = GROWTH_FACTOR,
        schedule: str = "geometric",
        stop_at_first_failure: bool = False,
        min_mass: float | None = None,
    ) -> None:
        if initial_size < 1:
            raise AlgorithmError(f"initial size must be >= 1, got {initial_size}")
        if graph.num_vertices == 0:
            raise AlgorithmError("cannot search for mixing sets in an empty graph")
        if not (0.0 < mixing_threshold < 2.0):
            raise AlgorithmError(f"mixing threshold must be in (0, 2), got {mixing_threshold}")
        if min_mass is None:
            # Definition 2 implies a true local mixing set holds mass at least
            # 1 - ε; the localized µ'(S) proxy loses that guarantee (a set of
            # low-degree vertices with almost no probability can have small
            # per-vertex deviations), so the mass condition is enforced
            # explicitly, slightly relaxed to 1 - 2ε to tolerate the
            # probability that leaks across the sparse PPM cut while the walk
            # mixes inside its block.
            min_mass = max(0.0, 1.0 - 2.0 * mixing_threshold)
        if not (0.0 <= min_mass <= 1.0):
            raise AlgorithmError(f"min_mass must be in [0, 1], got {min_mass}")
        self._graph = graph
        self._threshold = mixing_threshold
        self._min_mass = min_mass
        self._stop_at_first_failure = bool(stop_at_first_failure)
        initial = min(initial_size, graph.num_vertices)
        if schedule == "geometric":
            self._sizes = geometric_sizes(initial, graph.num_vertices, growth_factor)
        elif schedule == "linear":
            self._sizes = linear_sizes(initial, graph.num_vertices)
        else:
            raise AlgorithmError(f"unknown schedule: {schedule!r}")
        # Per-call constants, hoisted out of the size loop.  The average
        # volume is computed as (volume/n)·size — the same float sequence as
        # deviation_values — so targets stay bit-identical to it.
        self._degrees = graph.degrees().astype(np.float64)
        self._volume_per_vertex = graph.volume / graph.num_vertices

    @property
    def candidate_sizes(self) -> list[int]:
        """The candidate-size schedule (read-only copy)."""
        return list(self._sizes)

    def _check_searchable(self) -> None:
        if self._graph.num_edges == 0:
            raise AlgorithmError("the mixing-set search requires a graph with at least one edge")

    def largest_mixing_set(self, distribution: np.ndarray, walk_length: int) -> LargestMixingSet:
        """Return the largest mixing set for the given walk distribution.

        The *largest* size whose ``|S|`` smallest deviations sum below the
        threshold wins (Algorithm 1 line 17: "the largest set S which
        satisfies the mixing condition").  By default the whole schedule is
        the candidate set: with the localized average-volume proxy ``µ'(S)``
        the acceptance predicate is not monotone in ``|S|`` — in dense graphs
        no set smaller than roughly the seed's degree can mix even though
        community-sized sets do — so stopping at the first failing size (the
        literal pseudocode reading, available via
        ``stop_at_first_failure=True``) can miss every mixing set.  This
        deviation is recorded in DESIGN.md.
        """
        self._check_searchable()
        distribution = np.asarray(distribution, dtype=np.float64)
        if distribution.shape != (self._graph.num_vertices,):
            raise AlgorithmError(
                f"distribution has shape {distribution.shape}, expected "
                f"({self._graph.num_vertices},)"
            )
        results: list[LargestMixingSet | None] = [None]
        self._scan_lanes(distribution.reshape(1, -1), walk_length, results, 0, 1)
        return cast(LargestMixingSet, results[0])

    def _scan_lanes(
        self,
        rows: np.ndarray,
        walk_length: int,
        results: list[LargestMixingSet | None],
        start: int,
        stop: int,
    ) -> None:
        """Run the schedule for lanes ``start:stop`` of ``rows`` (one walk per row).

        Writes each lane's outcome into ``results`` at its global lane
        index; lanes outside ``start:stop`` are never touched, which is what
        makes disjoint lane ranges thread-safe.  A lane retires from the
        block at its decisive size: the first accepted one when scanning
        down, the first failing one when scanning up.
        """
        num_vertices = rows.shape[1]
        ascending = self._stop_at_first_failure
        threshold = self._threshold
        # Half an ulp of 1.0 in the scan precision: the unit roundoff u.
        unit = float(np.finfo(rows.dtype).eps) / 2.0
        degrees = self._degrees.astype(rows.dtype, copy=False)
        order = list(enumerate(self._sizes))
        if not ascending:
            order.reverse()
        columns = list(range(start, stop))
        lanes = rows[start:stop]
        # One deviation buffer and one partition buffer per block, reused
        # for every size; retired lanes shrink the live prefix.
        deviation_buffer = np.empty_like(lanes)
        partition_buffer = np.empty_like(lanes)
        examined = dict.fromkeys(columns, len(order))
        best: dict[int, tuple[int, np.ndarray | None, float, float]] = {}
        for index, size in order:
            live = len(columns)
            deviations = deviation_buffer[:live]
            np.subtract(lanes, degrees / (self._volume_per_vertex * size), out=deviations)
            np.absolute(deviations, out=deviations)
            if size < num_vertices:
                smallest = partition_buffer[:live]
                np.copyto(smallest, deviations)
                smallest.partition(size - 1, axis=1)
                screened = smallest[:, :size].sum(axis=1)
            else:
                screened = deviations.sum(axis=1)
            # Certified rejection: the exact deficit, the same values summed
            # in another order, is then at or above the threshold too.
            guard = 4.0 * size * unit
            lower = screened.astype(np.float64, copy=False) * (1.0 - guard)
            rejected = lower >= threshold * (1.0 + guard)
            retired = np.flatnonzero(rejected).tolist() if ascending else []
            undecided = np.flatnonzero(~rejected)
            if undecided.size:
                # The screen is done with the partition buffer: gather the
                # undecided rows' deviations into it, contiguous per row.
                # (The indices are valid; mode="clip" skips the temporary
                # that the default mode="raise" buffers `out` through.)
                selected = partition_buffer[: undecided.size]
                np.take(deviations, undecided, axis=0, out=selected, mode="clip")
                chosen, deficits, masses = self._exact_sets(selected, lanes, undecided, size)
                for slot, position in enumerate(undecided.tolist()):
                    deficit = float(deficits[slot])
                    mass = float(masses[slot])
                    if deficit < threshold and mass >= self._min_mass:
                        best[columns[position]] = (
                            size,
                            # Copy: the row view must not keep this size's
                            # index matrix alive per lane.
                            None if chosen is None else chosen[slot].copy(),
                            deficit,
                            mass,
                        )
                        if not ascending:
                            retired.append(position)
                    elif deficit >= threshold and ascending:
                        retired.append(position)
            if retired:
                if ascending:
                    for position in retired:
                        examined[columns[position]] = index + 1
                keep = np.delete(np.arange(live), retired)
                if keep.size == 0:
                    break
                columns = [columns[position] for position in keep.tolist()]
                lanes = lanes[keep]

        for column in range(start, stop):
            size, members, deficit, mass = best.get(column, (0, None, 0.0, 0.0))
            if size == 0:
                member_set: frozenset[int] = frozenset()
            elif members is None:
                member_set = frozenset(range(num_vertices))
            else:
                member_set = frozenset(members.tolist())
            results[column] = LargestMixingSet(
                walk_length=walk_length,
                size=size,
                members=member_set,
                deficit=deficit,
                mass=mass,
                sizes_examined=examined[column],
            )

    def _exact_sets(
        self, deviations: np.ndarray, lanes: np.ndarray, rows: np.ndarray, size: int
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Return ``(chosen, deficits, masses)`` of rows ``rows`` of ``lanes`` at one size.

        The exact index path.  ``deviations`` holds those rows' deviations,
        one contiguous row each.  Each row is argpartitioned and its chosen
        indices sorted by vertex id (``None`` when the size covers every
        vertex).  Deficits and masses are summed from *contiguous* per-row
        gathers so numpy's pairwise summation blocks exactly as the 1-D
        ``mixing_deficit_for_size`` does; a 2-D axis-0 reduction would block
        differently and drift in the last ulp.
        """
        if size >= deviations.shape[1]:
            return None, deviations.sum(axis=1), lanes.sum(axis=1)[rows]
        chosen = np.argpartition(deviations, size - 1, axis=1)[:, :size]
        chosen.sort(axis=1)
        deficits = np.take_along_axis(deviations, chosen, axis=1).sum(axis=1)
        masses = lanes[rows[:, None], chosen].sum(axis=1)
        return chosen, deficits, masses


class BatchedMixingSetSearch(MixingSetSearch):
    """The largest-mixing-set search evaluated for ``B`` walks at once.

    The scalar :class:`MixingSetSearch` runs the descending, screened scan
    for one walk.  This class runs the same scan loop over a block of walks:
    for every candidate size the targets ``d(u)/µ'(S)`` are computed once,
    the deviation *matrix* ``|P − targets|`` over all live lanes is formed
    in one elementwise pass, and one in-place per-lane partition screens
    every lane at once.  Only lanes the screen cannot reject reach the
    exact path (one per-lane argpartition over the undecided rows), which
    on PPM walks is under one lane per walk step.  A lane leaves its block
    at its decisive size.  Internally the distributions are laid out one per
    row (the matrix is transposed once per call) so every partition lane is
    contiguous in memory.

    Exact-equivalence guarantee
    ---------------------------
    For every column ``j`` of ``distributions``,
    ``largest_mixing_sets(distributions, ℓ)[j]`` is **equal** (dataclass
    equality: same members, same deficit/mass floats, same
    ``sizes_examined``) to
    ``largest_mixing_set(np.ascontiguousarray(distributions[:, j]), ℓ)``,
    and both equal the plain ascending loop over
    :func:`mixing_deficit_for_size`:

    * deviations are elementwise IEEE operations, identical regardless of
      memory layout;
    * the screen only ever rejects a size whose exact deficit is certainly
      at or above the threshold (see the module docstring), so the decisive
      size of every lane is the one the plain loop decides on;
    * numpy's introselect is deterministic in the value sequence of each
      lane, so the per-lane result of the batched argpartition — including
      the resolution of ties — matches the 1-D argpartition, and every path
      sorts the selected indices by vertex id afterwards;
    * deficits and masses are summed from contiguous per-lane gathers
      (:meth:`_exact_sets`).

    ``tests/test_batched_mixing_set.py`` asserts the equivalence against an
    independent copy of the plain loop on random, tie-heavy, real-walk and
    near-threshold distributions for every schedule/flag combination.

    Multi-core search
    -----------------
    The ``workers`` knob (``None`` → ``REPRO_WORKERS`` environment override
    → serial; ``0`` → all cores) splits the lanes across threads of the
    shared pool (:mod:`repro.execution`) by contiguous *lane block*.  Every
    lane's deviations, screen and exact path are computed from that lane's
    row alone, independent of which other lanes share a block, so the
    guarantee above holds for every ``workers`` value (asserted by
    ``tests/test_execution.py``).

    float32 fast path
    -----------------
    ``dtype=np.float32`` halves the memory traffic of the deviation scan.
    It is explicitly **not** covered by the exactness guarantee: deviations,
    deficits and masses are computed in single precision (then widened for
    the threshold comparisons), so reported floats are only ≈-close to the
    float64 path and argpartition near-ties may select different members.
    The screen's guard uses the float32 unit roundoff, so it never rejects
    a size the float32 exact path would accept.  Tests assert closeness,
    never equality with float64, for this path.
    """

    def __init__(
        self,
        *args: Any,
        workers: int | None = None,
        dtype: DTypeLike = np.float64,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._dtype = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise AlgorithmError(
                f"batched search dtype must be float64 or float32, got {dtype!r}"
            )
        self._workers = resolve_workers(workers)

    @property
    def workers(self) -> int:
        """The resolved thread count used by the lane-blocked scan."""
        return self._workers

    @property
    def dtype(self) -> np.dtype:
        """The scan precision (float64 exact path or float32 fast path)."""
        return self._dtype

    @classmethod
    def from_parameters(
        cls,
        graph: Graph,
        parameters: "CDRWParameters",
        initial_size: int,
        workers: int | None = None,
        dtype: DTypeLike = np.float64,
    ) -> "BatchedMixingSetSearch":
        """Build a batched search from a :class:`CDRWParameters` instance."""
        return cls(
            graph,
            initial_size=initial_size,
            mixing_threshold=parameters.mixing_threshold,
            growth_factor=parameters.growth_factor,
            schedule=parameters.size_schedule,
            stop_at_first_failure=parameters.stop_at_first_failure,
            min_mass=parameters.min_mass,
            workers=workers,
            dtype=dtype,
        )

    def largest_mixing_sets(
        self, distributions: np.ndarray, walk_length: int
    ) -> list[LargestMixingSet]:
        """Return the largest mixing set of every column of ``distributions``.

        Parameters
        ----------
        distributions:
            ``(n, B)`` matrix whose columns are walk distributions (e.g.
            ``BatchedWalkDistribution.probabilities()``).
        walk_length:
            The walk length ``ℓ`` recorded in every returned result.
        """
        matrix = np.asarray(distributions, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self._graph.num_vertices:
            raise AlgorithmError(
                f"distribution matrix has shape {matrix.shape}, expected "
                f"({self._graph.num_vertices}, B)"
            )
        self._check_searchable()
        num_vertices, width = matrix.shape
        if width == 0:
            return []
        if width == 1 and self._dtype == np.dtype(np.float64):
            # A one-walk batch gains nothing from the transpose and block
            # bookkeeping; the scalar search is the same computation.  (The
            # float32 fast path must still go through the batched scan so
            # its precision is dtype-consistent at every width.)
            column = np.ascontiguousarray(matrix[:, 0])
            return [self.largest_mixing_set(column, walk_length)]
        # Work row-major with one distribution per *row*: the per-lane
        # partitions then run over contiguous memory.  (Partitioning the
        # (n, B) matrix along axis 0 walks lanes with stride 8B bytes —
        # measured 6x slower than the scalar loop at B = 64 on a 50k-vertex
        # graph.)  The transpose changes layout only, never the per-lane
        # value sequence, so results are unaffected; the float32 fast path
        # casts here, in the same pass.
        rows = np.ascontiguousarray(matrix.T, dtype=self._dtype)
        results: list[LargestMixingSet | None] = [None] * width

        # Lanes are processed in cache-sized blocks, each scanning the
        # schedule before the next block starts: the block's rows stay hot
        # across all sizes, while targets and the elementwise/partition
        # passes amortize over the block.  One (lanes, n) array per
        # _SEARCH_BLOCK_BYTES.
        block_width = max(
            1, min(width, _SEARCH_BLOCK_BYTES // max(1, num_vertices * rows.itemsize))
        )

        def scan_lanes(lane_start: int, lane_stop: int) -> None:
            # Worker task: scan a contiguous lane range in cache-sized
            # blocks.  Every lane's result depends only on its own row, so
            # neither the block boundaries nor the worker partition change a
            # single output value, and each lane index is written by exactly
            # one worker (disjoint slices — no locking needed).
            for start in range(lane_start, lane_stop, block_width):
                self._scan_lanes(
                    rows, walk_length, results, start, min(start + block_width, lane_stop)
                )

        parallel_map_blocks(scan_lanes, width, self._workers)
        return cast(list[LargestMixingSet], results)
