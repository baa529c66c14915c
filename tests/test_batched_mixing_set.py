"""Exact-equivalence suite: BatchedMixingSetSearch vs the scalar MixingSetSearch.

The batched search must produce **byte-identical** ``LargestMixingSet``
results for every column — same members (including tie-breaks), same deficit
and mass floats, same ``sizes_examined`` — for every schedule and flag
combination.  Dataclass equality covers all of that at once.

Both searches are also held to a test-local copy of the plain ascending
loop over ``mixing_deficit_for_size``, including on columns whose deficit
sits within a few ulps of the threshold, and a work guard bounds how often
the screened scan falls through to the exact index path.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest

from repro.api import detect
from repro.core import (
    BatchedMixingSetSearch,
    CDRWParameters,
    LargestMixingSet,
    MixingSetSearch,
    mixing_deficit_for_size,
)
from repro.exceptions import AlgorithmError
from repro.graphs import Graph, planted_partition_graph
from repro.randomwalk import BatchedWalkDistribution
from repro.utils import GROWTH_FACTOR, MIXING_THRESHOLD, geometric_sizes, linear_sizes


def random_distribution_matrix(num_vertices: int, width: int, seed: int) -> np.ndarray:
    """Random column-stochastic matrix (each column a probability vector)."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((num_vertices, width))
    return matrix / matrix.sum(axis=0, keepdims=True)


def tie_heavy_distribution_matrix(num_vertices: int, width: int, seed: int) -> np.ndarray:
    """Columns quantized to very few distinct values: maximally tied deviations."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 3, size=(num_vertices, width)).astype(np.float64)
    sums = matrix.sum(axis=0, keepdims=True)
    sums[sums == 0.0] = 1.0
    return matrix / sums


@pytest.fixture(scope="module")
def cycle_graph() -> Graph:
    """A 24-cycle: every vertex has degree 2, so deviation ties are pervasive."""
    n = 24
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def assert_columns_equivalent(graph: Graph, matrix: np.ndarray, **search_kwargs) -> None:
    """Every batched column result must equal the scalar result exactly."""
    scalar = MixingSetSearch(graph, **search_kwargs)
    batched = BatchedMixingSetSearch(graph, **search_kwargs)
    walk_length = 3
    batch_results = batched.largest_mixing_sets(matrix, walk_length)
    assert len(batch_results) == matrix.shape[1]
    for j in range(matrix.shape[1]):
        column = np.ascontiguousarray(matrix[:, j])
        assert batch_results[j] == scalar.largest_mixing_set(column, walk_length)


class TestEquivalenceRandomDistributions:
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_random_columns_on_ppm(self, small_ppm, width):
        n = small_ppm.graph.num_vertices
        matrix = random_distribution_matrix(n, width, seed=width)
        assert_columns_equivalent(small_ppm.graph, matrix, initial_size=5)

    @pytest.mark.parametrize("width", [1, 4])
    def test_random_columns_on_two_cliques(self, two_cliques_graph, width):
        matrix = random_distribution_matrix(10, width, seed=10 + width)
        assert_columns_equivalent(two_cliques_graph, matrix, initial_size=2)

    def test_linear_schedule(self, two_cliques_graph):
        matrix = random_distribution_matrix(10, 3, seed=1)
        assert_columns_equivalent(
            two_cliques_graph, matrix, initial_size=2, schedule="linear"
        )

    def test_stop_at_first_failure(self, small_ppm):
        n = small_ppm.graph.num_vertices
        matrix = random_distribution_matrix(n, 5, seed=2)
        assert_columns_equivalent(
            small_ppm.graph, matrix, initial_size=5, stop_at_first_failure=True
        )

    @pytest.mark.parametrize("min_mass", [0.0, 0.5, 1.0])
    def test_min_mass_variants(self, small_ppm, min_mass):
        n = small_ppm.graph.num_vertices
        matrix = random_distribution_matrix(n, 3, seed=3)
        assert_columns_equivalent(
            small_ppm.graph, matrix, initial_size=5, min_mass=min_mass
        )


class TestEquivalenceTieHeavyDistributions:
    @pytest.mark.parametrize("width", [1, 6])
    def test_quantized_columns_on_cycle(self, cycle_graph, width):
        matrix = tie_heavy_distribution_matrix(24, width, seed=width)
        assert_columns_equivalent(cycle_graph, matrix, initial_size=2)

    def test_uniform_columns_maximal_ties(self, cycle_graph):
        # All deviations identical within a column: the argpartition tie-break
        # is fully exercised.
        matrix = np.full((24, 4), 1.0 / 24)
        assert_columns_equivalent(cycle_graph, matrix, initial_size=2)
        assert_columns_equivalent(
            cycle_graph, matrix, initial_size=2, schedule="linear"
        )

    def test_quantized_columns_with_first_failure(self, cycle_graph):
        matrix = tie_heavy_distribution_matrix(24, 5, seed=9)
        assert_columns_equivalent(
            cycle_graph, matrix, initial_size=2, stop_at_first_failure=True
        )


class TestEquivalenceWalkDistributions:
    def test_batched_walk_columns_across_steps(self, small_ppm):
        graph = small_ppm.graph
        seeds = [0, 17, 100, 17, 250]
        walk = BatchedWalkDistribution(graph, seeds)
        scalar = MixingSetSearch(graph, initial_size=5)
        batched = BatchedMixingSetSearch(graph, initial_size=5)
        for length in range(1, 6):
            walk.step()
            batch_results = batched.largest_mixing_sets(walk.probabilities(), length)
            for column in range(len(seeds)):
                expected = scalar.largest_mixing_set(walk.column(column), length)
                assert batch_results[column] == expected

    def test_from_parameters_matches_explicit_construction(self, small_ppm):
        graph = small_ppm.graph
        parameters = CDRWParameters(initial_size=4, min_mass=0.2, size_schedule="linear")
        from_params = BatchedMixingSetSearch.from_parameters(graph, parameters, 4)
        explicit = BatchedMixingSetSearch(
            graph,
            initial_size=4,
            mixing_threshold=parameters.mixing_threshold,
            growth_factor=parameters.growth_factor,
            schedule="linear",
            min_mass=0.2,
        )
        assert from_params.candidate_sizes == explicit.candidate_sizes
        matrix = random_distribution_matrix(graph.num_vertices, 2, seed=5)
        assert from_params.largest_mixing_sets(matrix, 1) == explicit.largest_mixing_sets(
            matrix, 1
        )


class TestValidationAndEdgeCases:
    def test_zero_width_matrix(self, two_cliques_graph):
        batched = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        assert batched.largest_mixing_sets(np.zeros((10, 0)), 1) == []

    def test_wrong_shape_rejected(self, two_cliques_graph):
        batched = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        with pytest.raises(AlgorithmError):
            batched.largest_mixing_sets(np.zeros(10), 1)
        with pytest.raises(AlgorithmError):
            batched.largest_mixing_sets(np.zeros((7, 2)), 1)

    def test_edgeless_graph_rejected(self):
        batched = BatchedMixingSetSearch(Graph(3, []), initial_size=1)
        with pytest.raises(AlgorithmError):
            batched.largest_mixing_sets(np.full((3, 2), 1.0 / 3.0), 1)

    def test_inherits_scalar_interface(self, two_cliques_graph):
        # The batched search is a MixingSetSearch: the scalar entry point and
        # the schedule are shared, so drivers can use either interchangeably.
        batched = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        scalar = MixingSetSearch(two_cliques_graph, initial_size=2)
        assert batched.candidate_sizes == scalar.candidate_sizes
        matrix = random_distribution_matrix(10, 1, seed=0)
        column = np.ascontiguousarray(matrix[:, 0])
        assert batched.largest_mixing_set(column, 2) == scalar.largest_mixing_set(column, 2)


# ----------------------------------------------------------------------
# Exactness against an independent reference
# ----------------------------------------------------------------------
def reference_largest_mixing_set(
    graph: Graph,
    distribution: np.ndarray,
    walk_length: int,
    initial_size: int,
    schedule: str = "geometric",
    stop_at_first_failure: bool = False,
    min_mass: float | None = None,
) -> LargestMixingSet:
    """The plain ascending scan: one ``mixing_deficit_for_size`` call per size.

    A test-local copy of the search as Algorithm 1 states it, with no
    screen, no early exit in full-scan mode and no batching, so the
    searches under test are held to something they do not share code with.
    """
    if min_mass is None:
        min_mass = max(0.0, 1.0 - 2.0 * MIXING_THRESHOLD)
    initial = min(initial_size, graph.num_vertices)
    if schedule == "geometric":
        sizes = geometric_sizes(initial, graph.num_vertices, GROWTH_FACTOR)
    else:
        sizes = linear_sizes(initial, graph.num_vertices)
    best: tuple[int, frozenset[int], float, float] = (0, frozenset(), 0.0, 0.0)
    examined = 0
    for size in sizes:
        examined += 1
        deficit, mass, members = mixing_deficit_for_size(graph, distribution, size)
        if deficit < MIXING_THRESHOLD and mass >= min_mass:
            best = (size, frozenset(int(v) for v in members), deficit, mass)
        elif deficit >= MIXING_THRESHOLD and stop_at_first_failure:
            break
    size, members, deficit, mass = best
    return LargestMixingSet(walk_length, size, members, deficit, mass, examined)


def assert_matches_reference(
    graph: Graph, matrix: np.ndarray, walk_length: int = 3, **search_kwargs
) -> list[LargestMixingSet]:
    """Scalar and batched (workers 1 and 2) results must equal the reference."""
    expected = [
        reference_largest_mixing_set(
            graph, np.ascontiguousarray(matrix[:, j]), walk_length, **search_kwargs
        )
        for j in range(matrix.shape[1])
    ]
    scalar = MixingSetSearch(graph, **search_kwargs)
    for j in range(matrix.shape[1]):
        column = np.ascontiguousarray(matrix[:, j])
        assert scalar.largest_mixing_set(column, walk_length) == expected[j]
    for workers in (1, 2):
        batched = BatchedMixingSetSearch(graph, workers=workers, **search_kwargs)
        assert batched.largest_mixing_sets(matrix, walk_length) == expected
    return expected


WALK_SEEDS = list(range(0, 512, 32))


def walk_columns(graph: Graph, length: int) -> np.ndarray:
    """The 16 walk distributions of ``WALK_SEEDS`` after ``length`` steps."""
    walk = BatchedWalkDistribution(graph, WALK_SEEDS)
    walk.step(length)
    return np.array(walk.probabilities())


def exact_deficit(graph: Graph, column: np.ndarray, size: int) -> float:
    return mixing_deficit_for_size(graph, column, size)[0]


def value_sum_of_smallest(
    graph: Graph, column: np.ndarray, size: int, dtype: type = np.float64
) -> float:
    """The k smallest deviations summed in partition order (the screen's sum)."""
    values = column.astype(dtype)
    degrees = graph.degrees().astype(dtype)
    deviations = np.abs(values - degrees / (graph.volume / graph.num_vertices * size))
    return float(np.partition(deviations, size - 1)[:size].sum())


def straddle_threshold(
    deficit_of: Callable[[np.ndarray], float], column: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Scale ``column`` by adjacent floats ``t`` whose deficits straddle the threshold.

    Returns ``(below, above)`` with ``deficit_of(below) < threshold <=
    deficit_of(above)``, found by bisection on ``t`` between 1 (accepted)
    and 0 (rejected), or ``None`` when there is no such crossing.
    """
    accepted, rejected = 1.0, 0.0
    if deficit_of(accepted * column) >= MIXING_THRESHOLD:
        return None
    if deficit_of(rejected * column) < MIXING_THRESHOLD:
        return None
    while True:
        middle = (accepted + rejected) / 2.0
        if middle in (accepted, rejected):
            return accepted * column, rejected * column
        if deficit_of(middle * column) < MIXING_THRESHOLD:
            accepted = middle
        else:
            rejected = middle


class TestExactnessAgainstReference:
    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    @pytest.mark.parametrize("stop", [False, True])
    def test_random_columns(self, medium_ppm, width, schedule, stop):
        matrix = random_distribution_matrix(512, width, seed=width)
        assert_matches_reference(
            medium_ppm.graph, matrix, initial_size=6, schedule=schedule,
            stop_at_first_failure=stop,
        )

    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    @pytest.mark.parametrize("stop", [False, True])
    def test_tie_heavy_columns(self, cycle_graph, width, schedule, stop):
        matrix = tie_heavy_distribution_matrix(24, width, seed=20 + width)
        assert_matches_reference(
            cycle_graph, matrix, initial_size=2, schedule=schedule,
            stop_at_first_failure=stop,
        )

    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    @pytest.mark.parametrize("stop", [False, True])
    def test_ppm_walk_columns(self, medium_ppm, width, schedule, stop):
        found = 0
        for length in range(1, 9):
            matrix = np.ascontiguousarray(walk_columns(medium_ppm.graph, length)[:, :width])
            results = assert_matches_reference(
                medium_ppm.graph, matrix, walk_length=length, initial_size=6,
                schedule=schedule, stop_at_first_failure=stop,
            )
            found += sum(result.found for result in results)
        # The accept path, where the descending scan stops early, is covered.
        # (Read literally, the first size already fails on these walks.)
        assert found > 0 or stop

    @pytest.mark.parametrize("stop", [False, True])
    def test_deficit_within_ulps_of_the_threshold(self, medium_ppm, stop):
        graph = medium_ppm.graph
        search = MixingSetSearch(graph, initial_size=6, min_mass=0.0)
        columns: list[np.ndarray] = []
        screen_straddles = 0
        for length in (1, 3):
            walks = walk_columns(graph, length)
            for j in range(walks.shape[1]):
                base = np.ascontiguousarray(walks[:, j])
                size = search.largest_mixing_set(base, length).size
                if size == 0:
                    continue
                pair = straddle_threshold(lambda c: exact_deficit(graph, c, size), base)
                if pair is None:
                    continue
                below, above = pair
                spacing = np.spacing(MIXING_THRESHOLD)
                assert -8 * spacing <= exact_deficit(graph, below, size) - MIXING_THRESHOLD < 0
                assert 0 <= exact_deficit(graph, above, size) - MIXING_THRESHOLD <= 8 * spacing
                # The screen's summation order lands on the other side of the
                # threshold from the exact sum: only the guard band keeps the
                # screen from rejecting an accepted size here.
                if value_sum_of_smallest(graph, below, size) >= MIXING_THRESHOLD:
                    screen_straddles += 1
                columns.extend([below, above])
        assert screen_straddles > 0
        matrix = np.column_stack(columns)
        for width in (1, 3, 16):
            assert_matches_reference(
                graph, np.ascontiguousarray(matrix[:, :width]), initial_size=6,
                stop_at_first_failure=stop, min_mass=0.0,
            )
        assert_matches_reference(
            graph, matrix, initial_size=6, stop_at_first_failure=stop, min_mass=0.0
        )

    @pytest.mark.parametrize("stop", [False, True])
    def test_deficit_passes_but_mass_fails(self, medium_ppm, stop):
        graph = medium_ppm.graph
        matrix = walk_columns(graph, 3)
        search = MixingSetSearch(graph, initial_size=6)
        for j in range(4):
            column = np.ascontiguousarray(matrix[:, j])
            accepted = search.largest_mixing_set(column, 3)
            assert accepted.found
            # Just above the accepted set's mass: that size now passes on
            # the deficit and fails on the mass, so the scan must go on.
            min_mass = float(np.nextafter(accepted.mass, 2.0))
            results = assert_matches_reference(
                graph, np.ascontiguousarray(matrix[:, j : j + 3]), initial_size=6,
                stop_at_first_failure=stop, min_mass=min_mass,
            )
            assert results[0].size != accepted.size

    def test_float32_screen_keeps_float32_accepted_size(self, medium_ppm):
        graph = medium_ppm.graph
        sizes = MixingSetSearch(graph, initial_size=6).candidate_sizes

        def float32_deficit(column: np.ndarray, size: int) -> float:
            # The float32 exact path: cast, deviations, argpartition, sorted
            # contiguous gather-sum, all in single precision.
            deviations = np.abs(
                column.astype(np.float32)
                - graph.degrees().astype(np.float32)
                / (graph.volume / graph.num_vertices * size)
            )
            chosen = np.sort(np.argpartition(deviations, size - 1)[:size])
            return float(deviations[chosen].sum())

        fast = BatchedMixingSetSearch(graph, initial_size=6, min_mass=0.0, dtype=np.float32)
        walks = walk_columns(graph, 1)
        for j in range(walks.shape[1]):
            base = np.ascontiguousarray(walks[:, j])
            size = fast.largest_mixing_sets(np.column_stack([base, base]), 1)[0].size
            if size == 0:
                continue
            pair = straddle_threshold(lambda c: float32_deficit(c, size), base)
            if pair is None:
                continue
            below = pair[0]
            larger_sizes_fail = all(
                float32_deficit(below, other) >= MIXING_THRESHOLD
                for other in sizes
                if other > size
            )
            screened = value_sum_of_smallest(graph, below, size, dtype=np.float32)
            if larger_sizes_fail and screened >= MIXING_THRESHOLD:
                break
        else:
            pytest.fail("no float32 column straddles the threshold between screen and exact sum")
        result = fast.largest_mixing_sets(np.column_stack([below, base]), 1)[0]
        assert result.size == size
        assert result.deficit < MIXING_THRESHOLD


class TestExactPathWorkGuard:
    def test_at_most_two_exact_evaluations_per_lane_step(self, monkeypatch):
        # A deterministic stand-in for a timing guard: a screen that stopped
        # rejecting (a guard band too wide, a NaN-ish comparison) sends every
        # size of every lane to the exact path, ~100x this bound.
        n = 2048
        ppm = planted_partition_graph(n, 4, 2 * math.log(n) ** 2 / n, 0.6 / n, seed=3)
        counts = {"exact": 0, "lane_steps": 0}
        exact_sets = MixingSetSearch._exact_sets
        scan = BatchedMixingSetSearch.largest_mixing_sets

        def counting_exact_sets(self, deviations, lanes, rows, size):
            counts["exact"] += len(rows)
            return exact_sets(self, deviations, lanes, rows, size)

        def counting_scan(self, distributions, walk_length):
            counts["lane_steps"] += np.asarray(distributions).shape[1]
            return scan(self, distributions, walk_length)

        monkeypatch.setattr(MixingSetSearch, "_exact_sets", counting_exact_sets)
        monkeypatch.setattr(BatchedMixingSetSearch, "largest_mixing_sets", counting_scan)
        report = detect(
            ppm.graph, "batched", seed=1, batch_size=16, max_seeds=16,
            executor="thread", workers=1,
        )
        assert len(report.detection.communities) == 16
        assert counts["lane_steps"] > 0
        assert counts["exact"] <= 2 * counts["lane_steps"], counts
