"""Tests for the single execution path of the ``batched`` and ``parallel`` backends.

The contract under test (see ``src/repro/session.py``): a one-shot
``detect()`` runs on a private :class:`~repro.session.DetectionSession`
that it opens and closes itself, through the same driver a resident
session uses.  That buys per-call setup resolved once however many pool
rounds a call runs, and it must cost nothing on the failure paths: a
failing one-shot process-tier call leaves no shared-memory segment and no
worker process behind.
"""

from __future__ import annotations

import math
import os

import multiprocessing
import pytest

import repro.api as api
import repro.core.parameters as parameters
import repro.execution_process as execution_process
from repro.api import detect
from repro.core.batched import _detect_communities_batched_impl
from repro.core.mixing_set import BatchedMixingSetSearch
from repro.exceptions import AlgorithmError
from repro.graphs import planted_partition_graph, ppm_expected_conductance

SHM_DIR = "/dev/shm"

#: (seed, community size, walk length) of the two-round pool-mode run
#: below, pinned from the implementation that resolved δ and built the
#: search once per round: resolving them once per call moves no result.
PINNED_POOL_RUN = [
    (171, 70, 3),
    (206, 74, 3),
    (5, 70, 3),
    (207, 74, 4),
    (95, 70, 3),
    (98, 70, 3),
    (106, 70, 3),
    (83, 70, 3),
]


@pytest.fixture(scope="module")
def four_blocks():
    """A 256-vertex, 4-block PPM: 8 seeds at batch_size=4 take two pool rounds."""
    n = 256
    p = min(1.0, 6 * math.log(n) ** 2 / n)
    return planted_partition_graph(n, 4, p, 1.0 / n, seed=7)


@pytest.fixture(scope="module")
def ppm():
    n = 256
    p = 3 * math.log(n) ** 2 / n
    q = 1.0 / n
    instance = planted_partition_graph(n, 2, p, q, seed=7)
    return instance, ppm_expected_conductance(n, 2, p, q)


def _shm_segments() -> set[str]:
    return set(os.listdir(SHM_DIR))


def _count_setup(monkeypatch) -> dict[str, int]:
    """Count spectral δ estimates and batched-search constructions."""
    counts = {"delta": 0, "search": 0}
    estimate = parameters.graph_conductance_estimate
    build = BatchedMixingSetSearch.from_parameters.__func__

    def counting_estimate(*args, **kwargs):
        counts["delta"] += 1
        return estimate(*args, **kwargs)

    def counting_build(cls, *args, **kwargs):
        counts["search"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(parameters, "graph_conductance_estimate", counting_estimate)
    monkeypatch.setattr(
        BatchedMixingSetSearch, "from_parameters", classmethod(counting_build)
    )
    return counts


class TestSetupOncePerCall:
    def test_delta_and_search_resolved_once_across_pool_rounds(
        self, four_blocks, monkeypatch
    ):
        graph = four_blocks.graph
        reference = _detect_communities_batched_impl(
            graph, seed=5, batch_size=4, max_seeds=8
        )
        counts = _count_setup(monkeypatch)
        report = detect(
            graph, "batched", seed=5, batch_size=4, max_seeds=8, executor="thread"
        )
        # Two pool rounds, one δ estimate and one search between them.
        assert len(report.detection.communities) == 8
        assert counts == {"delta": 1, "search": 1}
        assert report.detection == reference
        assert [
            (c.seed, len(c.community), c.walk_length)
            for c in report.detection.communities
        ] == PINNED_POOL_RUN

    def test_one_shot_does_not_reenter_the_facade(self, ppm, monkeypatch):
        instance, delta = ppm
        calls = []
        facade = api.detect

        def counting_detect(*args, **kwargs):
            calls.append(args[1] if len(args) > 1 else kwargs.get("backend"))
            return facade(*args, **kwargs)

        monkeypatch.setattr(api, "detect", counting_detect)
        api.detect(instance.graph, "batched", seed=3, batch_size=2, max_seeds=4,
                   delta_hint=delta)
        api.detect(instance.graph, "parallel", seed=3, num_communities=2,
                   delta_hint=delta)
        assert calls == ["batched", "parallel"]

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_one_shot_report_carries_first_call_session_metadata(self, ppm, executor):
        instance, delta = ppm
        report = detect(
            instance.graph, "batched", seeds=(0, 130), executor=executor,
            workers=2, delta_hint=delta,
        )
        assert report.metadata["session_calls"] == 1
        assert report.metadata["session_broadcasts"] == (1 if executor == "process" else 0)
        reused = [key for key in report.metadata if key.endswith("_reused")]
        assert reused
        assert not any(report.metadata[key] for key in reused)


class TestPrivateSessionHygiene:
    @pytest.mark.skipif(
        not os.path.isdir(SHM_DIR)
        or execution_process._preferred_context().get_start_method() != "fork",
        reason="the injected kernel failure reaches the workers only through fork",
    )
    def test_failing_process_calls_leave_no_segment_or_worker(self, ppm, monkeypatch):
        instance, delta = ppm

        def broken_kernel(*args, **kwargs):
            raise AlgorithmError("kernel failure injected by the test")

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(execution_process, "_detect_community_batch_impl", broken_kernel)
        before = _shm_segments()
        with pytest.raises(AlgorithmError, match="injected"):
            detect(
                instance.graph, "batched", seeds=(0, 40, 130, 200),
                executor="process", workers=2, delta_hint=delta,
            )
        assert _shm_segments() - before == set()
        assert multiprocessing.active_children() == []

        # An out-of-range seed is rejected before anything is broadcast.
        broadcasts = []
        shared_graph = execution_process.SharedGraph

        def recording_shared_graph(graph):
            broadcasts.append(graph)
            return shared_graph(graph)

        monkeypatch.setattr(execution_process, "SharedGraph", recording_shared_graph)
        with pytest.raises(AlgorithmError, match="is not a vertex of"):
            detect(
                instance.graph, "batched",
                seeds=(0, instance.graph.num_vertices),
                executor="process", workers=2, delta_hint=delta,
            )
        assert broadcasts == []
        assert _shm_segments() - before == set()
