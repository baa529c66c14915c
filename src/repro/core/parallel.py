"""Parallel (multi-seed) CDRW — the extension sketched in the paper's conclusion.

The paper notes that "our algorithm can also be extended to find communities
even faster (by finding communities in parallel), assuming we know an
(estimate) of r".  This module implements that extension:

1. draw ``r`` seed vertices (optionally spread out so that no two seeds are
   within a small hop distance of each other, which makes it likely that the
   seeds land in distinct blocks),
2. run the ``r`` detections simultaneously on one shared batched walk
   (:func:`repro.core.batched.detect_community_batch`): one sparse
   matrix–matrix product and one batched mixing-set search per walk step
   instead of ``r`` independent scalar runs — an ``r``-fold reduction of
   redundant walk work that mirrors the distributed round-complexity saving,
   while each per-seed result stays identical to the scalar
   :func:`~repro.core.cdrw.detect_community`,
3. resolve conflicts: when two detected communities overlap heavily they were
   seeded in the same block, so the duplicates are merged (the earlier seed
   survives); every vertex still claimed by multiple *surviving* communities
   is then assigned to the one whose seed's final walk distribution gives it
   the highest probability (ties favour the earlier survivor; a surviving
   community always keeps its own seed).  The final distributions are already
   available from the shared batch, so resolution costs no extra walk steps,
   and the returned communities are pairwise disjoint.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..graphs.traversal import bfs_tree
from ..utils import as_rng
from .parameters import CDRWParameters
from .result import CommunityResult, DetectionResult

__all__ = ["select_spread_seeds", "detect_communities_parallel"]


def select_spread_seeds(
    graph: Graph,
    count: int,
    min_distance: int = 2,
    seed: int | np.random.Generator | None = None,
    max_attempts: int | None = None,
) -> list[int]:
    """Pick ``count`` seed vertices pairwise at hop distance ≥ ``min_distance``.

    Seeds are drawn uniformly from the vertices that still satisfy the
    spacing constraint (every draw is productive — no rejection sampling
    burning attempts on already-blocked vertices), each draw blocking the
    BFS ball around its pick, until ``count`` seeds are chosen or no valid
    vertex remains; only then is the constraint relaxed to arbitrary
    unchosen vertices.  Spacing violations therefore happen only when no
    valid spread seed remains.  ``max_attempts`` is kept for backward
    compatibility but no longer affects the outcome: every draw is
    productive, so capping the draw phase merely handed the identical
    remaining draws to what used to be the fallback loop.

    At ``min_distance=0`` no draw blocks any other vertex, so the whole
    selection collapses to a single uniform draw without replacement —
    one ``rng.choice`` call instead of ``count`` full rescans of the
    availability mask (the former path was O(count·n)).  The RNG draw
    sequence of this case differs from the old one-at-a-time loop; the
    pinned expectations in ``tests/test_parallel_detection.py`` were
    refreshed with it deliberately.
    """
    if count < 1:
        raise AlgorithmError(f"seed count must be >= 1, got {count}")
    if count > graph.num_vertices:
        raise AlgorithmError(
            f"cannot pick {count} distinct seeds from {graph.num_vertices} vertices"
        )
    rng = as_rng(seed)
    if min_distance <= 0:
        picks = rng.choice(graph.num_vertices, size=count, replace=False)
        return [int(v) for v in picks]

    chosen: list[int] = []
    available = np.ones(graph.num_vertices, dtype=bool)
    while len(chosen) < count:
        candidates = np.flatnonzero(available)
        if candidates.size == 0:
            break
        candidate = int(rng.choice(candidates))
        chosen.append(candidate)
        # The depth-(min_distance-1) ball includes the candidate itself
        # (depth 0), so this blocks the pick and its too-close neighbours.
        nearby = bfs_tree(graph, candidate, max_depth=min_distance - 1)
        available[nearby.reached()] = False
    if len(chosen) < count:
        # Only now relax the constraint: no valid spread seed remains.
        chosen_set = set(chosen)
        remaining = [v for v in range(graph.num_vertices) if v not in chosen_set]
        extra = rng.choice(remaining, size=count - len(chosen), replace=False)
        chosen.extend(int(v) for v in extra)
    return chosen


def detect_communities_parallel(
    graph: Graph,
    num_communities: int,
    parameters: CDRWParameters | None = None,
    delta_hint: float | None = None,
    seed: int | np.random.Generator | None = None,
    overlap_merge_threshold: float = 0.5,
    seed_min_distance: int = 2,
    workers: int | None = None,
) -> DetectionResult:
    """Detect ``num_communities`` communities from simultaneously started seeds.

    All seeds share one batched walk (one SpMM + one batched mixing-set
    search per step), so the wall-clock cost is close to a single detection
    rather than ``r`` sequential ones; each raw per-seed result is identical
    to what :func:`~repro.core.cdrw.detect_community` returns for that seed.
    After duplicate-merge, overlaps between surviving communities are
    resolved with the final walk distributions (see the module docstring,
    step 3), so the returned communities are pairwise disjoint.

    Parameters
    ----------
    num_communities:
        The (estimate of the) number of blocks ``r``.
    overlap_merge_threshold:
        Two detected communities whose Jaccard overlap exceeds this value are
        considered duplicates of the same block and merged (the one detected
        from the earlier seed survives).
    seed_min_distance:
        Minimum pairwise hop distance between seeds (see
        :func:`select_spread_seeds`).
    workers:
        Thread count for the shared batched kernels (see
        :func:`~repro.core.batched.detect_community_batch`); the detected
        communities are identical for every value.
    """
    from ..api import RunConfig, detect

    report = detect(
        graph,
        backend="parallel",
        params=parameters,
        delta_hint=delta_hint,
        config=RunConfig(
            seed=seed,
            num_communities=num_communities,
            overlap_merge_threshold=overlap_merge_threshold,
            seed_min_distance=seed_min_distance,
            workers=workers,
        ),
    )
    return report.detection


def _merge_and_resolve(
    raw_results: list[CommunityResult],
    distributions: np.ndarray,
    overlap_merge_threshold: float,
) -> list[CommunityResult]:
    """Steps 2-3 of the parallel driver: duplicate merge, then overlap resolution.

    The driver (:mod:`repro.session`) hands the raw per-seed batch results
    of either execution tier (identical by the batch guarantee) to this one
    function.
    """
    # Step 2 aftermath: drop duplicates of already-kept blocks (earlier seed
    # survives), remembering each survivor's index into the batch.
    survivors: list[int] = []
    for index, result in enumerate(raw_results):
        duplicate = any(
            _jaccard(result.community, raw_results[kept].community)
            >= overlap_merge_threshold
            for kept in survivors
        )
        if not duplicate:
            survivors.append(index)

    return _resolve_overlaps(raw_results, survivors, distributions)


def _resolve_overlaps(
    raw_results: list[CommunityResult],
    survivors: list[int],
    distributions: np.ndarray,
) -> list[CommunityResult]:
    """Assign every multiply-claimed vertex to exactly one surviving community.

    A vertex claimed by several survivors goes to the community whose seed's
    final walk distribution gives it the highest probability; ties go to the
    earlier survivor (detection order).  A survivor always keeps its own seed
    vertex regardless of probabilities — the detected community must contain
    its seed by definition.  The result is pairwise disjoint.
    """
    claimants: dict[int, list[int]] = {}
    for position, index in enumerate(survivors):
        for vertex in raw_results[index].community:
            claimants.setdefault(vertex, []).append(position)
    own_seed = {raw_results[index].seed: position for position, index in enumerate(survivors)}

    members = [set(raw_results[index].community) for index in survivors]
    for vertex, positions in claimants.items():
        if len(positions) < 2:
            continue
        if own_seed.get(vertex) in positions:
            winner = own_seed[vertex]
        else:
            winner = max(
                positions,
                key=lambda position: (
                    distributions[vertex, survivors[position]],
                    -position,
                ),
            )
        for position in positions:
            if position != winner:
                members[position].discard(vertex)

    resolved: list[CommunityResult] = []
    for position, index in enumerate(survivors):
        original = raw_results[index]
        community = frozenset(members[position])
        if community == original.community:
            resolved.append(original)
        else:
            resolved.append(replace(original, community=community))
    return resolved


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union
