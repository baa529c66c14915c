"""Correctness and hygiene checks the benchmark applies to every run.

* :class:`ExactnessGate` compares every answer with a one-shot
  ``detect(graph, "batched", seeds=(s,))`` reference, computed lazily and
  outside every timed window.  A mismatch or an error is counted, never
  raised, so one bad answer cannot crash a run.
* :class:`Hygiene` checks that a workload leaves no shared-memory segment
  and no child process behind.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

SHM_DIR = Path("/dev/shm")


@dataclass(frozen=True)
class Answer:
    """The parts of a detected community that must equal the reference.

    The member set is kept as a digest of its sorted ids: holding thousands
    of communities as Python sets would make the benchmark's own memory
    show up in the program's peak RSS.
    """

    seed: int
    members: str
    size: int
    walk_length: int
    stop_reason: str
    delta: float
    graph: int = 0  # which of the workload's graphs it was detected on

    @property
    def key(self) -> tuple[int, int]:
        return self.graph, self.seed

    @classmethod
    def of(cls, result: Any, graph: int = 0) -> "Answer":
        ids = np.fromiter(result.community, dtype=np.int64, count=len(result.community))
        ids.sort()
        return cls(
            seed=int(result.seed),
            members=hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest(),
            size=int(ids.size),
            walk_length=int(result.walk_length),
            stop_reason=str(result.stop_reason),
            delta=float(result.delta),
            graph=graph,
        )


class ExactnessGate:
    """Counts operations and the answers that match their reference.

    ``reference(graph, seed)`` returns the one-shot answer for a seed vertex
    of one of the workload's graphs and its F-score against that graph's
    planted partition; each is computed once.  A matching answer has the
    same members, so it shares the reference's F-score.
    """

    def __init__(self, reference: Callable[[int, int], tuple[Answer, float]]) -> None:
        self._reference = reference
        self._references: dict[tuple[int, int], tuple[Answer, float]] = {}
        self.f_scores: dict[tuple[int, int], float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def reference(self, key: tuple[int, int]) -> tuple[Answer, float]:
        if key not in self._references:
            self._references[key] = self._reference(*key)
        return self._references[key]

    def check(self, answers: list[Answer] | None, error: BaseException | None = None) -> bool:
        """Record one operation; ``error`` is what it raised, if anything."""
        self.attempted += 1
        ok = error is None and answers is not None
        if error is not None:
            self._problem(f"operation raised {type(error).__name__}: {error}")
        for answer in answers or ():
            try:
                expected, f_score = self.reference(answer.key)
            except Exception as failure:  # the reference itself failed
                self._problem(f"reference for seed {answer.seed} raised {failure!r}")
                ok = False
                continue
            if answer != expected:
                self._problem(_describe_mismatch(answer, expected))
                ok = False
            else:
                self.f_scores[answer.key] = f_score
        if not ok:
            self.failed += 1
        return ok

    def mean_f_score(self, keys: list[tuple[int, int]]) -> float:
        """Mean F-score over ``keys`` in the given order (exactly repeatable)."""
        scores = [self.f_scores[k] for k in keys if k in self.f_scores]
        return sum(scores) / len(scores) if scores else 0.0

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _describe_mismatch(answer: Answer, expected: Answer) -> str:
    fields = [
        name for name in ("members", "walk_length", "stop_reason", "delta")
        if getattr(answer, name) != getattr(expected, name)
    ]
    return f"seed {answer.seed}: answer differs from its reference in {', '.join(fields)}"


# ----------------------------------------------------------------------
# Resource hygiene
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _resource_tracker_pid() -> int | None:
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """Stop the interpreter's shared-memory tracker process and wait for it.

    The tracker is started on the first shared-memory segment and would
    otherwise outlive the run by a few milliseconds.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def child_processes() -> list[int]:
    """Live (non-zombie) child processes of this process, from ``/proc``.

    The interpreter's shared-memory tracker is not counted: it lives as long
    as the process by design and is stopped at the end of the run.
    """
    me = os.getpid()
    tracker = _resource_tracker_pid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state != "Z" and int(entry.name) != tracker:
            children.append(int(entry.name))
    return children


class Hygiene:
    """Snapshot before a workload; :meth:`leaks` lists what it left behind."""

    def __init__(self) -> None:
        self._segments = shm_segments()

    def leaks(self) -> list[str]:
        found = [f"shared-memory segment /dev/shm/{name} survived"
                 for name in sorted(shm_segments() - self._segments)]
        found += [f"child process {pid} survived" for pid in child_processes()]
        return found
