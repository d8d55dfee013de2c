"""Partitioner interface, the placement step contract, and the lockstep driver.

Every heuristic is a :class:`Partitioner`: it orders the tasks, then
places one per *step* as a step machine over an :class:`Attempt`,
stating a probe request (:meth:`~Partitioner.request`) and picking its
core from the answer row (:meth:`~Partitioner.pick`).
:func:`partition_lockstep` advances many attempts together, one backend
call (one stacked kernel call under batch) per request kind per step;
:meth:`Partitioner.partition` is that driver over one attempt.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS, record_span, scheme_tag
from repro.partition.backend import BATCH, FEASIBLE, ProbeBackend
from repro.types import PartitionError

__all__ = [
    "FEASIBLE",
    "Attempt",
    "Partitioner",
    "PartitionResult",
    "advance",
    "first_hit",
    "partition_lockstep",
]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one partitioning attempt.

    Attributes
    ----------
    scheme:
        Registry name of the heuristic that produced this result.
    schedulable:
        True iff every task was placed on a core that passes the
        EDF-VD schedulability test.
    partition:
        The (possibly partial, when ``schedulable`` is False) partition.
    order:
        Task indices in the order the heuristic processed them.
    failed_task:
        Index of the first unplaceable task, or ``None`` on success.
    """

    scheme: str
    schedulable: bool
    partition: Partition
    order: tuple[int, ...]
    failed_task: int | None = None
    _core_utils: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def assignment(self) -> np.ndarray:
        """Task -> core index vector (-1 for unassigned)."""
        return self.partition.assignment

    def core_utilizations(self) -> np.ndarray:
        """Per-core EDF-VD core utilizations ``U^{Psi_m}`` (Eq. (9)).

        Empty cores have utilization 0.  May contain ``inf`` for a
        partial/failed partition whose last probed state was infeasible
        (never for a ``schedulable`` result).
        """
        if self._core_utils is not None:
            return self._core_utils.copy()
        return self.partition.core_utilizations()


class Attempt:
    """One partitioning attempt: the state a scheme's step machine runs on.

    ``task`` is this step's task, ``kind``/``prefer`` its request, and
    ``row`` the answer: ``M`` bools for :data:`FEASIBLE`, Eq.-(15) floats
    (``inf`` = infeasible) for a rule; a lazy backend leaves entries past
    the first hit of ``prefer`` infeasible.
    ``loads`` is the per-core figure the scheme carries between steps.
    """

    __slots__ = ("scheme", "partition", "order", "cores", "levels", "placed",
                 "task", "kind", "prefer", "row", "loads", "result",
                 "start", "seconds", "probe_seconds", "probes")

    def __init__(self, scheme: "Partitioner", taskset: MCTaskSet, cores: int):
        self.scheme = scheme
        self.partition = Partition(taskset, cores)
        self.order = scheme.order_tasks(taskset)
        if sorted(self.order) != list(range(len(taskset))):
            raise PartitionError(
                f"{scheme.name}: order_tasks must return a permutation of all tasks"
            )
        self.cores, self.levels = self.partition.cores, taskset.levels
        self.placed = 0
        self.loads = np.zeros(self.cores, dtype=np.float64)
        self.result: PartitionResult | None = None
        # Instrumentation: own step time, and the share of stacked probe time.
        self.start, self.seconds = time.time(), 0.0
        self.probe_seconds, self.probes = 0.0, 0
        self._request()

    def _request(self) -> None:
        self.task = self.order[self.placed]
        self.kind, self.prefer = self.scheme.request(self)
        self.row = None

    def _step(self) -> bool:
        """Pick and place this step's task, then state the next request;
        ``False`` once the attempt has its :attr:`result`."""
        target = self.scheme.pick(self)
        placed = target is not None
        if placed:
            self.partition.assign(self.task, target)
            self.placed += 1
            if self.placed < len(self.order):
                self._request()
                return True
        self.result = PartitionResult(
            scheme=self.scheme.name,
            schedulable=placed,
            partition=self.partition,
            order=tuple(self.order),
            failed_task=None if placed else self.task,
            _core_utils=self.scheme._final_core_utils(self) if placed else None,
        )
        return False

    def _record(self) -> None:
        """Outcome counters, and a scheme-tagged ``partition.attempt``
        record (attempts interleave) with a synthetic ``probe`` child."""
        name, result = self.scheme.name, self.result
        if result is not None:
            reg = OBS.registry
            reg.counter(f"partition.attempts[{name}]").inc()
            reg.counter(f"partition.tasks_placed[{name}]").inc(self.placed)
            if not result.schedulable:
                reg.counter(f"partition.failures[{name}]").inc()
        with scheme_tag(name):
            span_id = record_span(
                "partition.attempt",
                start=self.start,
                seconds=self.seconds + self.probe_seconds,
                error=result is None,
            )
            if self.probes:
                record_span("probe", start=self.start, seconds=self.probe_seconds,
                            parent_id=span_id, calls=self.probes, synthetic=True)


def first_hit(row: list, prefer: Iterable[int], hit=bool) -> int | None:
    """The first core of ``prefer`` whose answer admits the task:
    ``True`` in a feasibility row, finite (``hit=math.isfinite``) in an
    Eq.-(15) row."""
    for m in prefer:
        if hit(row[m]):
            return int(m)
    return None


class Partitioner(abc.ABC):
    """Base class for task-to-core partitioning heuristics."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        """The order in which tasks are offered to cores."""

    @abc.abstractmethod
    def request(self, attempt: Attempt) -> tuple[str, Sequence[int] | None]:
        """This step's probe request for ``attempt.task``: ``(kind, prefer)``.

        ``kind`` is :data:`FEASIBLE` or an Eq.-(9) rule (the Eq.-(15)
        row); ``prefer`` is the core order of a first-hit pick, else
        ``None``.
        """

    @abc.abstractmethod
    def pick(self, attempt: Attempt) -> int | None:
        """The core for ``attempt.task`` given ``attempt.row``, or
        ``None`` when no core fits; updates ``attempt.loads``."""

    def partition(self, taskset: MCTaskSet, cores: int) -> PartitionResult:
        """Run the heuristic over the whole task set (the lockstep driver
        over one attempt, on the batch backend); stops at the first
        unplaceable task, as Algorithm 1 does."""
        return partition_lockstep([(self, taskset, cores)])[0]

    def _final_core_utils(self, attempt: Attempt) -> np.ndarray | None:
        """Hook: heuristics that track Eq.-(9) core utilizations
        incrementally can hand them over to the result to avoid a
        recompute; default is ``None`` (recompute on demand)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def advance(attempts: list[Attempt], backend: ProbeBackend) -> list[Attempt]:
    """One placement step of every attempt; returns those still live.

    Requests are grouped by ``(kind, K)`` and each group is answered by
    one call to ``backend`` — under the batch backend one stacked kernel
    call, whose per-row independence gives every attempt the rows it
    would get alone, bit for bit.
    """
    clock = time.perf_counter if OBS.enabled else None
    groups: dict[tuple, list[Attempt]] = {}
    for a in attempts:
        groups.setdefault((a.kind, a.levels), []).append(a)
    for (kind, _), group in groups.items():
        if clock:
            t0 = clock()
        for a, row in zip(group, backend.answer(kind, group)):
            a.row = row
        if clock:
            share = (clock() - t0) / sum(a.cores for a in group)
            for a in group:
                a.probe_seconds += share * a.cores
                a.probes += 1
    live = []
    for a in attempts:
        if clock:
            t0 = clock()
        if a._step():
            live.append(a)
        if clock:
            a.seconds += clock() - t0
    return live


def partition_lockstep(
    jobs: Sequence[tuple[Partitioner, MCTaskSet, int]],
    backend: ProbeBackend = BATCH,
) -> list[PartitionResult]:
    """Partition every ``(scheme, taskset, cores)`` job in lockstep,
    every probe answered by ``backend``.

    Results come back in job order, each field for field what
    ``scheme.partition(taskset, cores)`` returns alone; attempts are
    built in job order, so a random task order draws from its generator
    as sequential calls would.  When instrumented, each attempt records
    its outcome counters and span at the end (``error`` if unfinished).
    """
    attempts = [Attempt(scheme, taskset, cores) for scheme, taskset, cores in jobs]
    live = attempts
    try:
        while live:
            live = advance(live, backend)
    finally:
        if OBS.enabled:
            for a in attempts:
                a._record()
    return [a.result for a in attempts]
