"""Task-to-core partitions.

A partition :math:`\\Gamma = \\{\\Psi_1, \\dots, \\Psi_M\\}` assigns every
task of a task set to exactly one of ``M`` identical cores.  The class
below is a thin, mutable builder used by the partitioning heuristics; it
maintains, incrementally, the per-core ``(K, K)`` level-utilization
matrices ``U_j^{\\Psi_m}(k)`` (Eq. (3)) so that probing a task onto a core
never rescans the core's task list, and caches the per-core Eq.-(9)
utilizations so that unchanged cores are never re-evaluated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.model.task import MCTask
from repro.model.taskset import MCTaskSet
from repro.types import PartitionError

__all__ = ["Partition"]


class Partition:
    """Mutable assignment of the tasks of ``taskset`` onto ``cores`` cores.

    The builder enforces single-assignment: a task index may be assigned
    at most once (heuristics never move tasks).

    Examples
    --------
    >>> from repro.model import MCTask, MCTaskSet
    >>> ts = MCTaskSet([MCTask((1.0,), 10.0), MCTask((2.0, 4.0), 10.0)])
    >>> part = Partition(ts, cores=2)
    >>> part.assign(0, 0); part.assign(1, 1)
    >>> part.core_of(1)
    1
    >>> part.is_complete
    True
    """

    __slots__ = (
        "_taskset",
        "_cores",
        "_assignment",
        "_level_mats",
        "_counts",
        "_util_cache",
        "_frozen",
    )

    def __init__(self, taskset: MCTaskSet, cores: int):
        if cores < 1:
            raise PartitionError(f"core count must be >= 1, got {cores}")
        self._taskset = taskset
        self._cores = int(cores)
        self._assignment = np.full(len(taskset), -1, dtype=np.int64)
        k = taskset.levels
        self._level_mats = np.zeros((self._cores, k, k), dtype=np.float64)
        # The base array stays read-only except inside assign(), so every
        # view handed out (and every alias of it) is genuinely immutable.
        self._level_mats.setflags(write=False)
        self._counts = np.zeros(self._cores, dtype=np.int64)
        # Cached Eq.-(9) core utilizations; nan = stale.
        self._util_cache = np.full(self._cores, np.nan, dtype=np.float64)
        self._frozen = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def taskset(self) -> MCTaskSet:
        return self._taskset

    @property
    def cores(self) -> int:
        return self._cores

    @property
    def is_frozen(self) -> bool:
        """True once :meth:`freeze` has made this partition immutable."""
        return self._frozen

    @property
    def is_complete(self) -> bool:
        """True when every task has been assigned to some core."""
        return bool((self._assignment >= 0).all())

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the task->core index vector (-1 for unassigned)."""
        return self._assignment.copy()

    def core_of(self, task_index: int) -> int:
        """Core index of ``task_index``, or -1 if unassigned."""
        return int(self._assignment[task_index])

    def tasks_on(self, core: int) -> list[int]:
        """Sorted task indices currently assigned to ``core``."""
        self._check_core(core)
        return np.flatnonzero(self._assignment == core).tolist()

    def core_size(self, core: int) -> int:
        self._check_core(core)
        return int(self._counts[core])

    @property
    def core_counts(self) -> np.ndarray:
        """Copy of the per-core assigned-task counts."""
        return self._counts.copy()

    def level_matrix(self, core: int) -> np.ndarray:
        """The core's ``(K, K)`` matrix ``L[j-1, k-1] = U_j^{Psi_m}(k)`` (Eq. 3).

        Returned as a read-only view of a read-only base array: mutating
        it (or any alias of it) raises.
        """
        self._check_core(core)
        return self._level_mats[core]

    def level_matrices(self) -> np.ndarray:
        """All per-core level matrices as one read-only ``(M, K, K)`` view.

        This is the zero-copy input for the batch probe engine
        (:mod:`repro.analysis.batch`).
        """
        return self._level_mats[:]

    def core_utilizations(self) -> np.ndarray:
        """Per-core Eq.-(9) utilizations ``U^{Psi_m}``: a ``(M,)`` copy.

        Eq. (9) aggregates with ``max``, the paper's rule (CA-TPA's
        ``eq9_rule`` ablation probes under ``min`` on its own).  Empty
        cores are 0; infeasible cores are ``inf``.  Results are cached
        and invalidated core-by-core on :meth:`assign`, so repeated
        metric evaluations only pay for the cores that actually changed.
        """
        cache = self._util_cache
        stale = np.flatnonzero(np.isnan(cache))
        if stale.size:
            empty = self._counts[stale] == 0
            cache[stale[empty]] = 0.0
            todo = stale[~empty]
            if todo.size:
                # Deferred import: repro.analysis pulls this module in.
                from repro.analysis.batch import batch_core_utilization

                cache[todo] = batch_core_utilization(self._level_mats[todo])
        return cache.copy()

    def core_utilization(self, core: int) -> float:
        """Cached Eq.-(9) utilization of one core (see :meth:`core_utilizations`)."""
        self._check_core(core)
        return float(self.core_utilizations()[core])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, task_index: int, core: int) -> None:
        """Assign ``task_index`` to ``core`` (exactly once per task)."""
        self._check_mutable()
        self._check_core(core)
        if not 0 <= task_index < len(self._taskset):
            raise PartitionError(f"task index {task_index} out of range")
        if self._assignment[task_index] >= 0:
            raise PartitionError(
                f"task {task_index} already assigned to core"
                f" {self._assignment[task_index]}"
            )
        self._assignment[task_index] = core
        crit = int(self._taskset.criticalities[task_index])
        # The base array is writable only inside this window.
        self._level_mats.setflags(write=True)
        try:
            self._level_mats[core, crit - 1, :crit] += (
                self._taskset.utilization_matrix[task_index, :crit]
            )
        finally:
            self._level_mats.setflags(write=False)
        self._counts[core] += 1
        self._util_cache[core] = np.nan

    def unassign(self, task_index: int) -> int:
        """Remove ``task_index`` from its core; returns that core.

        The core's level matrix is *recomputed* from its remaining tasks
        rather than decremented, so repeated assign/unassign cycles (the
        event runtime's arrivals and departures) never accumulate
        floating-point drift.
        """
        self._check_mutable()
        if not 0 <= task_index < len(self._taskset):
            raise PartitionError(f"task index {task_index} out of range")
        core = int(self._assignment[task_index])
        if core < 0:
            raise PartitionError(f"task {task_index} is not assigned")
        self._assignment[task_index] = -1
        self._counts[core] -= 1
        remaining = np.flatnonzero(self._assignment == core)
        taskset = self._taskset
        fresh = np.zeros_like(self._level_mats[core])
        if remaining.size:
            # One np.add.at accumulates every remaining task's full
            # utilization row into its criticality row (rows are zero
            # above l_i, so the full-row add is exact).
            np.add.at(
                fresh,
                taskset.criticalities[remaining] - 1,
                taskset.utilization_matrix[remaining],
            )
        self._level_mats.setflags(write=True)
        try:
            self._level_mats[core] = fresh
        finally:
            self._level_mats.setflags(write=False)
        self._util_cache[core] = np.nan
        return core

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Make this partition immutable, in place.

        :meth:`assign`/:meth:`unassign` raise from now on, so the
        admission daemon publishes a committed partition to lock-free
        readers as it is; the next commit grows a new one
        (:meth:`extended` copies every array it carries over).  The
        utilization cache stays writable: filling it lazily is not a
        logical mutation.
        """
        self._frozen = True
        self._assignment.setflags(write=False)
        self._counts.setflags(write=False)

    def extended(self, tasks: MCTaskSet | Iterable[MCTask]) -> "Partition":
        """A new mutable partition with ``tasks`` appended, warm-started.

        The task set grows by :meth:`MCTaskSet.appended` (same ``K``; a
        task above it raises :class:`~repro.types.ModelError`), and the
        new tasks start unassigned.  The per-core level matrices and
        counts carry over verbatim — no O(N) reassignment loop — which
        is how the admission daemon commits new tasks into a live system
        without replaying history.
        """
        n = len(self._taskset)
        part = Partition(self._taskset.appended(tasks), self._cores)
        part._assignment[:n] = self._assignment
        part._level_mats.setflags(write=True)
        try:
            part._level_mats[:] = self._level_mats
        finally:
            part._level_mats.setflags(write=False)
        part._counts[:] = self._counts
        return part

    # ------------------------------------------------------------------
    def core_subsets(self) -> list[list[int]]:
        """Per-core lists of assigned task indices (``Gamma`` as index lists)."""
        return [self.tasks_on(m) for m in range(self._cores)]

    def core_tasksets(self) -> list[MCTaskSet | None]:
        """Per-core :class:`MCTaskSet` objects (``None`` for empty cores)."""
        out: list[MCTaskSet | None] = []
        for m in range(self._cores):
            idx = self.tasks_on(m)
            out.append(self._taskset.subset(idx) if idx else None)
        return out

    @classmethod
    def _from_state(cls, taskset, assignment, level_mats, counts) -> "Partition":
        """A partition owning finished state (one lockstep attempt's slice):
        the level matrices stay as summed, in placement order."""
        part = cls(taskset, len(counts))
        level_mats.setflags(write=False)
        part._assignment, part._level_mats = assignment, level_mats
        part._counts = counts
        return part

    @classmethod
    def from_assignment(
        cls, taskset: MCTaskSet, cores: int, assignment: Sequence[int] | Iterable[int]
    ) -> "Partition":
        """Build a partition from an explicit task->core vector."""
        part = cls(taskset, cores)
        for i, core in enumerate(assignment):
            if core >= 0:
                part.assign(i, int(core))
        return part

    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise PartitionError("frozen partition is immutable")

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self._cores:
            raise PartitionError(
                f"core index {core} out of range [0, {self._cores})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        done = int((self._assignment >= 0).sum())
        return f"Partition(M={self._cores}, assigned={done}/{len(self._taskset)})"
