"""DBF-based partitioned MC scheduling (extension; cf. Gu et al., DATE'14).

The paper positions CA-TPA against the partitioning scheme "that
exploits the DBF-based schedulability test (with a much higher
complexity)".  This module provides that comparator for dual-criticality
systems: first-fit over decreasing maximum utilization, but each
(core, task) probe runs the Ekberg-Yi demand-bound analysis with
per-task virtual-deadline tuning (:mod:`repro.analysis.dbf`) instead of
the utilization-based Theorem 1.

For ``K != 2`` the DBF analysis does not apply and the scheme falls back
to the standard Theorem-1 feasibility row, making it usable inside
generic sweeps; at ``K = 2`` it makes no kernel request.
"""

from __future__ import annotations

from repro.analysis.dbf import tune_virtual_deadlines
from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.partition import ordering
from repro.partition.base import FEASIBLE, Attempt, Partitioner, first_hit

__all__ = ["DBFFirstFit"]


class DBFFirstFit(Partitioner):
    """First-fit decreasing with the DBF feasibility test per core."""

    name = "dbf-ffd"

    def __init__(self, max_iterations: int = 200):
        self.max_iterations = max_iterations

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        return ordering.by_max_utilization(taskset)

    def request(self, attempt: Attempt):
        if attempt.levels != 2:
            return FEASIBLE, range(attempt.cores)
        return None, None

    def pick(self, attempt: Attempt) -> int | None:
        if attempt.row is not None:
            return first_hit(attempt.row, attempt.prefer)
        partition = attempt.partition
        for m in range(partition.cores):
            candidate = partition.tasks_on(m) + [attempt.task]
            subset = partition.taskset.subset(candidate)
            if tune_virtual_deadlines(subset, self.max_iterations) is not None:
                return m
        return None

    def core_plans(self, partition: Partition):
        """Per-core :class:`DualPerTaskPlan` for a finished partition
        (``None`` entries for empty cores).  Only valid for ``K = 2``."""
        plans = []
        for m in range(partition.cores):
            idx = partition.tasks_on(m)
            if not idx:
                plans.append(None)
                continue
            subset = partition.taskset.subset(idx)
            plans.append(tune_virtual_deadlines(subset, self.max_iterations))
        return plans
