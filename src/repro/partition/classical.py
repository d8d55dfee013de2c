"""Classical bin-packing heuristics: FFD, BFD, WFD.

All three sort tasks by decreasing maximum utilization ``u_i(l_i)`` and
differ only in how they pick among the feasible cores:

* **FFD** — the first (lowest-index) feasible core;
* **BFD** — the feasible core with the *highest* current load (tightest
  fit);
* **WFD** — the feasible core with the *lowest* current load (most
  spare room).

"Load" is the Eq. (4) figure ``sum_k U_k^{Psi_m}(k)`` — the sum of the
assigned tasks' maximum utilizations — which is what these heuristics
classically pack on.  Feasibility of a (core, task) pair is the paper's
two-step check: Eq. (4) first, then Theorem 1
(:func:`repro.analysis.is_feasible_core`).
"""

from __future__ import annotations

import numpy as np

from repro.model.taskset import MCTaskSet
from repro.partition import ordering
from repro.partition.base import FEASIBLE, Attempt, Partitioner, first_hit

__all__ = ["FirstFitDecreasing", "BestFitDecreasing", "WorstFitDecreasing"]


class _ClassicalDecreasing(Partitioner):
    """Shared machinery for the load-tracking first-hit heuristics: each
    step requests the feasibility row in the scheme's core preference
    order (:meth:`request`) and takes the first feasible core."""

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        return ordering.by_max_utilization(taskset)

    def pick(self, attempt: Attempt) -> int | None:
        target = first_hit(attempt.row, attempt.prefer)
        if target is not None:
            task = attempt.partition.taskset[attempt.task]
            attempt.loads[target] += task.max_utilization
        return target


class FirstFitDecreasing(_ClassicalDecreasing):
    """FFD: lowest-index feasible core."""

    name = "ffd"

    def request(self, attempt: Attempt):
        return FEASIBLE, range(attempt.cores)


class BestFitDecreasing(_ClassicalDecreasing):
    """BFD: feasible core with the highest current load (tightest fit).

    Ties go to the lowest core index (stable sort on descending load).
    """

    name = "bfd"

    def request(self, attempt: Attempt):
        return FEASIBLE, np.argsort(-attempt.loads, kind="stable").tolist()


class WorstFitDecreasing(_ClassicalDecreasing):
    """WFD: feasible core with the lowest current load (most spare room).

    Ties go to the lowest core index.
    """

    name = "wfd"

    def request(self, attempt: Attempt):
        return FEASIBLE, np.argsort(attempt.loads, kind="stable").tolist()
