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
from repro.partition.base import Partitioner

__all__ = ["FirstFitDecreasing", "BestFitDecreasing", "WorstFitDecreasing"]


class _ClassicalDecreasing(Partitioner):
    """Shared machinery for the load-tracking first-hit heuristics: each
    step asks for the feasibility row and takes the feasible core of
    least ``weight * load``."""

    #: First-hit key weight of every step (:meth:`Partitioner.weights`).
    weight: float = 0.0

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        return ordering.by_max_utilization(taskset)

    def weights(self, criticalities: np.ndarray) -> np.ndarray:
        return np.full(len(criticalities), self.weight)


class FirstFitDecreasing(_ClassicalDecreasing):
    """FFD: lowest-index feasible core."""

    name = "ffd"


class BestFitDecreasing(_ClassicalDecreasing):
    """BFD: feasible core with the highest current load (tightest fit).

    Ties go to the lowest core index.
    """

    name = "bfd"
    weight = -1.0


class WorstFitDecreasing(_ClassicalDecreasing):
    """WFD: feasible core with the lowest current load (most spare room).

    Ties go to the lowest core index.
    """

    name = "wfd"
    weight = 1.0
