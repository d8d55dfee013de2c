"""Ablation variants of CA-TPA (DESIGN.md §5).

Each variant changes exactly one design decision of CA-TPA so the
ablation benches can attribute the scheme's advantage:

* ordering rule — utilization contribution (paper) vs decreasing
  maximum utilization vs criticality-first vs random;
* core-selection rule — minimum utilization increment (paper) vs
  first-fit / best-fit / worst-fit on the Eq.-(9) core utilization;
* imbalance override — enabled (paper) vs disabled.
"""

from __future__ import annotations

import numpy as np

from repro.model.taskset import MCTaskSet
from repro.partition import ordering
from repro.partition.catpa import CATPA
from repro.types import PartitionError

__all__ = ["CATPAVariant", "ORDERINGS", "SELECTIONS"]

ORDERINGS = {
    "contribution": ordering.by_contribution,
    "max-utilization": ordering.by_max_utilization,
    "criticality": ordering.by_criticality_then_utilization,
}

#: Selection rule -> first-hit key weight (``nan``: minimum increment).
SELECTIONS = {
    "min-increment": np.nan,
    "first-fit": 0.0,
    "best-fit": -1.0,
    "worst-fit": 1.0,
}


class CATPAVariant(CATPA):
    """CA-TPA with swappable ordering / selection / imbalance pieces.

    Parameters
    ----------
    order:
        One of :data:`ORDERINGS` (or ``"random"`` with ``rng``).
    selection:
        One of :data:`SELECTIONS`.  All selections only consider cores on
        which the task is Theorem-1 feasible:

        - ``min-increment`` — the paper's rule (minimum Eq.-(14) delta);
        - ``first-fit`` — lowest-index feasible core;
        - ``best-fit`` — feasible core with the highest current Eq.-(9)
          utilization;
        - ``worst-fit`` — feasible core with the lowest current Eq.-(9)
          utilization.
    alpha:
        Imbalance threshold; ``None`` disables the override.
    rng:
        Random generator, required when ``order == "random"``.
    """

    def __init__(
        self,
        order: str = "contribution",
        selection: str = "min-increment",
        alpha: float | None = 0.7,
        eq9_rule: str = "max",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(alpha=alpha, eq9_rule=eq9_rule)
        if order != "random" and order not in ORDERINGS:
            raise PartitionError(f"unknown ordering {order!r}")
        if order == "random" and rng is None:
            raise PartitionError("random ordering requires an rng")
        if selection not in SELECTIONS:
            raise PartitionError(f"unknown selection {selection!r}")
        self.order = order
        self.selection = selection
        self.rng = rng
        self.name = f"ca-tpa[{order}/{selection}" + (
            "/no-imbalance]" if alpha is None else f"/a={alpha:g}]"
        )

    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        if self.order == "random":
            return ordering.randomized(taskset, self.rng)
        return ORDERINGS[self.order](taskset)

    def weights(self, criticalities: np.ndarray) -> np.ndarray:
        return np.full(len(criticalities), SELECTIONS[self.selection])
