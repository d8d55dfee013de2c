"""CA-TPA: the paper's Criticality-Aware Task Partitioning Algorithm.

Algorithm 1, augmented with the workload-imbalance override of
Section III (Eq. (16)):

1. Sort tasks by decreasing utilization contribution (Eqs. (12)-(13)).
2. For each task, probe every core: compute the hypothetical new core
   utilization ``U^{Psi_m + tau_i}`` (Eq. (15)) and the increment
   ``Delta = U^{Psi_m + tau_i} - U^{Psi_m}`` (Eq. (14)).  Allocate the
   task to the feasible core with the minimum increment (ties: lowest
   core index).  Fail as soon as some task fits nowhere.
3. Imbalance override: before selecting by minimum increment, compute
   the workload imbalance factor
   ``Lambda = (U_sys - min_m U^{Psi_m}) / U_sys`` over the cores that
   already hold at least one task.  If ``Lambda`` exceeds the threshold
   ``alpha``, the task is instead assigned to the feasible core with the
   minimum *current* core utilization (ties: lowest core index).

Eq.-(16) semantics: cores that are still idle are **excluded** from the
``min`` while the partial mapping is being built.  Algorithm 1's
override exists to re-balance the cores the packing has already loaded;
an untouched core would pin ``Lambda`` at exactly 1 and make the
min-utilization rule — not the paper's min-increment rule — place the
first ``M`` tasks for every ``alpha < 1``.  The *reported* imbalance
metric, :func:`repro.metrics.imbalance_factor`, follows the same
loaded-core convention for finished partitions.

As a lockstep rule (:mod:`repro.partition.base`): each step reads the
Eq.-(15) row under the Eq.-(9) rule, weight ``nan`` picks the minimum
increment and ``alpha`` is the Eq.-(16) override.  The per-core Eq.-(9)
utilizations are tracked incrementally, so a full run costs
``O(N * M * K^2)`` probe work plus the ``O(N log N)`` sort, matching the
paper's complexity analysis.
"""

from __future__ import annotations

import numpy as np

from repro.model.taskset import MCTaskSet
from repro.partition import ordering
from repro.partition.base import Partitioner
from repro.types import PartitionError

__all__ = ["CATPA"]


class CATPA(Partitioner):
    """Criticality-Aware Task Partitioning Algorithm.

    Parameters
    ----------
    alpha:
        Threshold for the workload imbalance factor ``Lambda``
        (Eq. (16)), measured over the cores that already hold tasks.
        The paper sweeps ``[0.1, 0.5]`` and uses 0.7 as the default in
        the other experiments; ``alpha >= 1`` effectively disables the
        override (``Lambda < 1`` whenever every loaded core utilization
        is finite and positive), and ``alpha = None`` disables it
        outright (the ablation benches use that).
    eq9_rule:
        Aggregation over feasible Theorem-1 conditions in Eq. (9):
        ``"max"`` (the paper's text, default) or ``"min"`` (the
        optimistic variant; identical for dual-criticality systems).
    """

    name = "ca-tpa"

    def __init__(self, alpha: float | None = 0.7, eq9_rule: str = "max"):
        if alpha is not None and not 0.0 <= alpha:
            raise PartitionError(f"alpha must be >= 0 or None, got {alpha}")
        if eq9_rule not in ("max", "min"):
            raise PartitionError(f"eq9_rule must be 'max' or 'min', got {eq9_rule!r}")
        self.alpha = alpha
        self.eq9_rule = eq9_rule

    # ------------------------------------------------------------------
    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        return ordering.by_contribution(taskset)

    @property
    def kind(self) -> str:
        """Every step reads the Eq.-(15) row under :attr:`eq9_rule`."""
        return self.eq9_rule

    def weights(self, criticalities: np.ndarray) -> np.ndarray:
        return np.full(len(criticalities), np.nan)  # minimum increment
