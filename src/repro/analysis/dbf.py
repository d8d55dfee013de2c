"""Demand-bound-function analysis for dual-criticality EDF-VD (extension).

The paper cites (as the high-complexity alternative to its
utilization-based test) partitioned MC scheduling built on DBF-shaping
analyses in the style of Ekberg & Yi, *Bounding and shaping the demand
of mixed-criticality sporadic tasks* (ECRTS'12).  This module implements
that analysis for dual-criticality subsets:

* every HI task gets a per-task *virtual relative deadline*
  ``d_i <= p_i`` used while the core is in LO mode;
* **LO-mode test**: for all ``t``,
  ``sum_LO dbf(t; p_i, p_i, c_i(1)) + sum_HI dbf(t; p_i, d_i, c_i(1)) <= t``;
* **HI-mode test**: a HI job present at the switch met (or will meet)
  its virtual deadline, so after the switch it has at least
  ``p_i - d_i`` time to its real deadline; HI demand is therefore
  bounded by ``dbf(t; p_i, p_i - d_i, c_i(2))`` (first deadline at the
  offset, then periodic) and the test is ``sum_HI ... <= t`` for all
  ``t``.  The bound charges the full ``c_i(2)`` from the offset, with
  no credit for the ``c_i(1)`` the job ran before the switch, so this
  analysis is incomparable with Theorem 1: a lone HI task with period
  10 and wcets (6, 9) passes Theorem 1 (margin +0.1), yet the LO test
  needs ``d >= 6`` and the HI test ``d <= 1``, so
  :func:`tune_virtual_deadlines` returns ``None``.  A K=2 differential
  against this module must count Theorem-1-admit / DBF-reject as
  expected, not as a counterexample;
* the *tuning* loop shrinks individual ``d_i`` (improving the HI test at
  the expense of the LO test) until both pass or no progress is
  possible.

Both tests enumerate the demand-step points up to the standard EDF
processor-demand busy-period bound (capped for pathological inputs —
see :func:`demand_horizon`).  The result is a per-task deadline plan the
runtime simulator can execute directly, so the extension is validated
end-to-end like the paper's own analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.taskset import MCTaskSet
from repro.types import EPS, ModelError

__all__ = [
    "dbf_step",
    "demand_horizon",
    "DualPerTaskPlan",
    "lo_mode_demand",
    "hi_mode_demand",
    "is_feasible_dbf",
    "tune_virtual_deadlines",
]

#: Hard cap on the demand-check horizon; beyond this the busy-period
#: bound is considered pathological and the test conservatively rejects.
HORIZON_CAP: float = 1e6


def dbf_step(t: float, period: float, deadline: float, wcet: float) -> float:
    """Demand bound of one sporadic task with first deadline at
    ``deadline`` and subsequent deadlines every ``period``:
    ``(floor((t - deadline)/period) + 1)^+ * wcet``."""
    if t < deadline - EPS:
        return 0.0
    return (np.floor((t - deadline) / period) + 1.0) * wcet


def _check_dual(subset: MCTaskSet) -> None:
    if subset.levels != 2:
        raise ModelError(
            f"DBF analysis supports dual-criticality subsets only, K={subset.levels}"
        )


def demand_horizon(
    utilization: float, weighted_slack: float, max_deadline: float
) -> float | None:
    """EDF processor-demand horizon: demand(t) <= t needs checking only
    up to ``max(D_max, weighted_slack / (1 - U))``.

    Returns ``None`` when the bound is unusable (``U >= 1`` or beyond
    :data:`HORIZON_CAP`), in which case the caller must reject.
    """
    if utilization >= 1.0 - 1e-9:
        # U == 1 exactly is schedulable for implicit deadlines, but the
        # busy-period bound diverges; callers treat None as "reject" and
        # the utilization-based tests already cover that boundary.
        return None
    horizon = max(max_deadline, weighted_slack / (1.0 - utilization))
    if horizon > HORIZON_CAP:
        return None
    return horizon


@dataclass(frozen=True)
class DualPerTaskPlan:
    """Per-task virtual deadlines for a dual-criticality subset.

    ``deadlines[i]`` is the LO-mode relative deadline of subset task
    ``i`` (equal to the period for LO tasks).  Implements the
    ``task_scale`` protocol of the runtime simulator: HI deadlines are
    restored in HI mode (the carry-over is what the HI-mode DBF bounds).
    """

    deadlines: tuple[float, ...]
    periods: tuple[float, ...]
    levels: int = 2

    def task_scale(self, task_index: int, task_level: int, mode: int) -> float:
        if not 1 <= mode <= self.levels:
            raise ModelError(f"mode must be in [1, {self.levels}], got {mode}")
        if task_level < mode:
            raise ModelError(
                f"task of criticality {task_level} is dropped at mode {mode}"
            )
        if mode == 1:
            return self.deadlines[task_index] / self.periods[task_index]
        return 1.0


def _demand_points(first_deadlines, periods, horizon) -> np.ndarray:
    """All step points of the aggregate dbf up to ``horizon``."""
    points = []
    for d0, p in zip(first_deadlines, periods):
        if d0 > horizon:
            continue
        count = int(np.floor((horizon - d0) / p)) + 1
        points.append(d0 + p * np.arange(count))
    if not points:
        return np.empty(0)
    return np.unique(np.concatenate(points))


def lo_mode_demand(subset: MCTaskSet, deadlines, t: float) -> float:
    """Aggregate LO-mode demand bound at ``t`` (level-1 budgets)."""
    _check_dual(subset)
    total = 0.0
    for i, task in enumerate(subset):
        total += dbf_step(t, task.period, deadlines[i], task.wcet(1))
    return total


def hi_mode_demand(subset: MCTaskSet, deadlines, t: float) -> float:
    """Aggregate HI-mode demand bound at ``t`` (level-2 budgets,
    first deadlines at ``p_i - d_i``)."""
    _check_dual(subset)
    total = 0.0
    for i, task in enumerate(subset):
        if task.criticality < 2:
            continue
        offset = task.period - deadlines[i]
        total += dbf_step(t, task.period, offset, task.wcet(2))
    return total


def _mode_check(first_deadlines, periods, wcets, horizon) -> float | None:
    """First t at which demand exceeds supply, else None (test passes)."""
    points = _demand_points(first_deadlines, periods, horizon)
    if points.size == 0:
        return None
    demand = np.zeros_like(points)
    for d0, p, c in zip(first_deadlines, periods, wcets):
        demand += np.where(
            points >= d0 - EPS, (np.floor((points - d0) / p) + 1.0) * c, 0.0
        )
    bad = np.flatnonzero(demand > points + 1e-9)
    if bad.size == 0:
        return None
    return float(points[bad[0]])


def _failing_point_lo(subset, deadlines) -> float | None | bool:
    periods = [t.period for t in subset]
    wcets = [t.wcet(1) for t in subset]
    u = sum(c / p for c, p in zip(wcets, periods))
    slack = sum(
        max(0.0, p - d) * (c / p) for p, d, c in zip(periods, deadlines, wcets)
    )
    horizon = demand_horizon(u, slack, max(deadlines))
    if horizon is None:
        return False  # unusable bound -> reject
    return _mode_check(deadlines, periods, wcets, horizon)


def _failing_point_hi(subset, deadlines) -> float | None | bool:
    rows = [
        (t.period, t.period - deadlines[i], t.wcet(2))
        for i, t in enumerate(subset)
        if t.criticality >= 2
    ]
    if not rows:
        return None
    periods = [r[0] for r in rows]
    offsets = [r[1] for r in rows]
    wcets = [r[2] for r in rows]
    u = sum(c / p for c, p in zip(wcets, periods))
    slack = sum(
        max(0.0, p - o) * (c / p) for p, o, c in zip(periods, offsets, wcets)
    )
    horizon = demand_horizon(u, slack, max(max(offsets), 1e-9))
    if horizon is None:
        return False
    return _mode_check(offsets, periods, wcets, horizon)


def is_feasible_dbf(subset: MCTaskSet, deadlines) -> bool:
    """Do both mode tests pass for the given virtual deadlines?"""
    _check_dual(subset)
    deadlines = list(deadlines)
    if len(deadlines) != len(subset):
        raise ModelError("one virtual deadline per task is required")
    for i, task in enumerate(subset):
        if not 0.0 < deadlines[i] <= task.period + EPS:
            raise ModelError(
                f"virtual deadline of task {i} must be in (0, p_i], got"
                f" {deadlines[i]}"
            )
    lo = _failing_point_lo(subset, deadlines)
    if lo is not None:
        return False
    hi = _failing_point_hi(subset, deadlines)
    return hi is None


def tune_virtual_deadlines(
    subset: MCTaskSet, max_iterations: int = 200, shrink: float = 0.85
) -> DualPerTaskPlan | None:
    """Ekberg-Yi-style deadline tuning for a dual-criticality subset.

    Starts from full deadlines (``d_i = p_i``: most LO slack, worst HI
    carry-over) and, while the HI-mode test fails, multiplicatively
    shrinks the virtual deadline of the HI task contributing the most
    demand at the failing instant.  Stops when both tests pass (returns
    the plan) or when the LO-mode test breaks / no deadline can shrink
    further (returns ``None``).
    """
    _check_dual(subset)
    deadlines = [t.period for t in subset]
    hi_indices = [i for i, t in enumerate(subset) if t.criticality >= 2]

    for _ in range(max_iterations):
        lo_fail = _failing_point_lo(subset, deadlines)
        if lo_fail is not None:  # includes the False "unusable bound" case
            return None
        hi_fail = _failing_point_hi(subset, deadlines)
        if hi_fail is None:
            return DualPerTaskPlan(
                deadlines=tuple(deadlines),
                periods=tuple(t.period for t in subset),
            )
        if hi_fail is False:
            return None
        # Shrink the deadline of the HI task with the largest demand
        # contribution at the failing instant (ties: first).
        best, best_demand = None, 0.0
        for i in hi_indices:
            task = subset[i]
            if deadlines[i] <= task.wcet(1) + EPS:
                continue  # cannot shrink below its LO budget
            contribution = dbf_step(
                hi_fail, task.period, task.period - deadlines[i], task.wcet(2)
            )
            if contribution > best_demand + EPS:
                best, best_demand = i, contribution
        if best is None:
            return None
        deadlines[best] = max(
            subset[best].wcet(1), deadlines[best] * shrink
        )
    return None
