"""Execution-time scenarios: how much work each job actually demands.

The MC model's guarantee is conditional on behaviour: every job of task
``tau_i`` runs for at most ``c_i(l_i)``.  A *scenario* decides, per job,
the actual demand within that envelope:

* :class:`HonestScenario` — everyone stays within their level-1 budget;
  no mode switch ever occurs.
* :class:`LevelScenario` — jobs exhaust their level-``target`` budget
  (capped by their own criticality), driving cores up to that mode.
* :class:`RandomScenario` — per job, the demand level escalates past
  each budget boundary with probability ``overrun_prob`` (geometric),
  then the demand is drawn uniformly within the selected band.  This is
  the "anything allowed by the model" adversary used for validation.
* :class:`FaultyScenario` — *violates* the model: jobs of the selected
  tasks exceed even their own top-level WCET by ``excess``.  Used by the
  failure-injection tests to show the guarantee is conditional.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.model.task import MCTask
from repro.types import SimulationError

__all__ = [
    "ExecutionScenario",
    "HonestScenario",
    "LevelScenario",
    "RandomScenario",
    "FaultyScenario",
]


class ExecutionScenario(abc.ABC):
    """Draws actual execution demands for jobs."""

    @abc.abstractmethod
    def draw(self, task: MCTask, rng: np.random.Generator) -> float:
        """Actual execution time of the next job of ``task``.

        Model-conformant scenarios return a value in ``(0, c(l_i)]``.
        The simulator rejects a demand that is not positive and finite.
        """


class HonestScenario(ExecutionScenario):
    """Every job needs ``fraction * c(1)`` (no overruns, no mode switches)."""

    def __init__(self, fraction: float = 1.0):
        if not 0.0 < fraction <= 1.0:
            raise SimulationError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def draw(self, task: MCTask, rng: np.random.Generator) -> float:
        return self.fraction * task.wcets[0]


class LevelScenario(ExecutionScenario):
    """Jobs exhaust their level-``target`` budget (capped at ``l_i``).

    A job of a task with ``l_i >= target`` demands exactly
    ``c(target)``, which exceeds every budget below ``target`` and so
    drives its core's mode up to ``target``.  Tasks with lower
    criticality demand their own full budget ``c(l_i)``.
    """

    def __init__(self, target: int):
        if target < 1:
            raise SimulationError(f"target level must be >= 1, got {target}")
        self.target = target

    def draw(self, task: MCTask, rng: np.random.Generator) -> float:
        wcets = task.wcets
        return wcets[min(self.target, len(wcets)) - 1]


class RandomScenario(ExecutionScenario):
    """Geometric escalation through budget bands.

    Starting at level 1, the job's demand band escalates to the next
    level with probability ``overrun_prob`` (while below ``l_i``); the
    demand is then uniform in ``(c(k-1), c(k)]`` of the chosen band ``k``
    (with ``c(0) = 0``).
    """

    def __init__(self, overrun_prob: float = 0.1):
        if not 0.0 <= overrun_prob <= 1.0:
            raise SimulationError(
                f"overrun_prob must be in [0, 1], got {overrun_prob}"
            )
        self.overrun_prob = overrun_prob

    def draw(self, task: MCTask, rng: np.random.Generator) -> float:
        wcets = task.wcets
        level = 1
        while level < len(wcets) and rng.random() < self.overrun_prob:
            level += 1
        low = wcets[level - 2] if level > 1 else 0.0
        high = wcets[level - 1]
        # Uniform in (low, high]: `uniform` draws the half-open
        # [0, high - low), so reflecting it off `high` excludes `low`
        # (which would not constitute an overrun of the previous
        # budget) and keeps `high` reachable.
        return high - float(rng.uniform(0.0, high - low))


class FaultyScenario(ExecutionScenario):
    """Model violation: demands ``(1 + excess) * c(l_i)`` (for injection tests)."""

    def __init__(self, excess: float = 0.5):
        if excess <= 0.0:
            raise SimulationError(f"excess must be positive, got {excess}")
        self.excess = excess

    def draw(self, task: MCTask, rng: np.random.Generator) -> float:
        return (1.0 + self.excess) * task.wcet(task.criticality)
