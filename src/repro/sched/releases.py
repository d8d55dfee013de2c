"""Release models: periodic vs sporadic job arrivals.

The paper evaluates strictly periodic tasks, but the EDF-VD
schedulability theory it builds on (Baruah et al.) is proven for
*sporadic* tasks — periods are only minimum interarrival times.  The
simulator therefore supports both: a release model decides, after each
release of a task, when the next one may happen.  Validating that
analysis-accepted subsets stay miss-free under sporadic arrivals
exercises the sustainability of the implementation.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.model.task import MCTask
from repro.types import SimulationError

__all__ = ["ReleaseModel", "PeriodicReleases", "SporadicReleases"]


class ReleaseModel(abc.ABC):
    """Decides the gap between consecutive releases of one task."""

    @abc.abstractmethod
    def interarrival(self, task: MCTask, rng: np.random.Generator) -> float:
        """Time from one release to the next; must be ``>= task.period``
        (never NaN).  ``inf`` means the task never releases again."""


class PeriodicReleases(ReleaseModel):
    """Strictly periodic arrivals (the paper's model)."""

    def interarrival(self, task: MCTask, rng: np.random.Generator) -> float:
        return task.period


class SporadicReleases(ReleaseModel):
    """Sporadic arrivals: interarrival uniform in
    ``[p, (1 + max_delay) * p]``.

    ``max_delay = 0`` degenerates to periodic.  Larger delays mean less
    load, so a subset schedulable under periodic arrivals remains
    schedulable (the analysis is sustainable in interarrival times).
    """

    def __init__(self, max_delay: float = 0.5):
        if max_delay < 0.0:
            raise SimulationError(f"max_delay must be >= 0, got {max_delay}")
        self.max_delay = max_delay

    def interarrival(self, task: MCTask, rng: np.random.Generator) -> float:
        return task.period * (1.0 + float(rng.uniform(0.0, self.max_delay)))
