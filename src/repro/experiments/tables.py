"""Reproduction of the paper's worked example (Tables I-III).

Tables I-III of Section III-C demonstrate, on a 5-task / 2-core
dual-criticality instance, that FFD fails to place the last task while
CA-TPA places all five.  The OCR of the paper lost the concrete numbers
of Table I (DESIGN.md "Substitutions"); what *is* recoverable from the
worked arithmetic is used as a cross-check elsewhere
(``tests/analysis/test_edfvd.py::test_paper_worked_value_tau4``), and
here we regenerate an equivalent instance from a pinned seed: a random
5-task instance on which FFD fails and CA-TPA succeeds, exhibiting
exactly the phenomenon the tables illustrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.contribution import (
    contribution_matrix,
    utilization_contributions,
)
from repro.gen.params import WorkloadConfig
from repro.gen.generator import generate_taskset
from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.partition.backend import BATCH, ProbeBackend
from repro.partition.base import Partitioner, partition_lockstep
from repro.partition.catpa import CATPA
from repro.partition.classical import FirstFitDecreasing
from repro.types import ReproError

__all__ = [
    "paper_example_taskset",
    "AllocationStep",
    "allocation_trace",
    "table1_rows",
]

_SEARCH_SEED = 2016
#: Spawn key of an instance :func:`_example_accepted` accepts, which
#: :func:`paper_example_taskset` checks on every call.  It was the first
#: accepted key of a seeded search over spawn keys 0, 1, 2, … when the
#: example was pinned; the code has changed since, and such a search
#: now accepts an earlier key.
_EXAMPLE_SPAWN_KEY = 10486


def _example_config() -> WorkloadConfig:
    return WorkloadConfig(
        cores=2,
        levels=2,
        nsu=0.72,
        ifc=0.6,
        task_count_range=(5, 5),
        period_ranges=((50, 200),),
    )


def _example_accepted(ts: MCTaskSet) -> bool:
    """The Tables I-III phenomenon: >=2 HI tasks, FFD fails, CA-TPA wins."""
    if int((ts.criticalities == 2).sum()) < 2:
        return False  # the paper's instance mixes several HI tasks
    return (
        not FirstFitDecreasing().partition(ts, 2).schedulable
        and CATPA().partition(ts, 2).schedulable
    )


@lru_cache(maxsize=1)
def paper_example_taskset() -> MCTaskSet:
    """The canonical 5-task / 2-core / K=2 instance where FFD fails and
    CA-TPA succeeds (the Tables I-III phenomenon), regenerated from its
    pinned seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence(_SEARCH_SEED, spawn_key=(_EXAMPLE_SPAWN_KEY,))
    )
    ts = generate_taskset(_example_config(), rng)
    if not _example_accepted(ts):  # pragma: no cover - pinned seed
        raise ReproError("pinned example seed no longer reproduces the instance")
    return ts


@dataclass(frozen=True)
class AllocationStep:
    """One row of an allocation trace (Tables II/III format)."""

    task_index: int
    core: int | None  #: None when the scheme failed to place the task
    #: per-core (K, K) level matrices *after* this step
    core_levels: tuple


def allocation_trace(
    partitioner: Partitioner,
    taskset: MCTaskSet,
    cores: int,
    backend: ProbeBackend = BATCH,
) -> list[AllocationStep]:
    """Replay a heuristic task by task, recording each intermediate state.

    This is exactly what Tables II and III tabulate: the task-to-core
    decisions in processing order with the evolving per-core level
    utilizations.  The heuristic runs once on ``backend``; its result's
    placements, up to the failed task, are replayed through
    :meth:`Partition.assign` in placement order (the driver's sums).
    """
    (result,) = partition_lockstep([(partitioner, taskset, cores)], backend)
    partition = Partition(taskset, cores)
    steps: list[AllocationStep] = []
    for task in result.order:
        core = result.partition.core_of(task)
        if core >= 0:
            partition.assign(task, core)
        levels = tuple(partition.level_matrix(m).copy() for m in range(cores))
        steps.append(AllocationStep(task, core if core >= 0 else None, levels))
        if core < 0:
            break
    return steps


def table1_rows(taskset: MCTaskSet) -> list[dict]:
    """Table I: per-task parameters, utilizations, and contributions."""
    contrib = contribution_matrix(taskset)
    overall = utilization_contributions(taskset)
    rows = []
    for i, task in enumerate(taskset):
        rows.append(
            {
                "task": task.name or f"tau_{i + 1}",
                "wcets": task.wcets,
                "period": task.period,
                "criticality": task.criticality,
                "utilizations": task.utilization_vector(taskset.levels),
                "contributions": tuple(contrib[i, : task.criticality]),
                "contribution": float(overall[i]),
            }
        )
    return rows
