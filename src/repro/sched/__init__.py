"""Discrete-event runtime simulation of partitioned EDF-VD with AMC."""

from repro.sched.core_sim import CoreReport, CoreSimulator, DeadlineMiss
from repro.sched.events import (
    EVENT_KINDS,
    EventOutcome,
    SimEvent,
    core_failure,
    core_hotplug,
    mode_recovery,
    task_arrival,
    task_departure,
    wcet_burst,
)
from repro.sched.job import Job
from repro.sched.scenario import (
    ExecutionScenario,
    FaultyScenario,
    HonestScenario,
    LevelScenario,
    RandomScenario,
)
from repro.sched.releases import PeriodicReleases, ReleaseModel, SporadicReleases
from repro.sched.system_sim import SystemReport, SystemSimulator, default_horizon
from repro.sched.trace import (
    EventKind,
    ExecutionSlice,
    Trace,
    TraceEvent,
    render_timeline,
)

__all__ = [
    "CoreReport",
    "CoreSimulator",
    "DeadlineMiss",
    "EVENT_KINDS",
    "EventKind",
    "EventOutcome",
    "SimEvent",
    "ExecutionScenario",
    "ExecutionSlice",
    "FaultyScenario",
    "HonestScenario",
    "Job",
    "LevelScenario",
    "PeriodicReleases",
    "ReleaseModel",
    "SporadicReleases",
    "RandomScenario",
    "SystemReport",
    "SystemSimulator",
    "Trace",
    "TraceEvent",
    "core_failure",
    "core_hotplug",
    "default_horizon",
    "mode_recovery",
    "render_timeline",
    "task_arrival",
    "task_departure",
    "wcet_burst",
]
