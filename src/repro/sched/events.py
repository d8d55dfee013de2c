"""The event timeline every partitioned simulation runs on.

The static simulator answers "does this partition survive this
scenario?"; an event script answers "does it survive this scenario
*while the world changes underneath it*?".  A script is a sequence of
:class:`SimEvent` records.  :class:`~repro.sched.SystemSimulator` takes
it as ``events=`` and compiles it, against its partition, into per-core
read-only views (:class:`~repro.sched.core_sim.CoreEventView`) that
:class:`~repro.sched.CoreSimulator` consults at its release / dispatch
/ finish points.  The hot loop never switches on event kinds;
everything data-dependent is resolved up front:

* **validation** happens before any simulation: malformed events
  (negative durations, unknown kinds, ids that are not integers) are
  rejected by :class:`SimEvent`; events that end past the horizon,
  unknown task/core ids and impossible sequences (failing an offline
  core, departing twice) are rejected by :func:`check_events`, which
  the simulator calls at construction — always as a clean
  :class:`~repro.types.SimulationError`, never a deep numpy traceback;
* **compilation** (:func:`compile_events`) replays the structural
  events chronologically against a *live* copy of the partition:
  arrivals are admitted through the batch Theorem-1 probe backend the
  serve daemon uses (rejections are counted, not crashed), core
  failures displace their residents and re-partition them onto the
  surviving cores best-probe-first (Λ is re-reported before/after), and
  the result is a cumulative membership timeline — per core, who is
  resident when, under which deadline-scaling plan;
* at **run time** the core simulator only reads the view: per-entry
  join/leave instants, failure instants, a plan schedule, per-entry
  WCET-burst intervals, and (optionally) a mode-recovery tracker.

A run without events compiles the empty script: every task joins its
core at 0 and never leaves, and nothing else happens, so there is one
simulation path, with or without a script.

Event kinds (schema v1)
-----------------------
``wcet_burst``
    While active (``start <= release < end``), the drawn execution
    demand of every job of the matching tasks is multiplied by
    ``factor``.  ``tasks=None`` matches every task (arrivals included);
    an explicit list names base-taskset indices.  Factors of overlapping
    bursts multiply.  A zero-length burst is a legal no-op.
``task_arrival``
    A new :class:`~repro.model.task.MCTask` asks to join at ``start``.
    It is probed on every online core (Eq. (15)); the feasible core
    with the smallest probe wins (ties to the lowest index, exactly as
    ``repro.serve`` places tasks).  No feasible core → the arrival is
    *rejected* and counted, the run continues.
``task_departure``
    The base task ``task_index`` leaves at ``start``: releases strictly
    before the instant still happen, the release at/after it does not.
    An in-flight job of the departing task finishes normally.
``core_failure`` / ``core_hotplug``
    The core goes offline / comes back (empty).  At a failure instant
    every ready/running job on the core is dropped and its residents
    are re-partitioned onto the surviving cores (criticality-aware:
    highest criticality first, then largest utilization), each through
    the probe backend; tasks with no feasible core are *lost* and
    counted.  Displaced tasks restart their release pattern on the new
    core at the failure instant and stay there: a hotplug only makes
    the core available to later arrivals and re-partitions.
``mode_recovery``
    A sanctioned recovery window ``[start, end]``.  Its presence
    switches every simulated core from automatic idle resets to the
    *explicit recovery* protocol: the core returns to mode 1 only at an
    idle instant inside an unconsumed window (pinned against the
    existing ``idle_resets`` machinery — a window consumed while
    already at mode 1 is a no-op, a window no idle instant ever covers
    is missed; all three outcomes are counted).

Instantaneous kinds (arrival / departure / failure / hotplug) must have
``end == start``; windowed kinds (burst / recovery) need
``end >= start``.  All times must satisfy ``0 <= start <= end <=
horizon``.

Compilation is deliberately *static*: every placement decision is made
before the first job is drawn, so a compiled timeline is deterministic,
reusable across seeds, and free for the simulation hot path.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Sequence

import numpy as np

from repro.analysis.virtual_deadlines import (
    VirtualDeadlineAssignment,
    assign_virtual_deadlines,
)
from repro.metrics.core import imbalance_factor
from repro.model.partition import Partition
from repro.model.task import MCTask
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS, add_span_time, span
from repro.partition.backend import BATCH, best_core, probe_request
from repro.sched.core_sim import CoreEventView, time_after, time_reached
from repro.types import SimulationError

__all__ = [
    "EVENT_KINDS",
    "SimEvent",
    "wcet_burst",
    "task_arrival",
    "task_departure",
    "core_failure",
    "core_hotplug",
    "mode_recovery",
    "check_events",
    "compile_events",
    "CompiledEvents",
    "EventOutcome",
    "Membership",
    "identity_plan",
]

#: Recognized event kinds (schema v1).
EVENT_KINDS: tuple[str, ...] = (
    "wcet_burst",
    "task_arrival",
    "task_departure",
    "core_failure",
    "core_hotplug",
    "mode_recovery",
)

def identity_plan(levels: int) -> VirtualDeadlineAssignment:
    """Plain-EDF deadline scaling (no virtual-deadline shrinking)."""
    return VirtualDeadlineAssignment(
        k_star=1,
        lambdas=(0.0,) * levels,
        top_level_scale=1.0,
        levels=levels,
    )


#: Kinds that happen at one instant (``end == start`` enforced).
_INSTANT_KINDS = frozenset(
    {"task_arrival", "task_departure", "core_failure", "core_hotplug"}
)


def _index(value: object, what: str) -> int:
    """``value`` as an index ``>= 0``: any integer (NumPy's included),
    but never a bool, a float or a str, which ``int()`` would coerce."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SimulationError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise SimulationError(f"{what} must be >= 0, got {value}")
    return int(value)


@dataclass(frozen=True)
class SimEvent:
    """One validated, time-bounded injection event.

    ``start``/``end`` are the event's markers on the cumulative
    timeline.  Kind-specific payload lives in the optional fields; the
    constructor rejects structurally malformed events immediately
    (wrong kind, negative duration, missing/invalid payload) so a bad
    event file can never reach the simulator.
    """

    kind: str
    start: float
    end: float
    #: ``wcet_burst``: multiplier applied to drawn demands (> 0).
    factor: float | None = None
    #: ``wcet_burst``: base-taskset indices to match (``None`` = all).
    tasks: tuple[int, ...] | None = None
    #: ``task_arrival``: the arriving task.
    task: MCTask | None = None
    #: ``task_departure``: base-taskset index of the departing task.
    task_index: int | None = None
    #: ``core_failure`` / ``core_hotplug``: the affected core.
    core: int | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown event kind {self.kind!r}; "
                f"known kinds: {', '.join(EVENT_KINDS)}"
            )
        start, end = float(self.start), float(self.end)
        if not (np.isfinite(start) and np.isfinite(end)):
            raise SimulationError(
                f"{self.kind} event markers must be finite, "
                f"got start={self.start}, end={self.end}"
            )
        if start < 0.0:
            raise SimulationError(
                f"{self.kind} event starts before time 0 (start={start})"
            )
        if end < start:
            raise SimulationError(
                f"{self.kind} event has negative duration "
                f"(start={start}, end={end})"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if self.kind in _INSTANT_KINDS and end != start:
            raise SimulationError(
                f"{self.kind} is instantaneous; end must equal start "
                f"(got start={start}, end={end})"
            )
        if self.kind == "wcet_burst":
            if self.factor is None or not np.isfinite(self.factor):
                raise SimulationError("wcet_burst requires a finite factor")
            object.__setattr__(self, "factor", float(self.factor))
            if self.factor <= 0.0:
                raise SimulationError(
                    f"wcet_burst factor must be positive, got {self.factor}"
                )
            if self.tasks is not None:
                if isinstance(self.tasks, str):
                    raise SimulationError(
                        "wcet_burst tasks must be a list of task indices, "
                        f"got {self.tasks!r}"
                    )
                idx = tuple(_index(i, "wcet_burst task index") for i in self.tasks)
                object.__setattr__(self, "tasks", idx)
        elif self.kind == "task_arrival":
            if not isinstance(self.task, MCTask):
                raise SimulationError("task_arrival requires an MCTask payload")
        elif self.kind == "task_departure":
            index = _index(self.task_index, "task_departure task_index")
            object.__setattr__(self, "task_index", index)
        elif self.kind in ("core_failure", "core_hotplug"):
            object.__setattr__(self, "core", _index(self.core, f"{self.kind} core"))


# ----------------------------------------------------------------------
# Convenience constructors (the JSON loader and tests go through these)
# ----------------------------------------------------------------------
def wcet_burst(
    start: float,
    end: float,
    factor: float,
    tasks: Sequence[int] | None = None,
) -> SimEvent:
    """Demand multiplier ``factor`` on ``tasks`` while ``start <= t < end``."""
    return SimEvent(
        kind="wcet_burst", start=start, end=end, factor=factor, tasks=tasks
    )


def task_arrival(time: float, task: MCTask) -> SimEvent:
    """``task`` asks to join the system at ``time``."""
    return SimEvent(kind="task_arrival", start=time, end=time, task=task)


def task_departure(time: float, task_index: int) -> SimEvent:
    """Base task ``task_index`` leaves the system at ``time``."""
    return SimEvent(
        kind="task_departure", start=time, end=time, task_index=task_index
    )


def core_failure(time: float, core: int) -> SimEvent:
    """Core ``core`` goes offline at ``time`` (residents re-partitioned)."""
    return SimEvent(kind="core_failure", start=time, end=time, core=core)


def core_hotplug(time: float, core: int) -> SimEvent:
    """Core ``core`` comes back online (empty) at ``time``."""
    return SimEvent(kind="core_hotplug", start=time, end=time, core=core)


def mode_recovery(start: float, end: float) -> SimEvent:
    """Sanctioned recovery-to-low window ``[start, end]``."""
    return SimEvent(kind="mode_recovery", start=start, end=end)


# ----------------------------------------------------------------------
# Compiled artifacts consumed by the simulators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Membership:
    """One residency interval of a task on a core: ``[join, leave)``."""

    global_index: int  #: index in the compiled full task set
    join: float
    leave: float  #: ``inf`` when the task never leaves the core


class _BurstIndex:
    """Per-entry burst intervals; answers the factor at a release instant."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: tuple[tuple[tuple[float, float, float], ...], ...]):
        self._intervals = intervals

    def factor(self, entry: int, release: float) -> float:
        f = 1.0
        for s, e, factor in self._intervals[entry]:
            if time_reached(release, s) and time_after(e, release):
                f *= factor
        return f


class _RecoveryTracker:
    """Consumes ``mode_recovery`` windows against idle intervals.

    One tracker per simulated core per run (windows are per-core
    opportunities: AMC mode is core-local state).
    """

    __slots__ = ("_pending", "_missed")

    def __init__(self, windows: Iterable[tuple[float, float]]):
        # Windows neither consumed nor passed yet, by start time.
        self._pending = sorted((float(s), float(e)) for s, e in windows)
        self._missed = 0

    def claim(self, idle0: float, idle1: float) -> tuple[float | None, int]:
        """Consume every unconsumed window overlapping ``[idle0, idle1)``.

        Returns ``(earliest instant a reset may apply, windows consumed)``.
        Idle instants only move forward, so a pending window that starts
        before ``idle1`` leaves the cursor here: consumed if it reaches
        ``idle0``, else passed for good (it stays unconsumed).
        """
        pending, due = self._pending, 1
        if not (pending and time_after(idle1, pending[0][0])
                and time_after(idle1, idle0)):
            return None, 0  # no idle time, or no window starts in it
        while due < len(pending) and time_after(idle1, pending[due][0]):
            due += 1
        starts = [max(idle0, s) for s, e in pending[:due] if time_reached(e, idle0)]
        self._missed += due - len(starts)
        del pending[:due]
        return (min(starts) if starts else None), len(starts)

    def unconsumed(self) -> int:
        return self._missed + len(self._pending)


#: Tallies accumulated while the cores simulate (per run).
_RUN_TALLY_KEYS: tuple[str, ...] = (
    "burst_jobs",
    "failure_drops",
    "mode_recovery_applied",
    "mode_recovery_noop",
    "mode_recovery_missed",
)


@dataclass(frozen=True)
class EventOutcome:
    """What the injected events did to one run.

    ``counters`` merges the compile-time admission/repartition tallies
    with the run-time tallies; :meth:`telemetry` exposes them in obs
    counter naming (``sim.event.*``) so a report and a metrics snapshot
    of the same run reconcile key for key — the event-kind analogue of
    :meth:`repro.sched.SystemReport.telemetry`.
    """

    counters: dict[str, int]
    #: per-arrival records ``{"time", "task", "core"}`` (core None = rejected)
    arrivals: tuple[dict[str, Any], ...] = ()
    #: per-failure records with displaced/replaced/lost counts and Λ before/after
    repartitions: tuple[dict[str, Any], ...] = ()

    def telemetry(self) -> dict[str, int]:
        return {f"sim.event.{k}": int(v) for k, v in sorted(self.counters.items())}


@dataclass(frozen=True)
class CompiledEvents:
    """An event script compiled against one partition: its timeline."""

    #: the base task set followed by every arrival, in script order
    full_taskset: MCTaskSet
    #: per core: residency intervals, chronological join order
    memberships: tuple[tuple[Membership, ...], ...]
    #: per core: the tasks of its membership entries, in entry order (the
    #: subset its :class:`~repro.sched.CoreSimulator` runs), or ``None``
    #: for a core that never hosts a task
    residents: tuple[MCTaskSet | None, ...]
    #: per core: failure instants strictly inside the horizon, ascending
    failures: tuple[tuple[float, ...], ...]
    #: per core: deadline-scaling plan per membership epoch, as
    #: ``(epoch start, plan)``; ``plan`` is ``None`` when the resident
    #: subset fails the Theorem-1 analysis (the simulator decides
    #: whether that raises or degrades to identity scaling)
    plans: tuple[tuple[tuple[float, VirtualDeadlineAssignment | None], ...], ...]
    #: per core, per membership entry: burst intervals ``(s, e, factor)``
    burst_intervals: tuple[
        tuple[tuple[tuple[float, float, float], ...], ...], ...
    ]
    #: shared recovery windows (per-core trackers are built per run)
    recovery_windows: tuple[tuple[float, float], ...]
    static_counters: dict[str, int]
    arrivals: tuple[dict[str, Any], ...]
    repartitions: tuple[dict[str, Any], ...]

    def infeasible_epochs(self) -> list[tuple[int, float]]:
        """``(core, epoch start)`` of every resident subset that fails
        the Theorem-1 analysis (arrival admission never creates one, but
        failure re-partitioning onto best-probe cores can)."""
        return [
            (m, t)
            for m, schedule in enumerate(self.plans)
            for t, plan in schedule
            if plan is None
        ]

    def fresh_tallies(self) -> dict[str, int]:
        """A zeroed run-tally dict shared by one run's core views."""
        return {k: 0 for k in _RUN_TALLY_KEYS}

    def first_plan(self, core: int) -> VirtualDeadlineAssignment:
        """``core``'s plan at time 0 (identity scaling when infeasible)."""
        plan = self.plans[core][0][1]
        return identity_plan(self.full_taskset.levels) if plan is None else plan

    def core_view(self, core: int, tallies: dict[str, int]) -> CoreEventView | None:
        """The live adapter for ``core``, or ``None`` when it never hosts
        a task (the system simulator skips it entirely)."""
        entries = self.memberships[core]
        if not entries:
            return None
        # Plan epochs beyond the first become run-time rebinds; epoch 0
        # is the constructor plan.  Infeasible epochs degrade to
        # identity scaling (plain EDF) — the system simulator raises
        # first unless ``allow_infeasible`` sanctioned them.
        levels = self.full_taskset.levels
        changes = tuple(
            (t, plan if plan is not None else identity_plan(levels))
            for t, plan in self.plans[core][1:]
        )
        burst = (
            _BurstIndex(self.burst_intervals[core])
            if any(self.burst_intervals[core])
            else None
        )
        recovery = (
            _RecoveryTracker(self.recovery_windows)
            if self.recovery_windows
            else None
        )
        return CoreEventView(
            joins=tuple(e.join for e in entries),
            leaves=tuple(e.leave for e in entries),
            failures=self.failures[core],
            plan_changes=changes,
            burst=burst,
            recovery=recovery,
            tallies=tallies,
        )

    def outcome(self, tallies: dict[str, int]) -> EventOutcome:
        counters = dict(self.static_counters)
        counters.update(tallies)
        return EventOutcome(
            counters=counters,
            arrivals=self.arrivals,
            repartitions=self.repartitions,
        )


# ----------------------------------------------------------------------
# Checking and compiling a script
# ----------------------------------------------------------------------
def check_events(
    events: Iterable[SimEvent], partition: Partition, horizon: float
) -> tuple[SimEvent, ...]:
    """The script in time order, once nothing in it can fail mid-run.

    Rejects an event that ends past ``horizon``, an unknown task or
    core id, an arrival above the system's ``K``, and an impossible
    sequence (a task departing twice, failing an offline core,
    hotplugging an online one).  Cheap (no probes): the system
    simulator calls it at construction, so a bad script fails before
    any job is drawn.
    """
    # Stable: events at one instant keep their authoring order.
    ordered = tuple(sorted(events, key=lambda e: e.start))
    n_base = len(partition.taskset)
    cores = partition.cores
    levels = partition.taskset.levels
    online = [True] * cores
    departed: set[int] = set()
    for e in ordered:
        if time_after(e.end, horizon):
            raise SimulationError(
                f"{e.kind} event ends past the horizon ({e.end} > {horizon})"
            )
        if e.kind == "wcet_burst" and e.tasks is not None:
            for i in e.tasks:
                if i >= n_base:
                    raise SimulationError(
                        f"wcet_burst names unknown task {i} "
                        f"(task set has {n_base} tasks)"
                    )
        elif e.kind == "task_arrival":
            if e.task.criticality > levels:
                raise SimulationError(
                    f"task_arrival criticality {e.task.criticality} "
                    f"exceeds the system's K={levels}"
                )
        elif e.kind == "task_departure":
            if e.task_index >= n_base:
                raise SimulationError(
                    f"task_departure names unknown task {e.task_index} "
                    f"(task set has {n_base} tasks)"
                )
            if e.task_index in departed:
                raise SimulationError(
                    f"task {e.task_index} departs twice (second at "
                    f"t={e.start})"
                )
            departed.add(e.task_index)
        elif e.kind in ("core_failure", "core_hotplug"):
            if e.core >= cores:
                raise SimulationError(
                    f"{e.kind} names unknown core {e.core} "
                    f"(system has {cores} cores)"
                )
            failing = e.kind == "core_failure"
            if online[e.core] != failing:
                verb = "fails" if failing else "hotplugs"
                state = "offline" if failing else "online"
                raise SimulationError(
                    f"core {e.core} {verb} at t={e.start} but is already {state}"
                )
            online[e.core] = not failing
    return ordered


def compile_events(
    events: Sequence[SimEvent], partition: Partition, horizon: float
) -> CompiledEvents:
    """Replay a checked script against ``partition`` and freeze its timeline.

    ``events`` is the script as :func:`check_events` returns it; the
    empty script gives the static timeline (every task joins its core
    at 0 and never leaves).  Deterministic and RNG-free: placement is
    pure Theorem-1 probing, so one compilation serves any number of
    seeded runs.  Emits one ``sim.event.<kind>`` span per event under a
    ``sim.events.compile`` parent when instrumentation is on.
    """
    with span("sim.events.compile", events=len(events)):
        return _compile(events, partition, horizon)


def _compile(
    events: Sequence[SimEvent], partition: Partition, horizon: float
) -> CompiledEvents:
    base = partition.taskset
    n_base = len(base)
    cores = partition.cores

    arriving = [e.task for e in events if e.kind == "task_arrival"]
    full = base.appended(arriving) if arriving else base
    assignment = partition.assignment.tolist() + [-1] * len(arriving)
    # Only arrivals and failures place tasks: without them nothing
    # probes the live copy, so none is built.
    placing = any(e.kind in ("task_arrival", "core_failure") for e in events)
    live = Partition.from_assignment(full, cores, assignment) if placing else None

    online = np.ones(cores, dtype=bool)
    # Per-task open residency: global index -> (core, join instant).
    open_slot: dict[int, tuple[int, float]] = {
        i: (assignment[i], 0.0) for i in range(n_base)
    }
    memberships: list[list[Membership]] = [[] for _ in range(cores)]
    failures: list[list[float]] = [[] for _ in range(cores)]
    recovery_windows: list[tuple[float, float]] = []
    bursts: list[SimEvent] = []
    arrival_records: list[dict[str, Any]] = []
    repartition_records: list[dict[str, Any]] = []
    counters: dict[str, int] = {
        "injected": len(events),
        "arrival_admitted": 0,
        "arrival_rejected": 0,
        "departures": 0,
        "departure_noop": 0,
        "core_failures": 0,
        "core_hotplugs": 0,
        "displaced": 0,
        "replaced": 0,
        "repartition_lost": 0,
    }
    next_arrival = n_base

    def close(gidx: int, leave: float) -> None:
        core, join = open_slot.pop(gidx)
        memberships[core].append(Membership(global_index=gidx, join=join, leave=leave))

    def best_online_core(gidx: int) -> int | None:
        """The serve daemon's pick (:func:`best_core`) among the
        online cores, or ``None``."""
        t0 = perf_counter()
        (row,) = BATCH.answer(
            probe_request(live.level_matrices(), full, [gidx])
        )[1]
        if OBS.enabled:
            add_span_time("probe", perf_counter() - t0)
        return best_core(row, online)

    for event in events:
        with span(f"sim.event.{event.kind}", t=event.start):
            if event.kind == "wcet_burst":
                bursts.append(event)
            elif event.kind == "mode_recovery":
                recovery_windows.append((event.start, event.end))
            elif event.kind == "task_arrival":
                gidx = next_arrival
                next_arrival += 1
                core = best_online_core(gidx)
                if core is None:
                    counters["arrival_rejected"] += 1
                else:
                    live.assign(gidx, core)
                    open_slot[gidx] = (core, event.start)
                    counters["arrival_admitted"] += 1
                arrival_records.append(
                    {
                        "time": event.start,
                        "task": full.names[gidx] or f"task{gidx}",
                        "core": core,
                    }
                )
            elif event.kind == "task_departure":
                gidx = event.task_index
                if gidx in open_slot:
                    close(gidx, event.start)
                    if live is not None:
                        live.unassign(gidx)
                    counters["departures"] += 1
                else:
                    # Lost in an earlier failed re-partition: the
                    # departure has nothing left to remove.
                    counters["departure_noop"] += 1
            elif event.kind == "core_failure":
                m = event.core
                counters["core_failures"] += 1
                online[m] = False
                if not time_reached(event.start, horizon):
                    failures[m].append(event.start)
                lam_before = imbalance_factor(live.core_utilizations())
                displaced = list(live.tasks_on(m))
                for gidx in displaced:
                    close(gidx, event.start)
                    live.unassign(gidx)
                # Criticality-aware order: highest criticality first,
                # then largest own-level utilization — the most
                # constrained tasks pick their core first.
                own = full.max_utilizations()
                crit = full.criticalities
                displaced.sort(key=lambda i: (-crit[i], -own[i]))
                replaced = lost = 0
                for gidx in displaced:
                    core = best_online_core(gidx)
                    if core is None:
                        lost += 1
                    else:
                        live.assign(gidx, core)
                        open_slot[gidx] = (core, event.start)
                        replaced += 1
                counters["displaced"] += len(displaced)
                counters["replaced"] += replaced
                counters["repartition_lost"] += lost
                repartition_records.append(
                    {
                        "time": event.start,
                        "core": m,
                        "displaced": len(displaced),
                        "replaced": replaced,
                        "lost": lost,
                        "lambda_before": lam_before,
                        "lambda_after": imbalance_factor(live.core_utilizations()),
                    }
                )
            elif event.kind == "core_hotplug":
                counters["core_hotplugs"] += 1
                online[event.core] = True

    # Close every residency still open at the horizon.
    for gidx in sorted(open_slot):
        close(gidx, float("inf"))

    membership_tuple = tuple(tuple(ms) for ms in memberships)
    residents = tuple(
        full.subset([e.global_index for e in ms]) if ms else None
        for ms in membership_tuple
    )
    burst_intervals = tuple(
        tuple(
            tuple(
                (b.start, b.end, b.factor)
                for b in bursts
                if b.tasks is None or entry.global_index in b.tasks
            )
            for entry in ms
        )
        for ms in membership_tuple
    )
    return CompiledEvents(
        full_taskset=full,
        memberships=membership_tuple,
        residents=residents,
        failures=tuple(tuple(f) for f in failures),
        plans=tuple(
            _plan_schedule(ms, subset)
            for ms, subset in zip(membership_tuple, residents)
        ),
        burst_intervals=burst_intervals,
        recovery_windows=tuple(recovery_windows),
        static_counters=counters,
        arrivals=tuple(arrival_records),
        repartitions=tuple(repartition_records),
    )


def _plan_schedule(
    entries: Sequence[Membership], subset: MCTaskSet | None
) -> tuple[tuple[float, VirtualDeadlineAssignment | None], ...]:
    """Deadline-scaling plan per membership epoch of one core.

    ``subset`` holds the tasks of ``entries``, in order.  Epoch
    boundaries are the distinct join/leave instants; the plan of an
    epoch is the Theorem-1 assignment over the tasks resident
    throughout it (identity when the core is empty, ``None`` when the
    resident subset is infeasible — the caller decides what that
    means).
    """
    if not entries:
        return ()
    marks = {0.0}
    for e in entries:
        marks.add(e.join)
        if np.isfinite(e.leave):
            marks.add(e.leave)
    schedule: list[tuple[float, VirtualDeadlineAssignment | None]] = []
    for t in sorted(marks):
        resident = [
            i
            for i, e in enumerate(entries)
            if time_reached(t, e.join) and time_after(e.leave, t)
        ]
        if not resident:
            plan: VirtualDeadlineAssignment | None = identity_plan(subset.levels)
        else:
            plan = assign_virtual_deadlines(subset.subset(resident))
        schedule.append((t, plan))
    return tuple(schedule)
