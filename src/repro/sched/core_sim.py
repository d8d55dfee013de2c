"""Event-driven simulation of EDF-VD + AMC on one core.

The simulator implements the run-time rules of Sections II-III:

* preemptive EDF on *virtual* absolute deadlines
  ``release + scale(l_i, mode) * p_i``, where the scale comes from the
  core's :class:`~repro.analysis.VirtualDeadlineAssignment`;
* AMC mode switches: while the core is at mode ``m``, a job of a task
  with ``l_i > m`` that executes for its level-``m`` budget ``c_i(m)``
  without completing raises the mode to ``m + 1`` at that instant;
  jobs (and future releases) of tasks with ``l_i < mode`` are dropped;
* idle reset: the moment the core has no pending workload it returns to
  mode 1 and all tasks release normally again (from their next period
  boundary — releases are periodic and never shifted);
* miss accounting is against *original* deadlines and only for jobs the
  protocol did not drop.

The loop advances from event to event (release / completion / budget
boundary), so simulated time is exact up to float rounding; no quantum
is involved.

Release timeline
----------------
Every run reads a :class:`CoreEventView`: entry ``i`` of the subset is
resident over ``[joins[i], leaves[i])``, and the view lists the core's
failure instants, plan rebinds, WCET bursts and recovery windows, all
resolved before the run (:func:`repro.sched.events.compile_events`).
A simulator built without a view reads the static one: every entry
joins at 0 and never leaves, and nothing else happens.

Each entry's next release is one ``(time, entry index)`` item of a
heap, whose top is the next release event.  At each scheduling point
every item due within ``TIME_EPS`` is popped and the batch is released
in *index* order, not heap order: near-coincident releases take their
``seq`` numbers and RNG draws by index.  A release at or after the
entry's leave is never pushed, and a core failure drops the items of
the residents that left.

Time comparison convention
--------------------------
Every float comparison is :func:`time_after` or :func:`time_reached`
(the run loop spells them out inline) with the single tolerance
``TIME_EPS``: two instants (or durations) closer than ``TIME_EPS`` are
the *same* instant.  Two consequences worth spelling out:

* a demand within ``TIME_EPS`` of the level-``m`` budget counts as
  completing *at* the budget, never as an overrun — the budget trigger
  only arms for ``exec_time`` strictly beyond the budget;
* when a budget overrun coincides with a release (same instant up to
  ``TIME_EPS``), the mode is raised *first*, so the coinciding release
  is admitted or dropped under the raised mode, as AMC requires.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.virtual_deadlines import VirtualDeadlineAssignment
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS
from repro.sched.job import Job
from repro.sched.scenario import ExecutionScenario
from repro.sched.trace import EventKind, ExecutionSlice, Trace, TraceEvent
from repro.types import SimulationError

__all__ = [
    "CoreEventView",
    "CoreSimulator",
    "CoreReport",
    "DeadlineMiss",
    "checked_horizon",
    "time_after",
    "time_reached",
]

#: Simulation time comparison tolerance.
TIME_EPS: float = 1e-9


def time_after(a: float, b: float) -> bool:
    """True when ``a`` lies strictly after ``b`` (beyond ``TIME_EPS``)."""
    return a > b + TIME_EPS


def time_reached(a: float, b: float) -> bool:
    """True when ``a`` has reached ``b`` (equal within ``TIME_EPS`` or past)."""
    return a >= b - TIME_EPS


def checked_horizon(horizon: float) -> float:
    """``horizon`` as a float, once it is positive and finite (a NaN or
    infinite horizon is never reached, so the run would never end)."""
    horizon = float(horizon)
    if not 0.0 < horizon < np.inf:
        raise SimulationError(f"horizon must be positive and finite, got {horizon}")
    return horizon


@dataclass(frozen=True)
class CoreEventView:
    """What one core's run reads of the event timeline.

    Entry ``i`` of the simulated subset is resident over ``[joins[i],
    leaves[i])``.  Everything is resolved before the run; the loop
    reads it and never interprets events.
    """

    joins: tuple[float, ...]
    leaves: tuple[float, ...]  #: ``inf`` for an entry that never leaves
    #: instants the core goes offline, ascending
    failures: tuple[float, ...] = ()
    #: ``(instant, plan)`` rebinds after the constructor's plan
    plan_changes: tuple[tuple[float, VirtualDeadlineAssignment], ...] = ()
    #: per-entry WCET-burst factors (``factor(entry, release)``), or ``None``
    burst: Any = None
    #: the ``mode_recovery`` window tracker, or ``None`` (automatic idle
    #: resets)
    recovery: Any = None
    #: run tallies, shared by the views of one system run
    tallies: dict[str, int] = field(default_factory=dict)

    @classmethod
    def static(cls, entries: int) -> CoreEventView:
        """The view of a run without events: every entry joins at 0 and
        never leaves."""
        return cls(joins=(0.0,) * entries, leaves=(np.inf,) * entries)


@dataclass(frozen=True)
class DeadlineMiss:
    """A non-dropped job that completed (or was still pending) past its
    original deadline."""

    task_index: int
    level: int
    release: float
    deadline: float
    lateness: float  #: > 0; inf for jobs still pending at the horizon


@dataclass
class CoreReport:
    """Statistics of one core's simulation run."""

    horizon: float
    released: int = 0
    completed: int = 0
    dropped: int = 0  #: jobs cancelled by mode switches or dropped at release
    censored: int = 0  #: jobs whose deadline lies beyond the horizon
    pending: int = 0  #: jobs still in the ready queue at the horizon
    mode_switches: int = 0
    idle_resets: int = 0
    max_mode: int = 1
    busy_time: float = 0.0
    misses: list[DeadlineMiss] = field(default_factory=list)
    trace: Trace | None = None  #: populated when tracing is enabled

    @property
    def miss_count(self) -> int:
        return len(self.misses)

    @property
    def utilization_observed(self) -> float:
        return self.busy_time / self.horizon if self.horizon > 0 else 0.0


class CoreSimulator:
    """Simulates one core's task subset under EDF-VD + AMC."""

    def __init__(
        self,
        subset: MCTaskSet,
        plan: VirtualDeadlineAssignment,
        scenario: ExecutionScenario,
        rng: np.random.Generator,
        horizon: float,
        record_trace: bool = False,
        releases=None,
        events: CoreEventView | None = None,
    ):
        if plan.levels != subset.levels:
            raise SimulationError(
                f"plan has {plan.levels} levels but subset has {subset.levels}"
            )
        self.subset = subset
        self.plan = plan
        self.scenario = scenario
        self.rng = rng
        self.horizon = checked_horizon(horizon)
        self.record_trace = record_trace
        #: arrival model; ``None`` means strictly periodic releases.
        #: See :mod:`repro.sched.releases`.
        self.releases = releases
        #: the core's view of the event timeline; without one, the
        #: static view (every entry joins at 0 and never leaves)
        self.events = CoreEventView.static(len(subset)) if events is None else events
        if len(self.events.joins) != len(subset):
            raise SimulationError(
                f"event view describes {len(self.events.joins)} membership "
                f"entries but the subset has {len(subset)} tasks"
            )

    # ------------------------------------------------------------------
    def run(self) -> CoreReport:
        # The loop spells out time_after(a, b) as ``a > b + eps``,
        # time_reached(a, b) as ``a >= b - eps`` and Job.remaining as
        # ``exec_time - executed``: the same operations, without a call.
        subset, plan, horizon = self.subset, self.plan, self.horizon
        draw, rng, releases = self.scenario.draw, self.rng, self.releases
        eps, inf = TIME_EPS, np.inf
        report = CoreReport(horizon=horizon)
        tasks = list(subset)
        periods = [t.period for t in tasks]
        levels = [t.criticality for t in tasks]
        wcets = [t.wcets for t in tasks]

        view = self.events
        leaves = view.leaves
        # The release timeline: a heap of (next release, entry index).
        # Entries whose residency is empty never release.
        timeline = [
            (join, i)
            for i, join in enumerate(view.joins)
            if time_after(leaves[i], join)
        ]
        heapq.heapify(timeline)
        burst, recovery, tallies = view.burst, view.recovery, view.tallies
        fail_times, plan_changes = view.failures, view.plan_changes
        fail_idx = 0
        next_fail = fail_times[0] if fail_times else inf
        plan_idx, n_changes = 0, len(plan_changes)

        mode = 1
        time = 0.0
        seq = 0
        # heap entries: (virtual_deadline, seq, job)
        ready: list[tuple[float, int, Job]] = []
        trace = Trace(events=[], slices=[]) if self.record_trace else None
        # scales[i, mode]: entry i's deadline scale at ``mode`` under the
        # current plan, asked of the plan once and cleared at a rebind.
        # Keyed by entry, not level: a per-task plan scales each task on
        # its own.
        scales: dict[tuple[int, int], float] = {}

        def record(kind: EventKind, now: float, task_index: int | None = None):
            trace.events.append(
                TraceEvent(time=now, kind=kind, task_index=task_index, mode=mode)
            )

        def push(job: Job) -> None:
            i = job.task_index
            scale = scales.get((i, mode))
            if scale is None:
                scale = scales[i, mode] = plan.task_scale(i, int(job.level), mode)
            release = job.release
            heapq.heappush(
                ready, (release + scale * (job.deadline - release), job.seq, job)
            )

        def rebuild() -> None:
            jobs = [entry[2] for entry in ready]
            ready.clear()
            for job in jobs:
                push(job)

        def release_due(now: float) -> None:
            nonlocal seq
            due, cutoff = [], now + eps
            while timeline and timeline[0][0] <= cutoff:
                due.append(heapq.heappop(timeline))
            # One due batch is released in task-index order, whatever
            # the order of its (near-)coincident instants.
            if len(due) > 1:
                due.sort(key=lambda entry: entry[1])
            for r, i in due:
                task = tasks[i]
                exec_time = float(draw(task, rng))
                if burst is not None:
                    factor = burst.factor(i, r)
                    if factor != 1.0:
                        exec_time *= factor
                        tallies["burst_jobs"] += 1
                # NaN fails this test too: a NaN demand corrupts the
                # report, and an infinite one never completes.
                if not 0.0 < exec_time < inf:
                    raise SimulationError(
                        f"entry {i}: execution demand must be positive and "
                        f"finite, got {exec_time}"
                    )
                # task_index, level, release, deadline, exec_time, seq
                job = Job(i, levels[i], r, r + periods[i], exec_time, seq)
                seq += 1
                report.released += 1
                if job.deadline > horizon + eps:
                    report.censored += 1
                if trace is not None:
                    record(EventKind.RELEASE, now, i)
                if job.level < mode:
                    job.dropped_at = now
                    report.dropped += 1
                    if trace is not None:
                        record(EventKind.DROP, now, i)
                else:
                    push(job)
                if releases is None:
                    gap = periods[i]
                else:
                    gap = float(releases.interarrival(task, rng))
                    # A NaN gap fails this test too: its release would
                    # never be due, and the run would never end.  An
                    # infinite gap is legal: the task never releases again.
                    if not gap >= periods[i] - eps:
                        raise SimulationError(
                            f"entry {i}: interarrival must be a number no less "
                            f"than the period {periods[i]}, got {gap}"
                        )
                upcoming_release = r + gap
                # The residency ends first: no release at/after it.
                if not upcoming_release >= leaves[i] - eps:
                    heapq.heappush(timeline, (upcoming_release, i))

        def raise_mode(now: float) -> None:
            nonlocal mode
            mode += 1
            report.mode_switches += 1
            report.max_mode = max(report.max_mode, mode)
            if trace is not None:
                record(EventKind.MODE_UP, now)
            # Cancel jobs of tasks below the new mode, and re-key the
            # survivors' virtual deadlines at it.
            survivors = []
            for _, _, job in ready:
                if job.level < mode:
                    job.dropped_at = now
                    report.dropped += 1
                    if trace is not None:
                        record(EventKind.DROP, now, job.task_index)
                else:
                    survivors.append(job)
            ready.clear()
            for job in survivors:
                push(job)

        def finish(job: Job, now: float) -> None:
            job.completion = now
            report.completed += 1
            if trace is not None:
                record(EventKind.COMPLETE, now, job.task_index)
            deadline = job.deadline
            if not deadline > horizon + eps and now > deadline + eps:
                if trace is not None:
                    record(EventKind.MISS, now, job.task_index)
                report.misses.append(
                    DeadlineMiss(
                        task_index=job.task_index,
                        level=job.level,
                        release=job.release,
                        deadline=deadline,
                        lateness=now - deadline,
                    )
                )

        def apply_failure(now: float) -> None:
            """Core goes offline: drop everything in flight, silence the
            residents that left, restart (a later hotplug) at mode 1."""
            nonlocal mode
            for _, _, job in ready:
                job.dropped_at = now
                report.dropped += 1
                tallies["failure_drops"] += 1
                if trace is not None:
                    record(EventKind.DROP, now, job.task_index)
            ready.clear()
            timeline[:] = [e for e in timeline if leaves[e[1]] > now + eps]
            heapq.heapify(timeline)
            mode = 1  # not an idle reset: the core restarts empty

        while not time >= horizon - eps:
            if time >= next_fail - eps:
                apply_failure(next_fail)
                fail_idx += 1
                next_fail = (
                    fail_times[fail_idx]
                    if fail_idx < len(fail_times)
                    else inf
                )
                continue
            # Membership changed: rebind the deadline-scaling plan at the
            # next scheduling point at/after the epoch boundary (jobs
            # already keyed keep the plan they were released under).
            while plan_idx < n_changes and time >= plan_changes[plan_idx][0] - eps:
                plan = plan_changes[plan_idx][1]
                plan_idx += 1
                scales.clear()
                rebuild()
            if timeline and timeline[0][0] <= time + eps:
                release_due(time)
            next_release = timeline[0][0] if timeline else inf
            if not ready:
                idle_until = min(next_release, horizon, next_fail)
                if recovery is None:
                    if mode != 1:
                        # Idle instant: AMC resets to the lowest mode.
                        mode = 1
                        report.idle_resets += 1
                        if trace is not None:
                            record(EventKind.IDLE_RESET, time)
                else:
                    # Explicit-recovery protocol: the reset needs an idle
                    # instant *inside a sanctioned window* (consumed
                    # while already at mode 1 -> no-op).
                    applied, consumed = recovery.claim(time, idle_until)
                    if consumed:
                        if mode != 1:
                            mode = 1
                            report.idle_resets += 1
                            if trace is not None:
                                record(EventKind.IDLE_RESET, applied)
                            tallies["mode_recovery_applied"] += consumed
                        else:
                            tallies["mode_recovery_noop"] += consumed
                time = idle_until
                continue

            vd, _, job = ready[0]
            next_event = min(next_release, horizon)

            # Budget boundary that would trigger a mode switch: only for
            # tasks above the current mode (Section II-A).  There
            # ``mode < l_i``, so the budget index is in range.
            budget_trigger = inf
            if job.level > mode:
                budget = wcets[job.task_index][mode - 1]
                if job.exec_time > budget + eps:
                    if job.executed >= budget - eps:
                        # Already at the boundary (e.g. a release landed
                        # exactly there): the overrun happens the instant
                        # the job resumes.
                        budget_trigger = time
                    else:
                        budget_trigger = time + (budget - job.executed)

            completion_at = time + (job.exec_time - job.executed)
            run_until = min(completion_at, next_event, budget_trigger, next_fail)
            delta = run_until - time
            if delta < -eps:
                raise SimulationError("simulation time went backwards")
            if delta < 0.0:
                delta = 0.0
            job.executed += delta
            report.busy_time += delta
            if trace is not None and delta > 0.0:
                last = trace.slices[-1] if trace.slices else None
                if (
                    last is not None
                    and last.task_index == job.task_index
                    and abs(last.end - time) <= eps
                ):
                    last.end = run_until  # merge contiguous slices
                else:
                    trace.slices.append(
                        ExecutionSlice(
                            start=time, end=run_until, task_index=job.task_index
                        )
                    )
            time = run_until

            # Zero remaining demand means the job ran to (within
            # TIME_EPS of) completion before any release or budget
            # boundary.  When the trigger is armed the demand left at
            # the boundary is exec_time - budget > TIME_EPS, so the two
            # branches are mutually exclusive.  The trigger branch
            # deliberately ignores next_event: a release coinciding
            # with the budget instant must be processed under the
            # raised mode (see module docstring).
            if not job.exec_time - job.executed > eps:
                heapq.heappop(ready)
                finish(job, time)
            elif time >= budget_trigger - eps:
                raise_mode(time)  # re-keys the survivors itself
            # else: a release preempts; loop handles it.

        # Horizon reached: pending jobs whose deadline passed are misses.
        if recovery is not None:
            # Recovery windows no idle instant ever covered.
            tallies["mode_recovery_missed"] += recovery.unconsumed()
        report.pending = len(ready)
        for _, _, job in ready:
            if not time_after(job.deadline, horizon) and time_after(job.remaining, 0.0):
                report.misses.append(
                    DeadlineMiss(
                        task_index=job.task_index,
                        level=job.level,
                        release=job.release,
                        deadline=job.deadline,
                        lateness=float("inf"),
                    )
                )
        report.trace = trace
        if OBS.enabled:
            _record_core_report(report)
        return report


def _record_core_report(report: CoreReport) -> None:
    """Mirror one core run's protocol tallies into the obs registry.

    Called once per :meth:`CoreSimulator.run`, so the instrumentation
    cost is independent of the number of simulated events.  The counter
    totals reconcile exactly with the report fields (and, when tracing
    is on, with ``Trace.counts()`` — except ``sim.deadline_miss``, which
    also includes jobs still pending at the horizon, for which no MISS
    trace event exists).
    """
    reg = OBS.registry
    reg.counter("sim.cores_simulated").inc()
    reg.counter("sim.released").inc(report.released)
    reg.counter("sim.completed").inc(report.completed)
    reg.counter("sim.dropped").inc(report.dropped)
    reg.counter("sim.pending").inc(report.pending)
    reg.counter("sim.censored").inc(report.censored)
    reg.counter("sim.mode_up").inc(report.mode_switches)
    reg.counter("sim.idle_reset").inc(report.idle_resets)
    reg.counter("sim.deadline_miss").inc(report.miss_count)
    reg.histogram("sim.core_utilization_observed").observe(
        report.utilization_observed
    )
