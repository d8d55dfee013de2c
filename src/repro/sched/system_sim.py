"""Multicore partitioned EDF-VD simulation.

Under partitioned scheduling the cores share nothing at run time, so the
system simulator simply runs one :class:`~repro.sched.CoreSimulator` per
non-empty core (each with its own child RNG stream) and aggregates the
reports.  Every run reads the event timeline (:mod:`repro.sched.events`)
its simulator compiled once: the simulator's event script, or the empty
one, in which every task stays on its core for the whole horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.partition import Partition
from repro.obs.runtime import OBS, span
from repro.sched.core_sim import CoreReport, CoreSimulator, checked_horizon
from repro.sched.events import (
    EventOutcome,
    SimEvent,
    check_events,
    compile_events,
)
from repro.sched.scenario import ExecutionScenario
from repro.types import SimulationError

__all__ = ["SystemSimulator", "SystemReport", "default_horizon"]


def default_horizon(partition: Partition, cycles: float = 20.0) -> float:
    """A pragmatic horizon: ``cycles`` times the longest period.

    Full hyperperiods of the paper's workloads (integer periods up to
    2000) are astronomically long; a few tens of max-period cycles
    exercise every release phase relation that matters in practice.
    """
    if not 0 < cycles < np.inf:  # a NaN or infinite horizon never ends
        raise SimulationError(f"cycles must be positive and finite, got {cycles}")
    longest = max((t.period for t in partition.taskset), default=None)
    if longest is None:
        raise SimulationError(
            "cannot derive a horizon from an empty task set; "
            "pass an explicit horizon instead"
        )
    return cycles * longest


@dataclass
class SystemReport:
    """Aggregated simulation outcome for a whole partition."""

    core_reports: list[CoreReport | None]  #: ``None`` for empty cores
    #: what the injected events did (``None`` for a run without a script)
    events: EventOutcome | None = None

    @property
    def miss_count(self) -> int:
        return sum(r.miss_count for r in self.core_reports if r is not None)

    @property
    def released(self) -> int:
        return sum(r.released for r in self.core_reports if r is not None)

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.core_reports if r is not None)

    @property
    def dropped(self) -> int:
        return sum(r.dropped for r in self.core_reports if r is not None)

    @property
    def pending(self) -> int:
        return sum(r.pending for r in self.core_reports if r is not None)

    @property
    def mode_switches(self) -> int:
        return sum(r.mode_switches for r in self.core_reports if r is not None)

    @property
    def idle_resets(self) -> int:
        return sum(r.idle_resets for r in self.core_reports if r is not None)

    @property
    def max_mode(self) -> int:
        return max(
            (r.max_mode for r in self.core_reports if r is not None), default=1
        )

    def all_deadlines_met(self) -> bool:
        return self.miss_count == 0

    def telemetry(self) -> dict[str, int]:
        """System-wide protocol tallies in obs counter naming.

        The keys match the ``sim.*`` counters the core simulator records
        when instrumentation is enabled, so a report and a metrics
        snapshot of the same run reconcile key-for-key.
        """
        return {
            "sim.cores_simulated": sum(
                1 for r in self.core_reports if r is not None
            ),
            "sim.released": self.released,
            "sim.completed": self.completed,
            "sim.dropped": self.dropped,
            "sim.pending": self.pending,
            "sim.censored": sum(
                r.censored for r in self.core_reports if r is not None
            ),
            "sim.mode_up": self.mode_switches,
            "sim.idle_reset": self.idle_resets,
            "sim.deadline_miss": self.miss_count,
        }

    def event_telemetry(self) -> dict[str, int]:
        """``sim.event.*`` tallies of the event script (empty for a run
        without one)."""
        return {} if self.events is None else self.events.telemetry()


class SystemSimulator:
    """Simulates a complete task-to-core partition.

    The constructor checks the event script and compiles the timeline
    once; every :meth:`run` simulates that timeline under its own
    scenario and seed, so the scenarios of one partition share a
    simulator.

    Parameters
    ----------
    partition:
        A complete partition (every task assigned).
    horizon:
        Simulated time span, positive and finite; defaults to
        :func:`default_horizon`.
    allow_infeasible:
        When False (default), a core whose resident subset fails the
        Theorem-1 analysis (at the start, or after an event
        re-partitioned it) raises :class:`SimulationError` — simulating
        it would have no guarantee to validate.  Failure-injection
        experiments pass True, in which case such cores run plain EDF
        (identity deadline scaling) and misses are expected.
    releases:
        Arrival model shared by all cores (``None`` = periodic); see
        :mod:`repro.sched.releases`.
    events:
        An event script, a sequence of
        :class:`~repro.sched.events.SimEvent` (requires periodic
        releases), checked against the horizon and the partition and
        compiled here.  ``None`` runs the empty timeline and reports no
        event outcome.
    """

    def __init__(
        self,
        partition: Partition,
        horizon: float | None = None,
        allow_infeasible: bool = False,
        releases=None,
        events: Sequence[SimEvent] | None = None,
    ):
        if not partition.is_complete:
            raise SimulationError("partition must assign every task")
        self.partition = partition
        self.horizon = checked_horizon(
            default_horizon(partition) if horizon is None else horizon
        )
        self.releases = releases
        if events is not None and releases is not None:
            raise SimulationError(
                "event injection requires periodic releases; "
                "combining it with a release model is not supported"
            )
        #: the event script in time order, or ``None``.  Unknown ids and
        #: impossible sequences fail here, before any job is drawn.
        self.events = (
            None if events is None else check_events(events, partition, self.horizon)
        )
        #: the script (or the empty one) compiled against the partition
        self.timeline = compile_events(self.events or (), partition, self.horizon)
        infeasible = self.timeline.infeasible_epochs()
        if infeasible and not allow_infeasible:
            core, at = infeasible[0]
            raise SimulationError(
                f"core {core} fails the EDF-VD schedulability analysis "
                f"from t={at}; pass allow_infeasible=True to simulate it "
                "anyway"
            )

    def run(
        self,
        scenario: ExecutionScenario,
        seed: int | np.random.SeedSequence = 0,
    ) -> SystemReport:
        """Simulate every non-empty core under ``scenario`` (shared by
        all cores); one trace span per core.

        Instrumented, the whole run is a ``sim.system`` span with one
        ``sim.core`` child per simulated core, so a trace shows which
        core dominated the simulation time.
        """
        with span("sim.system", cores=self.partition.cores):
            return self._run(scenario, seed)

    def _run(
        self, scenario: ExecutionScenario, seed: int | np.random.SeedSequence
    ) -> SystemReport:
        if not isinstance(seed, np.random.SeedSequence) and seed < 0:
            raise SimulationError(f"seed must be >= 0, got {seed}")
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # Not ``root.spawn``, which advances a caller's reused sequence;
        # for an unspawned root the children are the same.
        key, pool = root.spawn_key, root.pool_size
        children = [
            np.random.SeedSequence(root.entropy, spawn_key=(*key, m), pool_size=pool)
            for m in range(self.partition.cores)
        ]
        tallies = self.timeline.fresh_tallies()
        reports: list[CoreReport | None] = []
        for m in range(self.partition.cores):
            view = self.timeline.core_view(m, tallies)
            if view is None:
                reports.append(None)
                continue
            sim = CoreSimulator(
                subset=self.timeline.residents[m],
                plan=self.timeline.first_plan(m),
                scenario=scenario,
                rng=np.random.default_rng(children[m]),
                horizon=self.horizon,
                releases=self.releases,
                events=view,
            )
            with span("sim.core", core=m, tasks=len(view.joins)):
                reports.append(sim.run())
        return SystemReport(core_reports=reports, events=self._outcome(tallies))

    def _outcome(self, tallies: dict[str, int]) -> EventOutcome | None:
        """What the script did to one run, mirrored into the
        ``sim.event.*`` counters; ``None`` without a script, so a plain
        run reports and records no event outcome."""
        if self.events is None:
            return None
        outcome = self.timeline.outcome(tallies)
        if OBS.enabled:
            reg = OBS.registry
            for name, value in outcome.telemetry().items():
                reg.counter(name).inc(value)
        return outcome
