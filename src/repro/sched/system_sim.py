"""Multicore partitioned EDF-VD simulation.

Under partitioned scheduling the cores share nothing at run time, so the
system simulator simply runs one :class:`~repro.sched.CoreSimulator` per
non-empty core (each with its own child RNG stream) and aggregates the
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.virtual_deadlines import assign_virtual_deadlines
from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS, span
from repro.sched.core_sim import TIME_EPS, CoreReport, CoreSimulator
from repro.sched.events import (
    CompiledEvents,
    EventInjectionRuntime,
    EventOutcome,
    identity_plan,
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
    #: what the injected events did (only when a runtime was attached)
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
        """``sim.event.*`` tallies of the attached runtime (empty when
        no events were injected into the run)."""
        return {} if self.events is None else self.events.telemetry()


class SystemSimulator:
    """Simulates a complete task-to-core partition.

    Parameters
    ----------
    partition:
        A complete partition (every task assigned).
    scenario:
        Execution-demand scenario shared by all cores.
    horizon:
        Simulated time span; defaults to :func:`default_horizon`.
    allow_infeasible:
        When False (default), a core subset that fails the Theorem-1
        analysis raises :class:`SimulationError` — simulating it would
        have no guarantee to validate.  Failure-injection experiments
        pass True, in which case such cores run plain EDF (identity
        deadline scaling) and misses are expected.
    """

    def __init__(
        self,
        partition: Partition,
        scenario: ExecutionScenario,
        horizon: float | None = None,
        allow_infeasible: bool = False,
        releases=None,
        events: EventInjectionRuntime | None = None,
    ):
        if not partition.is_complete:
            raise SimulationError("partition must assign every task")
        self.partition = partition
        self.scenario = scenario
        self.horizon = (
            default_horizon(partition) if horizon is None else float(horizon)
        )
        self.allow_infeasible = allow_infeasible
        #: arrival model shared by all cores (None = periodic);
        #: see :mod:`repro.sched.releases`.
        self.releases = releases
        #: injected-event runtime (:mod:`repro.sched.events`) or ``None``.
        self.events = events
        self._compiled: CompiledEvents | None = None
        if events is not None:
            if releases is not None:
                raise SimulationError(
                    "event injection requires periodic releases; "
                    "combining it with a release model is not supported"
                )
            if abs(events.horizon - self.horizon) > TIME_EPS:
                raise SimulationError(
                    f"event runtime was validated for horizon "
                    f"{events.horizon} but the simulator runs to "
                    f"{self.horizon}"
                )
            # Up-front: unknown ids / impossible sequences fail here,
            # before any job is drawn.
            events.validate_against(partition)

    def run(self, seed: int | np.random.SeedSequence = 0) -> SystemReport:
        """Simulate every non-empty core; one trace span per core.

        Instrumented, the whole run is a ``sim.system`` span with one
        ``sim.core`` child per simulated core, so a trace shows which
        core dominated the simulation time.
        """
        with span("sim.system", cores=self.partition.cores):
            return self._run(seed)

    def _run(self, seed: int | np.random.SeedSequence) -> SystemReport:
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
        compiled = self._compile_events()
        if compiled is not None and not compiled.is_trivial:
            report = self._run_evented(compiled, children)
        else:
            reports: list[CoreReport | None] = []
            for m in range(self.partition.cores):
                subset_indices = self.partition.tasks_on(m)
                if not subset_indices:
                    reports.append(None)
                    continue
                subset = self.partition.taskset.subset(subset_indices)
                plan = assign_virtual_deadlines(subset)
                if plan is None:
                    if not self.allow_infeasible:
                        raise SimulationError(
                            f"core {m} fails the EDF-VD schedulability "
                            "analysis; pass allow_infeasible=True to "
                            "simulate it anyway"
                        )
                    plan = identity_plan(subset.levels)
                sim = CoreSimulator(
                    subset=subset,
                    plan=plan,
                    scenario=self.scenario,
                    rng=np.random.default_rng(children[m]),
                    horizon=self.horizon,
                    releases=self.releases,
                )
                with span("sim.core", core=m, tasks=len(subset_indices)):
                    reports.append(sim.run())
            report = SystemReport(core_reports=reports)
            if compiled is not None:
                # Zero events: the simulation above is the original
                # static path bit for bit; the outcome just says so.
                report.events = compiled.outcome(compiled.fresh_tallies())
        if report.events is not None and OBS.enabled:
            reg = OBS.registry
            for name, value in report.events.telemetry().items():
                reg.counter(name).inc(value)
        return report

    def _compile_events(self) -> CompiledEvents | None:
        """Compile the attached runtime once (lazily, so the per-event
        spans land inside the caller's instrumentation window)."""
        if self.events is None:
            return None
        if self._compiled is None:
            self._compiled = self.events.compile(self.partition)
        return self._compiled

    def _run_evented(
        self,
        compiled: CompiledEvents,
        children: list[np.random.SeedSequence],
    ) -> SystemReport:
        infeasible = compiled.infeasible_epochs()
        if infeasible and not self.allow_infeasible:
            core, at = infeasible[0]
            raise SimulationError(
                f"re-partitioned core {core} fails the EDF-VD "
                f"schedulability analysis from t={at}; pass "
                "allow_infeasible=True to simulate it anyway"
            )
        levels = compiled.full_taskset.levels
        tallies = compiled.fresh_tallies()
        reports: list[CoreReport | None] = []
        for m in range(compiled.cores):
            view = compiled.core_view(m, tallies)
            if view is None:
                reports.append(None)
                continue
            entries = compiled.memberships[m]
            subset = MCTaskSet([e.task for e in entries], levels=levels)
            plan0 = compiled.plans[m][0][1]
            if plan0 is None:
                plan0 = identity_plan(levels)
            sim = CoreSimulator(
                subset=subset,
                plan=plan0,
                scenario=self.scenario,
                rng=np.random.default_rng(children[m]),
                horizon=self.horizon,
                events=view,
            )
            with span("sim.core", core=m, tasks=len(entries)):
                reports.append(sim.run())
        return SystemReport(
            core_reports=reports, events=compiled.outcome(tallies)
        )
