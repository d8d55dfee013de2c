"""Tests for validated runtime event injection (repro.sched.events)."""

import numpy as np
import pytest

from repro import obs
from repro.model import MCTask, MCTaskSet, Partition
from repro.sched import (
    HonestScenario,
    LevelScenario,
    SporadicReleases,
    SystemSimulator,
    core_failure,
    core_hotplug,
    default_horizon,
    mode_recovery,
    task_arrival,
    task_departure,
    wcet_burst,
)
from repro.sched.events import SimEvent, check_events, compile_events
from repro.types import SimulationError


def small_partition(cores=2):
    """Two light tasks per core: plenty of idle, always schedulable."""
    ts = MCTaskSet(
        [
            MCTask(wcets=(1.0,), period=10.0, name="lo0"),
            MCTask(wcets=(1.0, 2.0), period=20.0, name="hi0"),
            MCTask(wcets=(1.0,), period=10.0, name="lo1"),
            MCTask(wcets=(1.0, 2.0), period=20.0, name="hi1"),
        ],
        levels=2,
    )
    assignment = [0, 0, 1, 1] if cores == 2 else [0, 0, 0, 0]
    return Partition.from_assignment(ts, cores, assignment[: len(ts)])


def timeline_of(script, part, horizon):
    """``script`` checked and compiled the way the simulator does it."""
    return compile_events(check_events(script, part, horizon), part, horizon)


class TestStructuralValidation:
    def test_unknown_kind(self):
        with pytest.raises(SimulationError, match="unknown event kind"):
            SimEvent(kind="quake", start=0.0, end=0.0)

    def test_negative_start(self):
        with pytest.raises(SimulationError, match="before time 0"):
            wcet_burst(-1.0, 5.0, 2.0)

    def test_negative_duration(self):
        with pytest.raises(SimulationError, match="negative duration"):
            wcet_burst(10.0, 5.0, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_markers(self, bad):
        with pytest.raises(SimulationError, match="finite"):
            mode_recovery(0.0, bad)

    def test_instant_kind_with_window(self):
        with pytest.raises(SimulationError, match="instantaneous"):
            SimEvent(kind="core_failure", start=1.0, end=2.0, core=0)

    @pytest.mark.parametrize("factor", [0.0, -2.0])
    def test_burst_factor_must_be_positive(self, factor):
        with pytest.raises(SimulationError, match="factor"):
            wcet_burst(0.0, 1.0, factor)

    def test_burst_requires_factor(self):
        with pytest.raises(SimulationError, match="factor"):
            SimEvent(kind="wcet_burst", start=0.0, end=1.0)

    def test_burst_negative_task_index(self):
        with pytest.raises(SimulationError, match=">= 0"):
            wcet_burst(0.0, 1.0, 2.0, tasks=[0, -1])

    def test_arrival_requires_task(self):
        with pytest.raises(SimulationError, match="MCTask"):
            SimEvent(kind="task_arrival", start=0.0, end=0.0)

    def test_departure_requires_index(self):
        with pytest.raises(SimulationError, match="task_index"):
            SimEvent(kind="task_departure", start=0.0, end=0.0)

    def test_failure_requires_core(self):
        with pytest.raises(SimulationError, match="core"):
            SimEvent(kind="core_failure", start=0.0, end=0.0)


class TestRuntimeValidation:
    def test_event_past_horizon_rejected(self):
        with pytest.raises(SimulationError, match="past the horizon"):
            SystemSimulator(
                small_partition(),
                horizon=100.0,
                events=[wcet_burst(0.0, 200.0, 2.0)],
            )

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(SimulationError, match="horizon"):
            SystemSimulator(small_partition(), horizon=0.0, events=[])

    def test_events_sorted_by_start(self):
        script = check_events(
            [task_departure(50.0, 0), wcet_burst(10.0, 20.0, 2.0)],
            small_partition(),
            100.0,
        )
        assert [e.start for e in script] == [10.0, 50.0]

    def test_burst_unknown_task(self):
        with pytest.raises(SimulationError, match="unknown task 99"):
            check_events(
                [wcet_burst(0.0, 10.0, 2.0, tasks=[99])], small_partition(), 100.0
            )

    def test_arrival_criticality_above_k(self):
        deep = MCTask(wcets=(1.0, 2.0, 3.0), period=50.0)
        with pytest.raises(SimulationError, match="criticality"):
            check_events([task_arrival(5.0, deep)], small_partition(), 100.0)

    def test_departure_unknown_task(self):
        with pytest.raises(SimulationError, match="unknown task 42"):
            check_events([task_departure(5.0, 42)], small_partition(), 100.0)

    def test_double_departure(self):
        script = [task_departure(5.0, 0), task_departure(9.0, 0)]
        with pytest.raises(SimulationError, match="departs twice"):
            check_events(script, small_partition(), 100.0)

    def test_failure_unknown_core(self):
        with pytest.raises(SimulationError, match="unknown core 7"):
            check_events([core_failure(5.0, 7)], small_partition(), 100.0)

    def test_failure_of_offline_core(self):
        script = [core_failure(5.0, 1), core_failure(9.0, 1)]
        with pytest.raises(SimulationError, match="already"):
            check_events(script, small_partition(), 100.0)

    def test_hotplug_of_online_core(self):
        with pytest.raises(SimulationError, match="already online"):
            check_events([core_hotplug(5.0, 0)], small_partition(), 100.0)

    def test_validation_happens_at_simulator_construction(self):
        part = small_partition()
        with pytest.raises(SimulationError, match="unknown task 42"):
            SystemSimulator(
                part,
                horizon=100.0,
                events=[task_departure(5.0, 42)],
            )

    def test_events_with_release_model_rejected(self):
        part = small_partition()
        with pytest.raises(SimulationError, match="release"):
            SystemSimulator(
                part,
                horizon=100.0,
                releases=SporadicReleases(max_delay=0.1),
                events=[],
            )


class TestTrivialPath:
    def test_empty_script_compiles_to_the_static_view(self):
        # No events: every task joins its core at 0 and never leaves,
        # under the core's Theorem-1 plan, and nothing else happens.
        part = small_partition()
        timeline = timeline_of((), part, 100.0)
        assert timeline.static_counters["injected"] == 0
        assert timeline.infeasible_epochs() == []
        for m in range(part.cores):
            view = timeline.core_view(m, timeline.fresh_tallies())
            assert view.joins == (0.0, 0.0)
            assert view.leaves == (float("inf"), float("inf"))
            assert view.failures == view.plan_changes == ()
            assert view.burst is None and view.recovery is None
            assert timeline.residents[m] == part.taskset.subset(part.tasks_on(m))

    def test_empty_runtime_bit_identical_to_plain_run(self):
        part = small_partition()
        seed = np.random.SeedSequence(7)
        plain = SystemSimulator(part, horizon=200.0).run(HonestScenario(), seed=seed)
        evented = SystemSimulator(part, horizon=200.0, events=[]).run(
            HonestScenario(), seed=seed
        )
        assert plain.telemetry() == evented.telemetry()
        for a, b in zip(plain.core_reports, evented.core_reports):
            if a is None:
                assert b is None
                continue
            assert a.busy_time == b.busy_time
            assert a.max_mode == b.max_mode
        assert evented.events is not None
        assert evented.events.counters["injected"] == 0
        assert plain.events is None
        assert plain.event_telemetry() == {}

    def test_plain_run_records_no_event_counter(self):
        part = small_partition()
        with obs.collect() as registry:
            SystemSimulator(part, horizon=200.0).run(HonestScenario(), seed=7)
            counters = registry.snapshot()["counters"]
        assert counters["sim.cores_simulated"] == 2
        assert not [k for k in counters if k.startswith("sim.event.")]

    def test_zero_length_burst_is_a_noop(self):
        # A zero-length window matches no release (start <= r < end is
        # empty), so the run must be indistinguishable from plain.
        part = small_partition()
        seed = np.random.SeedSequence(11)
        plain = SystemSimulator(part, horizon=200.0).run(HonestScenario(), seed=seed)
        evented = SystemSimulator(
            part,
            horizon=200.0,
            events=[wcet_burst(50.0, 50.0, 9.0)],
        ).run(HonestScenario(), seed=seed)
        assert plain.telemetry() == evented.telemetry()
        assert evented.events.counters["burst_jobs"] == 0

    def test_factor_one_burst_changes_nothing(self):
        part = small_partition()
        seed = np.random.SeedSequence(13)
        plain = SystemSimulator(part, horizon=200.0).run(HonestScenario(), seed=seed)
        evented = SystemSimulator(
            part,
            horizon=200.0,
            events=[wcet_burst(0.0, 200.0, 1.0)],
        ).run(HonestScenario(), seed=seed)
        assert plain.telemetry() == evented.telemetry()
        assert evented.events.counters["burst_jobs"] == 0


class TestBurst:
    def one_core_partition(self):
        ts = MCTaskSet(
            [
                MCTask(wcets=(2.0, 4.0), period=10.0, name="hi"),
                MCTask(wcets=(3.0,), period=20.0, name="lo"),
            ],
            levels=2,
        )
        return Partition.from_assignment(ts, 1, [0, 0])

    def test_burst_inflates_demand_and_counts_jobs(self):
        part = self.one_core_partition()
        horizon = 200.0
        script = [wcet_burst(40.0, 160.0, 5.0)]
        report = SystemSimulator(
            part,
            horizon=horizon,
            allow_infeasible=True,
            events=script,
        ).run(HonestScenario(), seed=1)
        ev = report.events.counters
        assert ev["burst_jobs"] > 0
        # Quintupled demand on a busy core must leave a mark: a mode
        # switch, a miss, or backlog at the horizon.
        assert (
            report.mode_switches > 0
            or report.miss_count > 0
            or report.pending > 0
        )

    def test_burst_task_filter_only_hits_named_tasks(self):
        part = self.one_core_partition()
        horizon = 200.0
        script = [wcet_burst(0.0, 200.0, 1.5, tasks=[1])]
        report = SystemSimulator(part, horizon=horizon, events=script).run(
            HonestScenario(), seed=1
        )
        # Task 1 (period 20) releases 10 jobs in [0, 200); each is
        # multiplied, the other task's 20 jobs are not.
        assert report.events.counters["burst_jobs"] == 10

    def test_overlapping_burst_factors_multiply(self):
        part = self.one_core_partition()
        script = [wcet_burst(0.0, 100.0, 2.0), wcet_burst(50.0, 100.0, 3.0)]
        timeline = timeline_of(script, part, 200.0)
        view = timeline.core_view(0, timeline.fresh_tallies())
        assert view.burst.factor(0, 10.0) == 2.0
        assert view.burst.factor(0, 60.0) == 6.0
        assert view.burst.factor(0, 150.0) == 1.0


class TestArrivalDeparture:
    def test_arrival_admitted_and_released(self):
        part = small_partition()
        horizon = 200.0
        newcomer = MCTask(wcets=(1.0,), period=10.0, name="new")
        script = [task_arrival(100.0, newcomer)]
        baseline = SystemSimulator(part, horizon=horizon).run(HonestScenario(), seed=3)
        report = SystemSimulator(part, horizon=horizon, events=script).run(
            HonestScenario(), seed=3
        )
        ev = report.events.counters
        assert ev["arrival_admitted"] == 1
        assert ev["arrival_rejected"] == 0
        # 10 extra releases: t = 100, 110, ..., 190.
        assert report.released == baseline.released + 10
        (record,) = report.events.arrivals
        assert record["core"] in (0, 1)

    def test_arrival_rejected_when_no_core_fits(self):
        ts = MCTaskSet(
            [MCTask(wcets=(9.0,), period=10.0, name="hog")], levels=1
        )
        part = Partition.from_assignment(ts, 1, [0])
        giant = MCTask(wcets=(8.0,), period=10.0, name="giant")
        script = [task_arrival(50.0, giant)]
        report = SystemSimulator(part, horizon=100.0, events=script).run(
            HonestScenario(), seed=0
        )
        ev = report.events.counters
        assert ev["arrival_admitted"] == 0
        assert ev["arrival_rejected"] == 1
        (record,) = report.events.arrivals
        assert record["core"] is None

    def test_departure_stops_releases(self):
        part = small_partition()
        horizon = 200.0
        script = [task_departure(100.0, 0)]
        baseline = SystemSimulator(part, horizon=horizon).run(HonestScenario(), seed=3)
        report = SystemSimulator(part, horizon=horizon, events=script).run(
            HonestScenario(), seed=3
        )
        assert report.events.counters["departures"] == 1
        # Task 0 (period 10) loses its releases at t = 100 .. 190.
        assert report.released == baseline.released - 10


class TestFailureHotplug:
    def test_failure_displaces_and_repartitions(self):
        part = small_partition(cores=2)
        horizon = 200.0
        script = [core_failure(100.0, 1)]
        report = SystemSimulator(
            part,
            horizon=horizon,
            allow_infeasible=True,
            events=script,
        ).run(HonestScenario(), seed=5)
        ev = report.events.counters
        assert ev["core_failures"] == 1
        assert ev["displaced"] == 2  # both residents of core 1
        assert ev["displaced"] == ev["replaced"] + ev["repartition_lost"]
        (record,) = report.events.repartitions
        assert record["core"] == 1
        assert record["lambda_before"] >= 0.0
        assert record["lambda_after"] >= 0.0

    def test_failure_then_hotplug_runs_clean(self):
        part = small_partition(cores=2)
        horizon = 200.0
        script = [core_failure(80.0, 1), core_hotplug(160.0, 1)]
        report = SystemSimulator(
            part,
            horizon=horizon,
            allow_infeasible=True,
            events=script,
        ).run(HonestScenario(), seed=5)
        ev = report.events.counters
        assert ev["core_failures"] == 1
        assert ev["core_hotplugs"] == 1
        # Job conservation holds through displacement.
        assert (
            report.released
            == report.completed + report.dropped + report.pending
        )

    def test_hotplug_brings_the_core_back_empty(self):
        # Displaced tasks stay where they were re-placed: with no later
        # arrival, nothing ever joins core 1 again.
        part = small_partition(cores=2)
        script = [core_failure(80.0, 1), core_hotplug(160.0, 1)]
        timeline = timeline_of(script, part, 200.0)
        entries = timeline.memberships[1]
        assert [e.global_index for e in entries] == part.tasks_on(1)
        assert all(e.leave == 80.0 for e in entries)
        entries = timeline.memberships[0]
        assert [e.global_index for e in entries] == [0, 1, 2, 3]
        assert all(e.leave == float("inf") for e in entries)


class TestModeRecovery:
    def escalating_partition(self):
        ts = MCTaskSet(
            [
                MCTask(wcets=(1.0, 2.0), period=10.0, name="hi"),
                MCTask(wcets=(1.0,), period=10.0, name="lo"),
            ],
            levels=2,
        )
        return Partition.from_assignment(ts, 1, [0, 0])

    def test_window_applied_at_idle_instant(self):
        part = self.escalating_partition()
        horizon = 200.0
        script = [mode_recovery(0.0, 200.0)]
        # LevelScenario(2) exhausts the level-2 budget: the core
        # escalates, idles eventually, and the window sanctions the
        # reset.
        report = SystemSimulator(part, horizon=horizon, events=script).run(
            LevelScenario(2), seed=2
        )
        ev = report.events.counters
        assert ev["mode_recovery_applied"] == 1
        assert report.idle_resets == 1
        assert report.max_mode == 2

    def test_windows_suppress_automatic_resets(self):
        part = self.escalating_partition()
        horizon = 200.0
        plain = SystemSimulator(part, horizon=horizon).run(LevelScenario(2), seed=2)
        # Window [0, 1] is consumed by (or before) the first idle
        # instant; every later idle instant has no window left, so no
        # automatic resets happen.
        script = [mode_recovery(0.0, 1.0)]
        gated = SystemSimulator(part, horizon=horizon, events=script).run(
            LevelScenario(2), seed=2
        )
        assert gated.idle_resets <= 1
        assert plain.idle_resets > gated.idle_resets

    def test_recovery_accounting_is_conserved(self):
        part = self.escalating_partition()
        horizon = 200.0
        script = [mode_recovery(0.0, 50.0), mode_recovery(60.0, 80.0)]
        report = SystemSimulator(part, horizon=horizon, events=script).run(
            LevelScenario(2), seed=2
        )
        ev = report.events.counters
        resolved = (
            ev["mode_recovery_applied"]
            + ev["mode_recovery_noop"]
            + ev["mode_recovery_missed"]
        )
        assert resolved == 2 * report.telemetry()["sim.cores_simulated"]

    def test_recovery_during_active_burst(self):
        # Regression: an idle instant inside a live WCET burst must
        # still honour the recovery window — the reset re-admits
        # dropped low-criticality tasks even while demand is inflated.
        part = self.escalating_partition()
        horizon = 400.0
        script = [
                wcet_burst(0.0, 300.0, 1.9),
                mode_recovery(100.0, 300.0),
            ]
        report = SystemSimulator(
            part,
            horizon=horizon,
            allow_infeasible=True,
            events=script,
        ).run(HonestScenario(), seed=4)
        ev = report.events.counters
        # The burst (1.9 * 1.0 = 1.9 > wcet(1)) escalates the core;
        # the window then brings it back down mid-burst.
        assert report.mode_switches >= 1
        assert ev["mode_recovery_applied"] == 1
        assert report.idle_resets == 1
        # Low-criticality releases resume after the in-burst reset.
        assert report.completed > 0
        assert (
            report.released
            == report.completed + report.dropped + report.pending
        )


class TestAllKindsTogether:
    def test_conservation_with_full_script(self):
        part = small_partition(cores=2)
        horizon = default_horizon(part, cycles=10.0)
        newcomer = MCTask(wcets=(0.5,), period=10.0, name="new")
        script = [
                wcet_burst(0.25 * horizon, 0.6 * horizon, 3.0),
                mode_recovery(0.3 * horizon, 0.7 * horizon),
                task_arrival(0.2 * horizon, newcomer),
                task_departure(0.5 * horizon, 0),
                core_failure(0.4 * horizon, 1),
                core_hotplug(0.8 * horizon, 1),
            ]
        report = SystemSimulator(
            part,
            horizon=horizon,
            allow_infeasible=True,
            events=script,
        ).run(LevelScenario(2), seed=9)
        ev = report.events.counters
        assert ev["injected"] == 6
        assert (
            report.released
            == report.completed + report.dropped + report.pending
        )
        assert ev["displaced"] == ev["replaced"] + ev["repartition_lost"]
        assert ev["arrival_admitted"] + ev["arrival_rejected"] == 1
        telemetry = report.event_telemetry()
        assert telemetry["sim.event.injected"] == 6

    def test_placements_record_their_probe_time(self):
        """Each placing event's span keeps a synthetic ``probe`` child:
        one probe per arrival, one per displaced task."""
        part = small_partition(cores=2)
        newcomer = MCTask(wcets=(0.5,), period=10.0, name="new")
        script = [task_arrival(10.0, newcomer), core_failure(20.0, 1)]
        with obs.instrument() as state:
            timeline = timeline_of(script, part, 100.0)
            spans = {s["span_id"]: s for s in state.spans}
        probes = {
            spans[s["parent_id"]]["name"]: s["calls"]
            for s in spans.values()
            if s["name"] == "probe"
        }
        displaced = timeline.repartitions[0]["displaced"]
        assert probes == {
            "sim.event.task_arrival": 1,
            "sim.event.core_failure": displaced,
        }

    def test_deterministic_across_runs(self):
        part = small_partition(cores=2)
        horizon = 100.0
        script = [
            wcet_burst(20.0, 60.0, 2.0),
            core_failure(40.0, 1),
            mode_recovery(50.0, 90.0),
        ]

        def run():
            return SystemSimulator(
                part,
                horizon=horizon,
                allow_infeasible=True,
                events=script,
            ).run(LevelScenario(2), seed=42)

        a, b = run(), run()
        assert a.telemetry() == b.telemetry()
        assert a.event_telemetry() == b.event_telemetry()
