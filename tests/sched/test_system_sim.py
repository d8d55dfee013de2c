"""Tests for the multicore system simulator."""

import numpy as np
import pytest

from repro.model import MCTask, MCTaskSet, Partition
from repro.partition import CATPA
from repro.sched import (
    HonestScenario,
    LevelScenario,
    RandomScenario,
    SystemSimulator,
    default_horizon,
)
from repro.types import SimulationError


def dual_taskset():
    return MCTaskSet(
        [
            MCTask(wcets=(3.0,), period=10.0),
            MCTask(wcets=(4.0, 8.0), period=20.0),
            MCTask(wcets=(5.0,), period=25.0),
            MCTask(wcets=(2.0, 5.0), period=20.0),
        ],
        levels=2,
    )


class TestSystemSimulator:
    def test_partitioned_simulation_no_misses(self):
        ts = dual_taskset()
        res = CATPA().partition(ts, cores=2)
        assert res.schedulable
        report = SystemSimulator(res.partition, horizon=500.0).run(HonestScenario())
        assert report.all_deadlines_met()
        assert report.released > 0
        assert report.completed > 0

    def test_empty_cores_have_no_report(self):
        ts = MCTaskSet([MCTask(wcets=(1.0,), period=10.0)], levels=1)
        part = Partition(ts, cores=3)
        part.assign(0, 1)
        report = SystemSimulator(part, horizon=100.0).run(HonestScenario())
        assert report.core_reports[0] is None
        assert report.core_reports[2] is None
        assert report.core_reports[1] is not None

    def test_negative_seed_rejected(self):
        res = CATPA().partition(dual_taskset(), cores=2)
        sim = SystemSimulator(res.partition, horizon=50.0)
        with pytest.raises(SimulationError, match="seed must be >= 0"):
            sim.run(HonestScenario(), seed=-1)

    def test_incomplete_partition_rejected(self):
        ts = dual_taskset()
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        with pytest.raises(SimulationError, match="every task"):
            SystemSimulator(part)

    def test_infeasible_core_rejected_by_default(self):
        ts = MCTaskSet(
            [MCTask(wcets=(7.0,), period=10.0), MCTask(wcets=(6.0,), period=10.0)],
            levels=1,
        )
        part = Partition(ts, cores=1)
        part.assign(0, 0)
        part.assign(1, 0)
        with pytest.raises(SimulationError, match="allow_infeasible"):
            SystemSimulator(part, horizon=100.0).run(HonestScenario())

    def test_failure_injection_observes_misses(self):
        ts = MCTaskSet(
            [MCTask(wcets=(7.0,), period=10.0), MCTask(wcets=(6.0,), period=10.0)],
            levels=1,
        )
        part = Partition(ts, cores=1)
        part.assign(0, 0)
        part.assign(1, 0)
        report = SystemSimulator(part, horizon=200.0, allow_infeasible=True).run(
            HonestScenario()
        )
        assert report.miss_count > 0

    def test_mode_switches_confined_to_their_core(self):
        # HI tasks on core 0 overrun; the LO-only core 1 must stay at
        # mode 1 and drop nothing (partitioned isolation).
        ts = dual_taskset()
        part = Partition(ts, cores=2)
        part.assign(1, 0)  # HI
        part.assign(3, 0)  # HI
        part.assign(0, 1)  # LO
        part.assign(2, 1)  # LO
        report = SystemSimulator(part, horizon=1000.0).run(LevelScenario(target=2))
        assert report.core_reports[0].mode_switches > 0
        assert report.core_reports[1].mode_switches == 0
        assert report.core_reports[1].dropped == 0
        assert report.all_deadlines_met()

    def test_default_horizon_scales_with_periods(self):
        ts = dual_taskset()
        part = Partition(ts, cores=1)
        for i in range(4):
            part.assign(i, 0)
        assert default_horizon(part) == pytest.approx(20.0 * 25.0)

    def test_default_horizon_empty_taskset_is_clean_error(self):
        # MCTaskSet forbids empty sets, but default_horizon is also
        # reachable with partition-like objects (e.g. a filtered view);
        # it must fail with SimulationError, not a bare ValueError from
        # max() over an empty generator.
        class _EmptyPartition:
            taskset = ()

        with pytest.raises(SimulationError, match="empty task set"):
            default_horizon(_EmptyPartition())

    def test_default_horizon_rejects_non_positive_cycles(self):
        ts = dual_taskset()
        part = Partition(ts, cores=1)
        for i in range(4):
            part.assign(i, 0)
        with pytest.raises(SimulationError, match="cycles"):
            default_horizon(part, cycles=0.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -5.0])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        # A NaN or infinite horizon is never reached: run() would never
        # return, so the constructor must refuse it (never call run here).
        res = CATPA().partition(dual_taskset(), cores=2)
        with pytest.raises(SimulationError, match="positive and finite"):
            SystemSimulator(res.partition, horizon=horizon)

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf")])
    def test_default_horizon_rejects_non_finite_cycles(self, cycles):
        res = CATPA().partition(dual_taskset(), cores=2)
        with pytest.raises(SimulationError, match="positive and finite"):
            default_horizon(res.partition, cycles=cycles)

    def test_report_aggregation_over_all_empty_cores(self):
        from repro.sched import SystemReport

        report = SystemReport(core_reports=[None, None, None])
        assert report.released == 0
        assert report.completed == 0
        assert report.dropped == 0
        assert report.pending == 0
        assert report.miss_count == 0
        assert report.mode_switches == 0
        assert report.idle_resets == 0
        assert report.max_mode == 1
        assert report.all_deadlines_met()
        telemetry = report.telemetry()
        assert telemetry["sim.cores_simulated"] == 0
        assert all(v == 0 for v in telemetry.values())

    def test_one_core_partition_aggregates_single_report(self):
        ts = MCTaskSet(
            [
                MCTask(wcets=(3.0,), period=10.0),
                MCTask(wcets=(4.0, 8.0), period=20.0),
            ],
            levels=2,
        )
        part = Partition(ts, cores=1)
        for i in range(2):
            part.assign(i, 0)
        report = SystemSimulator(part, horizon=200.0).run(HonestScenario())
        assert len(report.core_reports) == 1
        core = report.core_reports[0]
        assert report.released == core.released
        assert report.completed == core.completed
        assert report.pending == core.pending
        assert report.released == report.completed + report.dropped + report.pending

    def test_seeded_runs_reproducible(self):
        ts = dual_taskset()
        res = CATPA().partition(ts, cores=2)
        sim = SystemSimulator(res.partition, horizon=500.0)
        scenario = LevelScenario(target=2)
        a, b = sim.run(scenario, seed=5), sim.run(scenario, seed=5)
        assert a.released == b.released
        assert a.mode_switches == b.mode_switches
        assert a.miss_count == b.miss_count

    def test_reused_seed_sequence_gives_the_same_run(self):
        # Deriving the per-core streams must not advance the caller's
        # SeedSequence: a second run on the same object repeats the first.
        res = CATPA().partition(dual_taskset(), cores=2)
        sim = SystemSimulator(res.partition, horizon=2000.0)
        scenario = RandomScenario(overrun_prob=0.5)
        ss = np.random.SeedSequence(7, spawn_key=(3,))
        first, second = sim.run(scenario, seed=ss), sim.run(scenario, seed=ss)
        assert ss.n_children_spawned == 0
        assert first.mode_switches > 0
        assert repr(first.core_reports) == repr(second.core_reports)
        fresh = sim.run(scenario, seed=np.random.SeedSequence(7, spawn_key=(3,)))
        assert repr(fresh.core_reports) == repr(first.core_reports)
