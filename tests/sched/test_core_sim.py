"""Unit tests for the single-core EDF-VD/AMC simulator."""

import numpy as np
import pytest

from repro.analysis import assign_virtual_deadlines
from repro.model import MCTask, MCTaskSet
from repro.sched import (
    CoreSimulator,
    ExecutionScenario,
    FaultyScenario,
    HonestScenario,
    LevelScenario,
    RandomScenario,
)
from repro.types import SimulationError


def make_sim(tasks, scenario, horizon=1000.0, levels=None, seed=1):
    subset = MCTaskSet(tasks, levels=levels)
    plan = assign_virtual_deadlines(subset)
    assert plan is not None, "test subset must be feasible"
    return CoreSimulator(
        subset=subset,
        plan=plan,
        scenario=scenario,
        rng=np.random.default_rng(seed),
        horizon=horizon,
    )


class TestBasics:
    def test_single_task_runs_all_jobs(self):
        sim = make_sim([MCTask(wcets=(2.0,), period=10.0)], HonestScenario(), 100.0)
        report = sim.run()
        assert report.released == 10
        assert report.completed == 10
        assert report.miss_count == 0
        assert report.busy_time == pytest.approx(20.0)
        assert report.mode_switches == 0

    def test_two_tasks_edf_no_misses(self):
        sim = make_sim(
            [MCTask(wcets=(3.0,), period=10.0), MCTask(wcets=(8.0,), period=20.0)],
            HonestScenario(),
            200.0,
        )
        report = sim.run()
        assert report.miss_count == 0
        # utilization 0.3 + 0.4 over 200 time units
        assert report.busy_time == pytest.approx(200.0 * 0.7)

    def test_fraction_scales_demand(self):
        sim = make_sim(
            [MCTask(wcets=(4.0,), period=10.0)], HonestScenario(fraction=0.5), 100.0
        )
        report = sim.run()
        assert report.busy_time == pytest.approx(20.0)

    def test_invalid_horizon(self):
        subset = MCTaskSet([MCTask(wcets=(1.0,), period=10.0)])
        plan = assign_virtual_deadlines(subset)
        with pytest.raises(SimulationError):
            CoreSimulator(subset, plan, HonestScenario(), np.random.default_rng(), 0.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_non_finite_horizon_rejected_at_construction(self, horizon):
        # Such a horizon is never reached: run() would never return, so
        # the constructor must refuse it (never call run here).
        subset = MCTaskSet([MCTask(wcets=(1.0,), period=10.0)])
        plan = assign_virtual_deadlines(subset)
        with pytest.raises(SimulationError, match="positive and finite"):
            CoreSimulator(
                subset, plan, HonestScenario(), np.random.default_rng(), horizon
            )

    @pytest.mark.parametrize("demand", [0.0, -1.0, float("nan"), float("inf")])
    def test_demand_must_be_positive_and_finite(self, demand):
        # Unchecked, a NaN demand reads as a clean run with a NaN busy
        # time, and an infinite one never completes.
        class Bad(ExecutionScenario):
            def draw(self, task, rng):
                return demand if task.criticality == 2 else task.wcet(1)

        sim = make_sim(
            [MCTask(wcets=(1.0,), period=10.0), MCTask(wcets=(2.0, 4.0), period=10.0)],
            Bad(),
            50.0,
        )
        with pytest.raises(SimulationError, match=f"entry 1: .*got {demand}$"):
            sim.run()

    def test_full_utilization_edf_meets_everything(self):
        # Two tasks with total utilization exactly 1 under EDF.
        sim = make_sim(
            [MCTask(wcets=(5.0,), period=10.0), MCTask(wcets=(10.0,), period=20.0)],
            HonestScenario(),
            400.0,
        )
        report = sim.run()
        assert report.miss_count == 0
        assert report.busy_time == pytest.approx(400.0)


class TestModeSwitches:
    def dual(self):
        # LO: u=0.3; HI: u(1)=0.2, u(2)=0.4 -> Eq.(7) demand
        # 0.3 + min(0.4, 0.2/0.6) = 0.6333 feasible.
        return [
            MCTask(wcets=(3.0,), period=10.0, name="lo"),
            MCTask(wcets=(4.0, 8.0), period=20.0, name="hi"),
        ]

    def test_honest_run_never_switches(self):
        report = make_sim(self.dual(), HonestScenario(), 400.0).run()
        assert report.mode_switches == 0
        assert report.max_mode == 1
        assert report.miss_count == 0

    def test_overrun_triggers_switch_and_drops_lo(self):
        report = make_sim(self.dual(), LevelScenario(target=2), 400.0).run()
        assert report.mode_switches >= 1
        assert report.max_mode == 2
        assert report.dropped >= 1
        assert report.miss_count == 0  # HI jobs all meet original deadlines

    def test_idle_reset_returns_to_low_mode(self):
        report = make_sim(self.dual(), LevelScenario(target=2), 400.0).run()
        # Total HI-mode utilization is far below 1, so the core idles and
        # resets between bursts; LO jobs released after a reset run again.
        assert report.idle_resets >= 1
        assert report.mode_switches >= 2  # switches happen repeatedly

    def test_random_scenario_within_model_never_misses(self):
        report = make_sim(
            self.dual(), RandomScenario(overrun_prob=0.4), 2000.0, seed=7
        ).run()
        assert report.miss_count == 0


class TestBudgetBoundaries:
    """Exact-boundary workloads pinning the TIME_EPS comparison policy."""

    def budget_at_release(self):
        # t0 (LO, period 5) has the earlier virtual deadline (5 against
        # t1's 0.7 * 30 = 21), so it runs [0, 1) first.  With
        # LevelScenario t1 (HI) draws 9.0 against a level-1 budget of
        # 4.0, so it runs [1, 5) and hits the budget at t=5.0 — exactly
        # the instant of t0's second release (1.0 + 4.0 == 5.0 in floats).
        subset = MCTaskSet(
            [
                MCTask(wcets=(1.0,), period=5.0, name="lo"),
                MCTask(wcets=(4.0, 9.0), period=30.0, name="hi"),
            ],
            levels=2,
        )
        plan = assign_virtual_deadlines(subset)
        assert plan is not None
        return CoreSimulator(
            subset=subset,
            plan=plan,
            scenario=LevelScenario(target=2),
            rng=np.random.default_rng(0),
            horizon=30.0,
            record_trace=True,
        )

    def test_release_at_budget_instant_sees_raised_mode(self):
        # Regression: when the budget trigger coincided with a release,
        # the mode raise was deferred until after the release was
        # admitted at the *old* mode, so the LO job ran to completion
        # instead of being dropped at release.
        report = self.budget_at_release().run()
        from repro.sched.trace import EventKind

        mode_ups = report.trace.events_of(EventKind.MODE_UP)
        assert [e.time for e in mode_ups] == pytest.approx([5.0])
        # LO releases at t=5 (raised mode) and t=10 (mode still high,
        # dropped just before the idle reset) must both be dropped.
        assert report.dropped == 2
        # No execution slice of the LO task may start at or after t=5
        # until the idle reset at t=10 returns the core to mode 1.
        lo_after = [
            s for s in report.trace.slices
            if s.task_index == 0 and 5.0 - 1e-9 <= s.start < 10.0
        ]
        assert lo_after == []

    def test_demand_equal_to_budget_completes_without_switch(self):
        # completion == budget: a HI job whose demand equals its level-1
        # budget exactly completes at the boundary and must not raise
        # the mode (overruns within TIME_EPS count as completions).
        subset = MCTaskSet(
            [MCTask(wcets=(4.0, 9.0), period=10.0, name="hi")], levels=2
        )
        plan = assign_virtual_deadlines(subset)
        report = CoreSimulator(
            subset, plan, HonestScenario(), np.random.default_rng(0), 100.0
        ).run()
        assert report.mode_switches == 0
        assert report.completed == report.released
        assert report.miss_count == 0

    def test_overrun_within_eps_of_budget_is_a_completion(self):
        from repro.sched.core_sim import TIME_EPS

        class _EpsOver:
            def draw(self, task, rng):
                return task.wcet(1) + TIME_EPS / 2

        subset = MCTaskSet(
            [MCTask(wcets=(4.0, 9.0), period=10.0, name="hi")], levels=2
        )
        plan = assign_virtual_deadlines(subset)
        report = CoreSimulator(
            subset, plan, _EpsOver(), np.random.default_rng(0), 100.0
        ).run()
        assert report.mode_switches == 0
        assert report.miss_count == 0


class TestMissAccounting:
    def test_overloaded_plain_edf_misses(self):
        # Deliberately infeasible single-level set (u = 1.3) with an
        # identity plan: misses must be detected.
        subset = MCTaskSet(
            [MCTask(wcets=(7.0,), period=10.0), MCTask(wcets=(6.0,), period=10.0)],
            levels=1,
        )
        from repro.analysis import VirtualDeadlineAssignment

        plan = VirtualDeadlineAssignment(
            k_star=1, lambdas=(0.0,), top_level_scale=1.0, levels=1
        )
        report = CoreSimulator(
            subset, plan, HonestScenario(), np.random.default_rng(0), 200.0
        ).run()
        assert report.miss_count > 0
        lateness = [m.lateness for m in report.misses if np.isfinite(m.lateness)]
        assert all(lat > 0 for lat in lateness)

    def test_faulty_scenario_can_defeat_guarantee(self):
        # A task exceeding its own top-level WCET voids the model; with
        # enough excess on a loaded core, misses appear.
        subset = MCTaskSet(
            [
                MCTask(wcets=(4.0,), period=10.0),
                MCTask(wcets=(5.0,), period=10.0),
            ],
            levels=1,
        )
        plan = assign_virtual_deadlines(subset)
        report = CoreSimulator(
            subset, plan, FaultyScenario(excess=0.5), np.random.default_rng(0), 200.0
        ).run()
        assert report.miss_count > 0

    def test_censored_jobs_counted(self):
        # Horizon cuts the last deadline: released near the end.
        report = make_sim([MCTask(wcets=(2.0,), period=10.0)], HonestScenario(), 95.0).run()
        assert report.censored >= 1
        assert report.miss_count == 0
