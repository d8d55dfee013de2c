"""Tests for the DBF-based dual-criticality analysis (extension)."""

import numpy as np
import pytest

from repro.analysis import is_feasible_theorem1
from repro.analysis.dbf import (
    DualPerTaskPlan,
    dbf_step,
    demand_horizon,
    hi_mode_demand,
    is_feasible_dbf,
    lo_mode_demand,
    tune_virtual_deadlines,
)
from repro.model import MCTask, MCTaskSet
from repro.types import ModelError


def dual_set(rows, levels=2):
    """rows: list of (wcets tuple, period)."""
    return MCTaskSet(
        [MCTask(wcets=w, period=p) for w, p in rows], levels=levels
    )


class TestDbfStep:
    def test_zero_before_first_deadline(self):
        assert dbf_step(4.9, period=10.0, deadline=5.0, wcet=2.0) == 0.0

    def test_steps_at_deadlines(self):
        assert dbf_step(5.0, 10.0, 5.0, 2.0) == 2.0
        assert dbf_step(14.9, 10.0, 5.0, 2.0) == 2.0
        assert dbf_step(15.0, 10.0, 5.0, 2.0) == 4.0
        assert dbf_step(35.0, 10.0, 5.0, 2.0) == 8.0

    def test_implicit_deadline_classic(self):
        # dbf(t) = floor(t/p) * c for deadline = period.
        assert dbf_step(19.0, 10.0, 10.0, 3.0) == 3.0
        assert dbf_step(20.0, 10.0, 10.0, 3.0) == 6.0


class TestHorizon:
    def test_rejects_saturated_utilization(self):
        assert demand_horizon(1.0, 5.0, 10.0) is None
        assert demand_horizon(1.2, 5.0, 10.0) is None

    def test_rejects_pathological_bound(self):
        assert demand_horizon(1.0 - 1e-8, 5.0, 10.0) is None

    def test_normal_bound(self):
        assert demand_horizon(0.5, 5.0, 10.0) == pytest.approx(10.0)
        assert demand_horizon(0.9, 5.0, 1.0) == pytest.approx(50.0)


class TestModeDemands:
    def test_lo_demand_counts_everyone_at_lo_budgets(self):
        ts = dual_set([((2.0,), 10.0), ((1.0, 4.0), 10.0)])
        deadlines = [10.0, 5.0]
        # at t=10: LO task 1 job (2.0); HI task jobs with vd 5: floor((10-5)/10)+1 = 1 -> 1.0
        assert lo_mode_demand(ts, deadlines, 10.0) == pytest.approx(3.0)

    def test_hi_demand_counts_hi_tasks_at_hi_budgets(self):
        ts = dual_set([((2.0,), 10.0), ((1.0, 4.0), 10.0)])
        deadlines = [10.0, 6.0]
        # offset = 10 - 6 = 4; at t=4 one job of c(2)=4
        assert hi_mode_demand(ts, deadlines, 4.0) == pytest.approx(4.0)
        assert hi_mode_demand(ts, deadlines, 3.9) == 0.0

    def test_wrong_levels_rejected(self):
        three = dual_set([((1.0, 2.0, 3.0), 10.0)], levels=3)
        with pytest.raises(ModelError):
            lo_mode_demand(three, [10.0], 5.0)


class TestFeasibility:
    def test_easy_set_passes_with_reasonable_deadlines(self):
        ts = dual_set([((2.0,), 10.0), ((1.0, 3.0), 10.0)])
        assert is_feasible_dbf(ts, [10.0, 6.0])

    def test_full_deadlines_fail_with_hi_tasks(self):
        # d_i = p_i gives HI carry-over demand at t=0+: always infeasible
        # in HI mode when a HI task exists.
        ts = dual_set([((1.0, 3.0), 10.0)])
        assert not is_feasible_dbf(ts, [10.0])

    def test_deadline_validation(self):
        ts = dual_set([((2.0,), 10.0)])
        with pytest.raises(ModelError):
            is_feasible_dbf(ts, [0.0])
        with pytest.raises(ModelError):
            is_feasible_dbf(ts, [11.0])
        with pytest.raises(ModelError):
            is_feasible_dbf(ts, [5.0, 5.0])


class TestTuning:
    def test_tunes_a_feasible_set(self):
        ts = dual_set([((2.0,), 10.0), ((1.0, 3.0), 10.0), ((2.0, 5.0), 20.0)])
        plan = tune_virtual_deadlines(ts)
        assert plan is not None
        for i, t in enumerate(ts):
            assert 0 < plan.deadlines[i] <= t.period
        # LO-only tasks keep their full deadlines.
        assert plan.deadlines[0] == 10.0

    def test_rejects_overload(self):
        ts = dual_set([((6.0,), 10.0), ((3.0, 8.0), 10.0)])
        assert tune_virtual_deadlines(ts) is None

    def test_theorem1_admits_a_lone_hi_task_dbf_rejects(self):
        """The two tests are incomparable: Theorem 1 admits a lone HI
        task with wcets (6, 9) and period 10 (margin +0.1), but no
        virtual deadline passes both DBF tests.  The LO test needs
        d >= 6; the HI test charges the full c(2) = 9 from the offset
        p - d, with no credit for the c(1) run before the switch, and
        needs d <= 1."""
        ts = dual_set([((6.0, 9.0), 10.0)])
        assert is_feasible_theorem1(ts.level_matrix())
        assert tune_virtual_deadlines(ts) is None
        for d in (1.0, 5.9, 6.0, 10.0):
            assert not is_feasible_dbf(ts, [d])

    def test_dbf_dominates_theorem1_on_random_sets(self, rng):
        """Wherever Theorem 1 accepts, the tuned DBF test almost always
        accepts too, and it accepts strictly more overall."""
        from repro.gen import WorkloadConfig, generate_taskset

        cfg = WorkloadConfig(cores=1, levels=2, nsu=0.75, task_count_range=(6, 6))
        dbf_only = thm_only = agree = 0
        for i in range(80):
            r = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i,)))
            ts = generate_taskset(cfg, r)
            thm = is_feasible_theorem1(ts.level_matrix())
            dbf = tune_virtual_deadlines(ts) is not None
            dbf_only += dbf and not thm
            thm_only += thm and not dbf
            agree += thm == dbf
        assert dbf_only > thm_only
        assert agree > 40

    def test_tuned_plans_survive_simulation(self, rng):
        """DBF-accepted subsets never miss under in-model scenarios."""
        from repro.gen import WorkloadConfig, generate_taskset
        from repro.sched import CoreSimulator, LevelScenario, RandomScenario

        cfg = WorkloadConfig(cores=1, levels=2, nsu=0.7, task_count_range=(5, 5))
        simulated = 0
        for i in range(30):
            r = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i,)))
            ts = generate_taskset(cfg, r)
            plan = tune_virtual_deadlines(ts)
            if plan is None:
                continue
            simulated += 1
            horizon = 25.0 * max(t.period for t in ts)
            for scenario in (LevelScenario(2), RandomScenario(0.4)):
                report = CoreSimulator(
                    ts, plan, scenario, np.random.default_rng(i), horizon
                ).run()
                assert report.miss_count == 0
        assert simulated > 5


class TestPerTaskPlan:
    def test_scales(self):
        plan = DualPerTaskPlan(deadlines=(5.0, 10.0), periods=(10.0, 10.0))
        assert plan.task_scale(0, 2, 1) == pytest.approx(0.5)
        assert plan.task_scale(0, 2, 2) == 1.0
        assert plan.task_scale(1, 1, 1) == 1.0

    def test_dropped_task_rejected(self):
        plan = DualPerTaskPlan(deadlines=(5.0,), periods=(10.0,))
        with pytest.raises(ModelError):
            plan.task_scale(0, 1, 2)
        with pytest.raises(ModelError):
            plan.task_scale(0, 2, 3)
