"""Tier-1 slice of the differential validation harness.

A deterministic seeded sweep of every oracle (the full campaign is the
``repro-mc validate`` CLI / CI job), plus hypothesis-driven property
tests for the invariants that carry the most weight: Theorem-1
acceptance really does imply a miss-free simulation, and jobs are
conserved, over generator-distribution workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import WorkloadConfig
from repro.sched import LevelScenario, SystemSimulator, system_sim
from repro.types import ReproError
from repro.validate import (
    CAMPAIGN_CONFIGS,
    all_oracles,
    get_oracle,
    make_case,
    run_campaign,
    run_case,
)

#: Small config used by the hypothesis properties; K=3 exercises the
#: staged virtual-deadline protocol, not just the dual specialization.
PROP_CONFIG = WorkloadConfig(
    cores=2,
    levels=3,
    nsu=0.7,
    task_count_range=(4, 8),
    period_ranges=((10, 60), (60, 240)),
)

DUAL_CONFIG = PROP_CONFIG.with_(levels=2, nsu=0.8)


class TestRegistry:
    def test_builtin_oracles_registered_in_sorted_order(self):
        names = [o.name for o in all_oracles()]
        assert names == sorted(names)
        assert set(names) >= {
            "probe-scalar-batch",
            "theorem1-eq7-k2",
            "admission-monotonicity",
            "schedulable-no-miss",
            "trace-busy-time",
            "job-conservation",
            "telemetry-counters",
        }

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ReproError, match="unknown oracle"):
            get_oracle("nope")

    def test_descriptions_are_non_empty(self):
        assert all(o.description for o in all_oracles())


class TestSeededSlice:
    def test_small_campaign_is_all_green(self):
        result = run_campaign(sets=4, seed=2016)
        assert result.ok, result.summary()
        assert result.cases == 4 * len(result.points)
        assert result.checks == result.cases * len(all_oracles())
        assert "all green" in result.summary()

    def test_cases_are_reproducible(self):
        a = make_case(PROP_CONFIG, (), seed=7, index=3)
        b = make_case(PROP_CONFIG, (), seed=7, index=3)
        assert a.taskset == b.taskset
        assert a.sim_seed(1).spawn_key == b.sim_seed(1).spawn_key


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 31))
    def test_schedulable_implies_no_miss(self, seed, index):
        case = make_case(PROP_CONFIG, (), seed=seed, index=index)
        assert get_oracle("schedulable-no-miss").check(case) == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 31))
    def test_jobs_are_conserved(self, seed, index):
        case = make_case(PROP_CONFIG, (), seed=seed, index=index)
        assert get_oracle("job-conservation").check(case) == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(0, 31))
    def test_theorem1_matches_eq7_on_dual_workloads(self, seed, index):
        case = make_case(DUAL_CONFIG, (), seed=seed, index=index)
        assert get_oracle("theorem1-eq7-k2").check(case) == []

    def test_eq7_oracle_skips_multi_level_sets(self):
        case = make_case(PROP_CONFIG, (), seed=0, index=0)
        assert case.taskset.levels == 3
        assert get_oracle("theorem1-eq7-k2").check(case) == []


class TestRunCase:
    def test_green_case_returns_no_records(self):
        assert run_case(make_case(PROP_CONFIG, (), seed=1, index=0)) == []

    def test_counters_tally_cases_and_checks(self):
        from repro import obs

        with obs.instrument() as state:
            run_case(make_case(PROP_CONFIG, (), seed=1, index=0))
            counters = state.registry.snapshot()["counters"]
        assert counters["validate.cases"] == 1
        assert counters["validate.checks"] == len(all_oracles())

    def test_scheme_results_cached_per_case(self):
        case = make_case(PROP_CONFIG, (), seed=1, index=1)
        assert case.scheme_results() is case.scheme_results()

    def test_instrumented_case_matches_plain(self):
        # Instrumentation must never change an oracle verdict: the same
        # case checks green with and without a live registry.
        from repro import obs

        plain = run_case(make_case(PROP_CONFIG, (), seed=5, index=2))
        with obs.instrument():
            instrumented = run_case(make_case(PROP_CONFIG, (), seed=5, index=2))
        assert plain == instrumented


class TestSharedLevelRun:
    """``schedulable-no-miss`` and ``job-conservation`` check one level-K run."""

    @staticmethod
    def case():
        return make_case(PROP_CONFIG, (), seed=11, index=1)

    def test_level_scenario_run_is_seed_independent(self):
        case = self.case()
        sim, scenario = case.simulator(), LevelScenario(target=case.taskset.levels)
        a = sim.run(scenario, seed=case.sim_seed(1))
        b = sim.run(scenario, seed=case.sim_seed(202))
        assert a.mode_switches > 0
        assert repr(a.core_reports) == repr(b.core_reports)

    def test_both_oracles_share_one_run(self, monkeypatch):
        level_runs = []
        original = SystemSimulator.run

        def counted(self, scenario, seed=0):
            if isinstance(scenario, LevelScenario) and self.events is None:
                level_runs.append(seed)
            return original(self, scenario, seed)

        monkeypatch.setattr(SystemSimulator, "run", counted)
        case = self.case()
        assert get_oracle("job-conservation").check(case) == []
        assert get_oracle("schedulable-no-miss").check(case) == []
        assert len(level_runs) == 1
        assert case.level_run() is case.level_run()

    def test_draw_above_top_budget_caught_through_the_shared_run(self, monkeypatch):
        # Every level-K job demands more than c(l_i): the model is
        # broken, and the shared run must show it whichever oracle ran
        # it first.
        monkeypatch.setattr(
            LevelScenario,
            "draw",
            lambda self, task, rng: 1.5 * task.wcet(task.criticality),
        )
        case = self.case()
        assert get_oracle("job-conservation").check(case) == []
        messages = get_oracle("schedulable-no-miss").check(case)
        assert len(messages) == 1
        assert "under the level-3 scenario" in messages[0]

    def test_off_by_one_pending_caught_through_the_shared_run(self, monkeypatch):
        original = SystemSimulator.run

        def planted(self, scenario, seed=0):
            report = original(self, scenario, seed)
            if isinstance(scenario, LevelScenario):
                next(r for r in report.core_reports if r is not None).pending += 1
            return report

        monkeypatch.setattr(SystemSimulator, "run", planted)
        case = self.case()
        assert get_oracle("schedulable-no-miss").check(case) == []
        messages = get_oracle("job-conservation").check(case)
        assert any("released !=" in m and "pending" in m for m in messages)
        assert messages[-1].startswith("system:")


class TestOneSimulatorPerPartition:
    """A case compiles one timeline per simulator it caches, plain and
    evented, plus the fresh compile ``events-telemetry`` makes on
    purpose for its instrumented run."""

    @pytest.mark.parametrize("index", range(6))
    def test_every_oracle_compiles_three_timelines(self, monkeypatch, index):
        compiles = []
        original = system_sim.compile_events

        def counted(events, partition, horizon):
            compiles.append(len(events))
            return original(events, partition, horizon)

        monkeypatch.setattr(system_sim, "compile_events", counted)
        case = make_case(CAMPAIGN_CONFIGS[0], (), seed=2016, index=index)
        assert case.first_schedulable()[1] is not None
        for oracle in all_oracles():
            assert oracle.check(case) == [], oracle.name
        assert len(compiles) == 3
        assert compiles.count(0) == 1  # the plain timeline, compiled once
        assert case.simulator() is case.simulator()
        assert case.simulator(evented=True).events


class TestProbeEquivalenceOracle:
    def test_detects_diverging_implementations(self, monkeypatch):
        # Force the scalar feasibility probe to reject everything: the
        # oracle must notice the scalar/batch divergence, proving it
        # exercises both engines rather than comparing batch to itself.
        monkeypatch.setattr(
            "repro.partition.backend.is_feasible_core", lambda mat: False
        )
        case = make_case(DUAL_CONFIG, (), seed=3, index=0)
        messages = get_oracle("probe-scalar-batch").check(case)
        assert messages
        assert "scalar/batch probes disagree" in messages[0]


class TestServeOfflineOracle:
    def test_green_on_healthy_cases(self):
        for index in range(3):
            case = make_case(DUAL_CONFIG, (), seed=11, index=index)
            assert get_oracle("serve-offline").check(case) == []

    def test_green_at_k3(self):
        case = make_case(PROP_CONFIG, (), seed=5, index=1)
        assert get_oracle("serve-offline").check(case) == []

    def test_detects_serve_divergence(self, monkeypatch):
        # Corrupt the service-side answer only: the oracle must flag the
        # mismatch, proving it really compares serve against offline.
        from repro.serve.coordinator import Coordinator

        original = Coordinator._admit

        def corrupted(self, req):
            body = original(self, req)
            body["schedulable"] = not body["schedulable"]
            return body

        monkeypatch.setattr(Coordinator, "_admit", corrupted)
        case = make_case(DUAL_CONFIG, (), seed=11, index=0)
        messages = get_oracle("serve-offline").check(case)
        assert messages
        assert "diverges from the offline partitioner" in messages[0]

    def test_detects_offline_divergence(self, monkeypatch):
        # Corrupt the offline lockstep only: the daemon's one-attempt
        # partition() is checked against it, not against itself.
        import dataclasses

        from repro.validate import oracles

        original = oracles.partition_lockstep

        def corrupted(jobs, *args):
            return [
                dataclasses.replace(r, schedulable=not r.schedulable)
                for r in original(jobs, *args)
            ]

        monkeypatch.setattr(oracles, "partition_lockstep", corrupted)
        case = make_case(DUAL_CONFIG, (), seed=11, index=0)
        messages = get_oracle("serve-offline").check(case)
        assert len(messages) == 5
        assert "diverges from the offline partitioner" in messages[0]

    def test_one_flush_answers_every_scheme(self, monkeypatch):
        # All /admit requests are queued before the coordinator first
        # runs, so exactly one flush answers them together.
        from repro.partition.registry import PAPER_SCHEMES
        from repro.serve.coordinator import Coordinator

        sizes = []
        original = Coordinator.flush

        def counted(self, batch):
            sizes.append(len(batch))
            return original(self, batch)

        monkeypatch.setattr(Coordinator, "flush", counted)
        case = make_case(DUAL_CONFIG, (), seed=11, index=0)
        assert get_oracle("serve-offline").check(case) == []
        assert sizes == [len(PAPER_SCHEMES)]
