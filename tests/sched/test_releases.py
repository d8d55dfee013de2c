"""Tests for sporadic/periodic release models."""

import numpy as np
import pytest

from repro.analysis import assign_virtual_deadlines
from repro.model import MCTask, MCTaskSet
from repro.partition import CATPA
from repro.sched import (
    CoreSimulator,
    HonestScenario,
    LevelScenario,
    PeriodicReleases,
    RandomScenario,
    SporadicReleases,
    SystemSimulator,
)
from repro.types import SimulationError


class TestModels:
    def test_periodic_is_exact(self, rng):
        task = MCTask(wcets=(1.0,), period=12.5)
        assert PeriodicReleases().interarrival(task, rng) == 12.5

    def test_sporadic_at_least_period(self, rng):
        task = MCTask(wcets=(1.0,), period=10.0)
        model = SporadicReleases(max_delay=0.5)
        gaps = [model.interarrival(task, rng) for _ in range(200)]
        assert min(gaps) >= 10.0
        assert max(gaps) <= 15.0
        assert max(gaps) > 10.5  # actually sporadic

    def test_zero_delay_degenerates_to_periodic(self, rng):
        task = MCTask(wcets=(1.0,), period=10.0)
        model = SporadicReleases(max_delay=0.0)
        assert model.interarrival(task, rng) == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SporadicReleases(max_delay=-0.1)


class TestSimulatorIntegration:
    def subset(self):
        return MCTaskSet(
            [
                MCTask(wcets=(3.0,), period=10.0),
                MCTask(wcets=(4.0, 8.0), period=20.0),
            ],
            levels=2,
        )

    def test_sporadic_releases_fewer_jobs(self):
        subset = self.subset()
        plan = assign_virtual_deadlines(subset)
        periodic = CoreSimulator(
            subset, plan, HonestScenario(), np.random.default_rng(0), 2000.0
        ).run()
        sporadic = CoreSimulator(
            subset,
            plan,
            HonestScenario(),
            np.random.default_rng(0),
            2000.0,
            releases=SporadicReleases(max_delay=0.5),
        ).run()
        assert sporadic.released < periodic.released

    def test_bad_release_model_caught(self):
        class Broken(SporadicReleases):
            def interarrival(self, task, rng):
                return task.period * 0.5  # violates sporadic minimum

        subset = self.subset()
        plan = assign_virtual_deadlines(subset)
        sim = CoreSimulator(
            subset,
            plan,
            HonestScenario(),
            np.random.default_rng(0),
            100.0,
            releases=Broken(),
        )
        with pytest.raises(SimulationError, match="interarrival"):
            sim.run()

    def test_nan_interarrival_caught(self):
        # Unchecked, a NaN gap enters the release heap and is never due:
        # simulated time stops advancing and the run hangs.
        class Broken(SporadicReleases):
            def interarrival(self, task, rng):
                return float("nan") if task.criticality == 2 else task.period

        subset = self.subset()
        sim = CoreSimulator(
            subset,
            assign_virtual_deadlines(subset),
            HonestScenario(),
            np.random.default_rng(0),
            50.0,
            releases=Broken(),
        )
        with pytest.raises(SimulationError, match="entry 1: interarrival .*got nan"):
            sim.run()

    def test_infinite_interarrival_ends_the_task(self):
        # An infinite gap is legal: the HI task releases once.
        class Once(SporadicReleases):
            def interarrival(self, task, rng):
                return float("inf") if task.criticality == 2 else task.period

        subset = self.subset()
        report = CoreSimulator(
            subset,
            assign_virtual_deadlines(subset),
            HonestScenario(),
            np.random.default_rng(0),
            50.0,
            releases=Once(),
        ).run()
        assert report.released == 5 + 1
        assert report.completed == report.released

    def test_sustainability_no_misses_under_sporadic(self, rng):
        """Analysis-accepted subsets stay miss-free when arrivals are
        sporadic (the theory's actual model)."""
        from tests.conftest import random_taskset

        validated = 0
        for trial in range(20):
            ts = random_taskset(rng, n=4, levels=3, max_u=0.2)
            plan = assign_virtual_deadlines(ts)
            if plan is None:
                continue
            validated += 1
            horizon = 30.0 * max(t.period for t in ts)
            report = CoreSimulator(
                ts,
                plan,
                RandomScenario(0.4),
                np.random.default_rng(trial),
                horizon,
                releases=SporadicReleases(max_delay=0.8),
            ).run()
            assert report.miss_count == 0
        assert validated > 5

    def test_system_simulator_passes_releases_through(self):
        ts = self.subset()
        res = CATPA().partition(ts, cores=1)
        assert res.schedulable
        report = SystemSimulator(
            res.partition,
            horizon=2000.0,
            releases=SporadicReleases(max_delay=0.3),
        ).run(LevelScenario(target=2))
        assert report.all_deadlines_met()
        assert report.released > 0
