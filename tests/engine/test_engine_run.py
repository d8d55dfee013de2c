"""Multi-point engine runs on one worker pool.

A pooled run (:meth:`Engine.queued`) plans every point, queues every
point's missing shards on one pool of at most ``jobs`` workers, and
receives them point by point.  It must equal the inline run field for
field (figures, the validate campaign, the dynamic sweep), keep the
progress events in their per-point order, and leave no worker process
behind (the interrupted run is in ``test_engine.py``'s ``TestResume``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

from repro.engine import (
    Engine,
    ExperimentSpec,
    PointSpec,
    default_schemes,
    plan_shards,
)
from repro.engine import core as engine_core
from repro.experiments.dynamic import run_dynamic_sweep
from repro.gen.params import WorkloadConfig
from repro.types import ReproError
from repro.validate.fuzz import CAMPAIGN_CONFIGS, run_campaign

TINY = WorkloadConfig(cores=2, levels=2, nsu=0.6, task_count_range=(6, 9))
VALUES = (0.5, 0.6, 0.7)


def _spec(sets=4, seed=11) -> ExperimentSpec:
    points = tuple(
        PointSpec(TINY.with_(nsu=v), tuple(default_schemes()), sets=sets, seed=seed)
        for v in VALUES
    )
    return ExperimentSpec("figX", "tiny sweep", "NSU", VALUES, points)


def _pid_shards(shards, *, probe_impl):
    return [os.getpid()] * len(shards)


@pytest.fixture
def pid_kind(monkeypatch):
    """The ``stats`` kind answering each shard with the pid that ran it
    (workers fork after the patch, so they run it too)."""
    stats = engine_core._SHARD_KINDS["stats"]
    monkeypatch.setitem(
        engine_core._SHARD_KINDS,
        "stats",
        dataclasses.replace(stats, run=_pid_shards, merge=lambda point, shards: shards),
    )


class TestPooledEqualsInline:
    def test_figure_spec(self):
        spec = _spec()
        inline = Engine(jobs=1).run(spec)
        pooled = Engine(jobs=2).run(spec)
        assert repr(pooled) == repr(inline)
        assert pooled.to_json() == inline.to_json()

    def test_validate_campaign(self):
        configs = CAMPAIGN_CONFIGS[:2]
        inline = run_campaign(sets=2, seed=5, jobs=1, configs=configs)
        pooled = run_campaign(sets=2, seed=5, jobs=2, configs=configs)
        assert pooled == inline
        assert pooled.cases == 4

    def test_dynamic_sweep(self):
        inline = run_dynamic_sweep(factors=(1.0, 2.0), sets=2, seed=1, jobs=1)
        pooled = run_dynamic_sweep(factors=(1.0, 2.0), sets=2, seed=1, jobs=2)
        assert pooled == inline


class TestOnePool:
    def test_a_run_forks_at_most_jobs_workers(self, pid_kind):
        points = _spec(sets=6).points
        engine = Engine(jobs=2)
        with engine.queued(points):
            pids = {pid for point in points for pid in engine.evaluate(point)}
        assert len(pids) <= 2
        assert os.getpid() not in pids
        assert engine.stats.shards_computed == 6
        assert multiprocessing.active_children() == []

    def test_points_may_be_received_in_any_order(self, pid_kind):
        points = _spec(sets=4).points
        engine = Engine(jobs=2)
        with engine.queued(points):
            for point in reversed(points):
                assert len(engine.evaluate(point)) == 2
        assert engine.stats.points == 3
        assert multiprocessing.active_children() == []

    def test_a_lone_evaluate_is_a_one_point_run(self, pid_kind):
        engine = Engine(jobs=2)
        pids = engine.evaluate(_spec(sets=4).points[0])
        assert len(pids) == 2 and os.getpid() not in pids
        assert engine._pool is None and engine._queue is None
        assert multiprocessing.active_children() == []

    def test_runs_do_not_nest(self):
        engine = Engine(jobs=2)
        with engine.queued(()):
            with pytest.raises(ReproError, match="already has a run open"):
                with engine.queued(()):
                    pass


def _projection(events) -> list[tuple]:
    """The events without their timings."""
    return [
        (e["event"], e.get("start"), e.get("count"), e.get("cached"))
        for e in events
    ]


class TestEvents:
    def test_pooled_events_keep_the_per_point_order(self, tmp_path):
        spec = _spec()
        # Point 2 is fully cached and point 3 half: a warm store must
        # not move their events ahead of point 1's computed shards.
        Engine(jobs=2, store=tmp_path).evaluate(spec.points[1])
        # A 2-set point at jobs 1 is point 3's first shard, same key.
        Engine(jobs=1, store=tmp_path).evaluate(
            dataclasses.replace(spec.points[2], sets=2)
        )
        events: list[dict] = []
        Engine(jobs=2, store=tmp_path, progress=events.append).run(spec)

        expected = [("run_plan", None, None, None)]
        cached = {(1, 0), (1, 2), (2, 0)}
        for index, point in enumerate(spec.points):
            shards = plan_shards(point.sets, 2)
            expected += [("point", None, None, None), ("point_plan", None, None, None)]
            expected += [
                ("shard", s, c, True) for s, c in shards if (index, s) in cached
            ]
            expected += [
                ("shard", s, c, False) for s, c in shards if (index, s) not in cached
            ]
        assert _projection(events) == expected
        plans = [e for e in events if e["event"] == "point_plan"]
        assert [(e["shards"], e["jobs"]) for e in plans] == [(2, 2)] * 3

    def test_the_skeleton_equals_the_inline_run(self):
        spec = _spec()
        inline: list[dict] = []
        pooled: list[dict] = []
        Engine(jobs=1, progress=inline.append).run(spec)
        Engine(jobs=2, progress=pooled.append).run(spec)

        def skeleton(events):
            return [
                (e["event"], e.get("value"), e.get("sets"))
                for e in events
                if e["event"] != "shard"
            ]

        assert skeleton(pooled) == skeleton(inline)
        # Jobs 1 plans one shard per point, so only the plans differ.
        shards = [(e["start"], e["count"]) for e in inline if e["event"] == "shard"]
        assert shards == [(0, 4)] * 3
        shards = [(e["start"], e["count"]) for e in pooled if e["event"] == "shard"]
        assert shards == [(0, 2), (2, 2)] * 3
