"""A whole figure run through the engine, end to end.

Inline, each point's task sets are generated from arrays (no
``MCTask`` object) and stepped through :func:`partition_lockstep`
point by point, at most ``LOCKSTEP_SETS`` sets at a time; the first
``point`` event comes before any set is generated.  The inline run
equals per-point ``evaluate`` and a pooled run field for field, and the
store objects it writes are byte-identical to the ones written when task
sets were built from task objects (digests captured before that change).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine import Engine, ExperimentSpec, PointSpec, default_schemes
from repro.engine import core as engine_core
from repro.experiments.sweeps import definition_to_spec, figure1_nsu
from repro.gen.params import WorkloadConfig
from repro.model.task import MCTask

SETS = 10
SEED = 2016

#: sha256 (first 16 hex digits) of every store object a 5-point fig1
#: run at 10 sets and seed 2016 writes, sorted, and of one h2h point.
EXPECTED_FIG1_OBJECTS = [
    "6da57d2214cdc951",
    "72e9129aba150781",
    "abee354c60cdbbbf",
    "d9d06f8aa188bb1b",
    "d9d06f8aa188bb1b",  # NSU 0.7 and 0.8: every set fails under every scheme
]
EXPECTED_H2H_OBJECT = "498cafebec872191"


def _fig1(sets: int = SETS) -> ExperimentSpec:
    return definition_to_spec(figure1_nsu(), sets=sets, seed=SEED)


def _h2h_point() -> PointSpec:
    return PointSpec(
        config=WorkloadConfig(), schemes=tuple(default_schemes()), sets=SETS,
        seed=SEED, kind="h2h",
    )


def _object_digests(root) -> list[str]:
    return sorted(
        hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in root.glob("objects/*/*.json")
    )


@pytest.fixture
def lockstep_log(monkeypatch):
    """Task sets of every ``partition_lockstep`` call the engine makes."""
    log: list[int] = []
    original = engine_core.partition_lockstep

    def logged(jobs, *args, **kwargs):
        log.append(len({id(taskset) for _, taskset, _ in jobs}))
        return original(jobs, *args, **kwargs)

    monkeypatch.setattr(engine_core, "partition_lockstep", logged)
    return log


class TestRunEquivalence:
    def test_inline_run_equals_points_alone_and_pooled(self):
        spec = _fig1()
        inline = Engine(jobs=1).run(spec)
        pooled = Engine(jobs=2).run(spec)
        # repr, not ==: the stats of an all-failing point hold nan.
        assert repr(inline) == repr(pooled)
        assert inline.to_json() == pooled.to_json()
        for row, point in zip(inline.rows, spec.points):
            alone = Engine(jobs=1).evaluate(point)
            assert repr(row.stats) == repr(tuple(alone[lb] for lb in point.labels))

    def test_one_lockstep_call_per_point(self, lockstep_log):
        Engine(jobs=1).run(_fig1())
        assert lockstep_log == [SETS] * 5

    def test_builds_no_task_objects(self, monkeypatch):
        built = []
        original = MCTask.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MCTask, "__post_init__", counted)
        Engine(jobs=1).run(_fig1())
        assert built == []


class TestRunPlan:
    def test_the_first_point_is_announced_before_any_set_is_generated(
        self, monkeypatch
    ):
        events: list[str] = []
        original = engine_core.generate_taskset

        def logged(*args, **kwargs):
            events.append("generate")
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_core, "generate_taskset", logged)
        Engine(jobs=1, progress=lambda e: events.append(e["event"])).run(_fig1())
        first_set = events.index("generate")
        assert events[:first_set] == ["run_plan", "point", "point_plan"]
        assert events.count("point") == events.count("shard") == 5

    def test_wide_runs_hold_at_most_lockstep_sets(self, lockstep_log):
        tiny = WorkloadConfig(cores=2, levels=2, task_count_range=(6, 9))
        points = tuple(
            PointSpec(tiny.with_(nsu=v), tuple(default_schemes()), sets=200,
                      seed=SEED)
            for v in (0.4, 0.5, 0.6, 0.7, 0.8)
        )
        spec = ExperimentSpec("figX", "tiny", "NSU", (0.4, 0.5, 0.6, 0.7, 0.8),
                              points)
        Engine(jobs=1).run(spec)
        assert max(lockstep_log) <= engine_core.LOCKSTEP_SETS
        assert sum(lockstep_log) == 5 * 200


class TestStoreObjects:
    def test_objects_are_unchanged_and_answer_every_shard(
        self, tmp_path
    ):
        Engine(jobs=1, store=tmp_path).run(_fig1())
        assert _object_digests(tmp_path) == EXPECTED_FIG1_OBJECTS
        warm = Engine(jobs=1, store=tmp_path)
        warm.run(_fig1())
        assert warm.stats.cache_hits == 5
        assert warm.stats.shards_computed == 0

    def test_a_partial_store_recomputes_only_its_missing_shards(
        self, tmp_path, lockstep_log
    ):
        cold = Engine(jobs=1, store=tmp_path).run(_fig1())
        objects = sorted(tmp_path.glob("objects/*/*.json"))
        for path in objects[::2]:
            path.unlink()
        lockstep_log.clear()
        resumed = Engine(jobs=1, store=tmp_path)
        assert resumed.run(_fig1()).to_json() == cold.to_json()
        assert resumed.stats.cache_hits == len(objects[1::2])
        assert lockstep_log == [SETS] * len(objects[::2])

    def test_h2h_object_matches(self, tmp_path):
        Engine(jobs=1, store=tmp_path).evaluate(_h2h_point())
        assert _object_digests(tmp_path) == [EXPECTED_H2H_OBJECT]
