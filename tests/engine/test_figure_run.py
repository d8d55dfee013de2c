"""A whole figure run through the engine, end to end.

Inline, each point's task sets are generated from arrays (no
``MCTask`` object) and stepped through :func:`partition_lockstep` in
packs: consecutive points' shards share one call up to ``PACK_SETS``
sets, and a bigger shard steps alone, at most ``LOCKSTEP_SETS`` sets at
a time; the first ``point`` event comes before any set is generated.
The inline run equals per-point ``evaluate`` and a pooled run field for
field.  The store objects it writes are pinned, and with each
accumulator's ``wins`` stripped they are byte-identical to the ones
written before stats shards tallied wins (and before task sets were
generated from arrays).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

import pytest

from repro import obs
from repro.engine import (
    Engine,
    ExperimentSpec,
    PointSpec,
    ResultStore,
    default_schemes,
    shard_key,
)
from repro.engine import core as engine_core
from repro.engine.store import _canonical
from repro.experiments.sweeps import (
    definition_to_spec,
    figure1_nsu,
    figure2_ifc,
    figure3_alpha,
    figure4_cores,
    figure5_levels,
)
from repro.gen.params import WorkloadConfig
from repro.model.task import MCTask
from repro.obs.top import run_top

SETS = 10
SEED = 2016

#: sha256 (first 16 hex digits) of every store object a 5-point fig1
#: run at 10 sets and seed 2016 writes, sorted.
EXPECTED_FIG1_OBJECTS = [
    "2f2f4aa83ce43ec1",
    "95ecc2313fbb5437",
    "b8d1aa59cf097d9e",
    "b8d1aa59cf097d9e",  # NSU 0.7 and 0.8: every set fails under every scheme
    "d1f4904daea68a48",
]
#: The same objects with each accumulator's ``wins`` stripped and the
#: rest re-canonicalized: the digests of the objects written before
#: stats shards tallied wins, so the accumulator bytes are unchanged.
EXPECTED_FIG1_ACCUMULATORS = [
    "6da57d2214cdc951",
    "72e9129aba150781",
    "abee354c60cdbbbf",
    "d9d06f8aa188bb1b",
    "d9d06f8aa188bb1b",
]


def _fig1(sets: int = SETS) -> ExperimentSpec:
    return definition_to_spec(figure1_nsu(), sets=sets, seed=SEED)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _object_digests(root) -> list[str]:
    return sorted(_digest(path.read_bytes()) for path in root.glob("objects/*/*.json"))


def _accumulator_digests(root) -> list[str]:
    digests = []
    for path in root.glob("objects/*/*.json"):
        payload = json.loads(path.read_bytes())
        for acc in payload["accumulators"]:
            del acc["wins"]
        digests.append(_digest(_canonical(payload).encode("utf-8")))
    return sorted(digests)


def _stats_of(spec: ExperimentSpec, results: list[dict]) -> str:
    """``repr`` of per-point ``evaluate`` results in an artifact's row
    form (repr, not ==: the stats of an all-failing point hold nan)."""
    return repr(
        [tuple(stats[lb] for lb in point.labels)
         for point, stats in zip(spec.points, results)]
    )


@pytest.fixture
def runner_log(monkeypatch):
    """``(NSU, start, count)`` shards of every ``stats`` runner call,
    one list per call."""
    log: list[list[tuple[float, int, int]]] = []
    stats = engine_core._SHARD_KINDS["stats"]

    def logged(shards, **kwargs):
        log.append([(point.config.nsu, s, c) for point, s, c in shards])
        return stats.run(shards, **kwargs)

    monkeypatch.setitem(
        engine_core._SHARD_KINDS, "stats", dataclasses.replace(stats, run=logged)
    )
    return log


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

    @pytest.mark.parametrize(
        "definition",
        [figure1_nsu, figure2_ifc, figure3_alpha, figure4_cores, figure5_levels],
    )
    def test_packed_run_equals_points_alone_and_pooled(self, definition):
        # At 7 sets a pack holds four points' shards (28 sets); in fig3
        # they differ in alpha, in fig4 in M and in fig5 in K.
        spec = definition_to_spec(definition(), sets=7, seed=SEED)
        inline = Engine(jobs=1).run(spec)
        pooled = Engine(jobs=2).run(spec)
        assert repr(inline) == repr(pooled)
        assert inline.to_json() == pooled.to_json()
        alone = [Engine(jobs=1).evaluate(point) for point in spec.points]
        assert repr([row.stats for row in inline.rows]) == _stats_of(spec, alone)

    def test_one_lockstep_call_per_pack(self, lockstep_log):
        Engine(jobs=1).run(_fig1())
        assert engine_core.PACK_SETS == 32
        assert lockstep_log == [3 * SETS, 2 * SETS]

    def test_points_received_in_reverse_compute_each_pack_once(
        self, runner_log, lockstep_log
    ):
        spec = _fig1()
        engine = Engine(jobs=1)
        with engine.queued(spec.points):
            backward = [engine.evaluate(point) for point in reversed(spec.points)]
        # Receiving NSU 0.8 computes the second pack, NSU 0.6 the first.
        assert runner_log == [
            [(0.7, 0, SETS), (0.8, 0, SETS)],
            [(0.4, 0, SETS), (0.5, 0, SETS), (0.6, 0, SETS)],
        ]
        assert lockstep_log == [2 * SETS, 3 * SETS]
        assert engine.stats.shards_computed == 5
        forward = Engine(jobs=1).run(spec)
        assert repr([row.stats for row in forward.rows]) == _stats_of(
            spec, backward[::-1]
        )

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
        assert _accumulator_digests(tmp_path) == EXPECTED_FIG1_ACCUMULATORS
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
        # The three missing shards (30 sets) share one pack.
        assert lockstep_log == [SETS * len(objects[::2])]

    def test_an_interrupted_run_keeps_what_it_received(self, tmp_path, lockstep_log):
        # At 7 sets the first pack holds points 1-4 (28 sets), so the
        # interrupt comes after the pack computed a point not received.
        spec = _fig1(sets=7)
        cold = Engine(jobs=1).run(spec)
        lockstep_log.clear()
        shards: list[dict] = []

        def interrupt_at_the_third_shard(event):
            if event["event"] == "shard":
                shards.append(event)
                if len(shards) == 3:
                    raise KeyboardInterrupt

        interrupted = Engine(
            jobs=1, store=tmp_path, progress=interrupt_at_the_third_shard
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(spec)
        # Each shard was checkpointed when its point was received, before
        # its event: point 4, computed but not received, was not.
        assert lockstep_log == [28]
        store = ResultStore(tmp_path)
        stored = [
            store.get(shard_key(point, 0, 7, probe_impl="batch")) is not None
            for point in spec.points
        ]
        assert stored == [True, True, True, False, False]
        assert len(store) == 3

        lockstep_log.clear()
        resumed = Engine(jobs=1, store=tmp_path)
        assert resumed.run(spec).to_json() == cold.to_json()
        assert resumed.stats.cache_hits == 3
        assert resumed.stats.shards_computed == 2
        assert lockstep_log == [14]


class TestPackObservability:
    def test_a_pack_is_one_shard_span_and_every_total_holds(self):
        events: list[dict] = []
        with obs.instrument() as state:
            engine = Engine(jobs=1, progress=events.append)
            engine.run(_fig1())
            spans = [r for r in state.spans if r["name"] == "engine.shard"]
            hist = state.registry.snapshot()["histograms"]["engine.shard_seconds"]
        assert [(s["shards"], s["set_count"]) for s in spans] == [
            (3, 3 * SETS), (2, 2 * SETS),
        ]
        seconds = [e["seconds"] for e in events if e["event"] == "shard"]
        assert engine.stats.shards_computed == len(seconds) == 5
        assert engine.stats.shard_seconds_hist.count == hist["count"] == 5
        assert engine.stats.compute_seconds == pytest.approx(sum(seconds))
        # A pack's time lands on the shard whose receipt computed it.
        first, second = (s["seconds"] for s in spans)
        assert seconds[0] >= first and seconds[3] >= second
        assert max(seconds[1], seconds[2], seconds[4]) < min(first, second)

    def test_top_shows_every_point_of_a_packed_run_done(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with obs.instrument(log_path=log):
            Engine(jobs=1).run(_fig1())
        out = io.StringIO()
        assert run_top(str(log), once=True, stream=out) == 0
        frame = out.getvalue()
        assert "points          5/5" in frame
        assert "shards          5/5 done" in frame
