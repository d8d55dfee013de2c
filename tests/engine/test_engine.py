"""Tests for the resumable checkpointed engine.

The load-bearing guarantees: serial, parallel, cold-store, and
warm-store runs are bit-identical; an interrupted run resumes from the
checkpointed shards instead of recomputing them; and figures that share
a data point share checkpoints.
"""

import multiprocessing

import pytest

from repro.engine import (
    Engine,
    ExperimentSpec,
    PointSpec,
    ResultStore,
    default_schemes,
    shard_key,
)
from repro.engine.spec import POINT_KINDS
from repro.experiments.sweeps import definition_to_spec, figure1_nsu, figure2_ifc
from repro.gen.params import WorkloadConfig
from repro.types import ReproError

TINY = WorkloadConfig(cores=2, levels=2, nsu=0.6, task_count_range=(6, 9))


def _point(sets=8, seed=3, kind="stats") -> PointSpec:
    return PointSpec(
        config=TINY, schemes=tuple(default_schemes()), sets=sets, seed=seed, kind=kind
    )


def _spec(sets=6, seed=4) -> ExperimentSpec:
    points = tuple(
        PointSpec(
            config=TINY.with_(nsu=v),
            schemes=tuple(default_schemes()),
            sets=sets,
            seed=seed,
        )
        for v in (0.5, 0.7)
    )
    return ExperimentSpec(
        figure="figX",
        title="tiny sweep",
        parameter="NSU",
        values=(0.5, 0.7),
        points=points,
    )


class TestEquivalence:
    def test_cold_warm_serial_bit_identical(self, tmp_path):
        spec = _spec()
        serial = Engine(jobs=1).run(spec)

        cold_engine = Engine(jobs=3, store=tmp_path)
        cold = cold_engine.run(spec)
        assert cold_engine.stats.cache_hits == 0
        assert cold_engine.stats.cache_misses == cold_engine.stats.shards_planned
        assert cold_engine.stats.shards_computed == cold_engine.stats.shards_planned

        warm_engine = Engine(jobs=3, store=tmp_path)
        warm = warm_engine.run(spec)
        assert warm_engine.stats.cache_hits == warm_engine.stats.shards_planned
        assert warm_engine.stats.cache_misses == 0
        assert warm_engine.stats.shards_computed == 0

        # Bit-identical artifacts, not merely approximately equal.
        assert serial.to_json() == cold.to_json() == warm.to_json()

    def test_storeless_engine_counts_no_cache_traffic(self):
        engine = Engine(jobs=1)
        engine.evaluate(_point(sets=4))
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 0
        assert engine.stats.shards_computed == 1

    def test_evaluate_matches_across_jobs(self, tmp_path):
        serial = Engine(jobs=1).evaluate(_point())
        parallel = Engine(jobs=4).evaluate(_point())
        assert serial == parallel


class _Abort(KeyboardInterrupt):
    """Stands in for SIGKILL / Ctrl-C in the resume test.

    Inherits KeyboardInterrupt: an *exception* raised by a progress hook
    is swallowed (the hook is advisory), but a genuine interrupt must
    still punch through the engine.
    """


class TestResume:
    def test_interrupted_run_resumes_from_checkpoints(self, tmp_path):
        point = _point(sets=8)
        baseline = Engine(jobs=1).evaluate(point)

        computed = []

        def die_after_two(event):
            if event["event"] == "shard" and not event["cached"]:
                computed.append(event)
                if len(computed) == 2:
                    raise _Abort("killed mid-sweep")

        first = Engine(jobs=4, store=tmp_path, progress=die_after_two)
        with pytest.raises(_Abort):
            first.evaluate(point)
        # Shards are checkpointed the moment they finish, before the
        # progress event fires — the two finished ones survived the kill.
        assert len(ResultStore(tmp_path)) == 2

        resumed = Engine(jobs=4, store=tmp_path)
        result = resumed.evaluate(point)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.cache_misses == 2
        assert resumed.stats.shards_computed == 2
        assert result == baseline

    def test_interrupted_multi_point_run_resumes_from_checkpoints(self, tmp_path):
        # A pooled run queues every point's shards up front; a Ctrl-C in
        # point 2 cancels the queued rest and joins the workers.
        spec = _spec(sets=4)
        baseline = Engine(jobs=1).run(spec)

        computed = []

        def die_in_point_two(event):
            if event["event"] == "shard" and not event["cached"]:
                computed.append(event)
                if len(computed) == 3:  # point 1 holds two shards
                    raise _Abort("killed mid-run")

        first = Engine(jobs=2, store=tmp_path, progress=die_in_point_two)
        with pytest.raises(_Abort):
            first.run(spec)
        assert multiprocessing.active_children() == []
        # Point 1's shards and point 2's first were received, so they
        # are checkpointed; shards queued for later were not.
        assert len(ResultStore(tmp_path)) == 3

        resumed = Engine(jobs=2, store=tmp_path)
        result = resumed.run(spec)
        assert resumed.stats.cache_hits == 3
        assert resumed.stats.shards_computed == 1
        assert result.to_json() == baseline.to_json()
        assert multiprocessing.active_children() == []

    def test_shared_point_across_figures_hits_cache(self, tmp_path):
        # Fig. 1 at NSU=0.6 and Fig. 2 at IFC=0.4 are both the Section
        # IV-A default point: same config content, same shard keys.
        fig1 = definition_to_spec(figure1_nsu(nsu_values=(0.6,)), sets=10, seed=2)
        fig2 = definition_to_spec(figure2_ifc(ifc_values=(0.4,)), sets=10, seed=2)
        assert shard_key(fig1.points[0], 0, 10) == shard_key(fig2.points[0], 0, 10)

    def test_overlapping_tiny_specs_share_checkpoints(self, tmp_path):
        shared = _point(sets=6, seed=9)
        Engine(jobs=1, store=tmp_path).evaluate(shared)

        second = Engine(jobs=1, store=tmp_path)
        second.evaluate(_point(sets=6, seed=9))
        assert second.stats.cache_hits == 1
        assert second.stats.shards_computed == 0


class TestHeadToHeadThroughEngine:
    """Every stats point tallies each scheme's wins over the others."""

    @staticmethod
    def _wins(stats) -> dict:
        return {label: s.wins for label, s in stats.items()}

    def test_parallel_matches_serial(self):
        serial = Engine(jobs=1).evaluate(_point(sets=9, seed=5))
        parallel = Engine(jobs=3).evaluate(_point(sets=9, seed=5))
        assert self._wins(serial) == self._wins(parallel)
        assert serial == parallel

    def test_warm_run_matches_cold(self, tmp_path):
        cold = Engine(jobs=1, store=tmp_path).evaluate(_point(sets=9, seed=5))
        warm_engine = Engine(jobs=1, store=tmp_path)
        warm = warm_engine.evaluate(_point(sets=9, seed=5))
        assert warm_engine.stats.shards_computed == 0
        assert self._wins(warm) == self._wins(cold)

    def test_scalar_backend_tallies_the_same_wins(self):
        batch = Engine(jobs=1).evaluate(_point(sets=9, seed=5))
        scalar = Engine(jobs=1, probe_impl="scalar").evaluate(_point(sets=9, seed=5))
        assert self._wins(scalar) == self._wins(batch)

    def test_stats_and_validate_shards_do_not_collide(self, tmp_path):
        # Same content, different kind: the store must keep them apart.
        assert shard_key(_point(kind="stats"), 0, 8) != shard_key(
            _point(kind="validate"), 0, 8
        )

    def test_mismatched_kind_payload_rejected(self, tmp_path):
        # The engine stamps each stored object with its kind and refuses
        # an object of another kind under a point's key.
        point = _point(sets=2)
        ResultStore(tmp_path).put(
            shard_key(point, 0, 2), {"kind": "validate", "cases": 2}
        )
        with pytest.raises(ReproError, match="stored shard kind 'validate'"):
            Engine(jobs=1, store=tmp_path).evaluate(point)

    def test_non_object_payload_rejected(self, tmp_path):
        point = _point(sets=2)
        ResultStore(tmp_path).put(shard_key(point, 0, 2), [1, 2])
        with pytest.raises(ReproError, match="stored shard kind None"):
            Engine(jobs=1, store=tmp_path).evaluate(point)


class TestShardRunKwargs:
    def test_runners_take_a_shard_list_and_the_backend_name(self):
        # A runner gets its shards as (point, start, count) triples and
        # the probe backend's name, nothing else: kind-specific knobs
        # (the dynsim burst factor) ride on the point.
        import inspect

        from repro.engine.core import shard_kind

        for name in POINT_KINDS:
            accepted = inspect.signature(shard_kind(name).run).parameters
            assert list(accepted) == ["shards", "probe_impl"], name
            assert accepted["probe_impl"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_dynsim_reads_its_burst_factor_off_the_point(self):
        from repro.engine.core import shard_kind
        from repro.experiments.dynamic import dynamic_point

        run = shard_kind("dynsim").run
        shards = [(dynamic_point(f, sets=2, seed=1), 0, 2) for f in (1.0, 3.0)]
        calm, burst = run(shards, probe_impl="batch")
        assert calm["burst_jobs"] == 0 < burst["burst_jobs"]
        assert [calm, burst] == [run([s], probe_impl="batch")[0] for s in shards]

    def test_dynsim_kind_resolves_lazily(self):
        # The dynsim runner lives in repro.experiments.dynamic and is
        # registered on import via the provider table.
        from repro.engine.core import shard_kind

        assert shard_kind("dynsim").run is not None


class TestRunValidation:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ReproError, match=f"jobs must be >= 1.*got {jobs}"):
            Engine(jobs=jobs)

    def test_run_rejects_h2h_points(self):
        # A figure's points are stats points; any other kind is refused.
        spec = _spec(sets=2)
        bad = ExperimentSpec(
            figure=spec.figure,
            title=spec.title,
            parameter=spec.parameter,
            values=(0.5,),
            points=(_point(sets=2, kind="validate"),),
        )
        with pytest.raises(ReproError, match="stats"):
            Engine(jobs=1).run(bad)

    def test_progress_events_cover_points_and_shards(self):
        events = []
        engine = Engine(jobs=1, progress=events.append)
        engine.run(_spec(sets=4))
        kinds = [e["event"] for e in events]
        assert kinds.count("point") == 2
        assert kinds.count("shard") == 2
        shard_events = [e for e in events if e["event"] == "shard"]
        assert all(not e["cached"] and e["seconds"] >= 0 for e in shard_events)
