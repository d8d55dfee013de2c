"""Tests for the declarative spec layer and shard planning."""

import pytest

from repro.engine.spec import (
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
    default_schemes,
    plan_shards,
)
from repro.gen.params import WorkloadConfig
from repro.types import ReproError


class TestPlanShards:
    def test_single_job_is_one_shard(self):
        assert plan_shards(17, 1) == [(0, 17)]

    def test_jobs_clamped_to_sets(self):
        # More workers than sets: one 1-set shard per set, none empty.
        assert plan_shards(3, 16) == [(0, 1), (1, 1), (2, 1)]

    def test_even_split(self):
        assert plan_shards(10, 2) == [(0, 5), (5, 5)]

    def test_uneven_split_covers_exactly(self):
        assert plan_shards(10, 3) == [(0, 3), (3, 3), (6, 4)]

    @pytest.mark.parametrize("sets", [1, 2, 3, 7, 10, 31, 100])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 5, 9, 10, 50])
    def test_cover_is_exact_and_gapless(self, sets, jobs):
        shards = plan_shards(sets, jobs)
        cursor = 0
        for start, count in shards:
            assert start == cursor
            assert count > 0  # no zero-width shards, ever
            cursor += count
        assert cursor == sets
        assert len(shards) <= min(jobs, sets)

    def test_jobs_close_to_sets_has_no_empty_shards(self):
        # The regression this guards: linspace rounding used to be able
        # to emit zero-width intervals when jobs ~ sets.
        for sets in range(1, 40):
            for jobs in range(1, sets + 3):
                assert all(c > 0 for _, c in plan_shards(sets, jobs))

    def test_zero_sets_rejected(self):
        with pytest.raises(ReproError, match="sets must be >= 1"):
            plan_shards(0, 4)


class TestSchemeSpec:
    def test_round_trip(self):
        spec = SchemeSpec.make("ca-tpa", label="ca-0.3", alpha=0.3)
        assert SchemeSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_defaults(self):
        spec = SchemeSpec.make("ffd")
        assert SchemeSpec.from_dict(spec.to_dict()) == spec


class TestPointSpec:
    def test_round_trip(self):
        point = PointSpec(
            config=WorkloadConfig(cores=2, crit_weights=(2.0, 1.0, 1.0, 1.0)),
            schemes=tuple(default_schemes(alpha=0.3)),
            sets=50,
            seed=7,
            kind="validate",
        )
        assert PointSpec.from_dict(point.to_dict()) == point

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            PointSpec(
                config=WorkloadConfig(),
                schemes=(SchemeSpec.make("ffd"), SchemeSpec.make("ffd")),
            )

    def test_zero_sets_rejected(self):
        with pytest.raises(ReproError, match="sets"):
            PointSpec(
                config=WorkloadConfig(), schemes=(SchemeSpec.make("ffd"),), sets=0
            )

    def test_negative_seed_rejected(self):
        # Caught here rather than inside numpy's SeedSequence mid-shard.
        with pytest.raises(ReproError, match="seed must be >= 0, got -1"):
            PointSpec(
                config=WorkloadConfig(), schemes=(SchemeSpec.make("ffd"),), seed=-1
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="kind"):
            PointSpec(
                config=WorkloadConfig(),
                schemes=(SchemeSpec.make("ffd"),),
                kind="bogus",
            )

    def test_empty_schemes_rejected(self):
        with pytest.raises(ReproError, match="scheme"):
            PointSpec(config=WorkloadConfig(), schemes=())

    def test_params_round_trip(self):
        point = PointSpec(
            config=WorkloadConfig(cores=2),
            schemes=(SchemeSpec.make("ca-tpa"),),
            kind="dynsim",
            params=(("burst_factor", 2.0),),
        )
        assert PointSpec.from_dict(point.to_dict()) == point
        assert point.to_dict()["params"] == {"burst_factor": 2.0}

    def test_empty_params_stay_out_of_dict(self):
        # Legacy documents (and their shard hashes) predate `params`;
        # an empty tuple must serialize exactly as before it existed.
        point = PointSpec(config=WorkloadConfig(), schemes=(SchemeSpec.make("ffd"),))
        assert "params" not in point.to_dict()


class TestExperimentSpec:
    def _spec(self):
        points = tuple(
            PointSpec(
                config=WorkloadConfig(nsu=v),
                schemes=tuple(default_schemes()),
                sets=10,
                seed=3,
            )
            for v in (0.4, 0.6)
        )
        return ExperimentSpec(
            figure="fig1",
            title="t",
            parameter="NSU",
            values=(0.4, 0.6),
            points=points,
        )

    def test_round_trip(self):
        spec = self._spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_values_points_length_mismatch_rejected(self):
        spec = self._spec()
        with pytest.raises(ReproError, match="swept values"):
            ExperimentSpec(
                figure="fig1",
                title="t",
                parameter="NSU",
                values=(0.4,),
                points=spec.points,
            )

    def test_workload_config_round_trip(self):
        config = WorkloadConfig(
            cores=4,
            levels=3,
            nsu=0.55,
            ifc=0.35,
            task_count_range=(10, 20),
            period_ranges=((50, 100), (100, 400)),
            exact_nsu=True,
            crit_weights=(3.0, 2.0, 1.0),
        )
        assert WorkloadConfig.from_dict(config.to_dict()) == config

    def test_workload_config_json_round_trip(self):
        import json

        config = WorkloadConfig()
        via_json = WorkloadConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert via_json == config
