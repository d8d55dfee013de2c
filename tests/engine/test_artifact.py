"""Tests for the structured SweepArtifact / PointResult schema."""

import json

import pytest

from repro.engine import SCHEMA_VERSION, Engine, PointSpec, SweepArtifact
from repro.engine.spec import default_schemes
from repro.experiments.sweeps import definition_to_spec, figure1_nsu
from repro.gen.params import WorkloadConfig
from repro.types import ReproError

TINY = WorkloadConfig(cores=2, levels=2, task_count_range=(6, 9))


@pytest.fixture(scope="module")
def artifact() -> SweepArtifact:
    d = figure1_nsu(nsu_values=(0.5, 0.7))
    spec = definition_to_spec(d, sets=5, seed=11)
    tiny_points = tuple(
        PointSpec(
            config=TINY.with_(nsu=p.config.nsu),
            schemes=p.schemes,
            sets=p.sets,
            seed=p.seed,
        )
        for p in spec.points
    )
    import dataclasses

    return Engine(jobs=1).run(dataclasses.replace(spec, points=tiny_points))


class TestJsonRoundTrip:
    def test_bit_identical_round_trip(self, artifact):
        restored = SweepArtifact.from_json(artifact.to_json())
        # Compare serialized forms: NaN-valued metrics (no schedulable
        # sets) break float == but must still round-trip to null and
        # back to the same JSON bytes.
        assert restored.to_json() == artifact.to_json()
        assert restored.schema_version == SCHEMA_VERSION

    def test_json_is_strict(self, artifact):
        # No NaN/Infinity literals: any JSON parser can read artifacts.
        parsed = json.loads(artifact.to_json())  # strict parse must work
        assert parsed["kind"] == "sweep_artifact"
        assert parsed["schema_version"] == SCHEMA_VERSION

    def test_nan_metrics_become_null(self):
        # Overloaded point: nothing schedulable, quality metrics NaN.
        heavy = PointSpec(
            config=TINY.with_(nsu=2.5),
            schemes=tuple(default_schemes()),
            sets=3,
            seed=1,
        )
        stats = Engine(jobs=1).evaluate(heavy)["ffd"]
        data = stats.to_dict()
        assert data["u_sys"] is None
        restored = type(stats).from_dict(data)
        assert restored.sched_ratio == 0.0
        assert restored.to_dict() == data

    def test_unsupported_schema_version_rejected(self, artifact):
        data = artifact.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema version"):
            SweepArtifact.from_dict(data)


class TestPointResultSurface:
    def test_mapping_access(self, artifact):
        row = artifact.rows[0]
        assert set(row.keys()) == {"ca-tpa", "ffd", "bfd", "wfd", "hybrid"}
        assert row["ffd"].scheme == "ffd"
        assert "ffd" in row
        assert dict(row.items())["wfd"] is row["wfd"]
        with pytest.raises(KeyError):
            row["nope"]

    def test_series(self, artifact):
        series = artifact.series("sched_ratio")
        assert set(series) == set(artifact.schemes)
        assert all(len(v) == len(artifact.values) for v in series.values())

    def test_provenance_is_executable(self, artifact):
        # A row carries enough to regenerate itself bit-identically.
        row = artifact.rows[0]
        point = row.to_point_spec(artifact.sets_per_point, artifact.seed)
        again = Engine(jobs=1).evaluate(point)
        assert tuple(again[label] for label in row.labels) == row.stats
