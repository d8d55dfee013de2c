"""Tests for run manifests: build/write/load/inspect rendering."""

from __future__ import annotations

import json

import pytest

from repro._version import __version__
from repro.obs import (
    MANIFEST_VERSION,
    build_manifest,
    format_manifest,
    git_describe,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.types import ReproError


def _manifest(tmp_path, **overrides):
    artifact = tmp_path / "fig1.json"
    artifact.write_text('{"figure": "fig1"}\n')
    kwargs = dict(
        run_id="r-test",
        command=["fig1", "--sets", "4"],
        figure="fig1",
        sets=4,
        seed=2016,
        jobs=2,
        artifact_path=artifact,
        engine_stats={
            "points": 5,
            "shards_planned": 10,
            "cache_hits": 1,
            "cache_misses": 9,
            "shards_computed": 9,
            "compute_seconds": 1.25,
            "worker_retries": 0,
            "shard_seconds_hist": {
                "count": 9,
                "total": 1.25,
                "min": 0.1,
                "max": 0.3,
                "p50": 0.1334,
                "p90": 0.3,
                "p95": 0.3,
                "p99": 0.3,
                "overflow": 0,
            },
        },
        metrics={"counters": {"probe.cores_probed": 42}, "histograms": {}},
        events_log="events.jsonl",
    )
    kwargs.update(overrides)
    return build_manifest(**kwargs)


class TestBuild:
    def test_contains_provenance(self, tmp_path):
        m = _manifest(tmp_path)
        assert m["manifest_version"] == MANIFEST_VERSION
        assert m["run_id"] == "r-test"
        assert m["repro_version"] == __version__
        assert m["artifact"]["path"] == "fig1.json"
        assert len(m["artifact"]["sha256"]) == 64

    def test_minimal_build(self):
        m = build_manifest(run_id="r-min")
        assert m["artifact"] is None
        assert m["figure"] is None

    def test_git_describe_is_string_or_none(self):
        described = git_describe()
        assert described is None or (isinstance(described, str) and described)


class TestRoundtrip:
    def test_write_load(self, tmp_path):
        m = _manifest(tmp_path)
        path = manifest_path_for(tmp_path / "fig1.json")
        assert path.name == "fig1.manifest.json"
        write_manifest(path, m)
        assert load_manifest(path) == m

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps({"manifest_version": 999}))
        with pytest.raises(ReproError, match="unsupported manifest version"):
            load_manifest(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_manifest(tmp_path / "absent.manifest.json")

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.manifest.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            load_manifest(path)


class TestFormat:
    def test_renders_key_sections(self, tmp_path):
        text = format_manifest(_manifest(tmp_path))
        assert "run_id        r-test" in text
        assert "figure        fig1" in text
        assert "repro-mc fig1 --sets 4" in text
        assert "1 cache hits" in text
        assert "probe.cores_probed" in text
        assert "shard_seconds_hist" in text

    def test_counter_truncation(self, tmp_path):
        metrics = {
            "counters": {f"c{i:03}": i for i in range(50)},
            "histograms": {},
        }
        text = format_manifest(_manifest(tmp_path, metrics=metrics), top=5)
        assert "top 5 of 50" in text
        # Ranked by value descending: c049 shown, c001 cut.
        assert "c049" in text
        assert "c001" not in text

    def test_renders_engine_histogram_row(self, tmp_path):
        m = _manifest(tmp_path)
        m["engine"]["shard_seconds_hist"] = {
            "count": 9,
            "total": 1.25,
            "min": 0.1,
            "max": 0.3,
            "p50": 0.12,
            "p95": 0.29,
            "p99": 0.3,
            "overflow": 0,
        }
        text = format_manifest(m)
        assert "shard_seconds_hist" in text
        assert "p99=0.3" in text
        # Zero overflow stays silent — it is the healthy steady state.
        assert "overflow" not in text

    def test_renders_metrics_histograms_section(self, tmp_path):
        metrics = {
            "counters": {},
            "histograms": {
                "serve.place.seconds": {
                    "count": 120,
                    "total": 0.6,
                    "min": 0.001,
                    "max": 9.0,
                    "p50": 0.004,
                    "p95": 0.02,
                    "p99": 0.05,
                    "overflow": 3,
                },
                "serve.empty": {
                    "count": 0,
                    "total": 0.0,
                    "min": None,
                    "max": None,
                    "p50": None,
                    "p95": None,
                    "p99": None,
                    "overflow": 0,
                },
            },
        }
        text = format_manifest(_manifest(tmp_path, metrics=metrics))
        assert "Histograms" in text
        assert "serve.place.seconds" in text
        assert "overflow=3" in text
        assert "serve.empty" in text and "(empty)" in text


#: A v1 manifest as written before histograms were the only
#: distribution kind: a reservoir ``shard_seconds`` digest beside
#: ``shard_seconds_hist``, and a ``metrics.summaries`` section.
OLD_LAYOUT_V1 = {
    "manifest_version": 1,
    "run_id": "r-old",
    "created": "2026-10-01T12:00:00Z",
    "repro_version": "0.1.0",
    "git_describe": None,
    "command": ["fig1", "--sets", "2", "--json", "out"],
    "figure": "fig1",
    "sets": 2,
    "seed": 2016,
    "jobs": 1,
    "engine": {
        "points": 5,
        "shards_planned": 5,
        "cache_hits": 0,
        "cache_misses": 0,
        "shards_computed": 5,
        "compute_seconds": 0.648,
        "worker_retries": 0,
        "shard_seconds": {
            "count": 5,
            "total": 0.648,
            "min": 0.0799,
            "max": 0.1832,
            "p50": 0.1269,
            "p95": 0.1832,
        },
        "shard_seconds_hist": {
            "count": 5,
            "total": 0.648,
            "min": 0.0799,
            "max": 0.1832,
            "p50": 0.1778,
            "p95": 0.1832,
            "p99": 0.1832,
            "overflow": 0,
        },
    },
    "metrics": {
        "counters": {"engine.shards_computed": 5},
        "summaries": {
            "engine.run.seconds": {
                "count": 1,
                "total": 0.7,
                "min": 0.7,
                "max": 0.7,
                "p50": 0.7,
                "p95": 0.7,
            },
        },
        "histograms": {
            "engine.shard_seconds": {
                "count": 5,
                "total": 0.648,
                "min": 0.0799,
                "max": 0.1832,
                "p50": 0.1778,
                "p95": 0.1832,
                "p99": 0.1832,
                "overflow": 0,
            },
        },
    },
    "events_log": None,
}


class TestOldLayout:
    """v1 manifests written with reservoir digests still inspect."""

    def test_format_renders_histogram_rows(self):
        text = format_manifest(OLD_LAYOUT_V1)
        assert "Run manifest (v1)" in text
        assert "shard_seconds_hist" in text and "p50=0.1778" in text
        assert "Histograms" in text
        assert "engine.shard_seconds" in text and "p99=0.1832" in text
        # The reservoir digests are skipped, not rendered.
        assert "engine.run.seconds" not in text

    def test_inspect_exits_zero(self, tmp_path, capsys):
        from repro import cli

        path = write_manifest(tmp_path / "fig1.manifest.json", OLD_LAYOUT_V1)
        assert cli.main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shard_seconds_hist" in out
        assert "engine.shard_seconds" in out and "p99=0.1832" in out
