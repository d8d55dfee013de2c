"""Unit tests for the ``repro-mc top`` dashboard sources and renderer."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import top as top_mod
from repro.obs.top import (
    DaemonSource,
    SweepSource,
    make_source,
    run_top,
    sparkline,
)
from repro.types import ReproError


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_zero_is_floor_blocks(self):
        assert sparkline([0.0, 0.0, 0.0]) == "▁▁▁"

    def test_peak_maps_to_top_block(self):
        line = sparkline([0.0, 10.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_width_keeps_the_tail(self):
        line = sparkline([0.0] * 50 + [10.0], width=5)
        assert len(line) == 5
        assert line[-1] == "█"


def _event(name: str, ts: float, **payload) -> str:
    return json.dumps(
        {"run_id": "r1", "seq": 1, "ts": ts, "event": name, **payload}
    )


def _write_sweep(path, lines):
    path.write_text("\n".join(lines) + "\n")


SWEEP_EVENTS = [
    _event("engine.run_plan", 100.0, figure="fig1", points=2, sets_per_point=4),
    _event("engine.point_plan", 100.1, kind="fig1", sets=4, shards=2, jobs=2),
    _event("engine.shard", 101.0, cached=False, seconds=0.8),
    _event("engine.shard", 102.0, cached=True, seconds=0.0),
]


#: Engine events whose numeric field is not a finite number, each
#: followed by the valid events it must not break.
BAD_NUMERIC_EVENTS = {
    "shards-string": ['{"event": "engine.point_plan", "shards": "x", "ts": 1.0}'],
    "shards-overflow": ['{"event": "engine.point_plan", "shards": 1e400, "ts": 1.0}'],
    "jobs-null": ['{"event": "engine.point_plan", "jobs": null, "ts": 1.0}'],
    "seconds-string": ['{"event": "engine.shard", "seconds": "x", "ts": 1.0}'],
    "points-string": [
        '{"event": "engine.run_plan", "points": "x", "ts": 1.0}',
        SWEEP_EVENTS[1],
    ],
}


class TestSweepSource:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no events file"):
            SweepSource(tmp_path / "nope.jsonl")

    def test_directory_resolves_to_events_jsonl(self, tmp_path):
        _write_sweep(tmp_path / "events.jsonl", SWEEP_EVENTS)
        source = SweepSource(tmp_path)
        assert source.path.name == "events.jsonl"

    def test_folds_progress(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_sweep(path, SWEEP_EVENTS)
        source = SweepSource(path)
        frame = source.frame()
        assert source.figure == "fig1"
        assert source.points_total == 2
        assert source.shards_planned == 2
        assert source.shards_done == 2
        assert source.cache_hits == 1
        assert source.jobs == 2
        assert "fig1" in frame
        assert "cache hit rate 50%" in frame

    def test_eta_scales_unopened_points(self, tmp_path):
        # 1 of 2 points planned at 2 shards each, both done in 2 s:
        # 2 more shards remain -> ETA 2 s at 1 shard/s.
        path = tmp_path / "events.jsonl"
        _write_sweep(path, SWEEP_EVENTS)
        source = SweepSource(path)
        source._ingest()
        assert source._eta() == pytest.approx(2.0)

    def test_eta_zero_when_everything_done(self, tmp_path):
        path = tmp_path / "events.jsonl"
        done = SWEEP_EVENTS + [
            _event("engine.point_plan", 102.5, kind="fig1", sets=4, shards=2, jobs=2),
            _event("engine.shard", 103.0, cached=False, seconds=0.5),
            _event("engine.shard", 104.0, cached=False, seconds=0.5),
        ]
        _write_sweep(path, done)
        source = SweepSource(path)
        source._ingest()
        assert source._eta() == 0.0

    def test_tail_is_incremental_and_skips_partial_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_sweep(path, SWEEP_EVENTS[:2])
        source = SweepSource(path)
        source.frame()
        assert source.shards_done == 0
        # Append one full line and one half-written line.
        with path.open("a") as fh:
            fh.write(SWEEP_EVENTS[2] + "\n")
            fh.write(SWEEP_EVENTS[3][:20])  # no newline: torn write
        source.frame()
        assert source.shards_done == 1
        # The torn line is re-read once completed.
        with path.open("a") as fh:
            fh.write(SWEEP_EVENTS[3][20:] + "\n")
        source.frame()
        assert source.shards_done == 2

    def test_garbage_lines_are_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_sweep(path, ["{not json", *SWEEP_EVENTS])
        source = SweepSource(path)
        source.frame()
        assert source.shards_done == 2

    @pytest.mark.parametrize(
        "bad", BAD_NUMERIC_EVENTS.values(), ids=list(BAD_NUMERIC_EVENTS)
    )
    def test_event_with_a_non_finite_number_is_skipped(self, tmp_path, bad):
        # The bad event folds nothing: the frame equals the one of the
        # log without it, and `top --once` renders it and exits 0.
        path, clean = tmp_path / "bad.jsonl", tmp_path / "clean.jsonl"
        _write_sweep(path, [*SWEEP_EVENTS, *bad])
        _write_sweep(clean, [*SWEEP_EVENTS, *bad[1:]])
        stream = io.StringIO()
        assert run_top(str(path), once=True, stream=stream) == 0
        assert stream.getvalue() == SweepSource(clean).frame() + "\n"


HISTORY = {
    "version": 1,
    "bucket_seconds": 1.0,
    "buckets": 120,
    "window_seconds": 120.0,
    "wall": 0.0,
    "uptime_seconds": 12.0,
    "counters": {
        "serve.requests": {"values": [0.0, 5.0, 10.0], "rate": 1.5},
        "serve.http.200": {"values": [0.0, 5.0, 9.0], "rate": 1.4},
        "serve.http.409": {"values": [0.0, 0.0, 1.0], "rate": 0.1},
        "serve.rejected_503": {"values": [0.0], "rate": 0.0},
    },
    "histograms": {
        "serve.place.seconds": {
            "count": [0, 3],
            "p50": [None, 0.001],
            "p95": [None, 0.002],
            "window": {"count": 3, "p50": 0.001, "p95": 0.002, "max": 0.002},
        },
        "serve.batch_size": {
            "count": [0, 2],
            "p50": [None, 4.0],
            "p95": [None, 8.0],
            "window": {"count": 2, "p50": 4.0, "p95": 8.0, "max": 8.0},
        },
    },
    "gauges": {
        "serve.queue_depth": 2.0,
        "serve.tasks": 7.0,
        "serve.lambda": 1.25,
    },
}

HEALTH = {"ok": True, "seq": 9}


class TestDaemonSource:
    def test_frame_renders_history(self, monkeypatch):
        calls = []

        def fake_fetch(url, timeout=2.0):
            calls.append(url)
            return HISTORY if "history" in url else HEALTH

        monkeypatch.setattr(top_mod, "fetch_json", fake_fetch)
        frame = DaemonSource("http://127.0.0.1:1234/").frame()
        assert "http://127.0.0.1:1234" in frame
        assert "qps" in frame and "1.5" in frame
        assert "200:14" in frame and "409:1" in frame
        assert "1.0ms / 2.0ms" in frame  # place p50/p95
        assert "rejected 503" in frame
        assert "Λ 1.250" in frame
        assert calls == [
            "http://127.0.0.1:1234/metrics/history",
            "http://127.0.0.1:1234/healthz",
        ]

    def test_unreachable_daemon_raises(self):
        with pytest.raises(ReproError, match="cannot poll"):
            DaemonSource("http://127.0.0.1:1", timeout=0.2).frame()


class TestRunTop:
    def test_once_renders_without_ansi(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_sweep(path, SWEEP_EVENTS)
        out = io.StringIO()
        assert run_top(str(path), once=True, stream=out) == 0
        text = out.getvalue()
        assert "\x1b" not in text
        assert "fig1" in text

    def test_loop_clears_screen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_sweep(path, SWEEP_EVENTS)
        out = io.StringIO()
        assert run_top(str(path), interval=0.0, stream=out, max_frames=2) == 0
        assert out.getvalue().count("\x1b[2J\x1b[H") == 2

    def test_make_source_dispatch(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _write_sweep(path, SWEEP_EVENTS)
        assert isinstance(make_source(str(path)), SweepSource)
        assert isinstance(make_source("http://x:1"), DaemonSource)
