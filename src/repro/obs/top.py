"""``repro-mc top``: a live terminal dashboard for daemons and sweeps.

Two data sources, one renderer loop:

* **Daemon mode** — the target is a URL.  Each refresh polls
  ``GET /metrics/history`` (the windowed JSON series served by
  :mod:`repro.serve`) plus ``GET /healthz``, and renders qps, windowed
  p50/p95 placement/admission latency, batch-size coalescing, HTTP
  status counts, backpressure 503s, queue depth, live-system size and
  Λ imbalance — with a qps sparkline over the retained window.
* **Sweep mode** — the target is an ``events.jsonl`` file (or a run
  directory containing one) written by any instrumented ``repro-mc``
  sweep.  The tailer reads incrementally (only new lines per refresh),
  folds the engine's ``run_plan``/``point_plan``/``shard``/``point``
  events into shard progress, cache hit rate, shard-latency stats,
  throughput and an ETA for the remaining work.

``--once`` renders a single frame without terminal control codes — the
scriptable/CI form; the interactive loop repaints with a plain ANSI
clear.  Everything here is stdlib-only (``urllib`` for polling) and
read-only: ``top`` never mutates the daemon or the sweep it watches.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from urllib.error import URLError
from urllib.request import urlopen

from repro.types import ReproError

__all__ = ["DaemonSource", "SweepSource", "make_source", "run_top"]

_SPARK = "▁▂▃▄▅▆▇█"

#: The numeric fields :meth:`SweepSource._fold` reads from each engine
#: event, besides every event's ``ts``.
_NUMERIC_FIELDS = {
    "engine.run_plan": ("points",),
    "engine.point_plan": ("shards", "jobs"),
    "engine.shard": ("seconds",),
}


def _finite(value) -> bool:
    """A JSON number (not a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def fetch_json(url: str, timeout: float = 2.0) -> dict:
    """GET ``url`` and parse the JSON body; clean ReproError on failure."""
    try:
        with urlopen(url, timeout=timeout) as response:  # noqa: S310 - http only
            return json.loads(response.read().decode("utf-8"))
    except (URLError, OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot poll {url}: {exc}") from exc


def _fmt_seconds(value: float | None) -> str:
    """Human latency: 830ns / 1.2us / 3.4ms / 2.1s."""
    if value is None or value != value:
        return "-"
    if value < 1e-6:
        return f"{value * 1e9:.0f}ns"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None or not math.isfinite(seconds) or seconds < 0:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def sparkline(values: list[float], width: int = 30) -> str:
    """A block-character sparkline of the last ``width`` values."""
    tail = [max(v, 0.0) for v in values[-width:]]
    if not tail:
        return ""
    peak = max(tail)
    if peak <= 0:
        return _SPARK[0] * len(tail)
    return "".join(
        _SPARK[min(int(v / peak * (len(_SPARK) - 1) + 0.5), len(_SPARK) - 1)]
        for v in tail
    )


class DaemonSource:
    """Polls a serve daemon's windowed telemetry endpoints."""

    def __init__(self, url: str, timeout: float = 2.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    def frame(self) -> str:
        history = fetch_json(f"{self.url}/metrics/history", self.timeout)
        health = fetch_json(f"{self.url}/healthz", self.timeout)
        counters = history.get("counters", {})
        hists = history.get("histograms", {})
        gauges = history.get("gauges", {})

        def counter_total(name: str) -> float:
            return float(sum(counters.get(name, {}).get("values", [])))

        def window(name: str) -> dict:
            return hists.get(name, {}).get("window", {})

        qps = counters.get("serve.requests", {}).get("rate", 0.0)
        spark = sparkline(counters.get("serve.requests", {}).get("values", []))
        place = window("serve.place.seconds")
        admit = window("serve.admit.seconds")
        batch = window("serve.batch_size")
        statuses = sorted(
            name.rsplit(".", 1)[1]
            for name in counters
            if name.startswith("serve.http.")
        )
        status_line = (
            "  ".join(
                f"{s}:{counter_total(f'serve.http.{s}'):.0f}" for s in statuses
            )
            or "(no requests yet)"
        )
        rejected = counter_total("serve.rejected_503")
        lines = [
            f"repro-mc top — {self.url}  "
            f"(up {history.get('uptime_seconds', 0.0):.0f}s, "
            f"seq {health.get('seq', '?')})",
            "",
            f"  qps (10s)       {qps:8.1f}   {spark}",
            f"  http            {status_line}",
            f"  place p50/p95   {_fmt_seconds(place.get('p50')):>8} / "
            f"{_fmt_seconds(place.get('p95'))}   "
            f"({place.get('count', 0)} in window)",
            f"  admit p50/p95   {_fmt_seconds(admit.get('p50')):>8} / "
            f"{_fmt_seconds(admit.get('p95'))}   "
            f"({admit.get('count', 0)} in window)",
            f"  batch size p50  {batch.get('p50') or 0:8.1f}   "
            f"(max {batch.get('max') or 0:.0f})",
            f"  rejected 503    {rejected:8.0f}",
            f"  queue depth     {gauges.get('serve.queue_depth', 0.0):8.0f}   "
            f"tasks {gauges.get('serve.tasks', 0.0):.0f}   "
            f"Λ {gauges.get('serve.lambda', 0.0):.3f}",
            f"  headroom α      {gauges.get('serve.headroom', 0.0):8.2f}   "
            f"(max admissible demand scale)",
        ]
        return "\n".join(lines)


class SweepSource:
    """Tails a sweep's ``events.jsonl``, folding engine progress events.

    Reads are incremental: each :meth:`frame` consumes only the lines
    appended since the last one, so watching an hour-scale sweep costs
    O(new events) per refresh, not O(file).
    """

    def __init__(self, path: str | Path):
        path = Path(path)
        if path.is_dir():
            path = path / "events.jsonl"
        if not path.exists():
            raise ReproError(f"no events file at {path}")
        self.path = path
        self._offset = 0
        # Folded progress state.
        self.run_id = ""
        self.figure = ""
        self.points_total: int | None = None
        self.points_planned = 0
        self.shards_planned = 0
        self.shards_done = 0
        self.cache_hits = 0
        self.jobs = 1
        self.compute_seconds = 0.0
        self.computed = 0
        self.first_ts: float | None = None
        self.last_ts: float | None = None

    def _ingest(self) -> None:
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                fh.seek(self._offset)
                for line in fh:
                    if not line.endswith("\n"):
                        break  # half-written tail; re-read next refresh
                    self._offset += len(line.encode("utf-8"))
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(event, dict):
                        self._fold(event)
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(f"cannot read events file {self.path}: {exc}") from exc

    def _fold(self, event: dict) -> None:
        name = event.get("event", "")
        numeric = _NUMERIC_FIELDS.get(name, ()) if isinstance(name, str) else ()
        if not all(_finite(event[key]) for key in ("ts", *numeric) if key in event):
            return  # skipped, like a malformed line
        if "ts" in event:
            if self.first_ts is None:
                self.first_ts = float(event["ts"])
            self.last_ts = float(event["ts"])
        self.run_id = event.get("run_id", self.run_id)
        if name == "engine.run_plan":
            self.figure = event.get("figure", self.figure)
            self.points_total = event.get("points", self.points_total)
        elif name == "engine.point_plan":
            self.points_planned += 1
            self.shards_planned += int(event.get("shards", 0))
            self.jobs = int(event.get("jobs", self.jobs)) or 1
        elif name == "engine.shard":
            self.shards_done += 1
            if event.get("cached"):
                self.cache_hits += 1
            else:
                self.computed += 1
                self.compute_seconds += float(event.get("seconds", 0.0))
        elif name == "cli.figure_start" and not self.figure:
            self.figure = event.get("figure", "")

    def _eta(self) -> float | None:
        """Remaining shards over the observed completion rate."""
        remaining = self.shards_planned - self.shards_done
        # Scale the plan up for points the engine has not opened yet.
        if self.points_total and 0 < self.points_planned < self.points_total:
            per_point = self.shards_planned / self.points_planned
            remaining += int(per_point * (self.points_total - self.points_planned))
        if remaining <= 0:
            return 0.0
        if (
            self.shards_done == 0
            or self.first_ts is None
            or self.last_ts is None
            or self.last_ts <= self.first_ts
        ):
            return None
        rate = self.shards_done / (self.last_ts - self.first_ts)
        return remaining / rate if rate > 0 else None

    def frame(self) -> str:
        self._ingest()
        label = self.figure or self.path.name
        hit_rate = self.cache_hits / self.shards_done if self.shards_done else 0.0
        mean_shard = (
            self.compute_seconds / self.computed if self.computed else None
        )
        elapsed = (
            (self.last_ts - self.first_ts)
            if self.first_ts is not None and self.last_ts is not None
            else 0.0
        )
        throughput = self.shards_done / elapsed if elapsed > 0 else 0.0
        points = (
            f"{self.points_planned}/{self.points_total}"
            if self.points_total
            else f"{self.points_planned}"
        )
        lines = [
            f"repro-mc top — sweep {label}  (run {self.run_id or '?'})",
            "",
            f"  points          {points}",
            f"  shards          {self.shards_done}/{self.shards_planned} done   "
            f"cache hit rate {hit_rate:.0%}",
            f"  shard mean      {_fmt_seconds(mean_shard):>8}   "
            f"throughput {throughput:.2f} shards/s   jobs {self.jobs}",
            f"  elapsed         {_fmt_eta(elapsed):>8}   ETA {_fmt_eta(self._eta())}",
        ]
        return "\n".join(lines)


def make_source(target: str):
    """URL → :class:`DaemonSource`; path → :class:`SweepSource`."""
    if target.startswith(("http://", "https://")):
        return DaemonSource(target)
    return SweepSource(target)


def run_top(
    target: str,
    *,
    interval: float = 2.0,
    once: bool = False,
    stream=None,
    max_frames: int | None = None,
) -> int:
    """The ``repro-mc top`` loop; returns a process exit code.

    ``once`` renders a single frame with no terminal control codes and
    exits — the form scripts and CI use.  The interactive loop repaints
    every ``interval`` seconds until interrupted (Ctrl-C exits 0).
    ``max_frames`` bounds the loop for tests.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    source = make_source(target)
    frames = 0
    while True:
        frame = source.frame()
        if once:
            stream.write(frame + "\n")
        else:
            stream.write("\x1b[2J\x1b[H" + frame + "\n")
        stream.flush()
        frames += 1
        if once or (max_frames is not None and frames >= max_frames):
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
