"""Live telemetry: windowed time-series, Prometheus exposition, SLO rules.

The :mod:`repro.obs` registry answers "what happened over the whole
run"; this module answers "what is happening *right now*".  Three
pieces, all dependency-free and event-loop-friendly (every operation is
a handful of list/dict touches, never I/O):

* :class:`LiveMetrics` — a ring buffer of fixed-width time buckets per
  metric.  Counters give rates-over-window (``qps over the last 10 s``);
  value streams land in per-bucket :class:`~repro.obs.metrics.Histogram`
  objects whose fixed log-spaced edges make cross-bucket merges *exact*,
  so ``p95 over the last minute`` is computed by merging 60 bucket
  histograms, not by re-sampling.  Gauges are read-at-scrape callables
  (queue depth, warm-state seq, per-core utilization).
* :func:`render_prometheus` — text exposition (version 0.0.4) of a
  :class:`~repro.obs.metrics.MetricsRegistry` plus gauges, for
  ``GET /metrics?format=prometheus``.  Scheme-tagged metric names
  (``serve.admit.requests[ca-tpa]``) become labelled families
  (``serve_admit_requests_total{scheme="ca-tpa"}``).
* :class:`SloRule` / :class:`SloMonitor` — threshold rules over windows
  (``p95(serve.place.seconds) < 5ms``, ``rate(serve.rejected_503) == 0``)
  evaluated against a live window; the monitor tracks ok→alert
  transitions so the daemon can emit one ``slo.alert`` event per
  violation edge instead of one per tick.

Nothing here touches the probe hot path: live windows are fed only by
the serve layer and read by the ``/metrics``-family endpoints and
``repro-mc top``.  A window write also records into the active
``OBS.registry`` when instrumentation is on, so one call feeds both the
window and the run's lifetime metrics.
"""

from __future__ import annotations

import math
import operator
import re
import time
from dataclasses import dataclass

from repro.obs.metrics import HIST_EDGES, Histogram, MetricsRegistry
from repro.obs.runtime import OBS
from repro.types import ReproError

__all__ = [
    "LiveMetrics",
    "SloMonitor",
    "SloResult",
    "SloRule",
    "parse_slo",
    "render_prometheus",
]

#: Default live-window geometry: 120 one-second buckets = two minutes
#: of history at one-second resolution.
DEFAULT_BUCKET_SECONDS = 1.0
DEFAULT_BUCKETS = 120


class _Ring:
    """Fixed-size ring of time buckets, keyed by absolute bucket index.

    ``slot(now)`` returns the bucket for the current time, zeroing any
    buckets skipped since the last touch — so an idle metric costs
    nothing until it is next written or read.
    """

    __slots__ = ("width", "slots", "last", "_zero")

    def __init__(self, width: float, size: int, zero):
        self.width = width
        self.slots = [zero() for _ in range(size)]
        self.last: int | None = None  #: absolute index of the newest bucket
        self._zero = zero

    def advance(self, now: float) -> int:
        """Roll the ring forward to ``now``; returns the current slot index."""
        bucket = int(now // self.width)
        if self.last is None:
            self.last = bucket
        elif bucket > self.last:
            size = len(self.slots)
            for stale in range(self.last + 1, min(bucket, self.last + size) + 1):
                self.slots[stale % size] = self._zero()
            self.last = bucket
        return self.last % len(self.slots)

    def recent(self, now: float, buckets: int) -> list:
        """The last ``buckets`` slots, oldest first, current (partial) last."""
        self.advance(now)
        size = len(self.slots)
        buckets = max(1, min(buckets, size))
        out = []
        for b in range(self.last - buckets + 1, self.last + 1):
            # Buckets before the ring ever started are empty by definition.
            out.append(self.slots[b % size] if b >= 0 else self._zero())
        return out


class LiveMetrics:
    """Windowed counters, histograms, and read-at-scrape gauges.

    ``clock`` defaults to :func:`time.monotonic`; tests inject a fake
    clock to step the window deterministically.  All window queries
    (``rate``/``total``/``window_histogram``) cover the most recent
    ``ceil(seconds / bucket_seconds)`` buckets *including* the current
    partial one, so a burst shows up immediately; ``seconds=None``
    means the whole retained window.
    """

    def __init__(
        self,
        *,
        bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
        buckets: int = DEFAULT_BUCKETS,
        clock=time.monotonic,
    ):
        if bucket_seconds <= 0:
            raise ReproError(f"bucket_seconds must be > 0, got {bucket_seconds}")
        if buckets < 2:
            raise ReproError(f"buckets must be >= 2, got {buckets}")
        self.bucket_seconds = float(bucket_seconds)
        self.buckets = int(buckets)
        self.clock = clock
        self.started = clock()
        self._counters: dict[str, _Ring] = {}
        self._histograms: dict[str, _Ring] = {}
        self._gauges: dict[str, object] = {}

    # -- writes --------------------------------------------------------
    # Each also records into the active registry when instrumentation is
    # on, looked up per call: ``instrument()`` swaps ``OBS.registry``.

    def inc(self, name: str, n: float = 1) -> None:
        ring = self._counters.get(name)
        if ring is None:
            ring = self._counters[name] = _Ring(
                self.bucket_seconds, self.buckets, float
            )
        slot = ring.advance(self.clock())
        ring.slots[slot] += n
        if OBS.enabled:
            OBS.registry.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        ring = self._histograms.get(name)
        if ring is None:
            ring = self._histograms[name] = _Ring(
                self.bucket_seconds, self.buckets, Histogram
            )
        slot = ring.advance(self.clock())
        ring.slots[slot].observe(value)
        if OBS.enabled:
            OBS.registry.histogram(name).observe(value)

    def gauge(self, name: str, source) -> None:
        """Register a gauge: a callable read at scrape time, or a value."""
        self._gauges[name] = source

    # -- reads ---------------------------------------------------------

    def _span(self, seconds: float | None) -> int:
        if seconds is None:
            return self.buckets
        return max(1, math.ceil(float(seconds) / self.bucket_seconds))

    def total(self, name: str, seconds: float | None = None) -> float:
        """Sum of a counter over the window (0.0 for unknown names)."""
        ring = self._counters.get(name)
        if ring is None:
            return 0.0
        return sum(ring.recent(self.clock(), self._span(seconds)))

    def rate(self, name: str, seconds: float | None = None) -> float:
        """Per-second rate of a counter over the window.

        The divisor is the covered span, clamped to the time the window
        has actually existed — a daemon 3 s old reports a burst as
        ``count/3``, not ``count/120``.
        """
        span_buckets = self._span(seconds)
        covered = span_buckets * self.bucket_seconds
        alive = max(self.clock() - self.started, self.bucket_seconds)
        return self.total(name, seconds) / max(min(covered, alive), 1e-9)

    def window_histogram(self, name: str, seconds: float | None = None) -> Histogram:
        """Exact merge of a value stream's bucket histograms over the window."""
        merged = Histogram(name)
        ring = self._histograms.get(name)
        if ring is not None:
            for hist in ring.recent(self.clock(), self._span(seconds)):
                merged.merge(hist)
        return merged

    def gauges(self) -> dict[str, float]:
        """Resolve every registered gauge to its current value."""
        out = {}
        for name, source in self._gauges.items():
            value = source() if callable(source) else source
            out[name] = float(value)
        return out

    def history(self) -> dict:
        """The ``GET /metrics/history`` body: every series, oldest first.

        Counter series are per-bucket sums; histogram series carry
        per-bucket ``count``/``p50``/``p95`` plus the exact merged
        digest of the whole window (``window``).  ``wall`` stamps the
        newest bucket's scrape time so consumers can place the series
        on a wall clock.
        """
        now = self.clock()
        counters = {}
        for name, ring in self._counters.items():
            counters[name] = {
                "values": list(ring.recent(now, self.buckets)),
                "rate": self.rate(name, 10.0),
            }
        histograms = {}
        for name, ring in self._histograms.items():
            slots = ring.recent(now, self.buckets)
            histograms[name] = {
                "count": [h.count for h in slots],
                "p50": [h.percentile(50.0) if h.count else None for h in slots],
                "p95": [h.percentile(95.0) if h.count else None for h in slots],
                "window": self.window_histogram(name).as_dict(),
            }
        return {
            "version": 1,
            "bucket_seconds": self.bucket_seconds,
            "buckets": self.buckets,
            "window_seconds": self.buckets * self.bucket_seconds,
            "wall": time.time(),
            "uptime_seconds": now - self.started,
            "counters": counters,
            "histograms": histograms,
            "gauges": self.gauges(),
        }

    # -- SLO view protocol --------------------------------------------

    def slo_value(self, fn: str, metric: str) -> float:
        """Answer one SLO term over the live window (see :func:`parse_slo`)."""
        if fn == "rate":
            return self.rate(metric)
        if fn == "count":
            return self.total(metric)
        if fn == "value":
            gauges = self.gauges()
            return gauges.get(metric, float("nan"))
        return self.window_histogram(metric).percentile(float(fn[1:]))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_LABELLED = re.compile(r"^(?P<base>.*?)\[(?P<label>[^\]]+)\]$")
_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    mangled = _INVALID.sub("_", name)
    if not mangled or mangled[0].isdigit():
        mangled = f"_{mangled}"
    return mangled


def _split_name(name: str) -> tuple[str, str]:
    """``serve.admit.requests[ca-tpa]`` -> (mangled base, label pairs).

    Bracketed suffixes become labels: ``[key=value]`` keeps the key,
    a bare ``[value]`` is the scheme-tag convention used by the
    probe/partitioner counters.
    """
    match = _LABELLED.match(name)
    if not match:
        return _prom_name(name), ""
    base = _prom_name(match.group("base"))
    label = match.group("label")
    key, _, value = label.partition("=")
    if not value:
        key, value = "scheme", label
    value = value.replace("\\", "\\\\").replace('"', '\\"')
    return base, f'{_prom_name(key)}="{value}"'


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".10g")


def render_prometheus(
    registry: MetricsRegistry | None,
    *,
    gauges: dict[str, float] | None = None,
) -> str:
    """Prometheus text exposition (0.0.4) of a registry + gauge readings.

    Counters become ``<name>_total`` counter families, histograms become
    native ``histogram`` families with the full fixed ``le`` ladder
    (cross-scrape merges by any consumer stay exact), and gauge readings
    become ``gauge`` families.  Output groups samples by family and is
    sorted, so diffs are stable.
    """
    families: dict[tuple[str, str], list[str]] = {}

    def sample(base: str, kind: str, suffix: str, labels: str, value: float):
        family = families.setdefault((base, kind), [])
        label_part = f"{{{labels}}}" if labels else ""
        family.append(f"{base}{suffix}{label_part} {_fmt(value)}")

    registry = registry if registry is not None else MetricsRegistry()
    for name in sorted(registry.counters):
        base, labels = _split_name(name)
        sample(f"{base}_total", "counter", "", labels, registry.counters[name].value)
    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        base, labels = _split_name(name)
        cumulative = 0
        for edge, n in zip(HIST_EDGES, hist.counts):
            cumulative += n
            joined = f'le="{_fmt(edge)}"'
            if labels:
                joined = f"{labels},{joined}"
            sample(base, "histogram", "_bucket", joined, cumulative)
        joined = 'le="+Inf"'
        if labels:
            joined = f"{labels},{joined}"
        sample(base, "histogram", "_bucket", joined, hist.count)
        sample(base, "histogram", "_sum", labels, hist.total)
        sample(base, "histogram", "_count", labels, hist.count)
    for name in sorted(gauges or {}):
        base, labels = _split_name(name)
        sample(base, "gauge", "", labels, (gauges or {})[name])

    lines: list[str] = []
    for (base, kind) in sorted(families):
        lines.append(f"# TYPE {base} {kind}")
        # Samples keep insertion order: histogram buckets must stay in
        # increasing ``le`` order (name-sorted iteration above already
        # makes the overall output deterministic).
        lines.extend(families[(base, kind)])
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# SLO rules
# ----------------------------------------------------------------------

_SLO_RE = re.compile(
    r"^\s*(?P<fn>p50|p90|p95|p99|rate|count|value)\s*"
    r"\(\s*(?P<metric>[^\s()]+)\s*\)\s*"
    r"(?P<op><=|>=|==|!=|<|>)\s*"
    r"(?P<threshold>[-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*(?P<unit>us|ms|s)?\s*$"
)

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_UNITS = {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6}


@dataclass(frozen=True)
class SloRule:
    """One threshold rule: ``fn(metric) op threshold``.

    ``fn`` is one of ``p50/p90/p95/p99`` (percentile of a histogram
    stream, seconds), ``rate`` (counter per-second over the window),
    ``count`` (counter total over the window), or ``value`` (gauge).
    Thresholds accept ``us``/``ms``/``s`` suffixes, normalized to
    seconds.
    """

    text: str
    fn: str
    metric: str
    op: str
    threshold: float

    def describe(self) -> str:
        return f"{self.fn}({self.metric}) {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class SloResult:
    """One evaluation: the measured value and whether the rule held."""

    rule: SloRule
    value: float
    ok: bool


def parse_slo(text: str) -> SloRule:
    """Parse ``"p95(serve.place.seconds) < 5ms"`` into an :class:`SloRule`."""
    match = _SLO_RE.match(text)
    if match is None:
        raise ReproError(
            f"bad SLO rule {text!r}; expected e.g. "
            "'p95(serve.place.seconds) < 5ms' or 'rate(serve.rejected_503) == 0'"
        )
    threshold = float(match.group("threshold")) * _UNITS[match.group("unit")]
    return SloRule(
        text=text.strip(),
        fn=match.group("fn"),
        metric=match.group("metric"),
        op=match.group("op"),
        threshold=threshold,
    )


def evaluate_slo(rule: SloRule, view) -> SloResult:
    """Evaluate one rule against any view with ``slo_value(fn, metric)``.

    A NaN measurement (unknown metric, empty window) fails every
    comparison — an SLO over a metric that never reported is treated as
    violated, not vacuously met.
    """
    value = float(view.slo_value(rule.fn, rule.metric))
    ok = value == value and bool(_OPS[rule.op](value, rule.threshold))
    return SloResult(rule=rule, value=value, ok=ok)


class SloMonitor:
    """Edge-triggered SLO evaluation for the daemon's periodic check.

    :meth:`check` returns ``(results, newly_failing, newly_ok)`` so the
    caller can emit one alert per ok→fail transition (and one recovery
    per fail→ok) instead of re-alerting every tick.  :attr:`failing`
    holds the rules currently in violation.
    """

    def __init__(self, rules: list[SloRule] | tuple[SloRule, ...]):
        self.rules = tuple(rules)
        self.failing: set[str] = set()
        self.alerts = 0

    def check(
        self, view
    ) -> tuple[list[SloResult], list[SloResult], list[SloResult]]:
        results = [evaluate_slo(rule, view) for rule in self.rules]
        newly_failing = []
        newly_ok = []
        for result in results:
            key = result.rule.text
            if not result.ok and key not in self.failing:
                self.failing.add(key)
                self.alerts += 1
                newly_failing.append(result)
            elif result.ok and key in self.failing:
                self.failing.discard(key)
                newly_ok.append(result)
        return results, newly_failing, newly_ok
