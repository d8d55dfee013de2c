"""Process-local metric primitives: counters and exact-merge histograms.

Everything here is deliberately boring: plain Python objects with
``__slots__``, no locks (the library is single-threaded per process;
cross-process aggregation goes through :meth:`MetricsRegistry.dump` /
:meth:`MetricsRegistry.merge`), and no I/O.  The cost model is the whole
point — when instrumentation is disabled no object in this module is
even touched (call sites guard on :data:`repro.obs.OBS` ``.enabled``),
and when it is enabled a counter increment is one attribute add.

:class:`Histogram` is the one distribution primitive: every value stream
— span timings, batch sizes, observed utilizations — lands in bucket
counts over globally fixed edges, so any grouping of the same
observations merges to identical counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = ["Counter", "Histogram", "MetricsRegistry", "HIST_EDGES"]

#: Log-spaced bucket-edge schema of every :class:`Histogram`:
#: ``10**(k / PER_DECADE)`` for ``k`` in ``[MIN_EXP*PER_DECADE,
#: MAX_EXP*PER_DECADE]``.  Edges are *fixed and global*, which is the
#: whole design: two histograms — from different processes, different
#: runs, or different time-window buckets — merge by element-wise
#: integer addition of their bucket counts, exactly and associatively.
_HIST_MIN_EXP = -7  #: 100 ns resolution floor (seconds-denominated)
_HIST_MAX_EXP = 3  #: 1000 s ceiling before the overflow bucket
_HIST_PER_DECADE = 4  #: ~1.78x bucket width (10**0.25)

HIST_EDGES: tuple[float, ...] = tuple(
    10.0 ** (k / _HIST_PER_DECADE)
    for k in range(_HIST_MIN_EXP * _HIST_PER_DECADE, _HIST_MAX_EXP * _HIST_PER_DECADE + 1)
)

#: Schema tag stored with every transferable histogram state; merging
#: states with a different tag raises instead of silently mixing edges.
HIST_SCHEMA = f"log10[{_HIST_MIN_EXP}:{_HIST_MAX_EXP}:{_HIST_PER_DECADE}]"


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Value-stream histogram over the fixed log-spaced :data:`HIST_EDGES`.

    Bucket counts over globally fixed edges: percentiles are quantized
    to bucket resolution (~1.78x), but **merges are exact and
    associative** — any grouping of the same observations into
    processes, shards, or time windows produces identical bucket counts
    (pinned by a hypothesis property in the engine test suite).  Memory
    is one fixed-length count list, however long the stream.

    ``counts[i]`` tallies observations ``v`` with
    ``HIST_EDGES[i-1] < v <= HIST_EDGES[i]``; ``counts[0]`` is the
    underflow bucket (``v <= HIST_EDGES[0]``, including zeros and
    negatives) and ``counts[-1]`` the overflow bucket
    (``v > HIST_EDGES[-1]``).  ``count``/``min``/``max`` are exact and
    merge exactly; ``total`` is an exact per-process sum whose merge is
    float addition (associative only to rounding), so it is excluded
    from :meth:`digest`.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        self.counts = [0] * (len(HIST_EDGES) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(HIST_EDGES, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """``q``-th percentile (``0 <= q <= 100``); ``nan`` if empty.

        Reported as the upper edge of the bucket holding the
        nearest-rank observation, clamped to the exact observed
        ``[min, max]`` — deterministic and identical however the
        underlying observations were merged.
        """
        if not self.count:
            return float("nan")
        rank = max(1, -(-self.count * min(max(q, 0.0), 100.0) // 100))
        running = 0
        for i, n in enumerate(self.counts):
            running += n
            if running >= rank:
                if i >= len(HIST_EDGES):  # overflow bucket: no upper edge
                    return self.max
                return min(max(HIST_EDGES[i], self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict:
        """Reporting form: count/total/min/max/p50/p90/p95/p99/overflow.

        ``overflow`` is the count of observations past the last bucket
        edge — manifest rendering surfaces it so a saturated histogram
        is visible at a glance.
        """
        if self.count == 0:
            return {
                "count": 0,
                "total": 0.0,
                "min": None,
                "max": None,
                "p50": None,
                "p90": None,
                "p95": None,
                "p99": None,
                "overflow": 0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "overflow": int(self.counts[-1]),
        }

    def digest(self) -> dict:
        """The exactly-merge-invariant identity of this histogram.

        Contains only fields whose merge is exact integer/min/max
        arithmetic — ``jobs=1`` and ``jobs=N`` runs over the same
        observations produce equal digests.  ``total`` (float addition)
        is deliberately excluded.
        """
        return {
            "schema": HIST_SCHEMA,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "counts": {i: n for i, n in enumerate(self.counts) if n},
        }

    def state(self) -> dict:
        """Full transferable state (sparse counts; cross-process merging)."""
        return {
            "schema": HIST_SCHEMA,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "counts": {str(i): n for i, n in enumerate(self.counts) if n},
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` in (exact bucket adds)."""
        schema = state.get("schema")
        if schema != HIST_SCHEMA:
            raise ValueError(
                f"histogram schema mismatch: {schema!r} != {HIST_SCHEMA!r}"
            )
        if not state["count"]:
            return
        self.count += int(state["count"])
        self.total += float(state["total"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        for index, n in state["counts"].items():
            self.counts[int(index)] += int(n)

    def merge(self, other: "Histogram") -> None:
        """Fold another in-process :class:`Histogram` in (exact)."""
        if other.count:
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            for i, n in enumerate(other.counts):
                if n:
                    self.counts[i] += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name} n={self.count}>"


@dataclass
class MetricsRegistry:
    """A named bag of counters and histograms.

    ``counter(name)`` / ``histogram(name)`` create on first use, so call
    sites never need registration boilerplate.  :meth:`snapshot` is the
    human/JSON reporting form; :meth:`dump` + :meth:`merge` is the exact
    transfer form the engine uses to pull worker-process metrics back
    into the parent registry.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def snapshot(self) -> dict:
        """Reporting form: ``{"counters", "histograms"}``.

        Counters map to ints, histograms to their
        ``count/total/min/max/p50/p90/p95/p99/overflow`` digests; keys are
        sorted so the output is stable for diffing and tests.
        """
        return {
            "counters": {
                name: self.counters[name].value for name in sorted(self.counters)
            },
            "histograms": {
                name: self.histograms[name].as_dict()
                for name in sorted(self.histograms)
            },
        }

    def dump(self) -> dict:
        """Transfer form: exact counter values + histogram states."""
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "histograms": {
                name: h.state() for name, h in self.histograms.items()
            },
        }

    def merge(self, dump: dict) -> None:
        """Fold a :meth:`dump` (e.g. from a worker process) into this registry.

        Counters and histograms are *independent namespaces*: a name that
        arrives as a counter in one dump and as a histogram in another
        coexists as both (``snapshot()["counters"][name]`` and
        ``snapshot()["histograms"][name]``) — merging never converts one
        kind into the other and never raises on a kind collision.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, state in dump.get("histograms", {}).items():
            self.histogram(name).merge_state(state)

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()
