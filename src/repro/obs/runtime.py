"""The process-local instrumentation switchboard.

One module-level singleton, :data:`OBS`, holds the whole state: an
``enabled`` flag, the active :class:`~repro.obs.metrics.MetricsRegistry`,
an optional structured event sink, the current run id, the current
scheme tag, and the span machinery (open-span stack + completed span
records).  The contract with instrumented call sites is:

* **Disabled (default)** — call sites guard every metric touch with
  ``if OBS.enabled:``, so the entire cost of the layer is one attribute
  load and a branch (the probe-overhead benchmark pins this at < 2 % of
  the Theorem-1 probe hot path).  :func:`span` costs two branch checks
  and does **zero** span bookkeeping when disabled.
* **Enabled** — counters/histograms accumulate into ``OBS.registry``,
  :func:`emit` appends structured events to the sink (if any), and every
  :func:`span` block becomes a node of a hierarchical trace: it gets a
  process-unique ``span_id``, the ``span_id`` of the innermost enclosing
  span as ``parent_id``, and its completed record is buffered on
  ``OBS.spans`` for later analysis/export (:mod:`repro.obs.trace`).

:func:`instrument` is the front door: a context manager that enables
instrumentation with a fresh registry (and optional JSONL sink), and
restores the previous state on exit — safe to nest, safe under
exceptions.  :func:`collect` is the worker-process variant the engine
uses to gather counters *and spans* on the far side of a
``ProcessPoolExecutor`` and ship them back; the parent re-roots the
worker's span records under its own shard span with
:func:`adopt_spans`, so one sweep yields one coherent trace tree.

Instrumentation never influences results: it adds no RNG draws and no
floating-point work on any value that reaches an artifact, so runs with
and without it are bit-identical (pinned by the engine test suite).
"""

from __future__ import annotations

import secrets
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.events import EventSink, JsonlSink, make_event
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "OBS",
    "MAX_SPAN_RECORDS",
    "SPAN_RESERVED_KEYS",
    "new_run_id",
    "enable",
    "disable",
    "counter",
    "histogram",
    "emit",
    "span",
    "record_span",
    "add_span_time",
    "current_span_id",
    "drain_spans",
    "adopt_spans",
    "scheme_tag",
    "instrument",
    "collect",
]

#: Completed span records buffered per process before new ones are
#: dropped (and counted in ``trace.spans_dropped``).  A record is a
#: small dict, so the cap bounds trace memory at a few tens of MB even
#: for pathological span rates.
MAX_SPAN_RECORDS = 200_000

#: Span-record keys owned by the runtime; user fields passed to
#: :func:`span` / :func:`record_span` never overwrite them.
SPAN_RESERVED_KEYS = frozenset(
    {"span_id", "parent_id", "name", "start", "seconds", "error", "scheme", "calls"}
)


class _SpanFrame:
    """One open span on the per-process span stack."""

    __slots__ = ("span_id", "parent_id", "name", "start", "perf_start", "buckets")

    def __init__(self, span_id: int, parent_id: int | None, name: str):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = time.time()
        self.perf_start = time.perf_counter()
        #: synthetic child-time buckets: name -> [seconds, calls]
        self.buckets: dict[str, list] = {}


#: The active partitioning-scheme tag ("" = none).  A
#: :class:`~contextvars.ContextVar` rather than a plain attribute of the
#: singleton: two threads (or asyncio tasks) running partitioning
#: attempts concurrently — e.g. the admission daemon's coordinator next
#: to an in-process sweep — must not stamp each other's counters and
#: span records with the wrong scheme.
_SCHEME: ContextVar[str] = ContextVar("repro_obs_scheme", default="")


class _ObsState:
    """Mutable singleton; read ``OBS.enabled`` on hot paths."""

    __slots__ = (
        "enabled",
        "registry",
        "sink",
        "run_id",
        "seq",
        "span_stack",
        "spans",
        "next_span_id",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.sink: EventSink | None = None
        self.run_id = ""
        self.seq = 0
        self.span_stack: list[_SpanFrame] = []
        self.spans: list[dict] = []  #: completed span records
        self.next_span_id = 1

    @property
    def scheme(self) -> str:
        """Current partitioning-scheme tag of *this* context ("" = none)."""
        return _SCHEME.get()

    @scheme.setter
    def scheme(self, value: str) -> None:
        _SCHEME.set(value)

    def _snapshot_state(self) -> tuple:
        return (
            self.enabled,
            self.registry,
            self.sink,
            self.run_id,
            self.scheme,
            self.seq,
            self.span_stack,
            self.spans,
            self.next_span_id,
        )

    def _restore_state(self, state: tuple) -> None:
        (
            self.enabled,
            self.registry,
            self.sink,
            self.run_id,
            self.scheme,
            self.seq,
            self.span_stack,
            self.spans,
            self.next_span_id,
        ) = state


OBS = _ObsState()


def new_run_id() -> str:
    """A short, unique, sortable-ish run identifier (``r-<hex>``)."""
    return f"r-{int(time.time()):x}{secrets.token_hex(4)}"


def enable(
    *,
    sink: EventSink | None = None,
    run_id: str | None = None,
    registry: MetricsRegistry | None = None,
) -> str:
    """Turn instrumentation on in this process; returns the run id.

    Prefer the :func:`instrument` context manager, which restores the
    previous state; ``enable``/``disable`` are the raw switches.
    """
    OBS.enabled = True
    OBS.registry = registry if registry is not None else MetricsRegistry()
    OBS.sink = sink
    OBS.run_id = run_id if run_id is not None else new_run_id()
    OBS.seq = 0
    OBS.span_stack = []
    OBS.spans = []
    OBS.next_span_id = 1
    return OBS.run_id


def disable() -> None:
    """Turn instrumentation off (the sink, if any, is left open)."""
    OBS.enabled = False
    OBS.sink = None
    OBS.run_id = ""
    OBS.scheme = ""
    OBS.span_stack = []
    OBS.spans = []


def counter(name: str) -> Counter:
    """The named counter of the active registry (created on first use)."""
    return OBS.registry.counter(name)


def histogram(name: str) -> Histogram:
    """The named histogram of the active registry (created on first use)."""
    return OBS.registry.histogram(name)


def emit(event: str, **payload) -> None:
    """Append one structured event to the sink (no-op when disabled/sinkless)."""
    if not OBS.enabled or OBS.sink is None:
        return
    OBS.seq += 1
    OBS.sink.emit(make_event(OBS.run_id, OBS.seq, event, payload))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _next_span_id() -> int:
    span_id = OBS.next_span_id
    OBS.next_span_id = span_id + 1
    return span_id


def current_span_id() -> int | None:
    """The ``span_id`` of the innermost open span (``None`` outside any)."""
    stack = OBS.span_stack
    return stack[-1].span_id if stack else None


def _store_record(record: dict) -> None:
    """Buffer one completed record (bounded) and mirror it to the sink."""
    if len(OBS.spans) >= MAX_SPAN_RECORDS:
        OBS.registry.counter("trace.spans_dropped").inc()
        return
    OBS.spans.append(record)
    if OBS.sink is not None:
        emit(f"span.{record['name']}", **record)


def _finish_record(
    span_id: int,
    parent_id: int | None,
    name: str,
    start: float,
    seconds: float,
    error: bool,
    fields: dict,
    calls: int | None = None,
) -> dict:
    """Build + buffer one span record; observes ``<name>.seconds``."""
    OBS.registry.histogram(f"{name}.seconds").observe(seconds)
    record: dict = {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "seconds": seconds,
        "error": error,
    }
    if OBS.scheme:
        record["scheme"] = OBS.scheme
    if calls is not None:
        record["calls"] = calls
    for key, value in fields.items():
        if key not in SPAN_RESERVED_KEYS:
            record[key] = value
    _store_record(record)
    return record


def _flush_buckets(frame: _SpanFrame) -> None:
    """Turn a closing frame's accumulated buckets into synthetic children.

    A bucket is an *aggregate* child span: ``calls`` probe invocations
    that each ran too briefly to justify a record of their own, rolled
    into one record whose ``seconds`` is their exact total.  Its
    ``start`` is inherited from the parent (exporters lay synthetic
    siblings out sequentially; see :mod:`repro.obs.trace`).
    """
    for bucket_name, (seconds, calls) in frame.buckets.items():
        _finish_record(
            _next_span_id(),
            frame.span_id,
            bucket_name,
            frame.start,
            seconds,
            False,
            {"synthetic": True},
            calls=calls,
        )


@contextmanager
def span(name: str, **fields) -> Iterator[None]:
    """Time a block: observes ``<name>.seconds`` and records a trace span.

    When instrumentation is disabled the block runs with no timing at
    all (two branch checks), so spans are safe on warm paths.  Enabled,
    the block becomes a node of the process's span tree: it is pushed on
    the span stack (so nested spans/probe buckets attach to it), and on
    exit a completed record — ``span_id``, ``parent_id``, ``name``,
    ``start`` (epoch seconds), ``seconds``, ``error``, the active
    ``scheme`` tag, and ``fields`` — is buffered on ``OBS.spans`` and
    emitted to the sink as a ``span.<name>`` event.

    If the block raises, the span is recorded with ``error=true`` and
    the exception propagates unchanged.
    """
    if not OBS.enabled:
        yield
        return
    frame = _SpanFrame(_next_span_id(), current_span_id(), name)
    OBS.span_stack.append(frame)
    error = False
    try:
        yield
    except BaseException:
        error = True
        raise
    finally:
        seconds = time.perf_counter() - frame.perf_start
        OBS.span_stack.pop()
        _finish_record(
            frame.span_id,
            frame.parent_id,
            name,
            frame.start,
            seconds,
            error,
            fields,
        )
        _flush_buckets(frame)


def record_span(
    name: str,
    *,
    start: float,
    seconds: float,
    parent_id: int | None = None,
    error: bool = False,
    calls: int | None = None,
    **fields,
) -> int | None:
    """Record an explicitly-timed span (no stack involvement).

    For intervals that cannot be a ``with`` block — e.g. the parent
    engine's per-shard submit→receive windows, which overlap each other
    while worker processes run concurrently, or partitioning attempts
    the lockstep driver interleaves.  ``parent_id`` defaults to the
    innermost open span; ``calls`` marks an aggregate record (see
    :func:`add_span_time`).  Returns the new ``span_id`` (``None`` when
    instrumentation is disabled) so callers can adopt child spans under
    it with :func:`adopt_spans`.
    """
    if not OBS.enabled:
        return None
    if parent_id is None:
        parent_id = current_span_id()
    span_id = _next_span_id()
    _finish_record(
        span_id, parent_id, name, start, seconds, error, fields, calls=calls
    )
    return span_id


def add_span_time(name: str, seconds: float, calls: int = 1) -> None:
    """Attribute ``seconds`` to an aggregate child of the innermost span.

    The probe layer calls this once per probe (only when enabled):
    individual probes are far too frequent to record as spans, but their
    exact total per enclosing span — "this ``partition.attempt`` spent
    0.8 of its 1.1 seconds in 214 Theorem-1 probes" — is what the
    critical path needs.  No-op outside any open span.
    """
    stack = OBS.span_stack
    if not stack:
        return
    buckets = stack[-1].buckets
    bucket = buckets.get(name)
    if bucket is None:
        buckets[name] = [seconds, calls]
    else:
        bucket[0] += seconds
        bucket[1] += calls


def drain_spans() -> list[dict]:
    """Return (and clear) the buffered completed-span records.

    The engine's worker entry point calls this inside :func:`collect`
    and ships the records back with the shard result.
    """
    records = OBS.spans
    OBS.spans = []
    return records


def adopt_spans(records: list[dict], parent_id: int | None) -> list[dict]:
    """Re-root another process's span records under ``parent_id``.

    Worker span ids live in the worker's own id namespace; adoption
    assigns each record a fresh local id, rewrites child→parent edges
    through the id map, attaches the worker's root spans (``parent_id``
    ``None``) to ``parent_id``, buffers the rewritten records, and
    mirrors them to the sink — so the parent's ``events.jsonl`` carries
    the complete cross-process tree.  Returns the rewritten records.
    """
    if not OBS.enabled or not records:
        return []
    id_map = {record["span_id"]: _next_span_id() for record in records}
    adopted = []
    for record in records:
        rewritten = dict(record)
        rewritten["span_id"] = id_map[record["span_id"]]
        old_parent = record.get("parent_id")
        rewritten["parent_id"] = id_map.get(old_parent, parent_id)
        _store_record(rewritten)
        adopted.append(rewritten)
    return adopted


@contextmanager
def scheme_tag(name: str) -> Iterator[None]:
    """Tag metrics recorded inside the block with a scheme name.

    Used by :meth:`repro.partition.base.Partitioner.partition` so the
    probe/Theorem-1 counters recorded deep in the analysis layer can be
    attributed per scheme (``theorem1.cond_pass.k2[ca-tpa]``).  Span
    records closed inside the block carry the tag as their ``scheme``
    field, which the trace analysis uses for per-scheme attribution.

    The tag lives on a :class:`~contextvars.ContextVar`, so concurrent
    threads/async tasks each see only their own scheme.
    """
    token = _SCHEME.set(name)
    try:
        yield
    finally:
        _SCHEME.reset(token)


@contextmanager
def instrument(
    *,
    log_path=None,
    sink: EventSink | None = None,
    run_id: str | None = None,
) -> Iterator[_ObsState]:
    """Enable instrumentation for a block; restore prior state on exit.

    ``log_path`` opens a :class:`~repro.obs.events.JsonlSink` (closed on
    exit); alternatively pass an existing ``sink`` (left open — the
    caller owns it).  Yields :data:`OBS` so callers can read
    ``OBS.registry`` / ``OBS.run_id`` / ``OBS.spans``.
    """
    saved = OBS._snapshot_state()
    owned_sink = JsonlSink(log_path) if log_path is not None else None
    try:
        enable(sink=owned_sink if owned_sink is not None else sink, run_id=run_id)
        yield OBS
    finally:
        OBS._restore_state(saved)
        if owned_sink is not None:
            owned_sink.close()


@contextmanager
def collect() -> Iterator[MetricsRegistry]:
    """Worker-side collection: a fresh registry, no sink, prior state restored.

    The engine wraps each worker-process shard in this and returns
    ``registry.dump()`` plus :func:`drain_spans` with the shard result;
    the parent merges the dump into its own registry and re-roots the
    spans with :func:`adopt_spans`, so per-scheme probe counters *and*
    the span tree survive the process boundary.
    """
    saved = OBS._snapshot_state()
    try:
        enable(sink=None, run_id=saved[3] or new_run_id())
        yield OBS.registry
    finally:
        OBS._restore_state(saved)
