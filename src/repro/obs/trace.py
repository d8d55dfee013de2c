"""Hierarchical trace analysis and export over completed span records.

The runtime (:mod:`repro.obs.runtime`) gives every :func:`~repro.obs.span`
a ``span_id``/``parent_id`` pair and mirrors completed records into the
JSONL event stream as ``span.<name>`` events, with worker-process spans
re-rooted under the parent engine's shard spans.  This module is the
offline half: it rebuilds the span *tree* from an ``events.jsonl`` file
(or in-memory records), computes self-time vs total-time attribution and
the critical path, and exports two standard profile formats —
folded stacks (``flamegraph.pl`` / speedscope) and Chrome trace-event
JSON (``chrome://tracing`` / Perfetto).

Everything here is reconstructible from the events file alone: no live
process, registry, or store is needed, so a trace shipped from a CI
artifact analyses identically to a local one.

Vocabulary
----------
*total* time of a span is its own wall duration; *self* time is total
minus the sum of its children's totals, clamped at zero (children that
ran concurrently — parallel shards under one point — can legitimately
sum past their parent).  The *critical path* descends from the root
through the largest child at every level: the chain of spans that
bounded the run's wall clock.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.types import ReproError

__all__ = [
    "SpanNode",
    "TraceTree",
    "read_events",
    "resolve_events_path",
    "span_records",
    "build_tree",
    "load_tree",
    "critical_path",
    "aggregate_spans",
    "aggregate_schemes",
    "to_folded",
    "to_chrome",
    "format_report",
]

#: Event-name prefix that marks a span record in the event stream.
SPAN_EVENT_PREFIX = "span."

#: Record keys that are structure, not user payload.
_STRUCTURAL_KEYS = frozenset(
    {
        "span_id",
        "parent_id",
        "name",
        "start",
        "seconds",
        "error",
        "scheme",
        "calls",
        "synthetic",
        # event envelope (present when records come from an events file)
        "run_id",
        "seq",
        "ts",
        "event",
    }
)


@dataclass
class SpanNode:
    """One span of the reconstructed tree."""

    span_id: int
    name: str
    parent_id: int | None
    start: float
    seconds: float
    error: bool = False
    scheme: str = ""
    calls: int = 1
    synthetic: bool = False
    fields: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def child_seconds(self) -> float:
        return sum(child.seconds for child in self.children)

    @property
    def self_seconds(self) -> float:
        """Total minus children, clamped at zero (concurrent children)."""
        return max(0.0, self.seconds - self.child_seconds)

    @property
    def label(self) -> str:
        """Display name with the scheme tag: ``partition.attempt[ca-tpa]``."""
        return f"{self.name}[{self.scheme}]" if self.scheme else self.name

    def walk(self) -> Iterator["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class TraceTree:
    """A reconstructed span forest (one root per top-level span)."""

    roots: list[SpanNode]
    nodes: dict[int, SpanNode]
    #: Nodes whose ``parent_id`` named a span that never closed (or was
    #: dropped).  They are *also* kept in ``roots`` so no time vanishes,
    #: but a well-formed single-run trace has none.
    orphans: list[SpanNode]
    run_id: str = ""

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> SpanNode:
        """The largest root span (the run, in a well-formed trace)."""
        if not self.roots:
            raise ReproError("trace contains no span records")
        return max(self.roots, key=lambda node: node.seconds)

    def walk(self) -> Iterator[SpanNode]:
        for root in self.roots:
            yield from root.walk()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_events(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL events file (tolerating a torn final line).

    A crashed run may leave a truncated last line; it is skipped.  A
    malformed line anywhere else, or a line that is not a JSON object,
    is a corrupt file and raises :class:`ReproError`.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read events file {path}: {exc}") from exc
    events = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn tail of a crashed run
            raise ReproError(
                f"{path}:{lineno}: malformed event line ({exc})"
            ) from exc
        if not isinstance(event, dict):
            raise ReproError(f"{path}:{lineno}: event line is not a JSON object")
        events.append(event)
    return events


def resolve_events_path(target: str | os.PathLike) -> Path:
    """Accept an ``events.jsonl`` file or a run directory containing one."""
    path = Path(target)
    if path.is_dir():
        candidate = path / "events.jsonl"
        if candidate.is_file():
            return candidate
        matches = sorted(path.glob("*.jsonl"))
        if len(matches) == 1:
            return matches[0]
        detail = "no *.jsonl files" if not matches else f"{len(matches)} candidates"
        raise ReproError(
            f"{path} has no events.jsonl and {detail}; pass the file explicitly"
        )
    if not path.is_file():
        raise ReproError(f"no such events file or run directory: {path}")
    return path


def span_records(events: Iterable[dict]) -> list[dict]:
    """Extract the span records from an event stream.

    Records emitted by the runtime carry an explicit ``name`` field; the
    event name (``span.<name>``) is the fallback for hand-rolled lines.
    """
    records = []
    for event in events:
        event_name = event.get("event", "")
        if not event_name.startswith(SPAN_EVENT_PREFIX):
            continue
        if "span_id" not in event or "seconds" not in event:
            continue  # a pre-trace span event; nothing to attach
        record = dict(event)
        record.setdefault("name", event_name[len(SPAN_EVENT_PREFIX) :])
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Tree construction
# ----------------------------------------------------------------------
def build_tree(records: Iterable[dict]) -> TraceTree:
    """Reconstruct the span tree from completed-span records.

    Children are ordered by ``start`` under every parent.  A record
    whose ``parent_id`` resolves to no known span is an *orphan*: it is
    reported in :attr:`TraceTree.orphans` and kept as an extra root so
    its time still shows up in aggregates.
    """
    nodes: dict[int, SpanNode] = {}
    ordered: list[SpanNode] = []
    run_id = ""
    for record in records:
        node = SpanNode(
            span_id=int(record["span_id"]),
            name=str(record.get("name", "?")),
            parent_id=(
                None if record.get("parent_id") is None else int(record["parent_id"])
            ),
            start=float(record.get("start", 0.0)),
            seconds=float(record["seconds"]),
            error=bool(record.get("error", False)),
            scheme=str(record.get("scheme", "")),
            calls=int(record.get("calls", 1)),
            synthetic=bool(record.get("synthetic", False)),
            fields={
                k: v for k, v in record.items() if k not in _STRUCTURAL_KEYS
            },
        )
        if node.span_id in nodes:
            raise ReproError(f"duplicate span_id {node.span_id} in trace")
        nodes[node.span_id] = node
        ordered.append(node)
        run_id = run_id or str(record.get("run_id", ""))

    roots: list[SpanNode] = []
    orphans: list[SpanNode] = []
    for node in ordered:
        if node.parent_id is None:
            roots.append(node)
        else:
            parent = nodes.get(node.parent_id)
            if parent is None:
                orphans.append(node)
                roots.append(node)
            else:
                parent.children.append(node)
    for node in ordered:
        node.children.sort(key=lambda child: (child.start, child.span_id))
    roots.sort(key=lambda node: (node.start, node.span_id))
    return TraceTree(roots=roots, nodes=nodes, orphans=orphans, run_id=run_id)


def load_tree(target: str | os.PathLike) -> TraceTree:
    """events.jsonl (or run directory) → :class:`TraceTree`."""
    return build_tree(span_records(read_events(resolve_events_path(target))))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def critical_path(tree: TraceTree) -> list[SpanNode]:
    """Root→leaf chain through the largest child at every level.

    Starts at the largest root; in a coherent single-run trace that root
    spans the whole run, so the chain's head duration *is* the run's
    wall clock and every entry's percentage is "share of the run".
    """
    node = tree.root
    path = [node]
    while node.children:
        node = max(node.children, key=lambda child: (child.seconds, -child.span_id))
        path.append(node)
    return path


def aggregate_spans(tree: TraceTree) -> list[dict]:
    """Per-name totals: count, calls, total/self seconds, errors.

    Sorted by self-time, descending — the flat profile view.  ``calls``
    differs from ``count`` only for synthetic aggregate spans (one
    record standing for many probe invocations).
    """
    rows: dict[str, dict] = {}
    for node in tree.walk():
        row = rows.get(node.name)
        if row is None:
            row = rows[node.name] = {
                "name": node.name,
                "count": 0,
                "calls": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "errors": 0,
            }
        row["count"] += 1
        row["calls"] += node.calls
        row["total_seconds"] += node.seconds
        row["self_seconds"] += node.self_seconds
        row["errors"] += int(node.error)
    return sorted(
        rows.values(), key=lambda row: (-row["self_seconds"], row["name"])
    )


def aggregate_schemes(tree: TraceTree) -> list[dict]:
    """Per-(scheme, name) totals for scheme-tagged spans.

    The per-scheme cost attribution the paper's Section VI comparison
    needs: how much of the sweep each partitioning scheme burned, split
    by span name (placement loop vs probe time).
    """
    rows: dict[tuple[str, str], dict] = {}
    for node in tree.walk():
        if not node.scheme:
            continue
        key = (node.scheme, node.name)
        row = rows.get(key)
        if row is None:
            row = rows[key] = {
                "scheme": node.scheme,
                "name": node.name,
                "count": 0,
                "calls": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "errors": 0,
            }
        row["count"] += 1
        row["calls"] += node.calls
        row["total_seconds"] += node.seconds
        row["self_seconds"] += node.self_seconds
        row["errors"] += int(node.error)
    return sorted(
        rows.values(),
        key=lambda row: (-row["total_seconds"], row["scheme"], row["name"]),
    )


# ----------------------------------------------------------------------
# Export: folded stacks
# ----------------------------------------------------------------------
def to_folded(tree: TraceTree) -> str:
    """Folded-stack lines: ``root;child;leaf <self-microseconds>``.

    The format ``flamegraph.pl`` and speedscope ingest directly; the
    value is *self* time in integer microseconds, so frame widths add up
    to total wall time without double counting.  Scheme-tagged frames
    render as ``name[scheme]``, giving per-scheme flames for free.
    """
    stacks: dict[str, int] = {}

    def descend(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.label}" if prefix else node.label
        micros = int(round(node.self_seconds * 1e6))
        if micros > 0:
            stacks[stack] = stacks.get(stack, 0) + micros
        for child in node.children:
            descend(child, stack)

    for root in tree.roots:
        descend(root, "")
    return "\n".join(f"{stack} {value}" for stack, value in sorted(stacks.items()))


# ----------------------------------------------------------------------
# Export: Chrome trace events
# ----------------------------------------------------------------------
def _layout(tree: TraceTree) -> dict[int, int]:
    """Assign each span a lane (Chrome ``tid``) and sequential synthetic starts.

    Nested spans share their parent's lane (Chrome renders containment
    as a flame); siblings that overlap in time — parallel shard windows
    under one point — are pushed to fresh lanes so they don't corrupt
    the nesting.  Synthetic aggregate spans inherit their parent's start;
    they are laid out one after another from the parent's start so the
    exported slices never overlap (their durations are the true totals,
    their positions within the parent are not).

    Returns ``{span_id: lane}`` and rewrites ``node.start`` of synthetic
    nodes in place (on the in-memory tree only).
    """
    lanes: dict[int, int] = {}
    next_lane = [0]

    def place(node: SpanNode, lane: int) -> None:
        lanes[node.span_id] = lane
        cursor = node.start  # sequential layout point for synthetic children
        lane_ends: dict[int, float] = {}
        for child in node.children:
            if child.synthetic:
                child.start = cursor
                cursor += child.seconds
            chosen = None
            for candidate in (lane, *sorted(set(lane_ends) - {lane})):
                if child.start >= lane_ends.get(candidate, float("-inf")) - 1e-9:
                    chosen = candidate
                    break
            if chosen is None:
                next_lane[0] += 1
                chosen = next_lane[0]
            lane_ends[chosen] = child.start + child.seconds
            place(child, chosen)

    for root in tree.roots:
        next_lane[0] = max(next_lane[0], max(lanes.values(), default=0))
        place(root, next_lane[0])
        next_lane[0] += 1
    return lanes


def to_chrome(tree: TraceTree) -> dict:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    Every span becomes a complete ("X") event: ``ts``/``dur`` in
    microseconds relative to the earliest span start, ``pid`` 0, and a
    ``tid`` lane chosen so concurrent spans land on separate rows while
    nested chains stay stacked.  Scheme, error, call counts, and user
    fields ride along in ``args``.
    """
    lanes = _layout(tree)
    t0 = min((node.start for node in tree.walk()), default=0.0)
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"repro-mc run {tree.run_id}".strip()},
        }
    ]
    for node in tree.walk():
        args: dict = {"span_id": node.span_id}
        if node.scheme:
            args["scheme"] = node.scheme
        if node.error:
            args["error"] = True
        if node.calls != 1:
            args["calls"] = node.calls
        args.update(node.fields)
        events.append(
            {
                "name": node.label,
                "cat": node.name.split(".", 1)[0],
                "ph": "X",
                "ts": (node.start - t0) * 1e6,
                "dur": node.seconds * 1e6,
                "pid": 0,
                "tid": lanes[node.span_id],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def format_report(tree: TraceTree, top: int = 15) -> str:
    """Human-readable trace report: critical path + flat profile.

    The critical path descends through the largest child at every level;
    percentages are of the root (the run's wall clock).  The flat table
    ranks span names by *self* time — where the run actually burned its
    seconds once nested time is attributed to the nested spans.
    """
    root = tree.root
    wall = root.seconds or float("inf")
    lines = [
        f"Trace report — run {tree.run_id or '(unknown)'}: "
        f"{len(tree)} spans, {len(tree.roots)} root(s), "
        f"{len(tree.orphans)} orphan(s)",
        "",
        f"Critical path ({_fmt_seconds(root.seconds)} wall clock):",
    ]
    for depth, node in enumerate(critical_path(tree)):
        pct = 100.0 * node.seconds / wall
        calls = f"  (x{node.calls})" if node.calls != 1 else ""
        err = "  ERROR" if node.error else ""
        lines.append(
            f"  {pct:5.1f}%  {_fmt_seconds(node.seconds):>10}  "
            f"{'  ' * depth}{node.label}{calls}{err}"
        )
    lines += [
        "",
        f"Top {top} span names by self time:",
        f"  {'name':<28} {'count':>7} {'calls':>9} "
        f"{'total':>10} {'self':>10} {'%run':>6}",
    ]
    for row in aggregate_spans(tree)[:top]:
        lines.append(
            f"  {row['name']:<28} {row['count']:>7} {row['calls']:>9} "
            f"{_fmt_seconds(row['total_seconds']):>10} "
            f"{_fmt_seconds(row['self_seconds']):>10} "
            f"{100.0 * row['self_seconds'] / wall:>5.1f}%"
        )
    scheme_rows = aggregate_schemes(tree)
    if scheme_rows:
        lines += [
            "",
            "Per-scheme attribution:",
            f"  {'scheme':<12} {'span':<22} {'count':>7} {'calls':>9} "
            f"{'total':>10} {'%run':>6}",
        ]
        for row in scheme_rows:
            lines.append(
                f"  {row['scheme']:<12} {row['name']:<22} {row['count']:>7} "
                f"{row['calls']:>9} {_fmt_seconds(row['total_seconds']):>10} "
                f"{100.0 * row['total_seconds'] / wall:>5.1f}%"
            )
    errors = sum(1 for node in tree.walk() if node.error)
    if errors:
        lines += ["", f"{errors} span(s) closed on an exception (error=true)."]
    return "\n".join(lines)
