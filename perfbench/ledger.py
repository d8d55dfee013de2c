"""The layer ledger of a traced run.

:func:`install` wraps the public entry points of each layer of the
program in timing wrappers, from the benchmark's side: nothing in
``src/`` changes.  Layers are named by module.  Each wrapper records,
per layer, the calls (outermost only, so ``super()`` chains and nested
calls of one layer count once), busy time (outermost call durations),
and self time (duration minus the time of nested wrapped calls), plus
a few exact counts and distributions named below.

Pool workers are forked from the traced process, so they inherit the
wrappers; each worker writes its part of the ledger after every shard,
and :func:`load` merges the parts.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import pkgutil
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

from common import percentile

_now = time.perf_counter


class _Span:
    """Accumulators of one span name (a layer or a layer part)."""

    __slots__ = ("calls", "busy", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.active = 0


class Ledger:
    """Per-process accumulators; reset in every forked child."""

    def __init__(self, path: Path):
        self.path = path
        self.owner = os.getpid()
        self.part = 0
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.stack: list[list[float]] = []

    def span(self, name: str) -> _Span:
        return self.spans.setdefault(name, _Span())

    def reset(self) -> None:
        """Empty every accumulator in place (wrappers hold references)."""
        for span in self.spans.values():
            span.__init__()
        for acc in (self.counts, self.samples, self.intervals, self.stack):
            acc.clear()

    def to_dict(self) -> dict:
        spans = self.spans.items()
        return {
            "calls": {n: s.calls for n, s in spans if s.calls},
            "busy": {n: s.busy for n, s in spans if s.calls},
            "self": {n: s.self_s for n, s in spans if s.self_s},
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "intervals": dict(self.intervals),
        }

    def dump(self) -> None:
        """Write this process's ledger (a worker writes numbered parts)."""
        path = self.path
        if os.getpid() != self.owner:
            self.part += 1
            path = path.with_name(f"{path.stem}.w{os.getpid()}.{self.part}.json")
        path.write_text(json.dumps(self.to_dict()))
        if os.getpid() != self.owner:
            self.reset()

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, fn, on_exit=None, tag: str | None = None):
        """Synchronous span ``name`` around ``fn``.

        ``on_exit(args, result, outer, t0, t1)`` runs after a successful
        call; ``outer`` is false for calls nested in the same layer.
        ``tag`` marks the call as active under a second name while it
        runs (e.g. which backend class is probing).
        """
        span = self.span(name)
        tagged = self.span(tag) if tag else None
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            span.active += 1
            if tagged is not None:
                tagged.active += 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                duration = t1 - t0
                stack.pop()
                span.active -= 1
                if tagged is not None:
                    tagged.active -= 1
                outer = span.active == 0
                span.self_s += duration - frame[0]
                if outer:
                    span.calls += 1
                    span.busy += duration
                if stack:
                    stack[-1][0] += duration
            if on_exit is not None:
                on_exit(args, result, outer, t0, t1)
            return result

        return wrapper

    def timed_async(self, name: str, fn, on_exit=None):
        """Coroutine span: wall time including awaits, kept as samples
        only (it is not CPU, so it stays out of busy/self time)."""
        span = self.span(name)
        key = f"{name}.ms"
        samples = self.samples

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = _now()
            result = await fn(*args, **kwargs)
            t1 = _now()
            span.calls += 1
            samples[key].append(1e3 * (t1 - t0))
            if on_exit is not None:
                on_exit(args, result, t1)
            return result

        return wrapper


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _wrap_methods(ledger, base, methods, name, on_exit=None, tag_of=None):
    for cls in _subclasses(base):
        for method in methods:
            fn = cls.__dict__.get(method)
            if isinstance(fn, types.FunctionType):
                tag = tag_of(cls) if tag_of else None
                setattr(cls, method, ledger.timed(name, fn, on_exit, tag))


def _wrap_function(ledger, module, attr, name, on_exit=None):
    """Wrap ``module.attr`` in every loaded ``repro`` module that bound it."""
    original = getattr(module, attr)
    wrapped = ledger.timed(name, original, on_exit)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _import_program() -> None:
    """Load every program module, so lazy imports find the wrappers."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue


def install(path: Path) -> Ledger:
    """Wrap every layer's entry points; returns the process's ledger."""
    import numpy as np

    _import_program()
    ledger = Ledger(path)
    os.register_at_fork(after_in_child=ledger.reset)

    from repro.analysis import explain
    from repro.engine import core as engine_core
    from repro.engine.store import ResultStore
    from repro.gen import generator
    from repro.metrics.aggregate import SchemeAccumulator
    from repro.model.partition import Partition
    from repro.model.taskset import MCTaskSet
    from repro.partition import backend
    from repro.partition.base import Partitioner
    from repro.sched.core_sim import CoreSimulator
    from repro.sched.system_sim import SystemSimulator
    from repro.serve import coordinator, protocol
    from repro.serve.batcher import MicroBatcher, ServeOverflow
    from repro.serve.coordinator import Coordinator
    from repro.serve.handlers import Api
    from repro.serve.state import ServeState, StateSnapshot
    from repro.validate import oracles

    counts, samples, intervals = ledger.counts, ledger.samples, ledger.intervals

    # gen
    _wrap_function(ledger, generator, "generate_taskset", "gen")

    # analysis.batch: the stacked kernels, where the backends call them
    incremental = ledger.span("backend:incremental")

    def kernel_done(args, result, outer, t0, t1):
        rows = int(args[0].shape[0])
        counts["analysis.batch.rows"] += rows
        if incremental.active:
            counts["incremental.kernel_rows"] += rows

    for attr in ("_core_utilization_stack", "_is_feasible_stack"):
        setattr(backend, attr, ledger.timed("analysis.batch", getattr(backend, attr), kernel_done))

    # partition.backend: every ProbeBackend method
    primitives = ("probe", "probe_feasible", "probe_tasks", "probe_feasible_tasks")
    scans = ("first_feasible_core", "first_finite_probe")

    def backend_done(args, result, outer, t0, t1):
        self, partition, tasks = args[0], args[1], args[2]
        one = isinstance(tasks, (int, np.integer))
        pairs = (1 if one else len(tasks)) * partition.cores
        if outer:
            counts["partition.backend.hypotheses"] += pairs
            if self.name == "incremental":
                counts["incremental.hypotheses"] += pairs
        if isinstance(result, np.ndarray):
            ok = result if result.dtype == bool else np.isfinite(result)
            counts["backend.evaluated"] += int(result.size)
            counts["backend.feasible"] += int(np.count_nonzero(ok))

    _wrap_methods(
        ledger,
        backend.ProbeBackend,
        primitives + scans,
        "partition.backend",
        backend_done,
        tag_of=lambda cls: f"backend:{cls.name}",
    )

    # partition: attempts and ordering
    _wrap_methods(ledger, Partitioner, ("partition",), "partition")
    _wrap_methods(ledger, Partitioner, ("order_tasks",), "partition.ordering")

    # model
    _wrap_methods(ledger, Partition, ("assign",), "model.assign")
    _wrap_methods(
        ledger,
        Partition,
        ("candidate_stack", "candidate_stack_for_cores", "candidate_pairs_stack",
         "candidate_stacks"),
        "model.candidate_stack",
    )
    _wrap_methods(ledger, MCTaskSet, ("__init__",), "model.taskset_build")
    _wrap_methods(ledger, Partition, ("extended",), "model.extended")
    _wrap_methods(ledger, Partition, ("snapshot",), "model.snapshot")

    # metrics
    _wrap_methods(ledger, SchemeAccumulator, ("add", "merge", "finalize"), "metrics")

    # engine: shards (in whichever process runs them), store, evaluate
    def shard_done(args, result, outer, t0, t1):
        intervals["engine.shard"].append((t0, t1))
        if os.getpid() != ledger.owner:
            ledger.dump()

    for key, kind in list(engine_core._SHARD_KINDS.items()):
        engine_core._SHARD_KINDS[key] = dataclasses.replace(
            kind, run=ledger.timed("engine.shard", kind.run, shard_done)
        )

    def put_done(args, result, outer, t0, t1):
        counts["engine.store.writes"] += 1

    _wrap_methods(ledger, ResultStore, ("get",), "engine.store")
    _wrap_methods(ledger, ResultStore, ("put",), "engine.store", put_done)

    def evaluate_done(args, result, outer, t0, t1):
        engine = args[0]
        seen = getattr(engine, "_ledger_retries", 0)
        counts["engine.retries"] += engine.stats.worker_retries - seen
        engine._ledger_retries = engine.stats.worker_retries
        intervals["engine.evaluate"].append((t0, t1))

    _wrap_methods(ledger, engine_core.Engine, ("evaluate",), "engine.evaluate", evaluate_done)

    # serve
    Api.handle = ledger.timed_async("serve.http.handle", Api.handle)
    for attr in ("parse_place", "parse_admit", "parse_explain"):
        _wrap_function(ledger, protocol, attr, "serve.protocol")

    def batch_done(args, batch, t1):
        if batch:
            samples["serve.batcher.batch_size"].append(float(len(batch)))
            for item in batch:
                samples["serve.batcher.queue_wait_ms"].append(1e3 * (t1 - item.enqueued))

    MicroBatcher.next_batch = ledger.timed_async(
        "serve.batcher.next_batch", MicroBatcher.next_batch, batch_done
    )
    submit = MicroBatcher.submit

    @functools.wraps(submit)
    def counted_submit(self, kind, request):
        try:
            return submit(self, kind, request)
        except ServeOverflow:
            counts["serve.batcher.overflow"] += 1
            raise

    MicroBatcher.submit = counted_submit
    _wrap_methods(ledger, Coordinator, ("flush",), "serve.coordinator")
    coordinator.batch_probe_tasks = ledger.timed(
        "serve.coordinator.kernel", coordinator.batch_probe_tasks
    )
    _wrap_methods(ledger, ServeState, ("commit",), "serve.state.commit")
    _wrap_methods(ledger, StateSnapshot, ("to_dict",), "serve.state.read")

    # analysis.explain: 409 reasons, /explain, the explain oracle
    for attr in ("explain_level_matrix", "explain_candidates", "explain_result",
                 "explain_admission", "headroom_for_matrix", "headroom_profile",
                 "task_sensitivity", "place_rejection_reason"):
        _wrap_function(ledger, explain, attr, "analysis.explain")

    # sched
    def sim_done(args, result, outer, t0, t1):
        if outer:
            counts["sched.runs"] += 1
            counts["sched.jobs"] += int(result.released)

    _wrap_methods(ledger, CoreSimulator, ("run",), "sched", sim_done)
    _wrap_methods(ledger, SystemSimulator, ("run",), "sched", sim_done)

    # validate: one span per oracle
    for name, oracle in list(oracles._ORACLES.items()):
        oracles._ORACLES[name] = dataclasses.replace(
            oracle, check=ledger.timed(f"validate.oracle.{name}", oracle.check)
        )
    return ledger


# -- reduction ------------------------------------------------------------


def load(paths: list[Path]) -> dict:
    """Merge ledger files (main processes and worker parts)."""
    merged = {k: defaultdict(float) for k in ("calls", "busy", "self", "counts")}
    samples: dict[str, list] = defaultdict(list)
    intervals: dict[str, list] = defaultdict(list)
    for path in paths:
        doc = json.loads(path.read_text())
        for key in merged:
            for name, value in doc[key].items():
                merged[key][name] += value
        for name, values in doc["samples"].items():
            samples[name].extend(values)
        for name, values in doc["intervals"].items():
            intervals[name].extend(tuple(v) for v in values)
    return {**{k: dict(v) for k, v in merged.items()}, "samples": dict(samples),
            "intervals": dict(intervals)}


def uncovered_s(windows: list[tuple[float, float]], spans: list[tuple[float, float]]) -> float:
    """Total time inside ``windows`` that no interval of ``spans`` covers."""
    spans = sorted(spans)
    total = 0.0
    for lo, hi in windows:
        covered, cursor = 0.0, lo
        for s, e in spans:
            if e <= cursor or s >= hi:
                continue
            s = max(s, cursor)
            e = min(e, hi)
            if e > s:
                covered += e - s
                cursor = e
        total += (hi - lo) - covered
    return total


#: Spans whose self time is waiting, not work: kept out of the shares.
_WAIT_SPANS = ("engine.evaluate",)

#: Exact counts that must repeat across two traced runs of one seed.
EXACT_COUNTS = (
    "partition.backend.hypotheses",
    "sched.jobs",
    "serve.coordinator.flushes",
    "model.taskset_build.calls",
)

ORACLES = (
    "admission-monotonicity", "events-job-conservation", "events-telemetry",
    "explain-decision", "job-conservation", "probe-scalar-batch",
    "schedulable-no-miss", "serve-offline", "telemetry-counters",
    "theorem1-eq7-k2", "trace-busy-time",
)

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    ("analysis.batch.calls", "count", "lower"),
    ("analysis.batch.rows", "count", "lower"),
    ("analysis.batch.busy_s", "s", "lower"),
    ("analysis.batch.share", "ratio", "lower"),
    ("partition.backend.calls", "count", "lower"),
    ("partition.backend.hypotheses", "count", "lower"),
    ("partition.backend.busy_s", "s", "lower"),
    ("partition.backend.self_s", "s", "lower"),
    ("partition.backend.share", "ratio", "lower"),
    ("partition.backend.feasible_ratio", "ratio", "higher"),
    ("partition.backend.cache_hit_ratio", "ratio", "higher"),
    ("partition.attempts", "count", "lower"),
    ("partition.busy_s", "s", "lower"),
    ("partition.self_s", "s", "lower"),
    ("partition.share", "ratio", "lower"),
    ("partition.ordering.busy_s", "s", "lower"),
    ("model.assign.calls", "count", "lower"),
    ("model.assign.busy_s", "s", "lower"),
    ("model.candidate_stack.calls", "count", "lower"),
    ("model.candidate_stack.busy_s", "s", "lower"),
    ("model.taskset_build.calls", "count", "lower"),
    ("model.taskset_build.busy_s", "s", "lower"),
    ("model.extended.busy_s", "s", "lower"),
    ("model.snapshot.busy_s", "s", "lower"),
    ("model.share", "ratio", "lower"),
    ("gen.calls", "count", "lower"),
    ("gen.busy_s", "s", "lower"),
    ("gen.share", "ratio", "lower"),
    ("metrics.calls", "count", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("metrics.share", "ratio", "lower"),
    ("engine.shards", "count", "lower"),
    ("engine.shard_busy_s", "s", "lower"),
    ("engine.shard_self_s", "s", "lower"),
    ("engine.wait_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.store.writes", "count", "lower"),
    ("engine.store.busy_s", "s", "lower"),
    ("engine.share", "ratio", "lower"),
    ("serve.http.connect_ms", "ms", "lower"),
    ("serve.http.overhead_ms", "ms", "lower"),
    ("serve.protocol.calls", "count", "lower"),
    ("serve.protocol.busy_s", "s", "lower"),
    ("serve.batcher.queue_wait_p50_ms", "ms", "lower"),
    ("serve.batcher.queue_wait_p90_ms", "ms", "lower"),
    ("serve.batcher.batch_size_p50", "count", "higher"),
    ("serve.batcher.batch_size_max", "count", "higher"),
    ("serve.batcher.overflow", "count", "lower"),
    ("serve.coordinator.flushes", "count", "lower"),
    ("serve.coordinator.flush_busy_s", "s", "lower"),
    ("serve.coordinator.kernel_s", "s", "lower"),
    ("serve.coordinator.apply_s", "s", "lower"),
    ("serve.coordinator.share", "ratio", "lower"),
    ("serve.state.commit_busy_s", "s", "lower"),
    ("serve.state.read_calls", "count", "lower"),
    ("serve.state.read_busy_s", "s", "lower"),
    ("serve.share", "ratio", "lower"),
    ("analysis.explain.calls", "count", "lower"),
    ("analysis.explain.busy_s", "s", "lower"),
    ("analysis.explain.share", "ratio", "lower"),
    ("sched.runs", "count", "lower"),
    ("sched.jobs", "count", "lower"),
    ("sched.busy_s", "s", "lower"),
    ("sched.self_s", "s", "lower"),
    ("sched.share", "ratio", "lower"),
    *((f"validate.oracle.{name}.busy_s", "s", "lower") for name in ORACLES),
    ("validate.share", "ratio", "lower"),
    ("untraced.latency_p50_ms", "ms", "lower"),
    ("untraced.latency_p90_ms", "ms", "lower"),
    ("untraced.read_p50_ms", "ms", "lower"),
    ("untraced.read_p90_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _group_share(doc: dict, prefix: str, capacity_s: float) -> float:
    """Self time of every span under ``prefix`` as a share of capacity."""
    total = sum(
        v for k, v in doc["self"].items()
        if (k == prefix or k.startswith(prefix + ".")) and k not in _WAIT_SPANS
    )
    return total / capacity_s


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def per_layer_metrics(
    doc: dict,
    wall_s: float,
    parallelism: int,
    client: dict | None,
    overhead: float,
    latency: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a merged ledger.

    Shares divide self time by the run's work wall time times its
    parallelism (2 for the pool workload), so the shares of one run sum
    to at most about 1; ``trace.unattributed_share`` is the rest.
    ``latency`` holds the untraced run's latency percentiles, which are
    reported here, without a bound, because on a shared host their
    run-to-run spread is wider than any bound could allow.
    """
    calls, busy, self_s, counts, samples = (
        doc["calls"], doc["busy"], doc["self"], doc["counts"], doc["samples"]
    )
    capacity = wall_s * parallelism
    c = lambda k: float(calls.get(k, 0))  # noqa: E731
    b = lambda k: float(busy.get(k, 0.0))  # noqa: E731
    s = lambda k: float(self_s.get(k, 0.0))  # noqa: E731
    n = lambda k: float(counts.get(k, 0))  # noqa: E731
    evaluated = n("backend.evaluated")
    incr = n("incremental.hypotheses")
    client = client or {}
    handle = samples.get("serve.http.handle.ms", [])
    out = {
        "analysis.batch.calls": c("analysis.batch"),
        "analysis.batch.rows": n("analysis.batch.rows"),
        "analysis.batch.busy_s": b("analysis.batch"),
        "analysis.batch.share": _group_share(doc, "analysis.batch", capacity),
        "partition.backend.calls": c("partition.backend"),
        "partition.backend.hypotheses": n("partition.backend.hypotheses"),
        "partition.backend.busy_s": b("partition.backend"),
        "partition.backend.self_s": s("partition.backend"),
        "partition.backend.share": _group_share(doc, "partition.backend", capacity),
        "partition.backend.feasible_ratio": (
            n("backend.feasible") / evaluated if evaluated else 0.0
        ),
        "partition.backend.cache_hit_ratio": (
            max(0.0, 1.0 - n("incremental.kernel_rows") / incr) if incr else 0.0
        ),
        "partition.attempts": c("partition"),
        "partition.busy_s": b("partition"),
        "partition.self_s": s("partition"),
        "partition.share": (s("partition") + s("partition.ordering")) / capacity,
        "partition.ordering.busy_s": b("partition.ordering"),
        "model.assign.calls": c("model.assign"),
        "model.assign.busy_s": b("model.assign"),
        "model.candidate_stack.calls": c("model.candidate_stack"),
        "model.candidate_stack.busy_s": b("model.candidate_stack"),
        "model.taskset_build.calls": c("model.taskset_build"),
        "model.taskset_build.busy_s": b("model.taskset_build"),
        "model.extended.busy_s": b("model.extended"),
        "model.snapshot.busy_s": b("model.snapshot"),
        "model.share": _group_share(doc, "model", capacity),
        "gen.calls": c("gen"),
        "gen.busy_s": b("gen"),
        "gen.share": _group_share(doc, "gen", capacity),
        "metrics.calls": c("metrics"),
        "metrics.busy_s": b("metrics"),
        "metrics.share": _group_share(doc, "metrics", capacity),
        "engine.shards": c("engine.shard"),
        "engine.shard_busy_s": b("engine.shard"),
        "engine.shard_self_s": s("engine.shard"),
        "engine.wait_s": uncovered_s(
            doc["intervals"].get("engine.evaluate", []),
            doc["intervals"].get("engine.shard", []),
        ),
        "engine.retries": n("engine.retries"),
        "engine.store.writes": n("engine.store.writes"),
        "engine.store.busy_s": b("engine.store"),
        "engine.share": _group_share(doc, "engine", capacity),
        "serve.http.connect_ms": float(client.get("connect_ms", 0.0)),
        "serve.http.overhead_ms": (
            max(0.0, client["rtt_ms_mean"] - sum(handle) / len(handle))
            if handle and client.get("rtt_ms_mean") else 0.0
        ),
        "serve.protocol.calls": c("serve.protocol"),
        "serve.protocol.busy_s": b("serve.protocol"),
        "serve.batcher.queue_wait_p50_ms": _pct(samples.get("serve.batcher.queue_wait_ms", []), 50),
        "serve.batcher.queue_wait_p90_ms": _pct(samples.get("serve.batcher.queue_wait_ms", []), 90),
        "serve.batcher.batch_size_p50": _pct(samples.get("serve.batcher.batch_size", []), 50),
        "serve.batcher.batch_size_max": max(samples.get("serve.batcher.batch_size", [0.0])),
        "serve.batcher.overflow": n("serve.batcher.overflow"),
        "serve.coordinator.flushes": c("serve.coordinator"),
        "serve.coordinator.flush_busy_s": b("serve.coordinator"),
        "serve.coordinator.kernel_s": b("serve.coordinator.kernel"),
        "serve.coordinator.apply_s": max(
            0.0, b("serve.coordinator") - b("serve.coordinator.kernel")
        ),
        "serve.coordinator.share": _group_share(doc, "serve.coordinator", capacity),
        "serve.state.commit_busy_s": b("serve.state.commit"),
        "serve.state.read_calls": c("serve.state.read"),
        "serve.state.read_busy_s": b("serve.state.read"),
        "serve.share": _group_share(doc, "serve", capacity),
        "analysis.explain.calls": c("analysis.explain"),
        "analysis.explain.busy_s": b("analysis.explain"),
        "analysis.explain.share": _group_share(doc, "analysis.explain", capacity),
        "sched.runs": n("sched.runs"),
        "sched.jobs": n("sched.jobs"),
        "sched.busy_s": b("sched"),
        "sched.self_s": s("sched"),
        "sched.share": _group_share(doc, "sched", capacity),
        **{f"validate.oracle.{o}.busy_s": b(f"validate.oracle.{o}") for o in ORACLES},
        "validate.share": _group_share(doc, "validate", capacity),
        "untraced.latency_p50_ms": latency.get("p50_ms", 0.0),
        "untraced.latency_p90_ms": latency.get("p90_ms", 0.0),
        "untraced.read_p50_ms": latency.get("read_p50_ms", 0.0),
        "untraced.read_p90_ms": latency.get("read_p90_ms", 0.0),
        "trace.wall_s": wall_s,
        "trace.overhead_ratio": overhead,
    }
    attributed = sum(
        v for k, v in self_s.items() if k not in _WAIT_SPANS
    ) / capacity
    out["trace.unattributed_share"] = max(0.0, 1.0 - attributed)
    return out


def table(doc: dict, wall_s: float, parallelism: int) -> list[str]:
    """The per-layer table: calls, busy, self and share of wall, per span."""
    capacity = wall_s * parallelism
    names = sorted(set(doc["self"]) | set(doc["calls"]))
    lines = [f"{'layer':<44}{'calls':>10}{'busy_s':>10}{'self_s':>10}{'share':>8}"]
    for name in names:
        self_time = doc["self"].get(name, 0.0)
        share = "wait" if name in _WAIT_SPANS or name not in doc["self"] else (
            f"{self_time / capacity:.3f}"
        )
        lines.append(
            f"{name:<44}{int(doc['calls'].get(name, 0)):>10}"
            f"{doc['busy'].get(name, 0.0):>10.3f}{self_time:>10.3f}{share:>8}"
        )
    return lines
