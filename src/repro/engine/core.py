"""The resumable experiment engine.

:class:`Engine` evaluates declarative :class:`~repro.engine.spec`
objects: it plans contiguous shards over each data point's task sets,
answers as many shards as possible from the content-addressed
:class:`~repro.engine.store.ResultStore`, computes the rest (inline or
via a ``ProcessPoolExecutor``), and **checkpoints every computed shard
the moment it is received** — an interrupted ``repro-mc all --sets
2000`` resumes from the completed shards instead of starting over.

Every run (:meth:`Engine.queued`) plans all of its points on entry,
then receives them point by point, in ascending ``start`` order.  A
point missing more than one shard fans out: one worker pool for the
whole run gets every such shard up front.  Every other missing shard
computes inline, in a *pack* (:data:`PACK_SETS`): consecutive missing
shards of one kind that one runner call steps together, computed when
the first of its points is received.  A shard computed before its point
is received — by a worker that finished early, or in the pack of an
earlier point — is checkpointed only when its point is received; an
interrupt before then loses it, and the resumed run computes it again.

Determinism: every task set ``i`` of a point is generated from
``SeedSequence(seed, spawn_key=(i,))``, shards are merged in ascending
``start`` order, and finalization uses ``math.fsum`` (exactly rounded),
so serial, parallel, cold, and warm (fully cached) runs produce
bit-identical artifacts.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.engine.artifact import PointResult, SweepArtifact
from repro.engine.spec import ExperimentSpec, PointSpec, plan_shards
from repro.engine.store import ResultStore, shard_key
from repro.gen.generator import generate_taskset
from repro.gen.params import WorkloadConfig
from repro.metrics.aggregate import SchemeAccumulator, SchemeStats
from repro.obs import runtime as obs
from repro.obs.metrics import Histogram
from repro.partition.backend import DEFAULT_BACKEND, get_backend
from repro.partition.base import partition_lockstep
from repro.types import ReproError

__all__ = [
    "Engine",
    "EngineRunStats",
    "ShardKind",
    "register_shard_kind",
    "shard_kind",
]

#: Progress hook: called with one event dict per shard / point; see
#: :meth:`Engine._emit` for the event shapes.  Hooks are *advisory*: an
#: exception raised by a hook is caught, warned about once, and disables
#: the hook for the rest of the run — it never aborts a sweep
#: (``KeyboardInterrupt``/``SystemExit`` still propagate).
ProgressHook = Callable[[dict], None]


@dataclass
class EngineRunStats:
    """Observability counters for one engine lifetime.

    Shard timings land in ``shard_seconds_hist``, an exact log-bucket
    :class:`~repro.obs.Histogram`: fixed global edges, so percentiles
    are stable at ~1.78x bucket resolution and merges across worker
    processes are exactly associative (pinned by a hypothesis property
    in ``tests/engine/``).
    """

    points: int = 0
    shards_planned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shards_computed: int = 0
    compute_seconds: float = 0.0
    worker_retries: int = 0
    shard_seconds_hist: Histogram = field(
        default_factory=lambda: Histogram("engine.shard_seconds")
    )

    def as_dict(self) -> dict:
        return {
            "points": self.points,
            "shards_planned": self.shards_planned,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shards_computed": self.shards_computed,
            "compute_seconds": self.compute_seconds,
            "worker_retries": self.worker_retries,
            "shard_seconds_hist": self.shard_seconds_hist.as_dict(),
        }


def _generate_timed(config: WorkloadConfig, rng):
    """Generate one task set, attributing the time to a ``gen.taskset``
    aggregate child of the enclosing shard span (when instrumented)."""
    if not obs.OBS.enabled:
        return generate_taskset(config, rng)
    t0 = time.perf_counter()
    taskset = generate_taskset(config, rng)
    obs.add_span_time("gen.taskset", time.perf_counter() - t0)
    return taskset


#: Task sets a shard steps in lockstep at once: past a few hundred rows
#: per kernel call the per-row cost is flat, and the bound keeps a
#: whole-point (``--jobs 1``) shard from holding every set alive.
LOCKSTEP_SETS = 64

#: Sets one pack of inline shards holds at most (a bigger shard is a
#: pack of its own).  The lockstep's per-step cost is mostly fixed, so
#: small points stepped together pay it once.  perfbench ``sweep``
#: (``fig1 --sets 10``, 2-vCPU VM, medians) read 497 sets/s point by
#: point, 730 at packs of at most 32 sets (30 + 20) and 871 at one
#: 50-set pack, but peak RSS grows with the pack: +2.3% at 32 sets and
#: +4.3% at 50, against the benchmark's 5% bound.
PACK_SETS = 32


def _accumulators(point: PointSpec) -> list[SchemeAccumulator]:
    """One empty accumulator per scheme label of ``point``, with a zero
    win count over each other label (in label order, which the merged
    point keeps whatever order a stored shard decodes in)."""
    return [
        SchemeAccumulator(a, wins={b: 0 for b in point.labels if b != a})
        for a in point.labels
    ]


def _run_stats_shards(shards, *, probe_impl: str) -> list[list[SchemeAccumulator]]:
    """Each stats shard's per-scheme accumulators, keyed by label.

    Every set x scheme of ``shards`` (``(point, start, count)``
    triples) is partitioned in lockstep on the ``probe_impl`` backend,
    at most ``LOCKSTEP_SETS`` sets per call, and recorded set by set,
    shard by shard (accumulator order).  A set one scheme schedules and
    another does not counts in the first one's ``wins`` over the other.
    """
    backend = get_backend(probe_impl)
    accs = [_accumulators(point) for point, _, _ in shards]
    partitioners = [
        [spec.build() for spec in point.schemes] for point, _, _ in shards
    ]
    sets = [
        (index, point, i)
        for index, (point, start, count) in enumerate(shards)
        for i in range(start, start + count)
    ]
    for lo in range(0, len(sets), LOCKSTEP_SETS):
        chunk = sets[lo : lo + LOCKSTEP_SETS]
        tasksets = [
            _generate_timed(
                point.config,
                np.random.default_rng(
                    np.random.SeedSequence(point.seed, spawn_key=(i,))
                ),
            )
            for _, point, i in chunk
        ]
        jobs = [
            (p, ts, point.config.cores)
            for (index, point, _), ts in zip(chunk, tasksets)
            for p in partitioners[index]
        ]
        results = iter(partition_lockstep(jobs, backend))
        for index, _, _ in chunk:
            outcome = [(acc, next(results)) for acc in accs[index]]
            failed = [acc.scheme for acc, r in outcome if not r.schedulable]
            for acc, result in outcome:
                acc.add(result)
                if result.schedulable:
                    for label in failed:
                        acc.wins[label] += 1
    return accs


@dataclass(frozen=True)
class ShardKind:
    """How the engine runs, persists, and merges one kind of shard.

    ``run(shards, probe_impl=name)`` evaluates a list of ``(point,
    start, count)`` shards of this kind on the named probe backend and
    returns one result per shard, in order (a kind with
    :attr:`PointSpec.params` reads them off the point);
    ``encode(result)`` / ``decode(payload)`` convert it to/from the
    strict-JSON object the :class:`ResultStore` checkpoints (the engine
    stamps ``{"kind": name}`` on each object it stores and rejects a
    stored object of another kind); ``merge(point, shards)`` folds the
    ascending-``start`` shard list into the point result.
    """

    name: str
    run: Callable
    encode: Callable[[object], dict]
    decode: Callable[[dict], object]
    merge: Callable[[PointSpec, list], object]


_SHARD_KINDS: dict[str, ShardKind] = {}

#: Kinds whose implementation lives in a package the engine must not
#: import eagerly (it would be a circular / upward dependency).  Looked
#: up on first use — including inside spawned worker processes, whose
#: interpreters start with only the engine imported.
_KIND_PROVIDERS = {
    "validate": "repro.validate.fuzz",
    "dynsim": "repro.experiments.dynamic",
}


def register_shard_kind(
    name: str, *, run: Callable, encode: Callable, decode: Callable, merge: Callable
) -> None:
    """Register (or idempotently re-register) a point-evaluation mode."""
    _SHARD_KINDS[name] = ShardKind(
        name=name, run=run, encode=encode, decode=decode, merge=merge
    )


def shard_kind(name: str) -> ShardKind:
    """Resolve a kind, importing its provider module on first use."""
    kind = _SHARD_KINDS.get(name)
    if kind is None and name in _KIND_PROVIDERS:
        importlib.import_module(_KIND_PROVIDERS[name])
        kind = _SHARD_KINDS.get(name)
    if kind is None:
        raise ReproError(
            f"unknown shard kind {name!r}; registered: {sorted(_SHARD_KINDS)}"
        )
    return kind


def _run_shard_job(
    point: PointSpec, start: int, count: int, collect_metrics: bool, probe_impl: str
):
    """Worker-process entry point: run one shard, optionally with metrics.

    When the parent engine runs instrumented, each worker evaluates its
    shard inside :func:`repro.obs.collect` (a fresh registry) and ships
    the registry dump *and its completed span records* back with the
    result; the parent merges the dump and re-roots the spans under its
    own ``engine.shard`` span with :func:`repro.obs.adopt_spans`, so
    probe/Theorem-1/partition counters and the trace tree both survive
    the process boundary.  Returns
    ``(result, metrics_dump_or_None, span_records_or_None)``.
    """
    run_shards, shards = shard_kind(point.kind).run, [(point, start, count)]
    if not collect_metrics:
        return run_shards(shards, probe_impl=probe_impl)[0], None, None
    with obs.collect() as registry:
        with obs.span("engine.shard.compute", set_start=start, set_count=count):
            (result,) = run_shards(shards, probe_impl=probe_impl)
        return result, registry.dump(), obs.drain_spans()


def _encode_stats(result) -> dict:
    return {"accumulators": [a.to_dict() for a in result]}


def _decode_stats(payload: dict):
    return [SchemeAccumulator.from_dict(d) for d in payload["accumulators"]]


def _merge_stats(point: PointSpec, shards: list) -> dict[str, SchemeStats]:
    merged = {acc.scheme: acc for acc in _accumulators(point)}
    for shard in shards:
        for acc in shard:
            merged[acc.scheme].merge(acc)
    return {label: merged[label].finalize() for label in point.labels}


register_shard_kind(
    "stats",
    run=_run_stats_shards,
    encode=_encode_stats,
    decode=_decode_stats,
    merge=_merge_stats,
)


@dataclass
class _Pack:
    """Missing shards of one kind that an inline run computes with one
    runner call, on the first receipt of any of their points."""

    kind: str
    shards: list[tuple[PointSpec, int, int]] = field(default_factory=list)
    sets: int = 0
    results: list | None = None


@dataclass
class _PointPlan:
    """One point of an engine run: its shard plan, what the store
    answered, and the missing shards, with their pool futures when the
    run queued them, or else the pack (and slot in it) of the point's
    one missing shard."""

    point: PointSpec
    jobs: int
    shards: list[tuple[int, int]]
    cached: dict[int, object] = field(default_factory=dict)
    missing: list[tuple[int, int]] = field(default_factory=list)
    futures: list = field(default_factory=list)
    submitted: float = 0.0  #: epoch seconds the futures were queued
    pack: _Pack | None = None
    slot: int = 0


class Engine:
    """Evaluates :class:`PointSpec` / :class:`ExperimentSpec` objects.

    Parameters
    ----------
    jobs:
        Worker processes per run; 1 (default) runs inline — results
        are bit-identical either way.  ``None`` uses ``os.cpu_count()``;
        anything below 1 raises :class:`ReproError`.
    store:
        Optional :class:`ResultStore` (or a path, coerced).  With a
        store, completed shards are checkpointed as they are received
        and later runs resume from them.
    progress:
        Optional hook receiving one event dict per point/shard.
    probe_impl:
        Name of the probe backend every shard evaluates on (and is keyed
        by in the store); checked once here, then handed to each shard
        runner, inline or in a worker process.
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        store: ResultStore | str | os.PathLike | None = None,
        progress: ProgressHook | None = None,
        probe_impl: str = DEFAULT_BACKEND,
    ) -> None:
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        get_backend(probe_impl)  # fail fast on unknown names
        if jobs is not None and jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = store
        self.progress = progress
        self.probe_impl = probe_impl
        self.stats = EngineRunStats()
        #: Plans of the open run's points not yet received (``None``
        #: outside :meth:`queued`), and the run's pool once it forks.
        self._queue: list[_PointPlan] | None = None
        self._pool: ProcessPoolExecutor | None = None

    # -- observability -------------------------------------------------

    def _emit(self, event: str, **payload) -> None:
        """Fan one engine event out to the obs sink and the progress hook.

        Structured telemetry goes through :func:`repro.obs.emit` (a
        no-op unless instrumentation is enabled with a sink).  The
        legacy dict-based ``progress`` hook still fires for rendering,
        but it can no longer abort a sweep: the first exception it
        raises is converted into a single ``RuntimeWarning`` and the
        hook is disabled for the rest of the run.
        """
        obs.emit(f"engine.{event}", **payload)
        hook = self.progress
        if hook is None:
            return
        try:
            hook({"event": event, **payload})
        except Exception as exc:
            self.progress = None
            warnings.warn(
                f"progress hook raised {exc!r}; "
                "disabling the hook for the rest of this run",
                RuntimeWarning,
                stacklevel=2,
            )

    def _record_shard(self, seconds: float) -> None:
        self.stats.shards_computed += 1
        self.stats.compute_seconds += seconds
        self.stats.shard_seconds_hist.observe(seconds)
        if obs.OBS.enabled:
            obs.counter("engine.shards_computed").inc()
            obs.histogram("engine.shard_seconds").observe(seconds)

    # -- planning --------------------------------------------------------

    def _effective_jobs(self, sets: int) -> int:
        jobs = os.cpu_count() or 1 if self.jobs is None else self.jobs
        return max(1, min(jobs, sets))

    def _key(self, point: PointSpec, start: int, count: int) -> str:
        return shard_key(point, start, count, probe_impl=self.probe_impl)

    def _checkpoint(self, point: PointSpec, start: int, count: int, result) -> None:
        if self.store is not None:
            with obs.span("engine.store.put"):
                payload = shard_kind(point.kind).encode(result)
                self.store.put(
                    self._key(point, start, count), {**payload, "kind": point.kind}
                )

    def _plan(self, point: PointSpec) -> _PointPlan:
        """Split one point into shards and look each up in the store."""
        kind = shard_kind(point.kind)
        jobs = self._effective_jobs(point.sets)
        plan = _PointPlan(point, jobs, plan_shards(point.sets, jobs))
        for start, count in plan.shards:
            cached = None
            if self.store is not None:
                with obs.span("engine.store.get"):
                    cached = self.store.get(self._key(point, start, count))
            if cached is None:
                plan.missing.append((start, count))
                continue
            stamp = cached.get("kind") if isinstance(cached, dict) else None
            if stamp != point.kind:
                raise ReproError(
                    f"stored shard kind {stamp!r} != requested {point.kind!r}"
                )
            plan.cached[start] = kind.decode(cached)
        return plan

    def _schedule(self, plans: list[_PointPlan]) -> None:
        """Pack each point's only missing shard with the ones before it
        (one kind, at most ``PACK_SETS`` sets; a bigger shard is a pack
        of its own), and queue the missing shards of every point that
        has more than one on the run's pool, which forks at the first
        submit."""
        pack = None
        for plan in plans:
            if len(plan.missing) != 1:
                continue
            ((start, count),) = plan.missing
            kind = plan.point.kind
            if pack is None or pack.kind != kind or pack.sets + count > PACK_SETS:
                pack = _Pack(kind)
            plan.pack, plan.slot = pack, len(pack.shards)
            pack.shards.append((plan.point, start, count))
            pack.sets += count
        pooled = [plan for plan in plans if len(plan.missing) > 1]
        if not pooled:
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=max(min(p.jobs, len(p.missing)) for p in pooled)
            )
        collect_metrics = obs.OBS.enabled
        with obs.span(
            "engine.shard.submit", shards=sum(len(p.missing) for p in pooled)
        ):
            for plan in pooled:
                point = plan.point
                plan.submitted = time.time()
                plan.futures = [
                    self._pool.submit(
                        _run_shard_job,
                        point,
                        start,
                        count,
                        collect_metrics,
                        self.probe_impl,
                    )
                    for start, count in plan.missing
                ]

    @contextmanager
    def queued(self, points: Sequence[PointSpec]) -> Iterator[None]:
        """Open one engine run over ``points`` for the block.

        Every point is planned on entry (its store lookups), and the
        run's work is fixed there: the missing shards of every point
        that fans out (``jobs`` > 1, more than one set, more than one
        shard missing) are queued on one process pool before any is
        received, and every other point's missing shard joins an inline
        pack (:meth:`_schedule`).  :meth:`evaluate` then receives the
        points one by one, in any order; the first receipt of any point
        of a pack computes the whole pack.  The pool is shut down when
        the block exits; on an exception, ``KeyboardInterrupt``
        included, shards still queued are cancelled and the workers
        joined first, so no worker outlives the run.
        """
        if self._queue is not None:
            raise ReproError("this engine already has a run open")
        self._queue = []
        try:
            self._queue = [self._plan(point) for point in points]
            self._schedule(self._queue)
            yield
        finally:
            pool, self._pool, self._queue = self._pool, None, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def _take(self, point: PointSpec) -> _PointPlan:
        """The open run's plan for ``point``; a point the run did not
        queue is planned (and its shards scheduled) now."""
        for index, plan in enumerate(self._queue):
            if plan.point == point:
                return self._queue.pop(index)
        plan = self._plan(point)
        self._schedule([plan])
        return plan

    # -- shard execution ----------------------------------------------

    def _run_inline(self, kind: str, shards: list, **fields) -> list:
        """Run ``shards`` of one kind in this process, under one
        ``engine.shard`` span; metrics (if enabled) accumulate straight
        into the parent registry — no transfer step needed."""
        sets = sum(count for _, _, count in shards)
        with obs.span("engine.shard", shards=len(shards), set_count=sets, **fields):
            return shard_kind(kind).run(shards, probe_impl=self.probe_impl)

    def _compute_missing(self, plan: _PointPlan, opened: float) -> dict[int, object]:
        """Compute or receive the uncached shards in ascending order,
        checkpointing each before its ``shard`` event fires.  A shard's
        ``seconds`` run from the previous receipt (or the start of the
        point's receiving) to its own, so a pack's compute time lands on
        the shard whose receipt computed it."""
        point = plan.point
        results: dict[int, object] = {}

        def finish(start: int, count: int, result, seconds: float) -> None:
            self._checkpoint(point, start, count, result)
            self._record_shard(seconds)
            results[start] = result
            self._emit(
                "shard", start=start, count=count, cached=False, seconds=seconds
            )

        pack = plan.pack
        if pack is not None:  # the point's one missing shard, inline
            t0 = time.perf_counter()
            if pack.results is None:
                pack.results = self._run_inline(pack.kind, pack.shards)
            ((start, count),) = plan.missing
            finish(start, count, pack.results[plan.slot], time.perf_counter() - t0)
            return results

        # A later point of a run was queued before its span opened: its
        # shard spans open with the point, not at the submit.
        t_open = max(plan.submitted, opened)
        t0 = time.perf_counter()
        for future, (start, count) in zip(plan.futures, plan.missing):
            span_records = None
            try:
                with obs.span("engine.shard.receive", set_start=start, set_count=count):
                    result, metrics_dump, span_records = future.result()
            except BrokenProcessPool as pool_exc:
                # A crashed worker poisons the whole pool and every
                # pending future, later points' included; salvage each
                # shard by re-running it inline (the shard is
                # self-seeded, so the retry is bit-identical to a
                # worker run).
                self.stats.worker_retries += 1
                if obs.OBS.enabled:
                    obs.counter("engine.worker_retries").inc()
                self._emit(
                    "worker_retry", start=start, count=count, error=repr(pool_exc)
                )
                try:
                    (result,) = self._run_inline(
                        point.kind, [(point, start, count)], set_start=start,
                        retried=True,
                    )
                    metrics_dump = None  # inline retry fed the registry
                except Exception as retry_exc:
                    raise ReproError(
                        f"worker shard [{start}, {start + count}) crashed"
                        f" ({pool_exc!r}) and the inline retry failed"
                    ) from retry_exc
            else:
                # The shard's open->receive window can't be a ``with``
                # block (the windows of concurrent shards overlap), so
                # record it explicitly and re-root the worker's spans
                # under it.
                if obs.OBS.enabled:
                    shard_span = obs.record_span(
                        "engine.shard",
                        start=t_open,
                        seconds=time.time() - t_open,
                        set_start=start,
                        set_count=count,
                    )
                    if span_records:
                        obs.adopt_spans(span_records, shard_span)
            if metrics_dump is not None and obs.OBS.enabled:
                obs.OBS.registry.merge(metrics_dump)
            t1 = time.perf_counter()
            finish(start, count, result, t1 - t0)
            t0 = t1
        return results

    # -- public API ----------------------------------------------------

    def evaluate(self, point: PointSpec):
        """Evaluate one data point, resuming from checkpointed shards.

        Inside :meth:`queued` this receives the point's queued shards; a
        lone call is a one-point run.  Returns ``dict[label,
        SchemeStats]`` (each with its ``wins``) for ``kind="stats"``
        points, the merged campaign payload for ``kind="validate"``
        points and the merged tally for ``kind="dynsim"`` points.
        """
        with obs.span("engine.point", kind=point.kind, sets=point.sets):
            opened = time.time()
            with ExitStack() as run:
                if self._queue is None:
                    run.enter_context(self.queued((point,)))
                return self._receive(self._take(point), opened)

    def _receive(self, plan: _PointPlan, opened: float):
        point = plan.point
        self.stats.points += 1
        self.stats.shards_planned += len(plan.shards)
        # The ETA anchor for live dashboards (repro-mc top): how
        # much work this point holds and how wide it fans out.
        self._emit(
            "point_plan",
            kind=point.kind,
            sets=point.sets,
            shards=len(plan.shards),
            jobs=plan.jobs,
        )
        for start, count in plan.shards:
            if start in plan.cached:
                self.stats.cache_hits += 1
                if obs.OBS.enabled:
                    obs.counter("engine.cache_hits").inc()
                self._emit(
                    "shard", start=start, count=count, cached=True, seconds=0.0
                )
            elif self.store is not None:
                self.stats.cache_misses += 1
                if obs.OBS.enabled:
                    obs.counter("engine.cache_misses").inc()
        results = {**plan.cached, **self._compute_missing(plan, opened)}
        with obs.span("engine.merge", kind=point.kind):
            kind = shard_kind(point.kind)
            return kind.merge(point, [results[start] for start, _ in plan.shards])

    def run(self, spec: ExperimentSpec) -> SweepArtifact:
        """Evaluate a whole figure spec into a :class:`SweepArtifact`."""
        with obs.span("engine.run", figure=spec.figure):
            return self._run(spec)

    def _run(self, spec: ExperimentSpec) -> SweepArtifact:
        for point in spec.points:
            if point.kind != "stats":
                raise ReproError(
                    f"ExperimentSpec points must be kind='stats', got {point.kind!r}"
                )
        rows = []
        self._emit(
            "run_plan",
            figure=spec.figure,
            points=len(spec.points),
            sets_per_point=spec.sets_per_point,
        )
        with self.queued(spec.points):
            for value, point in zip(spec.values, spec.points):
                self._emit(
                    "point", figure=spec.figure, parameter=spec.parameter, value=value
                )
                stats = self.evaluate(point)
                rows.append(
                    PointResult(
                        value=value,
                        config=point.config,
                        schemes=point.schemes,
                        stats=tuple(stats[label] for label in point.labels),
                    )
                )
        return SweepArtifact(
            figure=spec.figure,
            title=spec.title,
            parameter=spec.parameter,
            values=spec.values,
            sets_per_point=spec.sets_per_point,
            seed=spec.seed,
            rows=tuple(rows),
        )
