"""The single-writer coordinator of the admission daemon.

One asyncio task owns all mutation of the live :class:`ServeState`;
handlers only enqueue work and await futures.  Each flush:

* observes ``serve.batch_size`` (the coalescing win: p50 > 1 under load);
* answers every ``/admit`` by running the *offline* partitioner verbatim
  — bit-identical to ``repro-mc``'s batch path by construction, pinned
  by the ``serve-offline`` oracle in :mod:`repro.validate`;
* answers the flush's ``/place`` requests with **one** probe of the
  whole micro-batch (:func:`batch_probe_tasks`: one
  :func:`~repro.partition.backend.probe_request` answered by
  :data:`~repro.partition.backend.BATCH`) against a copy of the
  committed level matrices, then decides placements greedily in
  arrival order, adding each placed task to its core's matrix
  (:func:`~repro.partition.backend.add_tasks`).  After each placement
  on core ``c`` only column ``c`` of the remaining rows is stale, so the
  flush re-probes that one column (``batch_probe_tasks(..., cores=[c])``)
  — bit-identical to a full re-probe, because the batch kernel is
  per-row independent;
* commits its accepted tasks and their cores once
  (:meth:`~repro.serve.state.ServeState.commit`), which runs the same
  additions in the same order on the committed partition.

Placement rule: :func:`~repro.partition.backend.best_core` — the
feasible core whose new Eq.-(9) utilization is smallest (ties to the
lowest core index), i.e. the worst-fit/best-balance choice CA-TPA's
probes are built for.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.analysis.explain import explain_admission, place_rejection_reason
from repro.metrics.core import imbalance_factor
from repro.model import MCTaskSet
from repro.model.io import task_to_dict
from repro.obs.live import LiveMetrics
from repro.obs.runtime import (
    OBS,
    add_span_time,
    current_span_id,
    record_span,
    span,
)
from repro.partition.backend import BATCH, add_tasks, best_core, probe_request
from repro.partition.registry import get_partitioner
from repro.serve.batcher import MicroBatcher, WorkItem
from repro.serve.protocol import (
    AdmitRequest,
    ExplainRequest,
    PlaceRequest,
    ProtocolError,
)
from repro.serve.state import ServeState
from repro.types import ReproError

__all__ = ["Coordinator"]


def batch_probe_tasks(
    level_matrices: np.ndarray,
    taskset: MCTaskSet,
    idx: Sequence[int],
    cores: list[int] | None = None,
) -> np.ndarray:
    """The flush's probe: ``BATCH.answer`` of a
    :func:`~repro.partition.backend.probe_request`, its ``(T, C)``
    Eq.-(15) rows; instrumented, its time goes to the enclosing span's
    ``probe`` bucket.

    A module-level function, so a caller that rebinds this name sees
    every flush call (``perfbench/ledger.py`` does).  Inline it once
    that ledger reads the product's spans instead.
    """
    t0 = time.perf_counter()
    utils = BATCH.answer(probe_request(level_matrices, taskset, idx, cores))[1]
    if OBS.enabled:
        add_span_time("probe", time.perf_counter() - t0)
    return utils


class Coordinator:
    """Drains the batcher; the only writer of ``state``."""

    def __init__(
        self,
        state: ServeState,
        batcher: MicroBatcher,
        live: LiveMetrics | None = None,
    ):
        self.state = state
        self.batcher = batcher
        self.live = live if live is not None else LiveMetrics()

    async def run(self) -> None:
        """Flush batches until the batcher is closed and drained."""
        while (batch := await self.batcher.next_batch()) is not None:
            self.flush(batch)

    # ------------------------------------------------------------------
    def flush(self, batch: list[WorkItem]) -> None:
        """Resolve every future of one micro-batch (synchronous).

        Tracing: the flush is one shared ``serve.flush`` span; every
        request in the batch additionally gets its *own*
        ``serve.request`` span recorded as a child of the flush span,
        carrying its ``request_id`` and the attribution triple
        ``queue_wait`` (ingress → flush start), ``kernel`` (its share of
        probe-kernel time) and ``apply`` (its share of
        assignment/commit time); the span's ``seconds`` is exactly the
        sum of the three and feeds the ``serve.<kind>.seconds`` latency
        histogram.  The flush's stage spans are ``serve.flush.<kind>``,
        so their own ``.seconds`` never mix into those histograms.
        """
        flush_start = time.perf_counter()
        self.live.observe("serve.batch_size", float(len(batch)))
        places = [item for item in batch if item.kind == "place"]
        with span("serve.flush", batch=len(batch)):
            flush_id = current_span_id()
            for item in batch:
                if item.kind in ("admit", "explain"):
                    fn = self._admit if item.kind == "admit" else self._explain
                    t0 = time.perf_counter()
                    self._resolve(item, fn, item.request)
                    self._finish_request(
                        item,
                        flush_start,
                        flush_id,
                        kernel=time.perf_counter() - t0,
                        apply=0.0,
                    )
            if places:
                self._place_flush(places, flush_start, flush_id)

    def _resolve(self, item: WorkItem, fn, *args) -> None:
        if item.future.cancelled():  # pragma: no cover - client went away
            return
        try:
            result = fn(*args)
            if isinstance(result, dict):
                result.setdefault("request_id", item.request_id)
            item.future.set_result(result)
        except ReproError as exc:
            item.future.set_exception(exc)

    def _finish_request(
        self,
        item: WorkItem,
        flush_start: float,
        flush_id: int | None,
        *,
        kernel: float,
        apply: float,
    ) -> None:
        """Record one request's span + latency observations.

        ``seconds`` is constructed as ``queue_wait + kernel + apply`` so
        the three components reconcile with the span total *exactly*
        (pinned in ``tests/serve/test_tracing.py``); each component is a
        real measured interval, so the sum also tracks the request's
        wall-clock latency up to the future-resolution hop.
        """
        queue_wait = max(flush_start - item.enqueued, 0.0)
        seconds = queue_wait + kernel + apply
        self.live.observe(f"serve.{item.kind}.seconds", seconds)
        if OBS.enabled:
            record_span(
                "serve.request",
                start=item.wall,
                seconds=seconds,
                parent_id=flush_id,
                request_id=item.request_id,
                kind=item.kind,
                queue_wait=queue_wait,
                kernel=kernel,
                apply=apply,
            )

    # ------------------------------------------------------------------
    # /admit: the offline partitioner, verbatim
    # ------------------------------------------------------------------
    def _admit(self, req: AdmitRequest) -> dict:
        reg = OBS.registry
        if OBS.enabled:
            reg.counter(f"serve.admit.requests[{req.scheme}]").inc()
        with span("serve.flush.admit", scheme=req.scheme, cores=req.cores):
            result = get_partitioner(req.scheme).partition(req.taskset, req.cores)
        utils = result.partition.core_utilizations()
        if OBS.enabled and result.schedulable:
            reg.counter(f"serve.admit.schedulable[{req.scheme}]").inc()
        return {
            "scheme": result.scheme,
            "cores": req.cores,
            "schedulable": bool(result.schedulable),
            "assignment": result.partition.assignment.tolist(),
            "order": list(result.order),
            "failed_task": result.failed_task,
            "utilizations": utils.tolist(),
            "lambda": float(imbalance_factor(utils)),
        }

    # ------------------------------------------------------------------
    # /explain: the full decision decomposition, scalar kernel, off-path
    # ------------------------------------------------------------------
    def _explain(self, req: ExplainRequest) -> dict:
        if OBS.enabled:
            OBS.registry.counter(f"serve.explain.requests[{req.scheme}]").inc()
        with span("serve.flush.explain", scheme=req.scheme, cores=req.cores):
            # The same call as an offline explain, so the documents
            # match — exactly what scripts/serve_smoke.py asserts.
            exp = explain_admission(req.taskset, req.cores, req.scheme)
        return exp.to_dict()

    # ------------------------------------------------------------------
    # /place: one stacked kernel call per flush
    # ------------------------------------------------------------------
    def _place_flush(
        self,
        places: list[WorkItem],
        flush_start: float,
        flush_id: int | None,
    ) -> None:
        state = self.state
        # Reject tasks the daemon's K cannot express before touching state.
        ready: list[WorkItem] = []
        for item in places:
            task = item.request.task
            if task.criticality > state.levels:
                self._resolve(
                    item,
                    self._raise,
                    ProtocolError(
                        f"task criticality {task.criticality} exceeds the "
                        f"daemon's K={state.levels}"
                    ),
                )
                self._finish_request(
                    item, flush_start, flush_id, kernel=0.0, apply=0.0
                )
            else:
                ready.append(item)
        if not ready:
            return

        new_tasks = [item.request.task for item in ready]
        batch = MCTaskSet(new_tasks, levels=state.levels)
        # Decide on a copy: the committed state changes only in commit().
        committed = state.snapshot.partition
        if committed is None:
            mats = np.zeros((state.cores, state.levels, state.levels))
        else:
            mats = committed.level_matrices().copy()
        rows = batch.criticalities - 1
        umat = batch.utilization_matrix

        place_start = time.perf_counter()
        kernel_total = 0.0
        with span("serve.flush.place", batch=len(ready)):
            # THE kernel call of the flush: every (task, core) hypothesis
            # of the micro-batch in one stacked NumPy pass.
            t0 = time.perf_counter()
            utils = batch_probe_tasks(mats, batch, range(len(ready)))
            kernel_total += time.perf_counter() - t0
            decisions: list[int | None] = []
            reasons: list[dict | None] = []
            for t in range(len(ready)):
                core = best_core(utils[t])
                decisions.append(core)
                if core is None:
                    # Explain the refusal against the exact matrices this
                    # row was probed on (scalar kernel, only for rejected
                    # rows — the accept path is untouched).
                    reasons.append(place_rejection_reason(mats, new_tasks[t]))
                    continue
                reasons.append(None)
                mats[core] = add_tasks(mats[None, [core]], rows[[t]], umat[[t]])[0, 0]
                if t + 1 < len(ready):
                    # Only the chosen core's column went stale: re-probe
                    # that column of the rows still waiting.
                    t0 = time.perf_counter()
                    utils[t + 1 :, [core]] = batch_probe_tasks(
                        mats, batch, range(t + 1, len(ready)), cores=[core]
                    )
                    kernel_total += time.perf_counter() - t0

        accepted = [t for t, core in enumerate(decisions) if core is not None]
        if accepted:
            # Rejected tasks never enter the live set: they were never
            # added to a matrix, so the decisions are unaffected.
            tasks = batch if len(accepted) == len(ready) else batch.subset(accepted)
            state.commit(tasks, [decisions[t] for t in accepted])
        snap_seq = state.snapshot.seq

        # Attribution shares: kernel time is the measured probe-kernel
        # total, apply is everything else in the placement block
        # (matrix updates, commit) — both split evenly across the
        # batch, since the stacked kernel serves all rows at once.
        place_total = time.perf_counter() - place_start
        apply_total = max(place_total - kernel_total, 0.0)
        kernel_share = kernel_total / len(ready)
        apply_share = apply_total / len(ready)

        for item, core, reason in zip(ready, decisions, reasons):
            self.live.inc(
                "serve.place.accepted" if core is not None else "serve.place.rejected"
            )
            self._resolve(
                item, self._place_response, item.request, core, snap_seq, reason
            )
            self._finish_request(
                item,
                flush_start,
                flush_id,
                kernel=kernel_share,
                apply=apply_share,
            )

    def _place_response(
        self,
        req: PlaceRequest,
        core: int | None,
        seq: int,
        reason: dict | None = None,
    ) -> dict:
        body = {
            "task": task_to_dict(req.task),
            "accepted": core is not None,
            "core": core,
            "seq": seq,
        }
        if core is None:
            # Structured refusal: best core + margin and, per core, the
            # first failing Theorem-1 condition (see
            # ``repro.analysis.explain.place_rejection_reason``).
            body["reason"] = reason
        return body

    @staticmethod
    def _raise(exc: Exception) -> None:
        raise exc
