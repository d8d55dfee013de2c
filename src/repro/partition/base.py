"""Partitioner interface, the placement rule, and the lockstep driver.

Every heuristic is a :class:`Partitioner`: it orders the tasks, then
places one per *step* by a rule stated once, as array data: the probe
:attr:`~Partitioner.kind`, the first-hit key weights of
:meth:`~Partitioner.weights` and the Eq.-(16) threshold
:attr:`~Partitioner.alpha`.  A scheme carries per-core ``loads``: the
Eq.-(4) sum of ``u_i(l_i)`` under feasibility requests, the Eq.-(9)
core utilization (the placed core's Eq.-(15) answer) under rule ones.

:func:`partition_lockstep` holds every live attempt in stacked arrays,
one set per ``(K, M, rule)``: the Eq.-(15) attempts under that Eq.-(9)
rule first, then the feasibility attempts.  Each step makes one
candidate-stack add (:func:`~repro.partition.backend.add_tasks`, the add
of every probe request), one backend ``answer`` (one kernel call under
batch) for both kinds, one vectorized pick, and one fancy-indexed write
of the placed candidates.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.model.partition import Partition
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS, record_span, scheme_tag
from repro.partition.backend import (
    BATCH,
    FEASIBLE,
    ProbeBackend,
    ProbeRequest,
    add_tasks,
)
from repro.types import EPS, PartitionError

__all__ = ["FEASIBLE", "TIE_EPS", "Partitioner", "PartitionResult",
           "min_increment", "partition_lockstep"]

#: Increments closer than this are treated as equal so that exact ties
#: (which differ only by float round-off of Eq. (9)) deterministically go
#: to the lower core index, as Algorithm 1 specifies.
TIE_EPS: float = 1e-9


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one partitioning attempt.

    Attributes
    ----------
    scheme:
        Registry name of the heuristic that produced this result.
    schedulable:
        True iff every task was placed on a core that passes the
        EDF-VD schedulability test.
    partition:
        The (possibly partial, when ``schedulable`` is False) partition.
    order:
        Task indices in the order the heuristic processed them.
    failed_task:
        Index of the first unplaceable task, or ``None`` on success.
    """

    scheme: str
    schedulable: bool
    partition: Partition
    order: tuple[int, ...]
    failed_task: int | None = None
    _core_utils: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def assignment(self) -> np.ndarray:
        """Task -> core index vector (-1 for unassigned)."""
        return self.partition.assignment

    def core_utilizations(self) -> np.ndarray:
        """Per-core EDF-VD core utilizations ``U^{Psi_m}`` (Eq. (9)).

        Empty cores have utilization 0.  May contain ``inf`` for a
        partial/failed partition whose last probed state was infeasible
        (never for a ``schedulable`` result).
        """
        if self._core_utils is not None:
            return self._core_utils.copy()
        return self.partition.core_utilizations()


class Partitioner(abc.ABC):
    """Base class for task-to-core partitioning heuristics."""

    #: Registry name; subclasses override.
    name: str = "abstract"
    #: What every step asks the backend: :data:`FEASIBLE`, or the
    #: Eq.-(9) rule of an Eq.-(15) row.
    kind: str = FEASIBLE
    #: Eq.-(16) threshold: a step whose loaded cores' imbalance
    #: ``(max - min) / max`` load exceeds it takes ``w = +1`` (the
    #: least-loaded admitting core); ``None`` never overrides.
    alpha: float | None = None

    @abc.abstractmethod
    def order_tasks(self, taskset: MCTaskSet) -> list[int]:
        """The order in which tasks are offered to cores."""

    @abc.abstractmethod
    def weights(self, criticalities: np.ndarray) -> np.ndarray:
        """Each step's key weight ``w``, given the placed tasks' ``l_i``:
        the task goes to the admitting core of least ``w * loads``, lowest
        index first (0: first fit, +1: worst fit, -1: best fit); ``nan``
        takes the minimum increment (:func:`min_increment`, rule kinds)."""

    def partition(self, taskset: MCTaskSet, cores: int) -> PartitionResult:
        """Run the heuristic over the whole task set (the lockstep driver
        over one attempt, on the batch backend); stops at the first
        unplaceable task, as Algorithm 1 does."""
        return partition_lockstep([(self, taskset, cores)])[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def min_increment(rows: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """CA-TPA's core per row by Algorithm 1's scan of the Eq.-(14)
    increments ``rows - loads``: a core wins if more than :data:`TIE_EPS`
    below the best so far.  Below the least earlier increment minus
    ``TIE_EPS`` a core always wins, at or above it never, so only rows
    with an increment in between (a near tie) are scanned core by core."""
    increments = rows - loads
    before = np.full_like(increments, np.inf)
    np.fmin.accumulate(increments[:, :-1], axis=1, out=before[:, 1:])
    wins, below = increments < before - TIE_EPS, increments < before
    core = (wins * np.arange(rows.shape[1])).argmax(axis=1)  # the last win
    near = () if np.count_nonzero(below) == np.count_nonzero(wins) else (
        np.flatnonzero((below != wins).any(axis=1)))
    for i in near:
        best = np.inf
        for m, increment in enumerate(increments[i].tolist()):
            if increment < best - TIE_EPS:
                best, core[i] = increment, m
    return core


def _imbalance_exceeded(loads, loaded, alpha) -> np.ndarray:
    """Eq. (16) per attempt over its loaded cores (an empty system, or
    one loaded to at most ``EPS``, is balanced).  Idle cores carry load
    0, never above a loaded core's, so the plain row max is ``U_sys``."""
    u_sys = np.maximum.reduce(loads, axis=1)
    u_min = np.minimum.reduce(np.where(loaded, loads, np.inf), axis=1)
    imbalance = (u_sys - u_min) / np.maximum(u_sys, EPS)
    return (u_sys > EPS) & (imbalance > alpha)


class _Stack:
    """The live attempts of one ``(K, M, rule)``: row ``i`` is job
    ``ids[i]`` until it finishes; rows below ``split`` ask for Eq.-(15)
    rows under ``rule``, the rest for feasibility rows.  ``tasks`` (rows
    of ``umat``, ``row`` and ``umax``), ``w`` and ``picked`` (the chosen
    core) go by step."""

    _ROWS = ("ids", "n", "mats", "loads", "loaded", "picked", "tasks", "w",
             "offset", "alpha", "names")

    def __init__(self, rule: str, members: list, orders: list):
        (_, _, taskset, cores), a = members[0], len(members)
        self.rule, self.cores, k = rule, cores, taskset.levels
        self.split = sum(s.kind != FEASIBLE for _, s, *_ in members)
        tasksets = list({id(ts): ts for _, _, ts, _ in members}.values())
        starts = dict(zip(map(id, tasksets), np.cumsum([0] + list(map(len, tasksets)))))
        # Each task's candidate add: its full utilization row, in row l_i.
        self.umat = np.concatenate([ts.utilization_matrix for ts in tasksets])
        self.row = np.concatenate([ts.criticalities for ts in tasksets]) - 1
        self.umax = self.umat.max(axis=1)
        self.ids = np.array([job for job, *_ in members])
        self.n = np.array([len(orders[job]) for job in self.ids])
        self.offset = np.array([starts[id(ts)] for _, _, ts, _ in members])
        self.mats, self.loads = np.zeros((a, cores, k, k)), np.zeros((a, cores))
        self.loaded = np.zeros((a, cores), dtype=bool)
        # Small dtypes: every weight (0, +1, -1, nan) is exact in float32.
        self.picked, self.tasks = (np.zeros((a, self.n.max()), np.int32) for _ in "pt")
        self.w = np.zeros((a, self.n.max()), np.float32)
        for i, (job, scheme, taskset, _) in enumerate(members):
            order = orders[job]
            self.tasks[i, : order.size] = order + self.offset[i]
            self.w[i, : order.size] = scheme.weights(taskset.criticalities[order])
        alphas = [np.inf if s.alpha is None else s.alpha for _, s, *_ in members]
        self.alpha = np.array(alphas)
        self.names = np.array([s.name for _, s, *_ in members], dtype=object)
        self._reshaped()

    def _reshaped(self) -> None:
        a, m, k = self.mats.shape[:3]
        self.base = np.arange(a) * m  # flat row i * M + c: core c of row i
        self.flat_mats = self.mats.reshape(a * m, k * k)
        self.end = int(self.n.min())
        self.override = bool(np.isfinite(self.alpha).any())

    def step(self, s: int, backend: ProbeBackend, clock=None):
        """Place step ``s``'s task of every row; returns the finished rows
        as ``(rows, placed)`` (or ``None``) and the answer's time."""
        loads, lead = self.loads, self.split
        w = self.w[:, s]
        if self.override:  # only Eq.-(15) rows carry a finite alpha
            w = w.astype(np.float64)
            over = _imbalance_exceeded(loads[:lead], self.loaded[:lead], self.alpha[:lead])
            w[:lead][over] = 1.0
        keys = w[:, None] * loads
        tasks = self.tasks[:, s]
        cand = add_tasks(self.mats, self.row[tasks], self.umat[tasks])
        request = ProbeRequest(cand.reshape((-1,) + cand.shape[2:]), keys,
                               self.names, self.rule, lead)
        if clock:  # one observation per step: the rows of its one call
            OBS.registry.histogram("partition.lockstep.rows").observe(
                len(request.stack))
        t0 = clock() if clock else 0.0
        ok, utils = backend.answer(request)
        probe_s = clock() - t0 if clock else 0.0
        hit = np.logical_or.reduce(ok, axis=1)
        # Eq.-(15) rows of weight nan take the minimum increment; every
        # other row its first hit.
        scan = np.isnan(w[:lead]) if lead else None
        scans = np.count_nonzero(scan) if lead else 0
        if scans < len(w):
            target = np.where(ok, keys, np.inf).argmin(axis=1)
        if scans:
            least = min_increment(utils, loads[:lead])
            if scans == len(w):
                target = least
            else:
                target[:lead] = least if scans == lead else (
                    np.where(scan, least, target[:lead]))
        base, placed, rows = self.base, np.count_nonzero(hit), slice(None)
        ranked = lead  # the placed Eq.-(15) rows lead
        if placed < len(base):
            ranked = np.count_nonzero(hit[:lead]) if lead else 0
            rows, target, base, tasks = hit, target[hit], base[hit], tasks[hit]
        flat = base + target  # the placed cores' candidates become state
        self.flat_mats[flat] = cand.reshape(self.flat_mats.shape).take(flat, axis=0)
        if self.override:
            np.put(self.loaded, flat, True)
        self.picked[rows, s] = target
        if ranked:  # Eq.-(15) rows take the answer, the rest add u_i(l_i)
            np.put(loads, flat[:ranked], utils.take(flat[:ranked]))
        if ranked < len(flat):
            loads.reshape(-1)[flat[ranked:]] += self.umax[tasks[ranked:]]
        if s + 1 < self.end and placed == len(w):
            return None, probe_s
        done = ~hit | (self.n == s + 1)
        return (np.flatnonzero(done), hit[done]), probe_s

    def result(self, i: int, s: int, placed: bool, jobs, orders) -> PartitionResult:
        """Row ``i``'s result, finished at step ``s``: its partition owns
        copies of its slice (sums in placement order, as stepped)."""
        job = int(self.ids[i])
        (scheme, taskset, _), order = jobs[job], orders[job]
        picked = self.picked[i, : s + placed]
        assignment = np.full(len(taskset), -1, dtype=np.int64)
        assignment[self.tasks[i, : s + placed] - self.offset[i]] = picked
        counts = np.bincount(picked, minlength=self.cores)
        part = Partition._from_state(taskset, assignment, self.mats[i].copy(), counts)
        utils = self.loads[i].copy() if placed and i < self.split else None
        failed = None if placed else int(order[s])
        return PartitionResult(scheme.name, placed, part, tuple(order.tolist()),
                               failed, utils)

    def drop(self, done: np.ndarray) -> None:
        if len(done) == len(self.ids):
            self.ids = self.ids[:0]
            return
        keep = np.ones(len(self.ids), dtype=bool)
        keep[done] = False
        self.split = int(np.count_nonzero(keep[: self.split]))
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[keep])
        self._reshaped()


def partition_lockstep(
    jobs: Sequence[tuple[Partitioner, MCTaskSet, int]],
    backend: ProbeBackend = BATCH,
) -> list[PartitionResult]:
    """Partition every ``(scheme, taskset, cores)`` job in lockstep,
    every probe answered by ``backend``.

    Results come back in job order, each field for field what
    ``scheme.partition(taskset, cores)`` returns alone; task orders are
    drawn in job order, as sequential calls would draw them.  When
    instrumented, each attempt records its outcome counters and a
    scheme-tagged ``partition.attempt`` span (``error`` if unfinished).
    """
    orders, groups = [], {}
    for job, (scheme, taskset, cores) in enumerate(jobs):
        if cores < 1:
            raise PartitionError(f"core count must be >= 1, got {cores}")
        order, n = np.asarray(scheme.order_tasks(taskset)), len(taskset)
        if (order.dtype.kind not in "iu" or order.shape != (n,)
                or not (np.sort(order) == np.arange(n)).all()):
            raise PartitionError(
                f"{scheme.name}: order_tasks must return a permutation of all tasks"
            )
        orders.append(order)
        rule = "max" if scheme.kind == FEASIBLE else scheme.kind
        groups.setdefault((taskset.levels, int(cores), rule), []).append(
            (job, scheme, taskset, int(cores)))
    results: list[PartitionResult | None] = [None] * len(jobs)
    clock = time.perf_counter if OBS.enabled else None
    # Per attempt: its share of step time, of answer time, and of steps.
    start, shares = time.time(), np.zeros((3, len(jobs)))
    try:
        for (_, _, rule), members in groups.items():
            # Eq.-(15) attempts first: a leading slice of every array.
            members.sort(key=lambda member: member[1].kind == FEASIBLE)
            stack, s = _Stack(rule, members, orders), 0
            while len(stack.ids):
                t0, ids = clock() if clock else 0.0, stack.ids
                finished, probe_s = stack.step(s, backend, clock)
                if finished is not None:
                    for i, placed in zip(*finished):
                        results[ids[i]] = stack.result(i, s, bool(placed), jobs, orders)
                    stack.drop(finished[0])
                if clock:
                    took = np.array([[clock() - t0], [probe_s], [len(ids)]])
                    shares[:, ids] += took / len(ids)
                s += 1
    finally:
        if clock:
            for job, (scheme, _, _) in enumerate(jobs):
                _record_attempt(scheme.name, results[job], start, *shares[:, job])
    return results


def _record_attempt(name, result, start, seconds, probe_seconds, calls) -> None:
    """Outcome counters, and a scheme-tagged ``partition.attempt``
    record (attempts interleave) with a synthetic ``probe`` child."""
    if result is not None:
        reg, placed = OBS.registry, int(np.count_nonzero(result.assignment >= 0))
        reg.counter(f"partition.attempts[{name}]").inc()
        reg.counter(f"partition.tasks_placed[{name}]").inc(placed)
        if not result.schedulable:
            reg.counter(f"partition.failures[{name}]").inc()
    with scheme_tag(name):
        span_id = record_span("partition.attempt", start=start,
                              seconds=float(seconds), error=result is None)
        if calls:
            record_span("probe", start=start, seconds=float(probe_seconds),
                        parent_id=span_id, calls=round(calls), synthetic=True)
