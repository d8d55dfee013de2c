"""Pluggable probe backends: scalar (the reference) and batch (the default).

The probing question of Algorithm 1 — "what would ``U^{Psi_m + tau_i}``
be if task ``i`` joined core ``m``?" — admits two evaluation strategies
with bit-identical answers:

* :class:`ScalarBackend` evaluates one ``(K, K)`` matrix per core with
  :mod:`repro.analysis.edfvd`, lazily along a first-hit row's key
  order — the readable reference;
* :class:`BatchBackend` (:data:`DEFAULT_BACKEND`) answers the candidate
  matrices of a whole placement step — every attempt of one
  ``(K, M, rule)`` stack the lockstep driver (:mod:`repro.partition.base`)
  advances, its Eq.-(15) and its feasibility attempts together, gathered
  into one ``(R, K, K)`` :class:`ProbeRequest` — with one
  :mod:`repro.analysis.batch` kernel call.

Why batch is the only vectorized backend: an incremental backend that
cached probe answers per core version almost never hit, since every
probe follows a placement that changed the partition (``fig1 --sets 30
--seed 2016``, 8 alternating pairs on a 2-vCPU VM: median CPU 9.57 s
against 9.07 s under batch), and the admission daemon's multi-request
``/place`` flush does better without a cache: after a placement on core
``c`` only column ``c`` of the pending rows is stale, so it re-probes
that column alone (``probe_tasks(..., cores=[c])``).

Both that column refresh and the lockstep stack are bit-identical to
probing one task of one partition at a time because the batch kernels
(:func:`~repro.analysis.batch._is_feasible_stack` for a lockstep step,
:func:`~repro.analysis.batch._core_utilization_stack` for ``probe`` and
``probe_tasks``) are per-row independent: every operation is
elementwise along the stack, and which rows run the Theorem-1 chain
depends on each row alone.  Evaluating any sub- or super-stack of
candidate matrices therefore reproduces the matching rows bit for bit.
The validate campaign pins scalar == batch end to end.  The kernels are
called through this module's names, so a caller that wraps them here
sees every stacked call.

Every caller holds its backend explicitly: the lockstep driver takes
one as an argument (default :data:`BATCH`, the registered batch
instance), and ``--probe-impl`` names one through the registry below.
Unknown names raise :class:`repro.types.ModelError` (a
:class:`~repro.types.ReproError`), never a bare ``KeyError``.

Instrumentation mirrors the historical probe counters:
``probe.calls.<impl>`` counts probed tasks (under the asking attempt's
scheme tag), ``probe.cores_probed`` the (task, core) hypotheses
evaluated, ``probe.infeasible_cores`` the Theorem-1 failures among
them, and feasibility probes attribute every core to its
``theorem1.*`` admission path.  ``partition.lockstep.rows`` observes
the rows of every stacked kernel call (one per lockstep step).
"""

from __future__ import annotations

import abc
import math
import time
from typing import NamedTuple, Sequence

import numpy as np

from repro.analysis.batch import (
    _avail_levels,
    _core_utilization_stack,
    _is_feasible_stack,
    _level_trace,
)
from repro.analysis.edfvd import check_eq9_rule, core_utilization
from repro.analysis.feasibility import is_feasible_core
from repro.model.partition import Partition
from repro.obs.runtime import OBS, add_span_time, scheme_tag
from repro.types import EPS, INFEASIBLE, ModelError, PartitionError, fits_unit_capacity

__all__ = [
    "BATCH",
    "DEFAULT_BACKEND",
    "FEASIBLE",
    "ProbeBackend",
    "ProbeRequest",
    "ScalarBackend",
    "BatchBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "candidate_level_matrix",
    "probe_core_utilization",
    "probe_feasible",
]

#: :attr:`~repro.partition.base.Partitioner.kind` of a scheme that asks
#: for feasibility rows; the other kinds are the Eq.-(9) rules
#: (``"max"`` / ``"min"``) of an Eq.-(15) utilization probe.
FEASIBLE = "feasible"


# ----------------------------------------------------------------------
# Instrumentation recorders (touched only when OBS.enabled)
# ----------------------------------------------------------------------
def _tagged(name: str) -> str:
    """Append the active scheme tag: ``theorem1.eq4_pass[ca-tpa]``."""
    scheme = OBS.scheme
    return f"{name}[{scheme}]" if scheme else name


def _record_utilization_probe(
    impl: str, new_utils: np.ndarray, calls: int = 1
) -> None:
    """Count Eq.-(15) probe evaluations (one per task) and infeasible cores."""
    reg = OBS.registry
    reg.counter(_tagged(f"probe.calls.{impl}")).inc(int(calls))
    reg.counter("probe.cores_probed").inc(int(new_utils.size))
    reg.counter("probe.infeasible_cores").inc(
        int(np.count_nonzero(~np.isfinite(new_utils)))
    )


def _record_feasibility_stack(
    stack: np.ndarray, feasible: np.ndarray, impl: str = "batch", calls: int = 1
) -> None:
    """Count ``calls`` feasibility probes and attribute every core to its
    admission path.

    ``eq4_pass`` counts cores admitted by the Eq.-(4) trace test alone;
    ``admitted`` counts cores that failed Eq. (4) but passed the
    Theorem-1 chain, broken down by the first condition ``k`` of
    Ineq. (5) with non-negative available utilization;  ``rejected``
    counts cores that failed both.
    """
    reg = OBS.registry
    reg.counter(_tagged(f"probe.calls.{impl}")).inc(int(calls))
    reg.counter("probe.cores_probed").inc(int(feasible.size))
    eq4 = fits_unit_capacity(_level_trace(stack))
    reg.counter(_tagged("theorem1.eq4_pass")).inc(int(np.count_nonzero(eq4)))
    reg.counter(_tagged("theorem1.rejected")).inc(
        int(np.count_nonzero(~feasible))
    )
    admitted = feasible & ~eq4
    n_admitted = int(np.count_nonzero(admitted))
    reg.counter(_tagged("theorem1.admitted")).inc(n_admitted)
    if n_admitted:
        with np.errstate(divide="ignore", invalid="ignore"):
            avail = _avail_levels(stack[admitted])
        first = np.argmax(avail >= -EPS, axis=0)
        for k in np.unique(first):
            reg.counter(_tagged(f"theorem1.cond_pass.k{int(k) + 1}")).inc(
                int(np.count_nonzero(first == k))
            )


# ----------------------------------------------------------------------
# Scalar primitives (one core at a time)
# ----------------------------------------------------------------------
def candidate_level_matrix(
    partition: Partition, core: int, task_index: int
) -> np.ndarray:
    """Level matrix of core ``core`` if ``task_index`` were added to it."""
    taskset = partition.taskset
    mat = partition.level_matrix(core).copy()
    crit = int(taskset.criticalities[task_index])
    mat[crit - 1, :crit] += taskset.utilization_matrix[task_index, :crit]
    return mat


def _scalar_answer(mat: np.ndarray, rule: str | None):
    """One counted probe: Eq.-(15) under ``rule``, or feasibility (None)."""
    if rule is None:
        feasible = is_feasible_core(mat)
        if OBS.enabled:
            _record_feasibility_stack(mat[None], np.array([feasible]), "scalar")
        return feasible
    new_util = core_utilization(mat, rule=rule)
    if OBS.enabled:
        _record_utilization_probe("scalar", np.array([new_util]))
    return new_util


def probe_core_utilization(partition: Partition, core: int, task_index: int) -> float:
    """Hypothetical new core utilization ``U^{Psi_m + tau_i}`` (Eq. (15)).

    ``inf`` (:data:`repro.types.INFEASIBLE`) when the enlarged subset
    fails Theorem 1, per Eq. (15a); Eq. (9) aggregates with ``max``.
    """
    return _scalar_answer(candidate_level_matrix(partition, core, task_index), "max")


def probe_feasible(partition: Partition, core: int, task_index: int) -> bool:
    """Would the enlarged subset pass the Eq.(4)-or-Theorem-1 test?"""
    return _scalar_answer(candidate_level_matrix(partition, core, task_index), None)


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
def _columns(partition: Partition, cores: Sequence[int] | None) -> np.ndarray:
    """The probed core indices: every core, or a checked selection."""
    if cores is None:
        return np.arange(partition.cores)
    cols = np.asarray(cores, dtype=np.int64)
    m = partition.cores
    if cols.ndim != 1 or not all(0 <= c < m for c in cols.tolist()):
        raise PartitionError(
            f"cores must be a 1-D selection of [0, {partition.cores}), "
            f"got {np.asarray(cores).tolist()}"
        )
    return cols


class ProbeRequest(NamedTuple):
    """One placement step of ``A`` attempts that share ``K`` and ``M``:
    the first :attr:`split` ask for Eq.-(15) rows under :attr:`rule`,
    the rest for feasibility rows."""

    #: ``(A * M, K, K)``: attempt ``a``'s task added to each of its cores
    #: (rows ``a * M .. a * M + M - 1``); read-only to the backend (the
    #: driver keeps the placed rows as the attempts' new state).
    stack: np.ndarray
    #: ``(A, M)`` first-hit keys: the row is read lazily along
    #: ``argsort(key, kind="stable")`` up to its first admitting core; a
    #: ``nan`` row asks for every core.
    keys: np.ndarray
    #: The asking attempts' scheme names: the tags of their counters.
    schemes: Sequence[str]
    #: The Eq.-(9) rule of the leading attempts' Eq.-(15) rows.
    rule: str = "max"
    #: How many leading attempts ask for Eq.-(15) rows (none by default:
    #: a pure feasibility request).
    split: int = 0


class ProbeBackend(abc.ABC):
    """One strategy for answering every probe the heuristics can ask.

    Implementations must be bit-identical to each other for every
    method: the schemes (and the admission daemon) switch backends
    without changing a single placement decision.  :meth:`answer` serves
    the lockstep driver, one call per step; ``probe``/``probe_tasks``
    serve the daemon and benchmarks under Eq. (9)'s ``max`` rule.
    """

    #: Registry name; also the value of the ``--probe-impl`` flag.
    name: str = ""

    @abc.abstractmethod
    def answer(self, request: ProbeRequest) -> tuple[np.ndarray, np.ndarray]:
        """``(admits, utilizations)`` for every row of ``request``:
        ``(A, M)`` bools, whether each core admits the attempt's task,
        and ``(split, M)`` Eq.-(15) floats of the leading attempts
        (``inf`` = infeasible; such a core admits where its value is
        finite).  A lazy backend leaves entries past a first-hit row's
        first admitting core refused."""

    @abc.abstractmethod
    def probe(self, partition: Partition, task_index: int) -> np.ndarray:
        """Eq.-(15) probe of one task against every core: ``(M,)`` floats."""

    @abc.abstractmethod
    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        cores: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Eq.-(15) probes of several tasks: ``(T, C)`` floats.

        Column ``c`` probes core ``cores[c]`` (every core, ``C = M``,
        when ``cores`` is ``None``).  Each entry is bit-identical to the
        matching entry of the full ``(T, M)`` grid, so a caller that
        mutated one core can re-probe just that core's column.
        """


# ----------------------------------------------------------------------
# Scalar backend: one (K, K) matrix per core, lazy first-hit order
# ----------------------------------------------------------------------
class ScalarBackend(ProbeBackend):
    """Per-core scalar evaluation via :mod:`repro.analysis.edfvd`."""

    name = "scalar"

    def answer(self, request: ProbeRequest) -> tuple[np.ndarray, np.ndarray]:
        # Row by row, lazily along each first-hit key order: the
        # historical behaviour (and probe counters) of the first-hit
        # schemes.
        check_eq9_rule(request.rule)
        keys, split = request.keys, request.split
        mats = request.stack.reshape(keys.shape + request.stack.shape[1:])
        admits = np.zeros(keys.shape, dtype=bool)
        utils = np.full((split, keys.shape[1]), INFEASIBLE)
        for a, name in enumerate(request.schemes):
            rule = request.rule if a < split else None
            lazy = not math.isnan(keys[a, 0])
            order = np.argsort(keys[a], kind="stable") if lazy else range(len(keys[a]))
            with scheme_tag(name):
                for m in order:
                    value = _scalar_answer(mats[a, m], rule)
                    if rule is not None:
                        utils[a, m] = value
                        value = math.isfinite(value)
                    admits[a, m] = value
                    if lazy and value:
                        break
        return admits, utils

    def probe(self, partition: Partition, task_index: int) -> np.ndarray:
        # Counters accrue inside the scalar primitive, one per core.
        return np.array(
            [
                probe_core_utilization(partition, m, task_index)
                for m in range(partition.cores)
            ],
            dtype=np.float64,
        )

    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        cores: Sequence[int] | None = None,
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        cols = _columns(partition, cores)
        return np.array(
            [
                [probe_core_utilization(partition, int(m), int(i)) for m in cols]
                for i in idx
            ],
            dtype=np.float64,
        ).reshape(idx.size, cols.size)


# ----------------------------------------------------------------------
# Batch backend: every request of a step in one stacked kernel call
# ----------------------------------------------------------------------
class BatchBackend(ProbeBackend):
    """Stacked ``(R, K, K)`` evaluation via :mod:`repro.analysis.batch`."""

    name = "batch"

    def answer(self, request: ProbeRequest) -> tuple[np.ndarray, np.ndarray]:
        stack, keys, split = request.stack, request.keys, request.split
        check_eq9_rule(request.rule)
        admits, utils = _is_feasible_stack(stack, request.rule, split * keys.shape[1])
        admits, utils = admits.reshape(keys.shape), utils.reshape(split, keys.shape[1])
        if OBS.enabled:
            OBS.registry.histogram("partition.lockstep.rows").observe(len(stack))
            # Counters under each attempt's own scheme tag: exactly what
            # probing the attempts one at a time records.
            names = np.asarray(request.schemes, dtype=object)
            per_attempt = stack.reshape(keys.shape + stack.shape[1:])
            for name in dict.fromkeys(request.schemes):
                mine = names == name
                rule, feas = mine[:split], mine[split:]
                with scheme_tag(name):
                    if rule.any():
                        _record_utilization_probe(
                            "batch", utils[rule], calls=int(rule.sum())
                        )
                    if feas.any():
                        _record_feasibility_stack(
                            per_attempt[split:][feas].reshape((-1,) + stack.shape[1:]),
                            admits[split:][feas].ravel(),
                            calls=int(feas.sum()),
                        )
        return admits, utils

    def probe(self, partition: Partition, task_index: int) -> np.ndarray:
        if OBS.enabled:
            t0 = time.perf_counter()
            new_utils = _core_utilization_stack(
                partition.candidate_stack(task_index), "max"
            )
            add_span_time("probe", time.perf_counter() - t0)
            _record_utilization_probe("batch", new_utils)
            return new_utils
        return _core_utilization_stack(partition.candidate_stack(task_index), "max")

    def probe_tasks(
        self,
        partition: Partition,
        task_indices: Sequence[int],
        cores: Sequence[int] | None = None,
    ) -> np.ndarray:
        idx = np.asarray(task_indices, dtype=np.int64)
        cols = _columns(partition, cores)
        if idx.size == 0:
            return np.empty((0, cols.size), dtype=np.float64)
        if OBS.enabled:
            t0 = time.perf_counter()
        stacks = partition.candidate_stacks(idx, None if cores is None else cols)
        new_utils = _core_utilization_stack(
            stacks.reshape((-1,) + stacks.shape[2:]), "max"
        ).reshape(idx.size, cols.size)
        if OBS.enabled:
            add_span_time("probe", time.perf_counter() - t0)
            _record_utilization_probe("batch", new_utils, calls=idx.size)
        return new_utils


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, ProbeBackend] = {}

#: The backend every probe runs on unless ``--probe-impl`` names another:
#: the engine's shards and shard keys default to this one name.
DEFAULT_BACKEND = "batch"


def register_backend(backend: ProbeBackend) -> ProbeBackend:
    """Register a backend instance under its :attr:`ProbeBackend.name`."""
    if not backend.name:
        raise ModelError("probe backend must define a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered probe backend."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> ProbeBackend:
    """Look up a backend by name; unknown names raise :class:`ModelError`."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ModelError(
            f"unknown probe implementation {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None


register_backend(ScalarBackend())
#: The registered batch instance (:data:`DEFAULT_BACKEND`): what the
#: lockstep driver, the serve flush and the explain layer probe on.
BATCH = register_backend(BatchBackend())
