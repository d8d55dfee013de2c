"""Pluggable probe backends: scalar (the reference) and batch (the default).

Algorithm 1 asks one question at every placement step — "what would
``U^{Psi_m + tau_i}`` be if task ``i`` joined core ``m``?" (Eq. (15)) —
and every caller asks it one way: a :class:`ProbeRequest` of candidate
level matrices, answered by :meth:`ProbeBackend.answer`.

* The lockstep driver (:mod:`repro.partition.base`) asks once per
  placement step for every attempt of one ``(K, M, rule)`` stack, its
  Eq.-(15) and its feasibility attempts together.
* The admission daemon's ``/place`` flush and the event runtime's
  placements ask :func:`probe_request`: tasks of a task set against
  per-core level matrices, every core or a selection, Eq.-(15) rows
  under ``max``, each row read whole; :func:`best_core` takes the
  feasible core of least value.

Both build their candidates with the one add :func:`add_tasks`.  Two
backends answer, bit-identically:

* :class:`ScalarBackend` evaluates one ``(K, K)`` matrix per core with
  :mod:`repro.analysis.edfvd`, lazily along a first-hit row's key
  order — the readable reference;
* :class:`BatchBackend` (:data:`DEFAULT_BACKEND`) answers the whole
  ``(R, K, K)`` request with one :mod:`repro.analysis.batch` kernel
  call.

Why batch is the only vectorized backend: an incremental backend that
cached probe answers per core version almost never hit, since every
probe follows a placement that changed the partition (``fig1 --sets 30
--seed 2016``, 8 alternating pairs on a 2-vCPU VM: median CPU 9.57 s
against 9.07 s under batch), and the admission daemon's multi-request
``/place`` flush does better without a cache: after a placement on core
``c`` only column ``c`` of the pending rows is stale, so it re-probes
that column alone (``probe_request(mats, taskset, rows, cores=[c])``).

Both that column refresh and the lockstep stack are bit-identical to
probing one task of one partition at a time because the batch kernel
(:func:`~repro.analysis.batch._is_feasible_stack`) is per-row
independent: every operation is elementwise along the stack, and which
rows run the Theorem-1 chain depends on each row alone.  Evaluating any
sub- or super-stack of candidate matrices therefore reproduces the
matching rows bit for bit.  The validate campaign pins scalar == batch
end to end.  The kernel is called through this module's name, so a
caller that wraps it here sees every stacked call.

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
``theorem1.*`` admission path.
"""

from __future__ import annotations

import abc
import math
from typing import NamedTuple, Sequence

import numpy as np

# ``_core_utilization_stack`` is bound here although no backend calls it:
# ``perfbench/ledger.py`` rebinds both kernel names on this module with
# ``getattr``, and a missing name would stop its traced runs.
from repro.analysis.batch import (
    _avail_levels,
    _core_utilization_stack,  # noqa: F401
    _is_feasible_stack,
    _level_trace,
)
from repro.analysis.edfvd import check_eq9_rule, core_utilization
from repro.analysis.feasibility import is_feasible_core
from repro.model.taskset import MCTaskSet
from repro.obs.runtime import OBS, scheme_tag
from repro.types import EPS, INFEASIBLE, ModelError, PartitionError, fits_unit_capacity

__all__ = [
    "BATCH",
    "DEFAULT_BACKEND",
    "FEASIBLE",
    "ProbeBackend",
    "ProbeRequest",
    "ScalarBackend",
    "BatchBackend",
    "add_tasks",
    "best_core",
    "probe_request",
    "register_backend",
    "get_backend",
    "available_backends",
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
# The request and its builder
# ----------------------------------------------------------------------
class ProbeRequest(NamedTuple):
    """One question of ``A`` attempts that share ``K`` and ``M``: the
    first :attr:`split` ask for Eq.-(15) rows under :attr:`rule`, the
    rest for feasibility rows."""

    #: ``(A * M, K, K)``: attempt ``a``'s task added to each of its cores
    #: (rows ``a * M .. a * M + M - 1``); read-only to the backend (the
    #: lockstep driver keeps the placed rows as the attempts' new state).
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


def add_tasks(mats: np.ndarray, rows: np.ndarray, utils: np.ndarray) -> np.ndarray:
    """``(A, M, K, K)`` candidates: attempt ``a``'s task added to every
    core of ``mats`` (``(A, M, K, K)``, or ``(1, M, K, K)`` shared), its
    full utilization row ``utils[a]`` into row ``rows[a]`` (``l_i - 1``).

    Adding the full row is exact: it is 0 above ``l_i``, and adding 0 to
    a non-negative sum leaves it bit for bit.
    """
    delta = np.zeros((len(rows), 1) + mats.shape[2:])
    delta[np.arange(len(rows)), 0, rows] = utils
    return mats + delta


def probe_request(
    level_matrices: np.ndarray,
    taskset: MCTaskSet,
    task_indices: Sequence[int],
    cores: Sequence[int] | None = None,
) -> ProbeRequest:
    """Eq.-(15) rows under ``max`` for ``task_indices`` of ``taskset``
    against the ``(M, K, K)`` per-core ``level_matrices``.

    Each task is added to every core, or to each of ``cores``; ``nan``
    keys read every core.  The answer's utilizations are ``(T, C)``:
    column ``c`` probes core ``cores[c]`` (every core, ``C = M``, when
    ``cores`` is ``None``), bit-identical to the matching column of the
    full grid — so a caller that changed one core re-asks that column.
    Counters carry the scheme tag active when the request is built.
    """
    idx = np.asarray(task_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise PartitionError("task_indices must be a 1-D sequence")
    mats = level_matrices
    if cores is not None:
        cols = np.asarray(cores, dtype=np.int64)
        if cols.ndim != 1 or not all(0 <= c < len(mats) for c in cols.tolist()):
            raise PartitionError(
                f"cores must be a 1-D selection of [0, {len(mats)}), "
                f"got {np.asarray(cores).tolist()}"
            )
        mats = mats[cols]
    stack = add_tasks(
        mats[None], taskset.criticalities[idx] - 1, taskset.utilization_matrix[idx]
    )
    return ProbeRequest(
        stack.reshape((-1,) + stack.shape[2:]),
        np.full(stack.shape[:2], np.nan),
        (OBS.scheme,) * len(idx),
        "max",
        len(idx),
    )


def best_core(row: np.ndarray, allowed: np.ndarray | None = None) -> int | None:
    """The core of least finite Eq.-(15) value in ``row`` (among the
    ``allowed`` ones), ties to the lower index; ``None`` if none admits."""
    ok = np.isfinite(row) if allowed is None else np.isfinite(row) & allowed
    if not ok.any():
        return None
    return int(np.argmin(np.where(ok, row, np.inf)))


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
class ProbeBackend(abc.ABC):
    """One strategy for answering every probe the heuristics can ask.

    Implementations must be bit-identical to each other: the schemes,
    the admission daemon and the event runtime switch backends without
    changing a single placement decision.
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


# ----------------------------------------------------------------------
# Scalar backend: one (K, K) matrix per core, lazy first-hit order
# ----------------------------------------------------------------------
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
            row = keys[a]
            lazy = row.size and not math.isnan(row[0])  # a nan row: every core
            order = np.argsort(row, kind="stable") if lazy else range(row.size)
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


# ----------------------------------------------------------------------
# Batch backend: the whole request in one stacked kernel call
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
