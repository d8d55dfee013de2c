"""Structured introspection of probe/admission decisions.

Every admission answer in the stack — a ``repro-mc`` sweep point, a
``/place`` 409, a validate counterexample — ultimately reduces to the
per-core Theorem-1/Eq.-(4) machinery in :mod:`repro.analysis.edfvd` and
:mod:`repro.analysis.simple`.  This module decomposes one decision into
the exact numbers behind it:

* :class:`CoreExplanation` — per core: the Eq.-(4) load and its margin,
  the ``lambda`` reduction factors, every Ineq.-(5) condition as an LHS
  (``mu(k)``) / RHS (``theta(k)``) / margin (``A(k)``) triple, the first
  feasible and first failing condition, and the Eq.-(9) utilization.
* :class:`HeadroomProfile` — the maximum uniform demand scale ``alpha``
  at which each core (and therefore the system) still passes the
  admission test, found by bisection over the *scalar* kernel.
* :class:`TaskSensitivity` — for a rejected set: how far the failed
  task would have to shrink to fit each core, and which already-placed
  task could be shrunk (and to what scale) to make room for it.
* :class:`ProbeExplanation` — one decision, fully decomposed, with the
  invariant the ``explain-decision`` validate oracle pins down:
  ``admitted`` **iff** every decision margin is ``>= -EPS``.

Everything here runs on the scalar kernel, off the probe hot path: the
partitioners and the serve placement loop never import this module's
functions on their fast path.  The margin algebra is exactly the
backends' feasibility test — Eq. (4) holds iff ``1 - load >= -EPS``
(:func:`repro.types.fits_unit_capacity`), condition ``k`` holds iff
``A(k) >= -EPS`` — so explanation and decision can never disagree
unless a backend does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.edfvd import (
    capacity_terms,
    core_utilization,
    demand_terms,
    first_feasible_condition,
    lambda_factors,
)
from repro.analysis.feasibility import is_feasible_core
from repro.analysis.simple import is_feasible_simple, worst_case_load
from repro.types import EPS, ModelError

if TYPE_CHECKING:  # pragma: no cover - annotations only, avoids cycles
    from repro.model import MCTask, MCTaskSet, Partition
    from repro.partition.base import PartitionResult

__all__ = [
    "EXPLAIN_VERSION",
    "HEADROOM_MAX_SCALE",
    "ConditionMargin",
    "CoreExplanation",
    "HeadroomProfile",
    "ShrinkCandidate",
    "TaskSensitivity",
    "ProbeExplanation",
    "explain_level_matrix",
    "explain_candidates",
    "explain_result",
    "explain_admission",
    "headroom_for_matrix",
    "headroom_profile",
    "task_sensitivity",
    "place_rejection_reason",
    "format_explanation",
]

#: Version of the explanation schema (``ProbeExplanation.to_dict()``).
EXPLAIN_VERSION = 1

#: Headroom scales are bisected inside ``[0, HEADROOM_MAX_SCALE]`` and
#: clamped at the top, so a headroom figure (and the ``serve.headroom``
#: gauge) is always finite — an empty or far-underloaded core reports
#: exactly this ceiling rather than infinity.
HEADROOM_MAX_SCALE = 64.0

_BISECT_STEPS = 200  #: bisection converges to adjacent floats well before


def _num(value: float | None) -> float | None:
    """JSON-safe number: ``nan``/``+-inf`` become ``None``."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class ConditionMargin:
    """One Ineq.-(5) condition ``k`` as LHS / RHS / margin.

    ``demand`` is ``mu(k)`` (the LHS), ``capacity`` is ``theta(k)`` (the
    RHS; ``nan`` when the lambda chain is undefined at ``k``), and
    ``margin`` is the available utilization ``A(k) = theta(k) - mu(k)``
    (``-inf`` when undefined).  ``passed`` iff ``margin >= -EPS`` —
    exactly the backends' acceptance test for this condition.
    """

    k: int
    demand: float
    capacity: float
    margin: float
    defined: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "demand": _num(self.demand),
            "capacity": _num(self.capacity),
            "margin": _num(self.margin),
            "defined": self.defined,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CoreExplanation:
    """The full Theorem-1/Eq.-(4) decomposition of one core's subset.

    ``margin`` is the core's decision margin: the best of the Eq.-(4)
    margin (``1 - load``) and every condition margin ``A(k)``.  By
    construction ``margin >= -EPS`` **iff** ``feasible`` — the single
    scalar that carries the whole admission decision for this core.
    """

    core: int
    tasks: tuple[int, ...]
    load: float  #: Eq.-(4) LHS: ``sum_k U_k(k)`` (the level-matrix trace)
    eq4_margin: float  #: ``1 - load``; ``>= -EPS`` iff Eq. (4) passes
    eq4_pass: bool
    lambdas: tuple[float, ...]  #: Eq.-(6) factors; ``nan`` = undefined
    conditions: tuple[ConditionMargin, ...]
    first_feasible_condition: int | None  #: the runtime protocol's ``k*``
    first_failing_condition: int | None
    feasible: bool
    margin: float
    utilization: float  #: Eq. (9); ``inf`` when infeasible

    def to_dict(self) -> dict:
        return {
            "core": self.core,
            "tasks": list(self.tasks),
            "load": _num(self.load),
            "eq4_margin": _num(self.eq4_margin),
            "eq4_pass": self.eq4_pass,
            "lambdas": [_num(x) for x in self.lambdas],
            "conditions": [c.to_dict() for c in self.conditions],
            "first_feasible_condition": self.first_feasible_condition,
            "first_failing_condition": self.first_failing_condition,
            "feasible": self.feasible,
            "margin": _num(self.margin),
            "utilization": _num(self.utilization),
        }


@dataclass(frozen=True)
class HeadroomProfile:
    """Maximum uniform demand scale still admissible, per core and system.

    ``per_core[m]`` is the largest ``alpha`` (clamped to ``max_scale``)
    at which core ``m``'s level matrix, scaled by ``alpha``, still
    passes :func:`~repro.analysis.feasibility.is_feasible_core`; empty
    cores report the clamp.  ``system`` is the minimum over the cores —
    the scale at which the *first* core tips over.
    """

    per_core: tuple[float, ...]
    system: float
    max_scale: float = HEADROOM_MAX_SCALE

    def to_dict(self) -> dict:
        return {
            "per_core": [_num(a) for a in self.per_core],
            "system": _num(self.system),
            "max_scale": _num(self.max_scale),
        }


@dataclass(frozen=True)
class ShrinkCandidate:
    """Shrinking ``task`` (on ``core``) to ``max_scale`` x its demand
    makes the rejected task fit on that core."""

    task: int
    core: int
    max_scale: float

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "core": self.core,
            "max_scale": _num(self.max_scale),
        }


@dataclass(frozen=True)
class TaskSensitivity:
    """How a rejected task could still be admitted.

    ``per_core_scale[m]`` is the largest scale ``beta`` of the *failed
    task's own* demand at which core ``m`` would accept it (0 when even
    an infinitesimal slice does not fit).  ``shrink_candidates`` ranks
    already-placed tasks by how little they would have to shrink to make
    room for the failed task at full demand.
    """

    task: int
    per_core_scale: tuple[float, ...]
    best_core: int | None
    best_scale: float
    shrink_candidates: tuple[ShrinkCandidate, ...] = ()

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "per_core_scale": [_num(b) for b in self.per_core_scale],
            "best_core": self.best_core,
            "best_scale": _num(self.best_scale),
            "shrink_candidates": [c.to_dict() for c in self.shrink_candidates],
        }


@dataclass(frozen=True)
class ProbeExplanation:
    """One admission decision, fully decomposed.

    The decision contract (pinned by the ``explain-decision`` oracle):
    ``admitted`` **iff** every margin in :meth:`decision_margins` is
    ``>= -EPS``.  For admitted sets those are the final per-core
    margins; for sets rejected at ``failed_task`` they are the margins
    of that task probed onto every core of the final partial partition
    — the exact probes the partitioner gave up on.
    """

    scheme: str | None
    cores: int
    probe_impl: str | None
    admitted: bool
    failed_task: int | None
    assignment: tuple[int, ...]
    core_explanations: tuple[CoreExplanation, ...]
    candidate_explanations: tuple[CoreExplanation, ...] | None = None
    headroom: HeadroomProfile | None = None
    sensitivity: TaskSensitivity | None = None
    version: int = field(default=EXPLAIN_VERSION)

    def decision_margins(self) -> tuple[float, ...]:
        """The margins whose signs *are* the decision (see class doc)."""
        if self.candidate_explanations is not None:
            return tuple(ce.margin for ce in self.candidate_explanations)
        return tuple(
            ce.margin for ce in self.core_explanations if ce.tasks
        )

    def to_dict(self) -> dict:
        """JSON-safe document (schema ``version``; no nan/inf values)."""
        return {
            "version": self.version,
            "scheme": self.scheme,
            "cores": self.cores,
            "rule": "max",  # the Eq.-(9) aggregation of every utilization
            "probe_impl": self.probe_impl,
            "admitted": self.admitted,
            "failed_task": self.failed_task,
            "assignment": list(self.assignment),
            "core_explanations": [
                ce.to_dict() for ce in self.core_explanations
            ],
            "candidate_explanations": (
                None
                if self.candidate_explanations is None
                else [ce.to_dict() for ce in self.candidate_explanations]
            ),
            "headroom": (
                None if self.headroom is None else self.headroom.to_dict()
            ),
            "sensitivity": (
                None if self.sensitivity is None else self.sensitivity.to_dict()
            ),
        }


# ----------------------------------------------------------------------
# Per-core decomposition
# ----------------------------------------------------------------------


def explain_level_matrix(
    level_matrix: np.ndarray,
    *,
    core: int = 0,
    tasks: tuple[int, ...] = (),
) -> CoreExplanation:
    """Decompose one ``(K, K)`` level matrix into a :class:`CoreExplanation`.

    Reuses the scalar kernel verbatim (:func:`lambda_factors`,
    :func:`demand_terms`, :func:`capacity_terms`,
    :func:`first_feasible_condition`), so every reported number is the
    number the admission test actually computed.
    """
    mat = np.asarray(level_matrix, dtype=np.float64)
    load = worst_case_load(mat)
    eq4_margin = 1.0 - load
    eq4_pass = is_feasible_simple(mat)
    lambdas = lambda_factors(mat)
    mu = demand_terms(mat)
    theta = capacity_terms(mat)
    conditions = []
    for i in range(mu.shape[0]):
        defined = bool(np.isfinite(theta[i]))
        margin = float(theta[i] - mu[i]) if defined else float("-inf")
        conditions.append(
            ConditionMargin(
                k=i + 1,
                demand=float(mu[i]),
                capacity=float(theta[i]),
                margin=margin,
                defined=defined,
                passed=defined and margin >= -EPS,
            )
        )
    first_ok = first_feasible_condition(mat)
    first_bad = next((c.k for c in conditions if not c.passed), None)
    cond_margin = max(c.margin for c in conditions)
    margin = max(eq4_margin, cond_margin)
    feasible = eq4_pass or any(c.passed for c in conditions)
    return CoreExplanation(
        core=core,
        tasks=tuple(int(t) for t in tasks),
        load=float(load),
        eq4_margin=float(eq4_margin),
        eq4_pass=bool(eq4_pass),
        lambdas=tuple(float(x) for x in lambdas),
        conditions=tuple(conditions),
        first_feasible_condition=first_ok,
        first_failing_condition=first_bad,
        feasible=bool(feasible),
        margin=float(margin),
        utilization=float(core_utilization(mat)),
    )


def _task_row(
    taskset_or_task: MCTaskSet | MCTask, task_index: int | None, levels: int
) -> tuple[np.ndarray, int]:
    """``(utilization row (K,), criticality)`` of a task (by index or value)."""
    if task_index is not None:
        ts = taskset_or_task
        return (
            np.asarray(ts.utilization_matrix[task_index], dtype=np.float64),
            int(ts.criticalities[task_index]),
        )
    task = taskset_or_task
    if task.criticality > levels:
        raise ModelError(
            f"task criticality {task.criticality} exceeds K={levels}"
        )
    row = np.zeros(levels, dtype=np.float64)
    for k in range(1, task.criticality + 1):
        row[k - 1] = task.utilization(k)
    return row, task.criticality


def _with_row(mat: np.ndarray, row: np.ndarray, crit: int) -> np.ndarray:
    """A copy of ``mat`` with a task's utilization row added (Eq. (15))."""
    cand = np.array(mat, dtype=np.float64, copy=True)
    cand[crit - 1, :crit] += row[:crit]
    return cand


def explain_candidates(
    level_matrices: np.ndarray, row: np.ndarray, criticality: int
) -> tuple[CoreExplanation, ...]:
    """Explanations of one task hypothetically added to every core.

    ``level_matrices`` is the ``(M, K, K)`` stack; the result mirrors
    the Eq.-(15) probe row the placement loop evaluated, core by core.
    """
    return tuple(
        explain_level_matrix(_with_row(level_matrices[m], row, criticality), core=m)
        for m in range(level_matrices.shape[0])
    )


# ----------------------------------------------------------------------
# Headroom (bisection over the scalar kernel)
# ----------------------------------------------------------------------


def _bisect_max_scale(feasible_at, max_scale: float) -> float:
    """Largest ``x`` in ``[0, max_scale]`` with ``feasible_at(x)``.

    Requires ``feasible_at(0)`` (the zero matrix always passes Eq. (4));
    clamps at ``max_scale`` when even the ceiling is feasible.  The
    admission test is monotone in a uniform demand scale (pinned by the
    ``admission-monotonicity`` oracle), so plain bisection brackets the
    boundary; iteration stops when the bracket collapses to adjacent
    floats.
    """
    if feasible_at(max_scale):
        return float(max_scale)
    lo, hi = 0.0, float(max_scale)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket collapsed to adjacent floats
            break
        if feasible_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def headroom_for_matrix(
    level_matrix: np.ndarray, *, max_scale: float = HEADROOM_MAX_SCALE
) -> float:
    """Max uniform scale ``alpha`` with ``alpha * L`` still admissible."""
    mat = np.asarray(level_matrix, dtype=np.float64)
    return _bisect_max_scale(
        lambda alpha: is_feasible_core(alpha * mat), max_scale
    )


def headroom_profile(
    partition: Partition, *, max_scale: float = HEADROOM_MAX_SCALE
) -> HeadroomProfile:
    """Per-core and system-wide headroom of a (possibly partial) partition."""
    per_core = []
    for m in range(partition.cores):
        if partition.core_size(m) == 0:
            per_core.append(float(max_scale))
        else:
            per_core.append(
                headroom_for_matrix(
                    partition.level_matrix(m), max_scale=max_scale
                )
            )
    system = min(per_core) if per_core else float(max_scale)
    return HeadroomProfile(
        per_core=tuple(per_core), system=float(system), max_scale=max_scale
    )


# ----------------------------------------------------------------------
# Sensitivity of a rejected placement
# ----------------------------------------------------------------------

#: Cap on reported shrink candidates (ranked least-shrink-first).
_MAX_SHRINK_CANDIDATES = 8


def task_sensitivity(
    partition: Partition,
    failed_task: int,
    *,
    max_candidates: int = _MAX_SHRINK_CANDIDATES,
) -> TaskSensitivity:
    """What would have to shrink for ``failed_task`` to be admitted.

    Two monotone bisections per core: the failed task's own admissible
    scale ``beta`` (shrink the newcomer), and for each placed task the
    scale ``sigma`` at which shrinking *it* lets the newcomer in at full
    demand (shrink an incumbent).
    """
    ts = partition.taskset
    row_f, crit_f = _task_row(ts, failed_task, ts.levels)
    per_core = []
    candidates: list[ShrinkCandidate] = []
    for m in range(partition.cores):
        mat = np.asarray(partition.level_matrix(m), dtype=np.float64)

        def own_scale(beta: float) -> bool:
            return is_feasible_core(_with_row(mat, beta * row_f, crit_f))

        per_core.append(
            _bisect_max_scale(own_scale, 1.0) if own_scale(0.0) else 0.0
        )
        full = _with_row(mat, row_f, crit_f)
        for t in partition.tasks_on(m):
            row_t, crit_t = _task_row(ts, t, ts.levels)

            def incumbent_scale(sigma: float) -> bool:
                return is_feasible_core(
                    _with_row(full, (sigma - 1.0) * row_t, crit_t)
                )

            if not incumbent_scale(0.0):
                continue  # even evicting t entirely does not admit it
            candidates.append(
                ShrinkCandidate(
                    task=t,
                    core=m,
                    max_scale=_bisect_max_scale(incumbent_scale, 1.0),
                )
            )
    candidates.sort(key=lambda c: (-c.max_scale, c.core, c.task))
    best_scale = max(per_core) if per_core else 0.0
    best_core = (
        int(np.argmax(per_core)) if per_core and best_scale > 0.0 else None
    )
    return TaskSensitivity(
        task=int(failed_task),
        per_core_scale=tuple(per_core),
        best_core=best_core,
        best_scale=float(best_scale),
        shrink_candidates=tuple(candidates[:max_candidates]),
    )


# ----------------------------------------------------------------------
# Whole-decision explanations
# ----------------------------------------------------------------------


def explain_result(
    taskset: MCTaskSet,
    cores: int,
    result: PartitionResult,
    *,
    probe_impl: str | None = None,
    include_headroom: bool = True,
    include_sensitivity: bool = True,
    max_scale: float = HEADROOM_MAX_SCALE,
) -> ProbeExplanation:
    """Decompose an existing :class:`PartitionResult` (pure, no re-run).

    For rejected results with a recorded ``failed_task``, the candidate
    explanations reproduce the exact probes the partitioner gave up on:
    the failed task added to each core of the final partial partition.
    """
    part = result.partition
    core_expls = tuple(
        explain_level_matrix(
            part.level_matrix(m),
            core=m,
            tasks=tuple(part.tasks_on(m)),
        )
        for m in range(part.cores)
    )
    candidates = None
    sensitivity = None
    if not result.schedulable and result.failed_task is not None:
        row, crit = _task_row(taskset, result.failed_task, taskset.levels)
        candidates = explain_candidates(part.level_matrices(), row, crit)
        if include_sensitivity:
            sensitivity = task_sensitivity(part, result.failed_task)
    headroom = (
        headroom_profile(part, max_scale=max_scale)
        if include_headroom
        else None
    )
    return ProbeExplanation(
        scheme=result.scheme,
        cores=int(cores),
        probe_impl=probe_impl,
        admitted=bool(result.schedulable),
        failed_task=result.failed_task,
        assignment=tuple(int(c) for c in part.assignment),
        core_explanations=core_expls,
        candidate_explanations=candidates,
        headroom=headroom,
        sensitivity=sensitivity,
    )


def explain_admission(
    taskset: MCTaskSet,
    cores: int,
    scheme: str = "ca-tpa",
    *,
    include_headroom: bool = True,
    include_sensitivity: bool = True,
    max_scale: float = HEADROOM_MAX_SCALE,
) -> ProbeExplanation:
    """Run ``scheme`` on ``(taskset, cores)`` and explain its decision.

    The partitioning run probes on the batch backend, which the document
    records as ``probe_impl``.  Both backends are pinned bit-identical,
    so the explanation never depends on it — which is exactly what the
    ``explain-decision`` oracle re-proves on the scalar backend.
    """
    from repro.partition.backend import BATCH
    from repro.partition.registry import get_partitioner

    result = get_partitioner(scheme).partition(taskset, cores)
    return explain_result(
        taskset,
        cores,
        result,
        probe_impl=BATCH.name,
        include_headroom=include_headroom,
        include_sensitivity=include_sensitivity,
        max_scale=max_scale,
    )


def place_rejection_reason(level_matrices: np.ndarray, task: MCTask) -> dict:
    """Structured reason for a rejected ``/place``: per-core margins of
    ``task`` against the ``(M, K, K)`` per-core ``level_matrices``.

    Compact by design — the full decomposition is one ``POST /explain``
    away; the 409 body carries what an operator needs at a glance: the
    closest core, how far off it was, and each core's first failing
    condition.
    """
    row, crit = _task_row(task, None, level_matrices.shape[-1])
    cands = explain_candidates(level_matrices, row, crit)
    best = max(cands, key=lambda ce: ce.margin)
    return {
        "best_core": best.core,
        "best_margin": _num(best.margin),
        "cores": [
            {
                "core": ce.core,
                "margin": _num(ce.margin),
                "load": _num(ce.load),
                "first_failing_condition": ce.first_failing_condition,
            }
            for ce in cands
        ],
    }


# ----------------------------------------------------------------------
# Human-readable rendering (repro-mc explain)
# ----------------------------------------------------------------------


def _fmt(value: float | None, width: int = 0) -> str:
    if value is None or not math.isfinite(value):
        return "-"
    return f"{value:+.4f}" if width == 0 else f"{value:{width}.4f}"


def format_explanation(exp: ProbeExplanation) -> str:
    """Terminal rendering of one explanation (``repro-mc explain``)."""
    verdict = "ADMITTED" if exp.admitted else "REJECTED"
    lines = [
        f"explain: {exp.scheme} on {exp.cores} cores — {verdict} "
        f"(probe_impl={exp.probe_impl}, rule=max, "
        f"schema v{exp.version})"
    ]
    if exp.headroom is not None:
        per_core = ", ".join(f"{a:.3f}" for a in exp.headroom.per_core)
        lines.append(
            f"  headroom: system alpha={exp.headroom.system:.3f} "
            f"(per-core: {per_core}; clamp {exp.headroom.max_scale:g})"
        )
    for ce in exp.core_explanations:
        state = "feasible" if ce.feasible else "INFEASIBLE"
        kstar = (
            f", k*={ce.first_feasible_condition}"
            if ce.first_feasible_condition is not None
            else f", first failing k={ce.first_failing_condition}"
        )
        lines.append(
            f"  core {ce.core}: {state}  margin={_fmt(ce.margin)}  "
            f"Eq.(4) load={ce.load:.4f}{kstar}  tasks={list(ce.tasks)}"
        )
        for c in ce.conditions:
            status = "pass" if c.passed else (
                "undefined" if not c.defined else "FAIL"
            )
            lines.append(
                f"    k={c.k}: mu={c.demand:.4f} vs "
                f"theta={_fmt(_num(c.capacity), 1)}  "
                f"margin={_fmt(_num(c.margin))}  {status}"
            )
    if exp.candidate_explanations is not None:
        lines.append(
            f"  failed task {exp.failed_task}: no feasible core — "
            "candidate probes:"
        )
        for ce in exp.candidate_explanations:
            lines.append(
                f"    core {ce.core}: margin={_fmt(ce.margin)}  "
                f"load={ce.load:.4f}  "
                f"first failing k={ce.first_failing_condition}"
            )
    if exp.sensitivity is not None:
        s = exp.sensitivity
        if s.best_core is not None:
            lines.append(
                f"  to admit: shrink task {s.task} to "
                f"{s.best_scale:.3f}x of its demand on core {s.best_core}"
            )
        for c in s.shrink_candidates[:3]:
            lines.append(
                f"  or: shrink task {c.task} (core {c.core}) to "
                f"{c.max_scale:.3f}x and place task {s.task} there"
            )
    return "\n".join(lines)
