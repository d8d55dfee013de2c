"""Shared probing helpers: "what if task i joined core m?".

Probes never mutate the partition; they build the hypothetical level
matrix ``U_j^{Psi_m + tau_i}(k)`` by adding the task's utilization row to
the core's cached matrix and evaluate the schedulability machinery on it.

The evaluation strategy is pluggable: this module holds the *selection*
mechanism (a contextvar naming the active backend, read by
:func:`active_backend`) and the per-task probe functions the admission
daemon and the benchmarks call; the strategies — **batch** (default: one
stacked NumPy pass, for the schemes one per request kind per placement
step across every attempt the lockstep driver advances together) and
**scalar** (one ``(K, K)`` matrix per core, lazily in preference order)
— live in :mod:`repro.partition.backend`.  Both make bit-identical
placement decisions (pinned by the test suite and the ``repro-mc
validate`` differential campaign); :func:`use_probe_implementation`
switches between them.

Instrumentation: when :data:`repro.obs.OBS` is enabled, every probe
counts the (task, core) hypotheses it evaluated, the Theorem-1
infeasible ones, and — for feasibility probes — the admission path of
each core (Eq. (4) vs which condition ``k`` of Ineq. (5)), tagged with
the asking attempt's scheme (``theorem1.cond_pass.k2[ca-tpa]``); each
attempt's share of the probe time becomes a synthetic ``probe`` child
of its ``partition.attempt`` span.  Disabled, the entire layer is one
branch per probe (pinned < 2 % by
``benchmarks/test_bench_probe_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Sequence

import numpy as np

from repro.model.partition import Partition
from repro.partition.backend import (
    DEFAULT_BACKEND,
    available_backends,
    candidate_level_matrix,
    get_backend,
    probe_core_utilization,
    probe_feasible,
)

__all__ = [
    "candidate_level_matrix",
    "probe_core_utilization",
    "probe_feasible",
    "batch_probe",
    "batch_probe_tasks",
    "active_backend",
    "probe_implementation",
    "use_probe_implementation",
    "available_backends",
]

#: Active probe backend name: ``DEFAULT_BACKEND`` or another registered
#: name (see :mod:`repro.partition.backend`).  A
#: :class:`~contextvars.ContextVar`, not a module global: the selection
#: is isolated per thread and per asyncio task, so a benchmark thread
#: running scalar probes cannot flip a concurrent server handler (or the
#: admission daemon's coordinator) onto the wrong engine mid-decision.
_ACTIVE_IMPLEMENTATION: ContextVar[str] = ContextVar(
    "repro_probe_implementation", default=DEFAULT_BACKEND
)


def probe_implementation() -> str:
    """The currently active probe backend name (e.g. ``"batch"``)."""
    return _ACTIVE_IMPLEMENTATION.get()


@contextmanager
def use_probe_implementation(impl: str) -> Iterator[None]:
    """Select the probe backend for the current context.

    ``impl`` must name a registered backend
    (:func:`repro.partition.backend.available_backends`); unknown names
    raise :class:`repro.types.ModelError`.  The selection is scoped to
    the current thread/async task (it rides a
    :class:`~contextvars.ContextVar`), so concurrent contexts never
    observe each other's choice.
    """
    get_backend(impl)  # validate eagerly: clean ReproError, not KeyError
    token = _ACTIVE_IMPLEMENTATION.set(impl)
    try:
        yield
    finally:
        _ACTIVE_IMPLEMENTATION.reset(token)


def active_backend():
    """The :class:`~repro.partition.backend.ProbeBackend` selected for
    the current context (what the lockstep driver asks)."""
    return get_backend(_ACTIVE_IMPLEMENTATION.get())


# ----------------------------------------------------------------------
# Probes of one task, and of a micro-batch of tasks
# ----------------------------------------------------------------------
def batch_probe(
    partition: Partition, task_index: int, rule: str = "max"
) -> np.ndarray:
    """Eq.-(15) probe of ``task_index`` against *every* core: ``(M,)``.

    Entry ``m`` is the hypothetical ``U^{Psi_m + tau_i}`` (``inf`` where
    the enlarged subset is Theorem-1 infeasible, per Eq. (15a)).
    Evaluated by the active backend (see :func:`probe_implementation`).
    """
    return active_backend().probe(partition, task_index, rule=rule)


def batch_probe_tasks(
    partition: Partition,
    task_indices: Sequence[int],
    rule: str = "max",
    cores: Sequence[int] | None = None,
) -> np.ndarray:
    """Eq.-(15) probes of several tasks: ``(T, M)``, or ``(T, len(cores))``.

    Row ``t`` is exactly :func:`batch_probe` of ``task_indices[t]``
    bit-for-bit, whichever backend is active, and the whole micro-batch
    costs one kernel pass under the batch backend.  ``cores`` restricts
    the probe to a column selection: after a placement on core ``c``
    only column ``c`` of the pending rows is stale, so the admission
    daemon's flush re-probes ``cores=[c]`` instead of the full grid.
    """
    return active_backend().probe_tasks(
        partition, task_indices, rule=rule, cores=cores
    )
