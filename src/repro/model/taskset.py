"""Task sets with cached per-level utilization matrices.

The schedulability analysis (Eqs. (1)-(3) of the paper) needs, over and
over, sums of the form

.. math::

    U_j^{\\Psi}(k) = \\sum_{\\tau_i \\in \\Psi \\cap L_j} u_i(k)

for every pair of criticality levels ``(j, k)``.  :class:`MCTaskSet`
precomputes a dense ``(N, K)`` utilization matrix and the per-task
criticality vector once, so that any subset's ``(K, K)`` level matrix can
be obtained with a single vectorized reduction — this is the hot path of
every partitioning probe, hence the NumPy layout (see DESIGN.md §6).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.model.task import MCTask
from repro.types import ModelError

__all__ = ["MCTaskSet"]


class MCTaskSet:
    """An immutable ordered collection of :class:`MCTask`.

    Parameters
    ----------
    tasks:
        The tasks, in index order (task indices are 0-based everywhere in
        the code; the paper's :math:`\\tau_1 \\dots \\tau_N` map to indices
        ``0..N-1``).
    levels:
        The number of system criticality levels ``K``.  Defaults to the
        maximum task criticality.  May be larger (a system may define more
        levels than any present task uses) but never smaller.
    """

    __slots__ = ("_tasks", "_levels", "_umat", "_crit")

    def __init__(self, tasks: Iterable[MCTask], levels: int | None = None):
        self._tasks: tuple[MCTask, ...] = tuple(tasks)
        if not self._tasks:
            raise ModelError("task set must contain at least one task")
        max_crit = max(t.criticality for t in self._tasks)
        if levels is None:
            levels = max_crit
        if levels < max_crit:
            raise ModelError(
                f"system criticality K={levels} is below the maximum task"
                f" criticality {max_crit}"
            )
        if levels < 1:
            raise ModelError(f"K must be >= 1, got {levels}")
        self._levels = int(levels)
        n = len(self._tasks)
        umat = np.zeros((n, self._levels), dtype=np.float64)
        crit = np.empty(n, dtype=np.int64)
        for i, t in enumerate(self._tasks):
            crit[i] = t.criticality
            umat[i, : t.criticality] = t.utilization_vector(t.criticality)
        umat.setflags(write=False)
        crit.setflags(write=False)
        self._umat = umat
        self._crit = crit

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[MCTask]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> MCTask:
        return self._tasks[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MCTaskSet):
            return NotImplemented
        return self._levels == other._levels and self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash((self._levels, self._tasks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MCTaskSet(n={len(self)}, K={self._levels})"

    # ------------------------------------------------------------------
    # Model-level accessors
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> tuple[MCTask, ...]:
        return self._tasks

    @property
    def levels(self) -> int:
        """The number of system criticality levels ``K``."""
        return self._levels

    @property
    def utilization_matrix(self) -> np.ndarray:
        """Read-only ``(N, K)`` array with ``u[i, k-1] = u_i(k)`` (0 above l_i)."""
        return self._umat

    @property
    def criticalities(self) -> np.ndarray:
        """Read-only ``(N,)`` int array of task criticality levels ``l_i``."""
        return self._crit

    # ------------------------------------------------------------------
    # Utilization algebra (Eqs. (1)-(3) of the paper)
    # ------------------------------------------------------------------
    def level_matrix(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """The ``(K, K)`` matrix ``L[j-1, k-1] = U_j(k)`` for a subset.

        ``U_j(k)`` (Eq. (1)) is the summed level-``k`` utilization of the
        subset's tasks whose own criticality is exactly ``j``.  Entries
        with ``k > j`` are zero by construction (a task contributes no
        utilization above its own criticality).

        Parameters
        ----------
        indices:
            Task indices forming the subset; ``None`` means all tasks.
        """
        if indices is None:
            umat, crit = self._umat, self._crit
        else:
            idx = np.asarray(indices, dtype=np.intp)
            umat, crit = self._umat[idx], self._crit[idx]
        out = np.zeros((self._levels, self._levels), dtype=np.float64)
        # Sum rows of the utilization matrix into their criticality bucket.
        np.add.at(out, crit - 1, umat)
        return out

    def total_utilization(self, level: int) -> float:
        """``U(k)`` (Eq. (2)): total level-``k`` utilization of tasks with
        criticality ``k`` or higher, over the whole set."""
        if not 1 <= level <= self._levels:
            raise ModelError(f"level must be in [1, {self._levels}], got {level}")
        mask = self._crit >= level
        return float(self._umat[mask, level - 1].sum())

    def total_utilization_vector(self) -> np.ndarray:
        """``(K,)`` vector of ``U(k)`` for ``k = 1..K``."""
        out = np.empty(self._levels, dtype=np.float64)
        for k in range(1, self._levels + 1):
            out[k - 1] = self.total_utilization(k)
        return out

    def average_utilization(self, level: int = 1) -> float:
        """Aggregate raw utilization at ``level`` (used by NSU normalization)."""
        if not 1 <= level <= self._levels:
            raise ModelError(f"level must be in [1, {self._levels}], got {level}")
        return float(self._umat[:, level - 1].sum())

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int]) -> "MCTaskSet":
        """A new task set containing only ``indices`` (same ``K``)."""
        idx = list(indices)
        if not idx:
            raise ModelError("subset must be non-empty")
        return MCTaskSet((self._tasks[i] for i in idx), levels=self._levels)

    def with_levels(self, levels: int) -> "MCTaskSet":
        """The same tasks viewed under a different system level count ``K``."""
        return MCTaskSet(self._tasks, levels=levels)

    def appended(self, tasks: Iterable[MCTask]) -> "MCTaskSet":
        """This set grown by ``tasks`` (same ``K``), building the new rows only.

        The tail goes through the constructor (so a task above ``K``
        raises :class:`ModelError`) and its rows are concatenated onto
        the cached matrix and criticality vector: the result equals
        ``MCTaskSet(list(self) + list(tasks), levels=K)`` bit for bit,
        at the cost of the new tasks, not of ``len(self)``.
        """
        tail = MCTaskSet(tasks, levels=self._levels)
        grown = MCTaskSet.__new__(MCTaskSet)
        grown._tasks = self._tasks + tail._tasks
        grown._levels = self._levels
        grown._umat = np.concatenate((self._umat, tail._umat))
        grown._crit = np.concatenate((self._crit, tail._crit))
        grown._umat.setflags(write=False)
        grown._crit.setflags(write=False)
        return grown

    def hyperperiod(self) -> float | None:
        """LCM of the periods, or ``None`` when any period is non-integer.

        The paper's generator draws integer periods, so exact-hyperperiod
        simulation horizons are available for its workloads; arbitrary
        float periods have no meaningful LCM and return ``None``.
        """
        import math

        ints = []
        for t in self._tasks:
            if t.period != int(t.period):
                return None
            ints.append(int(t.period))
        return float(math.lcm(*ints))
