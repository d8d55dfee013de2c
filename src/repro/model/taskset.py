"""Task sets stored as arrays, with cached per-level utilization matrices.

The schedulability analysis (Eqs. (1)-(3) of the paper) needs, over and
over, sums of the form

.. math::

    U_j^{\\Psi}(k) = \\sum_{\\tau_i \\in \\Psi \\cap L_j} u_i(k)

for every pair of criticality levels ``(j, k)``.  :class:`MCTaskSet`
stores its tasks as arrays — the ``(N, K)`` WCET matrix, the periods,
the criticalities and the names — and derives the dense ``(N, K)``
utilization matrix from them once, so that any subset's ``(K, K)``
level matrix can be obtained with a single vectorized reduction — this
is the hot path of every partitioning probe, hence the NumPy layout
(see DESIGN.md §6).  The :class:`MCTask` objects are a cache, built on
first object access: the figure sweeps never build one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.model.task import MCTask
from repro.types import ModelError

__all__ = ["MCTaskSet"]


class MCTaskSet:
    """An immutable ordered collection of mixed-criticality tasks.

    The set is its arrays: the ``(N, K)`` WCET matrix (``c_i(k)``, 0
    above ``l_i``), the ``(N,)`` periods, the ``(N,)`` criticalities and
    the task names.  The utilization matrix derives from them; the
    :class:`MCTask` tuple is built on first object access (iteration,
    indexing, ``==``, ``hash``, :attr:`tasks`) and then kept.
    :meth:`from_arrays` builds a set without any task object.

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

    __slots__ = ("_wcets", "_periods", "_crit", "_names", "_levels", "_umat",
                 "_tasks")

    def __init__(self, tasks: Iterable[MCTask], levels: int | None = None):
        tasks = tuple(tasks)
        if not tasks:
            raise ModelError("task set must contain at least one task")
        crit = np.array([t.criticality for t in tasks], dtype=np.int64)
        levels = _checked_levels(crit, levels)
        wcets = np.array(
            [t.wcets + (0.0,) * (levels - len(t.wcets)) for t in tasks],
            dtype=np.float64,
        )
        periods = np.array([t.period for t in tasks], dtype=np.float64)
        # Each task holds its utilization row already: one row per task,
        # ever (a one-task serve flush computes one).
        umat = np.array([t.utilization_vector(levels) for t in tasks], dtype=np.float64)
        self._set(wcets, periods, crit, tuple(t.name for t in tasks), levels, tasks,
                  umat)

    @classmethod
    def from_arrays(
        cls,
        wcets: np.ndarray,
        periods: np.ndarray,
        criticalities: np.ndarray,
        levels: int | None = None,
    ) -> "MCTaskSet":
        """A set straight from arrays, without building task objects.

        ``wcets`` is ``(N, W)`` with task ``i``'s WCETs in its first
        ``criticalities[i]`` columns (the rest is ignored); the tasks
        are named ``tau_1 .. tau_N``.  Validation rejects exactly what
        :class:`MCTask` and the task-list constructor reject, with
        :class:`~repro.types.ModelError`: a non-numeric or bool dtype
        fails before any conversion to float.
        """
        crit = np.asarray(criticalities)
        periods, wcets = np.asarray(periods), np.asarray(wcets)
        for what, array in (("periods", periods), ("WCETs", wcets)):
            if array.dtype.kind not in "iuf":
                raise ModelError(
                    f"{what} must be real numbers, got dtype {array.dtype}"
                )
        periods = periods.astype(np.float64, copy=False)
        wcets = wcets.astype(np.float64, copy=False)
        n = crit.size
        if n == 0:
            raise ModelError("task set must contain at least one task")
        if (crit.ndim != 1 or periods.shape != (n,) or wcets.ndim != 2
                or wcets.shape[0] != n):
            raise ModelError(
                f"expected (N, W) WCETs, (N,) periods and (N,) criticalities,"
                f" got {wcets.shape}, {periods.shape} and {crit.shape}"
            )
        if not np.issubdtype(crit.dtype, np.integer):
            raise ModelError(f"criticalities must be integers, got {crit.dtype}")
        crit = crit.astype(np.int64)
        if crit.min() < 1:
            raise ModelError("WCET vector must not be empty")
        levels = _checked_levels(crit, levels)
        if crit.max() > wcets.shape[1]:
            raise ModelError(
                f"a task of criticality {crit.max()} needs {crit.max()} WCET"
                f" columns, got {wcets.shape[1]}"
            )
        bad = ~np.isfinite(periods) | (periods <= 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ModelError(
                f"task {i}: period must be positive and finite, got {periods[i]}"
            )
        mask = np.arange(wcets.shape[1]) < crit[:, None]
        bad = mask & ~(np.isfinite(wcets) & (wcets > 0))
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ModelError(
                f"task {i}: c({k + 1}) must be positive and finite,"
                f" got {wcets[i, k]}"
            )
        bad = mask[:, 1:] & (wcets[:, 1:] < wcets[:, :-1])
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ModelError(
                f"task {i}: WCETs must be non-decreasing:"
                f" c({k + 2})={wcets[i, k + 1]} < c({k + 1})={wcets[i, k]}"
            )
        cols = min(wcets.shape[1], levels)
        full = np.zeros((n, levels), dtype=np.float64)
        full[:, :cols] = np.where(mask[:, :cols], wcets[:, :cols], 0.0)
        return cls._derived(full, periods.copy(), crit, None, levels, None)

    def _set(self, wcets, periods, crit, names, levels, tasks, umat=None) -> None:
        """Adopt validated arrays (and the task tuple, if already built).
        The utilization matrix derives from them unless its rows are
        given: the same IEEE ``c / p`` as :class:`MCTask`, and 0 above
        ``l_i`` as the WCETs are."""
        if umat is None:
            umat = wcets / periods[:, None]
        for array in (wcets, periods, crit, umat):
            array.setflags(write=False)
        self._wcets, self._periods, self._crit = wcets, periods, crit
        self._names, self._levels, self._umat = names, int(levels), umat
        self._tasks = tasks

    # ------------------------------------------------------------------
    # Container protocol (builds the task objects on first use)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._crit)

    def __iter__(self) -> Iterator[MCTask]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> MCTask:
        return self.tasks[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MCTaskSet):
            return NotImplemented
        return self._levels == other._levels and self.tasks == other.tasks

    def __hash__(self) -> int:
        return hash((self._levels, self.tasks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MCTaskSet(n={len(self)}, K={self._levels})"

    # ------------------------------------------------------------------
    # Model-level accessors
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> tuple[MCTask, ...]:
        """The :class:`MCTask` tuple, built from the arrays on first use."""
        if self._tasks is None:
            self._tasks = tuple(
                MCTask(wcets=tuple(row[:li]), period=period, name=name)
                for row, period, li, name in zip(
                    self._wcets.tolist(), self._periods.tolist(),
                    self._crit.tolist(), self.names,
                )
            )
        return self._tasks

    @property
    def names(self) -> tuple[str, ...]:
        """The task names (``tau_1 .. tau_N`` for an unnamed array set)."""
        if self._names is None:
            return tuple(f"tau_{i + 1}" for i in range(len(self)))
        return self._names

    @property
    def levels(self) -> int:
        """The number of system criticality levels ``K``."""
        return self._levels

    @property
    def wcet_matrix(self) -> np.ndarray:
        """Read-only ``(N, K)`` array with ``c[i, k-1] = c_i(k)`` (0 above l_i)."""
        return self._wcets

    @property
    def periods(self) -> np.ndarray:
        """Read-only ``(N,)`` array of task periods ``p_i``."""
        return self._periods

    @property
    def utilization_matrix(self) -> np.ndarray:
        """Read-only ``(N, K)`` array with ``u[i, k-1] = u_i(k)`` (0 above l_i)."""
        return self._umat

    @property
    def criticalities(self) -> np.ndarray:
        """Read-only ``(N,)`` int array of task criticality levels ``l_i``."""
        return self._crit

    def max_utilizations(self) -> np.ndarray:
        """``(N,)`` vector of ``u_i(l_i)``, the classical heuristics' sort key."""
        return self._umat[np.arange(len(self)), self._crit - 1]

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
        """A new task set containing only ``indices`` (same ``K``), which
        keeps their utilization rows."""
        idx = np.asarray(list(indices), dtype=np.intp)
        if not idx.size:
            raise ModelError("subset must be non-empty")
        names = self.names
        return self._derived(
            self._wcets[idx], self._periods[idx], self._crit[idx],
            tuple(names[i] for i in idx.tolist()), self._levels,
            None if self._tasks is None else tuple(self._tasks[i] for i in idx.tolist()),
            self._umat[idx],
        )

    def with_levels(self, levels: int) -> "MCTaskSet":
        """The same tasks viewed under a different system level count ``K``."""
        levels = _checked_levels(self._crit, levels)
        wcets = np.zeros((len(self), levels), dtype=np.float64)
        cols = min(levels, self._levels)
        wcets[:, :cols] = self._wcets[:, :cols]
        return self._derived(wcets, self._periods, self._crit, self._names,
                             levels, self._tasks)

    def appended(self, tasks: "MCTaskSet | Iterable[MCTask]") -> "MCTaskSet":
        """This set grown by ``tasks`` (same ``K``), validating the new tasks only.

        ``tasks`` is a task set of this ``K``, whose arrays are joined
        as they are (no row is computed again), or tasks, which go
        through the constructor first (so a task above ``K`` raises
        :class:`ModelError`).  The result equals
        ``MCTaskSet(list(self) + list(tasks), levels=K)`` bit for bit,
        and no task object of ``self`` is built for it.
        """
        if isinstance(tasks, MCTaskSet):
            tail = tasks
        else:
            tail = MCTaskSet(tasks, levels=self._levels)
        if tail._levels != self._levels:
            raise ModelError(
                f"cannot append a K={tail._levels} set to a K={self._levels} set"
            )
        return self._derived(
            np.concatenate((self._wcets, tail._wcets)),
            np.concatenate((self._periods, tail._periods)),
            np.concatenate((self._crit, tail._crit)),
            self.names + tail.names, self._levels,
            None if self._tasks is None or tail._tasks is None
            else self._tasks + tail._tasks,
            np.concatenate((self._umat, tail._umat)),
        )

    @staticmethod
    def _derived(wcets, periods, crit, names, levels, tasks, umat=None) -> "MCTaskSet":
        """A set over already-validated arrays, keeping a built task tuple."""
        out = MCTaskSet.__new__(MCTaskSet)
        out._set(wcets, periods, crit, names, levels, tasks, umat)
        return out

    def hyperperiod(self) -> float | None:
        """LCM of the periods, or ``None`` when any period is non-integer.

        The paper's generator draws integer periods, so exact-hyperperiod
        simulation horizons are available for its workloads; arbitrary
        float periods have no meaningful LCM and return ``None``.
        """
        import math

        periods = self._periods.tolist()
        if any(p != int(p) for p in periods):
            return None
        return float(math.lcm(*map(int, periods)))


def _checked_levels(crit: np.ndarray, levels: int | None) -> int:
    """``K`` for tasks of criticalities ``crit``: their maximum by default,
    never below it, never below 1."""
    max_crit = int(crit.max())
    if levels is None:
        levels = max_crit
    elif isinstance(levels, bool) or not isinstance(levels, (int, np.integer)):
        raise ModelError(f"K must be an integer, got {levels!r}")
    if levels < max_crit:
        raise ModelError(
            f"system criticality K={levels} is below the maximum task"
            f" criticality {max_crit}"
        )
    if levels < 1:
        raise ModelError(f"K must be >= 1, got {levels}")
    return int(levels)
