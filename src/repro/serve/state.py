"""Live daemon state: one mutable partition, immutable read snapshots.

The coordinator is the only writer.  Every commit publishes a fresh
:class:`StateSnapshot` holding a *frozen* :class:`~repro.model.Partition`
copy (see :meth:`Partition.snapshot`), replacing the previous one with a
single attribute store — atomic under both the GIL and asyncio's
cooperative scheduling — so ``GET /state`` handlers read without any
lock and can never observe a half-applied flush.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.core import imbalance_factor
from repro.model import MCTaskSet, Partition
from repro.model.io import taskset_to_dict
from repro.partition.backend import DEFAULT_BACKEND

__all__ = ["ServeState", "StateSnapshot"]


@dataclass(frozen=True)
class StateSnapshot:
    """One immutable view of the live system.

    ``partition`` is ``None`` until the first accepted placement
    (:class:`~repro.model.MCTaskSet` cannot be empty); when present it
    is frozen — mutating it raises.
    """

    cores: int
    levels: int
    seq: int
    partition: Partition | None
    #: Probe backend the coordinator places under (informational).
    probe_impl: str = DEFAULT_BACKEND

    @property
    def task_count(self) -> int:
        return 0 if self.partition is None else len(self.partition.taskset)

    def utilizations(self, rule: str = "max") -> np.ndarray:
        if self.partition is None:
            return np.zeros(self.cores, dtype=np.float64)
        return self.partition.core_utilizations(rule)

    def to_dict(self, rule: str = "max") -> dict:
        """The ``GET /state`` body."""
        utils = self.utilizations(rule)
        body = {
            "cores": self.cores,
            "levels": self.levels,
            "seq": self.seq,
            "tasks": self.task_count,
            "probe_impl": self.probe_impl,
            "utilizations": utils.tolist(),
            "lambda": float(imbalance_factor(utils)),
        }
        if self.partition is None:
            body["assignment"] = []
            body["taskset"] = None
        else:
            body["assignment"] = self.partition.assignment.tolist()
            body["taskset"] = taskset_to_dict(self.partition.taskset)
        return body


class ServeState:
    """Holder of the live partition plus its published snapshot."""

    def __init__(
        self, cores: int, levels: int = 2, probe_impl: str = DEFAULT_BACKEND
    ):
        self.cores = int(cores)
        self.levels = int(levels)
        self.probe_impl = str(probe_impl)
        self._partition: Partition | None = None
        self._snapshot = StateSnapshot(
            cores=self.cores,
            levels=self.levels,
            seq=0,
            partition=None,
            probe_impl=self.probe_impl,
        )

    @property
    def snapshot(self) -> StateSnapshot:
        """The current immutable view (lock-free read)."""
        return self._snapshot

    @property
    def partition(self) -> Partition | None:
        """The live (mutable) partition — coordinator use only."""
        return self._partition

    @property
    def taskset(self) -> MCTaskSet | None:
        return None if self._partition is None else self._partition.taskset

    def commit(self, partition: Partition) -> StateSnapshot:
        """Install ``partition`` as the live state; publish its snapshot."""
        self._partition = partition
        snap = StateSnapshot(
            cores=self.cores,
            levels=self.levels,
            seq=self._snapshot.seq + 1,
            partition=partition.snapshot(),
            probe_impl=self.probe_impl,
        )
        self._snapshot = snap
        return snap
