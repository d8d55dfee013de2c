"""Live daemon state: immutable snapshots, one state transition.

The coordinator is the only writer, and :meth:`ServeState.commit` is
its one transition: a flush's accepted tasks and their cores.  A commit
grows the committed partition by those tasks, assigns them in decision
order, freezes the result in place (:meth:`Partition.freeze`) and
publishes it in a fresh :class:`StateSnapshot`, replacing the previous
one with a single attribute store — atomic under both the GIL and
asyncio's cooperative scheduling — so ``GET /state`` handlers read
without any lock and can never observe a half-applied flush.  Replaying
the same ``(tasks, cores)`` records on a fresh state rebuilds the same
snapshots.

The live task set only grows, so a commit JSON-encodes its new tasks
only, and a snapshot encodes its ``/state`` body once, on the first read
of its ``seq``, from those per-task fragments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.metrics.core import imbalance_factor
from repro.model import MCTaskSet, Partition
from repro.model.io import task_to_dict, taskset_to_dict
from repro.types import PartitionError

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
    #: The state's per-task JSON fragments; the first ``task_count`` are
    #: this snapshot's tasks (the list only ever grows).
    fragments: list[str] = field(default_factory=list, compare=False, repr=False)

    @property
    def task_count(self) -> int:
        return 0 if self.partition is None else len(self.partition.taskset)

    def utilizations(self) -> np.ndarray:
        if self.partition is None:
            return np.zeros(self.cores, dtype=np.float64)
        return self.partition.core_utilizations()

    def to_dict(self) -> dict:
        """The ``GET /state`` document: the reference encoder of :attr:`body`."""
        return self._document(tasks=None)

    @cached_property
    def body(self) -> bytes:
        """The ``GET /state`` bytes, encoded once per ``seq``.

        Equal to ``json.dumps(self.to_dict()).encode()``: the document is
        encoded with an empty task list, which is its last value, and the
        committed per-task fragments are spliced into that list.
        """
        text = json.dumps(self._document(tasks=[]))
        if self.partition is None:
            return text.encode()
        tasks = ", ".join(self.fragments[: self.task_count])
        return (text[:-3] + tasks + text[-3:]).encode()  # text ends "[]}}"

    def _document(self, tasks: list | None) -> dict:
        utils = self.utilizations()
        doc = {
            "cores": self.cores,
            "levels": self.levels,
            "seq": self.seq,
            "tasks": self.task_count,
            "utilizations": utils.tolist(),
            "lambda": float(imbalance_factor(utils)),
        }
        if self.partition is None:
            doc["assignment"] = []
            doc["taskset"] = None
        else:
            doc["assignment"] = self.partition.assignment.tolist()
            doc["taskset"] = taskset_to_dict(self.partition.taskset, tasks)
        return doc


class ServeState:
    """Holder of the published snapshot; :meth:`commit` moves it on."""

    def __init__(self, cores: int, levels: int = 2):
        self.cores = int(cores)
        self.levels = int(levels)
        # Append-only, like the live task set it encodes: no endpoint
        # removes a live task and a rejected task never enters it, so a
        # commit encodes the new tail and every snapshot shares the list.
        self._fragments: list[str] = []
        self._snapshot = StateSnapshot(
            cores=self.cores,
            levels=self.levels,
            seq=0,
            partition=None,
        )

    @property
    def snapshot(self) -> StateSnapshot:
        """The current immutable view (lock-free read)."""
        return self._snapshot

    def commit(self, tasks: MCTaskSet, cores: Sequence[int]) -> StateSnapshot:
        """Add ``tasks`` (of this state's ``K``) on ``cores``; publish.

        The committed partition grows once, by ``tasks`` (warm-started,
        :meth:`Partition.extended`); task ``t`` goes to ``cores[t]``, in
        that order, and the grown partition is frozen and published.
        """
        if len(cores) != len(tasks):
            raise PartitionError(f"{len(tasks)} tasks but {len(cores)} cores")
        old = self._snapshot.partition
        part = Partition(tasks, self.cores) if old is None else old.extended(tasks)
        base = len(part.taskset) - len(tasks)
        for offset, core in enumerate(cores):
            part.assign(base + offset, core)
        part.freeze()
        self._fragments.extend(json.dumps(task_to_dict(t)) for t in tasks)
        snap = StateSnapshot(
            cores=self.cores,
            levels=self.levels,
            seq=self._snapshot.seq + 1,
            partition=part,
            fragments=self._fragments,
        )
        self._snapshot = snap
        return snap
