"""Coordinator semantics: offline parity, batched placement, rollback."""

import asyncio
import json

import numpy as np
import pytest

from repro.partition.backend import BatchBackend, get_backend, probe_request
from repro.partition.registry import available_schemes, get_partitioner
from repro.serve import coordinator as coordinator_module
from repro.serve.batcher import MicroBatcher, WorkItem
from repro.serve.coordinator import Coordinator
from repro.serve.protocol import AdmitRequest, PlaceRequest, ProtocolError
from repro.serve.state import ServeState
from tests.conftest import contract_workload, make_task, random_taskset


def make_coordinator(cores=2, levels=2):
    """A coordinator over fresh state."""
    state = ServeState(cores=cores, levels=levels)
    return Coordinator(state, MicroBatcher()), state


@pytest.fixture
def flush_on(monkeypatch):
    """``flush_on(impl)`` points the flush's probe kernel at a backend."""

    def use(impl):
        backend = get_backend(impl)

        def probe(level_matrices, taskset, idx, cores=None):
            request = probe_request(level_matrices, taskset, idx, cores)
            return backend.answer(request)[1]

        monkeypatch.setattr(coordinator_module, "batch_probe_tasks", probe)

    return use


def flush_one(coordinator, kind, request):
    """Drive one request through flush(); return its result (or raise)."""
    return flush_many(coordinator, [(kind, request)])[0]


def flush_many(coordinator, reqs):
    async def main():
        loop = asyncio.get_running_loop()
        items = [
            WorkItem(kind, request, loop.create_future()) for kind, request in reqs
        ]
        coordinator.flush(items)
        return [item.future.result() for item in items]

    return asyncio.run(main())


class TestAdmit:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_bit_identical_to_offline(self, scheme):
        for ts, cores in (
            (random_taskset(np.random.default_rng(1), n=12), 3),
            contract_workload(),
        ):
            coordinator, _ = make_coordinator(cores=cores)
            body = flush_one(coordinator, "admit", AdmitRequest(ts, cores, scheme))
            offline = get_partitioner(scheme).partition(ts, cores)
            assert body["schedulable"] == offline.schedulable
            assert body["assignment"] == offline.partition.assignment.tolist()
            assert body["failed_task"] == offline.failed_task
            assert body["order"] == list(offline.order)
            # Utilizations too — same floats, not merely close.
            utils = offline.partition.core_utilizations().tolist()
            assert body["utilizations"] == utils
            # RFC 8259 JSON: no Infinity/NaN (json.loads would accept them).
            json.dumps(body, allow_nan=False)

    def test_admit_does_not_touch_live_state(self):
        ts = random_taskset(np.random.default_rng(2), n=6)
        coordinator, state = make_coordinator()
        before = state.snapshot
        flush_one(coordinator, "admit", AdmitRequest(ts, 2, "ca-tpa"))
        assert state.snapshot is before
        assert state.snapshot.partition is None


class TestPlace:
    def test_accepted_task_joins_live_state(self):
        coordinator, state = make_coordinator()
        body = flush_one(
            coordinator, "place", PlaceRequest(make_task([0.3, 0.5], name="a"))
        )
        assert body["accepted"] is True and body["core"] in (0, 1)
        assert state.snapshot.task_count == 1
        assert state.snapshot.seq == 1
        assert state.snapshot.partition.core_of(0) == body["core"]

    def test_batch_equals_sequential_placement(self):
        """One coalesced flush decides exactly like one-at-a-time flushes."""
        tasks = [
            make_task([u, min(2 * u, 0.9)], name=f"t{i}")
            for i, u in enumerate([0.3, 0.25, 0.4, 0.2, 0.35])
        ]
        batched, batched_state = make_coordinator(cores=3)
        batch_bodies = flush_many(
            batched, [("place", PlaceRequest(t)) for t in tasks]
        )
        sequential, sequential_state = make_coordinator(cores=3)
        seq_bodies = [
            flush_one(sequential, "place", PlaceRequest(t)) for t in tasks
        ]
        assert [b["core"] for b in batch_bodies] == [b["core"] for b in seq_bodies]
        assert np.array_equal(
            batched_state.snapshot.partition.level_matrices(),
            sequential_state.snapshot.partition.level_matrices(),
        )

    def test_rejected_task_leaves_no_trace(self):
        coordinator, state = make_coordinator(cores=1)
        assert flush_one(
            coordinator, "place", PlaceRequest(make_task([0.6, 0.8], name="big"))
        )["accepted"]
        before_mats = state.snapshot.partition.level_matrices().copy()
        body = flush_one(
            coordinator, "place", PlaceRequest(make_task([0.6, 0.9], name="too-big"))
        )
        assert body["accepted"] is False and body["core"] is None
        assert state.snapshot.task_count == 1  # not a member of the live set
        assert np.array_equal(state.snapshot.partition.level_matrices(), before_mats)

    def test_mixed_batch_keeps_only_accepted(self):
        coordinator, state = make_coordinator(cores=1)
        bodies = flush_many(
            coordinator,
            [
                ("place", PlaceRequest(make_task([0.5, 0.7], name="fits"))),
                ("place", PlaceRequest(make_task([0.5, 0.7], name="overflows"))),
                ("place", PlaceRequest(make_task([0.1, 0.15], name="fits-too"))),
            ],
        )
        assert [b["accepted"] for b in bodies] == [True, False, True]
        names = [t.name for t in state.snapshot.partition.taskset]
        assert names == ["fits", "fits-too"]
        assert state.snapshot.partition.is_complete

    def test_criticality_above_daemon_levels_rejected(self):
        coordinator, state = make_coordinator(levels=2)

        async def main():
            loop = asyncio.get_running_loop()
            item = WorkItem(
                "place",
                PlaceRequest(make_task([0.1, 0.2, 0.3], name="k3")),
                loop.create_future(),
            )
            coordinator.flush([item])
            return item.future

        future = asyncio.run(main())
        with pytest.raises(ProtocolError, match="K=2"):
            future.result()
        assert state.snapshot.partition is None

    def test_backend_choice_never_moves_a_placement(self, flush_on):
        """scalar == batch == one request per flush, decision-level.

        The first flush holds two identical tasks on an empty system:
        both rows first probe best on core 0, and placing the first
        moves the second's best core to 1 — a flush that skipped the
        post-placement column refresh would stack both on core 0.
        """
        twins = [make_task([0.3, 0.5], name=f"twin{i}") for i in range(2)]
        tasks = twins + [
            make_task([u, min(1.9 * u, 0.9)], name=f"t{i}")
            for i, u in enumerate(
                [0.3, 0.25, 0.4, 0.2, 0.35, 0.15, 0.5, 0.1, 0.45, 0.2]
            )
        ]

        def outcome(bodies, state):
            return (
                [(b["accepted"], b["core"]) for b in bodies],
                state.snapshot.partition.assignment.tolist(),
                state.snapshot.partition.level_matrices().tolist(),
            )

        outcomes = []
        for impl in ("batch", "scalar"):
            flush_on(impl)
            coordinator, state = make_coordinator(cores=3)
            bodies = []
            # Several multi-request flushes against the same live state.
            for chunk in (tasks[:2], tasks[2:6], tasks[6:9], tasks[9:]):
                bodies += flush_many(
                    coordinator, [("place", PlaceRequest(t)) for t in chunk]
                )
            outcomes.append(outcome(bodies, state))
        sequential, state = make_coordinator(cores=3)
        bodies = [flush_one(sequential, "place", PlaceRequest(t)) for t in tasks]
        outcomes.append(outcome(bodies, state))
        assert outcomes[0][0][:2] == [(True, 0), (True, 1)]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_multi_request_flush_decisions_are_pinned(self, flush_on):
        """Four multi-request flushes (with rejections) give exactly the
        decisions and final level matrices of the warm-cache placement
        path this flush replaced, under every backend."""
        tasks = list(
            random_taskset(np.random.default_rng(14), n=24, levels=2, max_u=0.35)
        )
        want_decisions = [
            (True, 0), (True, 1), (True, 2), (True, 0), (True, 2), (True, 1),
            (True, 0), (True, 2), (True, 0), (True, 1), (False, None),
            (False, None), (False, None), (True, 1), (True, 0), (False, None),
            (False, None), (True, 1), (False, None), (True, 2), (False, None),
            (True, 1), (True, 1), (True, 2),
        ]
        want_matrices = [
            [[0.368592492448762, 0.0], [0.37848926986970194, 0.5853967921619261]],
            [[0.12077900051076448, 0.0], [0.5899704115096884, 0.8340807128188785]],
            [[0.5254699306372653, 0.0], [0.31732727828681034, 0.4285831135339019]],
        ]
        for impl in ("batch", "scalar"):
            flush_on(impl)
            coordinator, state = make_coordinator(cores=3)
            bodies = []
            for lo, hi in ((0, 5), (5, 11), (11, 18), (18, 24)):
                bodies += flush_many(
                    coordinator,
                    [("place", PlaceRequest(t)) for t in tasks[lo:hi]],
                )
            assert [(b["accepted"], b["core"]) for b in bodies] == want_decisions
            assert state.snapshot.partition.level_matrices().tolist() == want_matrices

    def test_default_backend_is_batch(self, monkeypatch):
        # Looked up on the class at call time, so a wrapper installed
        # after import sees every flush call.
        calls = []
        answer = BatchBackend.answer

        def counted(self, request):
            calls.append(request.keys.shape)
            return answer(self, request)

        monkeypatch.setattr(BatchBackend, "answer", counted)
        coordinator, state = make_coordinator()
        tasks = [make_task([0.2, 0.3]), make_task([0.1])]
        flush_many(coordinator, [("place", PlaceRequest(t)) for t in tasks])
        assert calls == [(2, 2), (1, 1)]  # the grid, then one column refresh
        assert "probe_impl" not in state.snapshot.to_dict()

    def test_mixed_admit_and_place_flush(self):
        ts = random_taskset(np.random.default_rng(3), n=5)
        coordinator, state = make_coordinator()
        bodies = flush_many(
            coordinator,
            [
                ("admit", AdmitRequest(ts, 2, "ffd")),
                ("place", PlaceRequest(make_task([0.2, 0.3], name="x"))),
            ],
        )
        assert "schedulable" in bodies[0]
        assert bodies[1]["accepted"] is True
        assert state.snapshot.task_count == 1
