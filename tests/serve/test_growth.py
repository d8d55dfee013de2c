"""Append-only live state: flush growth and the once-per-commit /state body.

A ``/place`` flush grows the live task set by its accepted tasks only,
in one :meth:`ServeState.commit` of ``(accepted tasks, cores)``, and
``GET /state`` answers with bytes encoded once per commit ``seq`` from
per-task fragments.  These tests pin that the shortcut is exact: the
grown set equals a cold build, the level matrices equal a replay, the
body equals the reference encoder, and replaying the commit records on
a fresh state gives the same bytes, after every flush.
"""

import asyncio
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import MCTask, MCTaskSet, Partition
from repro.serve.batcher import MicroBatcher, WorkItem
from repro.serve.coordinator import Coordinator
from repro.serve.handlers import Api
from repro.serve.protocol import PlaceRequest
from repro.serve.state import ServeState

NAME_CHARS = st.sampled_from(list('ab "\\\'\n\t/é✓µ😀 '))


@st.composite
def place_tasks(draw, levels):
    """A task of criticality 1..levels; oversized ones (u >= 1) never fit."""
    crit = draw(st.integers(1, levels))
    if draw(st.booleans()) and draw(st.booleans()):
        u = draw(st.floats(1.0, 1.5))
    else:
        u = draw(st.floats(0.01, 0.35))
    utils = [u]
    for _ in range(crit - 1):
        utils.append(utils[-1] * draw(st.floats(1.0, 1.6)))
    period = draw(st.floats(5.0, 200.0))
    name = draw(st.text(NAME_CHARS, max_size=6))
    return MCTask.from_utilizations(utils, period, name=name)


@st.composite
def flush_plans(draw):
    levels = draw(st.sampled_from([1, 2, 3]))
    cores = draw(st.sampled_from([1, 2, 4]))
    batch = st.lists(place_tasks(levels), min_size=1, max_size=8)
    return levels, cores, draw(st.lists(batch, min_size=1, max_size=6))


def run_flushes(coordinator, batches, after_each):
    """Flush each batch of tasks in turn; ``after_each(bodies)`` after each."""

    async def main():
        loop = asyncio.get_running_loop()
        for tasks in batches:
            items = [
                WorkItem("place", PlaceRequest(t), loop.create_future())
                for t in tasks
            ]
            coordinator.flush(items)
            after_each([item.future.result() for item in items])

    asyncio.run(main())


def assert_body_is_reference(snap):
    assert snap.body == json.dumps(snap.to_dict()).encode()


class TestGrowthProperty:
    @settings(max_examples=40, deadline=None)
    @given(flush_plans())
    def test_every_flush_matches_a_cold_rebuild(self, plan):
        levels, cores, batches = plan
        state = ServeState(cores=cores, levels=levels)
        coordinator = Coordinator(state, MicroBatcher())
        # A restart's replay: every commit's (accepted tasks, cores)
        # record, fed in order to a fresh state.
        restarted = ServeState(cores=cores, levels=levels)
        accepted: list[MCTask] = []
        commits = []
        pending = iter(batches)

        def check(bodies):
            tasks = next(pending)
            kept = [t for t, b in zip(tasks, bodies) if b["accepted"]]
            accepted.extend(kept)
            commits.extend(kept[:1])  # a flush commits iff it accepts
            snap = state.snapshot
            assert_body_is_reference(snap)
            assert snap.seq == len(commits)
            assert snap.task_count == len(accepted)
            if kept:
                cores_of = [b["core"] for b in bodies if b["accepted"]]
                restarted.commit(MCTaskSet(kept, levels=levels), cores_of)
            assert restarted.snapshot.body == snap.body
            live = snap.partition
            if live is None:
                assert not accepted
                return
            assert live.is_frozen
            assert list(live.taskset) == accepted
            cold = MCTaskSet(accepted, levels=levels)
            assert live.taskset == cold and hash(live.taskset) == hash(cold)
            np.testing.assert_array_equal(
                live.taskset.utilization_matrix, cold.utilization_matrix
            )
            np.testing.assert_array_equal(
                live.taskset.criticalities, cold.criticalities
            )
            replay = Partition.from_assignment(cold, cores, live.assignment)
            np.testing.assert_array_equal(
                live.level_matrices(), replay.level_matrices()
            )

        run_flushes(coordinator, batches, check)


def loaded_state(n, cores=4, levels=2):
    """A state holding ``n`` tiny committed tasks, round-robin over cores."""
    tasks = [
        MCTask(wcets=(0.01, 0.02), period=100.0, name=f"t{i}") for i in range(n)
    ]
    state = ServeState(cores=cores, levels=levels)
    state.commit(MCTaskSet(tasks, levels=levels), [i % cores for i in range(n)])
    return state


class TestFlushCost:
    def test_one_task_flush_builds_one_row(self, monkeypatch):
        state = loaded_state(2000)
        coordinator = Coordinator(state, MicroBatcher())
        calls = []
        original = MCTask.utilization_vector

        def counted(self, levels):
            calls.append(self)
            return original(self, levels)

        monkeypatch.setattr(MCTask, "utilization_vector", counted)
        new = MCTask(wcets=(0.5, 1.0), period=50.0, name="new")
        bodies = []
        run_flushes(coordinator, [[new]], bodies.extend)
        assert bodies[0]["accepted"]
        assert calls == [new]
        assert state.snapshot.task_count == 2001

    def test_refusing_flush_grows_nothing(self, monkeypatch):
        state = loaded_state(8, cores=2)
        coordinator = Coordinator(state, MicroBatcher())
        before = state.snapshot
        grown = []
        for cls, name in ((Partition, "extended"), (MCTaskSet, "appended")):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name):
                grown.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        too_big = [
            MCTask(wcets=(0.9, 1.0), period=1.0, name=f"big{i}") for i in range(3)
        ]
        bodies = []
        run_flushes(coordinator, [too_big], bodies.extend)
        assert [b["accepted"] for b in bodies] == [False] * 3
        assert all(b["seq"] == before.seq for b in bodies)
        assert grown == []
        assert state.snapshot is before


class TestStateBody:
    def test_reads_reuse_bytes_until_a_commit(self):
        state = ServeState(cores=1, levels=2)
        coordinator = Coordinator(state, MicroBatcher())
        api = Api(state, MicroBatcher())

        def read():
            status, body = asyncio.run(api.handle("GET", "/state", None))
            assert status == 200
            return body

        empty = read()
        assert read() is empty
        assert json.loads(empty)["taskset"] is None
        assert_body_is_reference(state.snapshot)

        bodies = []
        big = MCTask(wcets=(0.6, 0.8), period=1.0, name='big "one"')
        run_flushes(coordinator, [[big]], bodies.extend)
        first = read()
        assert bodies[0]["accepted"] and first is not empty
        assert read() is first
        assert_body_is_reference(state.snapshot)

        # A flush that only rejects commits nothing: same seq, same bytes.
        seq = state.snapshot.seq
        too_big = MCTask(wcets=(0.6, 0.9), period=1.0, name="too-big")
        run_flushes(coordinator, [[too_big]], bodies.extend)
        assert not bodies[1]["accepted"]
        assert state.snapshot.seq == seq
        assert read() is first
