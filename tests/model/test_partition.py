"""Unit tests for the Partition builder."""

import numpy as np
import pytest

from repro.model import MCTask, MCTaskSet, Partition
from repro.partition.backend import probe_request
from repro.types import ModelError, PartitionError


@pytest.fixture
def ts():
    return MCTaskSet(
        [
            MCTask(wcets=(1.0,), period=10.0),  # u=(0.1,)
            MCTask(wcets=(2.0, 4.0), period=10.0),  # u=(0.2, 0.4)
            MCTask(wcets=(3.0, 6.0), period=20.0),  # u=(0.15, 0.3)
        ],
        levels=2,
    )


def stacks_of(part, task_indices, cores=None):
    """The candidate stack of a probe request on ``part``'s matrices."""
    return probe_request(
        part.level_matrices(), part.taskset, task_indices, cores
    ).stack


class TestAssignment:
    def test_initially_unassigned(self, ts):
        part = Partition(ts, cores=2)
        assert not part.is_complete
        assert part.core_of(0) == -1
        assert part.tasks_on(0) == []

    def test_assign_and_query(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        part.assign(1, 1)
        part.assign(2, 1)
        assert part.is_complete
        assert part.core_of(2) == 1
        assert part.tasks_on(1) == [1, 2]
        assert part.core_size(0) == 1

    def test_double_assignment_rejected(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        with pytest.raises(PartitionError, match="already assigned"):
            part.assign(0, 1)

    def test_bad_core_rejected(self, ts):
        part = Partition(ts, cores=2)
        with pytest.raises(PartitionError):
            part.assign(0, 2)
        with pytest.raises(PartitionError):
            part.assign(0, -1)

    def test_bad_task_rejected(self, ts):
        part = Partition(ts, cores=2)
        with pytest.raises(PartitionError):
            part.assign(5, 0)

    def test_zero_cores_rejected(self, ts):
        with pytest.raises(PartitionError):
            Partition(ts, cores=0)


class TestLevelMatrices:
    def test_incremental_matches_batch(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        part.assign(1, 0)
        part.assign(2, 1)
        np.testing.assert_allclose(part.level_matrix(0), ts.level_matrix([0, 1]))
        np.testing.assert_allclose(part.level_matrix(1), ts.level_matrix([2]))

    def test_empty_core_matrix_is_zero(self, ts):
        part = Partition(ts, cores=3)
        np.testing.assert_allclose(part.level_matrix(2), np.zeros((2, 2)))

    def test_returned_matrix_not_writable(self, ts):
        part = Partition(ts, cores=1)
        part.assign(0, 0)
        with pytest.raises(ValueError):
            part.level_matrix(0)[0, 0] = 1.0

    def test_protection_cannot_be_stripped_from_aliases(self, ts):
        # The base array is read-only, so re-enabling the write flag on a
        # returned view (or any alias derived from it) must fail — the
        # old per-view setflags(write=False) only guarded one object.
        part = Partition(ts, cores=2)
        view = part.level_matrix(0)
        with pytest.raises(ValueError):
            view.setflags(write=True)
        alias = view[:]
        with pytest.raises(ValueError):
            alias.setflags(write=True)
        with pytest.raises(ValueError):
            alias[0, 0] = 1.0

    def test_level_matrices_stack_not_writable(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 1)
        stack = part.level_matrices()
        np.testing.assert_array_equal(stack[1], part.level_matrix(1))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            stack.setflags(write=True)

    def test_view_stays_readonly_after_assign(self, ts):
        part = Partition(ts, cores=2)
        view = part.level_matrix(0)
        part.assign(0, 0)  # toggles the base writable internally
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


class TestUtilizationCache:
    def test_matches_fresh_computation(self, ts):
        from repro.analysis import core_utilization

        part = Partition(ts, cores=2)
        part.assign(0, 0)
        part.assign(1, 1)
        first = part.core_utilizations()
        expected = np.array(
            [core_utilization(part.level_matrix(m)) for m in range(2)]
        )
        np.testing.assert_array_equal(first, expected)
        # Cached second read is identical (and a defensive copy).
        second = part.core_utilizations()
        np.testing.assert_array_equal(second, first)
        second[0] = 99.0
        assert part.core_utilization(0) == first[0]

    def test_empty_cores_are_zero(self, ts):
        part = Partition(ts, cores=3)
        np.testing.assert_array_equal(part.core_utilizations(), np.zeros(3))

    def test_invalidated_per_core_on_assign(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        before = part.core_utilizations()
        part.assign(1, 1)
        after = part.core_utilizations()
        assert after[0] == before[0]  # untouched core kept its entry
        assert after[1] > 0.0

    def test_matrix_updates_after_each_assign(self, ts):
        part = Partition(ts, cores=1)
        part.assign(1, 0)
        assert part.level_matrix(0)[1, 0] == pytest.approx(0.2)
        assert part.level_matrix(0)[1, 1] == pytest.approx(0.4)
        part.assign(2, 0)
        assert part.level_matrix(0)[1, 0] == pytest.approx(0.35)
        assert part.level_matrix(0)[1, 1] == pytest.approx(0.7)


class TestExport:
    def test_core_subsets(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 1)
        part.assign(1, 0)
        part.assign(2, 1)
        assert part.core_subsets() == [[1], [0, 2]]

    def test_core_tasksets(self, ts):
        part = Partition(ts, cores=3)
        part.assign(0, 0)
        subsets = part.core_tasksets()
        assert subsets[0] is not None and len(subsets[0]) == 1
        assert subsets[1] is None and subsets[2] is None

    def test_from_assignment_roundtrip(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        part.assign(1, 1)
        part.assign(2, 0)
        clone = Partition.from_assignment(ts, 2, part.assignment)
        assert clone.core_subsets() == part.core_subsets()

    def test_from_assignment_skips_unassigned(self, ts):
        part = Partition.from_assignment(ts, 2, [-1, 0, -1])
        assert part.core_of(0) == -1
        assert part.core_of(1) == 0
        assert not part.is_complete

    def test_assignment_returns_copy(self, ts):
        part = Partition(ts, cores=2)
        vec = part.assignment
        vec[0] = 1
        assert part.core_of(0) == -1


class TestUnassign:
    def test_unassign_reverts_matrices_exactly(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        before = part.level_matrix(1).copy()
        part.assign(1, 1)
        part.assign(2, 1)
        core = part.unassign(2)
        assert core == 1
        part.unassign(1)
        # Recomputed, not decremented: bit-identical to the pre-assign state.
        assert np.array_equal(part.level_matrix(1), before)
        assert part.core_of(1) == -1 and part.core_of(2) == -1
        assert part.tasks_on(1) == []

    def test_unassign_then_reassign_elsewhere(self, ts):
        part = Partition(ts, cores=2)
        part.assign(1, 0)
        part.unassign(1)
        part.assign(1, 1)
        assert part.core_of(1) == 1
        twin = Partition(ts, cores=2)
        twin.assign(1, 1)
        assert np.array_equal(part.level_matrices(), twin.level_matrices())

    def test_unassign_invalidates_util_cache(self, ts):
        part = Partition(ts, cores=2)
        part.assign(1, 0)
        loaded = part.core_utilization(0)
        assert loaded > 0.0
        part.unassign(1)
        assert part.core_utilization(0) == 0.0
        assert part.core_size(0) == 0

    def test_unassign_unassigned_rejected(self, ts):
        part = Partition(ts, cores=2)
        with pytest.raises(PartitionError, match="not assigned"):
            part.unassign(0)
        with pytest.raises(PartitionError, match="out of range"):
            part.unassign(99)


class TestSnapshot:
    """A frozen partition: what the admission daemon publishes."""

    def test_snapshot_is_immutable(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        assert not part.is_frozen
        part.freeze()
        assert part.is_frozen
        with pytest.raises(PartitionError, match="immutable"):
            part.assign(1, 1)
        with pytest.raises(PartitionError, match="immutable"):
            part.unassign(0)
        with pytest.raises(ValueError, match="read-only"):
            part.level_matrices()[0, 0, 0] = 1.0

    def test_snapshot_unaffected_by_later_mutation(self, ts):
        # The next commit grows a new partition; nothing it does
        # reaches the frozen one.
        part = Partition(ts.subset([0]), cores=2)
        part.assign(0, 0)
        part.freeze()
        mats = part.level_matrices().copy()
        ext = part.extended(ts.subset([1, 2]))
        ext.assign(1, 0)
        ext.assign(2, 1)
        ext.unassign(0)
        assert np.array_equal(part.level_matrices(), mats)
        assert part.assignment.tolist() == [0]
        assert part.core_size(0) == 1 and part.core_size(1) == 0

    def test_snapshot_reads_work(self, ts):
        part = Partition(ts, cores=2)
        part.assign(1, 0)
        live = Partition.from_assignment(ts, 2, part.assignment)
        part.freeze()
        assert part.core_utilization(0) == live.core_utilization(0)
        assert part.tasks_on(0) == [1]
        assert np.array_equal(stacks_of(part, [2]), stacks_of(live, [2]))


class TestExtended:
    def test_extended_carries_warm_state(self, ts):
        part = Partition(ts, cores=2)
        part.assign(0, 0)
        part.assign(1, 1)
        new = MCTask(wcets=(1.0, 2.0), period=5.0)
        ext = part.extended([new])
        grown = MCTaskSet(list(ts) + [new], levels=2)
        assert ext.taskset == grown
        assert ext.core_of(0) == 0 and ext.core_of(1) == 1
        assert ext.core_of(2) == -1 and ext.core_of(3) == -1
        assert np.array_equal(ext.level_matrices(), part.level_matrices())
        # The extension is mutable and matrices match a cold rebuild.
        ext.assign(3, 0)
        cold = Partition(grown, cores=2)
        for i, core in enumerate(ext.assignment):
            if core >= 0:
                cold.assign(i, int(core))
        assert np.array_equal(ext.level_matrices(), cold.level_matrices())

    def test_extended_rejects_level_change(self, ts):
        part = Partition(ts, cores=2)
        with pytest.raises(ModelError, match="K=2"):
            part.extended([MCTask(wcets=(1.0, 2.0, 3.0), period=10.0)])


class TestCandidateStacks:
    """The candidate stacks a probe request builds over a partition."""

    def test_matches_single_task_stacks(self, ts):
        part = Partition(ts, cores=3)
        part.assign(0, 0)
        part.assign(1, 2)
        stacks = stacks_of(part, [0, 1, 2]).reshape(3, 3, 2, 2)
        for t, i in enumerate([0, 1, 2]):
            assert np.array_equal(stacks[t], stacks_of(part, [i]))
        # A core selection is exactly those columns of the full stacks.
        selected = stacks_of(part, [0, 1, 2], cores=[2, 0])
        assert np.array_equal(selected.reshape(3, 2, 2, 2), stacks[:, [2, 0]])

    def test_empty_and_repeated_indices(self, ts):
        part = Partition(ts, cores=2)
        assert stacks_of(part, []).shape == (0, 2, 2)
        stacks = stacks_of(part, [2, 2]).reshape(2, 2, 2, 2)
        assert np.array_equal(stacks[0], stacks[1])

    def test_rejects_2d_indices(self, ts):
        part = Partition(ts, cores=2)
        with pytest.raises(PartitionError, match="1-D"):
            stacks_of(part, [[0, 1]])

    def test_writable_and_detached(self, ts):
        part = Partition(ts, cores=2)
        stacks = stacks_of(part, [0])
        stacks += 1.0  # writable copy
        assert np.array_equal(part.level_matrix(0), np.zeros((2, 2)))