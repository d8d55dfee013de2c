"""Tests for the Partitioner base machinery and PartitionResult."""

import pytest

from repro.model import MCTask, MCTaskSet
from repro.partition import Partitioner, FirstFitDecreasing
from repro.types import PartitionError


class BrokenOrder(FirstFitDecreasing):
    name = "broken-order"

    def __init__(self, order):
        self.order = order

    def order_tasks(self, taskset):
        return self.order  # not a permutation


class TestPartitionerContract:
    def test_zero_cores_rejected(self):
        ts = MCTaskSet([MCTask(wcets=(1.0,), period=10.0)])
        with pytest.raises(PartitionError):
            FirstFitDecreasing().partition(ts, cores=0)

    def test_non_permutation_order_rejected(self):
        ts = MCTaskSet([MCTask(wcets=(1.0,), period=10.0) for _ in range(3)])
        # A duplicate, a missing, a negative and an out-of-range index.
        for order in ([0, 0, 2], [0, 1], [-1, 0, 1], [0, 1, 3]):
            with pytest.raises(PartitionError, match="broken-order: .*permutation"):
                BrokenOrder(order).partition(ts, cores=1)

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Partitioner()


class TestPartitionResult:
    def test_core_utilizations_recomputed_when_untracked(self):
        ts = MCTaskSet(
            [
                MCTask(wcets=(2.0,), period=10.0),
                MCTask(wcets=(3.0,), period=10.0),
            ],
            levels=1,
        )
        res = FirstFitDecreasing().partition(ts, cores=2)
        utils = res.core_utilizations()
        assert utils.shape == (2,)
        assert utils[0] == pytest.approx(0.5)
        assert utils[1] == pytest.approx(0.0)

    def test_core_utilizations_returns_copy(self):
        from repro.partition import CATPA

        ts = MCTaskSet([MCTask(wcets=(2.0,), period=10.0)], levels=1)
        res = CATPA().partition(ts, cores=1)
        a = res.core_utilizations()
        a[0] = 99.0
        assert res.core_utilizations()[0] != 99.0

    def test_assignment_reflects_partition(self):
        ts = MCTaskSet(
            [MCTask(wcets=(2.0,), period=10.0), MCTask(wcets=(9.0,), period=10.0)],
            levels=1,
        )
        res = FirstFitDecreasing().partition(ts, cores=2)
        assignment = res.assignment
        for i in range(2):
            assert assignment[i] == res.partition.core_of(i)


class TestSingleLevelDegenerate:
    """K = 1 reduces everything to classical partitioned EDF."""

    def test_all_schemes_handle_k1(self):
        from repro.partition import PAPER_SCHEMES, get_partitioner

        ts = MCTaskSet(
            [MCTask(wcets=(3.0,), period=10.0) for _ in range(4)], levels=1
        )
        for name in PAPER_SCHEMES:
            res = get_partitioner(name).partition(ts, cores=2)
            assert res.schedulable, name

    def test_k1_infeasible_when_sum_exceeds_cores(self):
        from repro.partition import get_partitioner

        ts = MCTaskSet(
            [MCTask(wcets=(8.0,), period=10.0) for _ in range(3)], levels=1
        )
        res = get_partitioner("ca-tpa").partition(ts, cores=2)
        assert not res.schedulable
