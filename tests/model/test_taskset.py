"""Unit tests for MCTaskSet and its utilization algebra."""

import numpy as np
import pytest

from repro.model import MCTask, MCTaskSet
from repro.types import ModelError


def simple_set():
    return MCTaskSet(
        [
            MCTask(wcets=(1.0,), period=10.0),  # l=1, u=(0.1,)
            MCTask(wcets=(2.0, 4.0), period=10.0),  # l=2, u=(0.2, 0.4)
            MCTask(wcets=(1.0, 2.0, 6.0), period=20.0),  # l=3, u=(.05,.1,.3)
        ],
        levels=3,
    )


class TestConstruction:
    def test_levels_default_to_max_criticality(self):
        ts = MCTaskSet([MCTask(wcets=(1.0, 2.0), period=4.0)])
        assert ts.levels == 2

    def test_levels_may_exceed_max_criticality(self):
        ts = MCTaskSet([MCTask(wcets=(1.0,), period=4.0)], levels=4)
        assert ts.levels == 4
        assert ts.utilization_matrix.shape == (1, 4)

    def test_levels_below_max_rejected(self):
        with pytest.raises(ModelError):
            MCTaskSet([MCTask(wcets=(1.0, 2.0), period=4.0)], levels=1)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            MCTaskSet([])

    def test_container_protocol(self):
        ts = simple_set()
        assert len(ts) == 3
        assert ts[1].criticality == 2
        assert [t.criticality for t in ts] == [1, 2, 3]

    def test_equality(self):
        assert simple_set() == simple_set()
        assert simple_set() != simple_set().with_levels(4)

    def test_matrices_read_only(self):
        ts = simple_set()
        with pytest.raises(ValueError):
            ts.utilization_matrix[0, 0] = 9.9
        with pytest.raises(ValueError):
            ts.criticalities[0] = 2


class TestUtilizationMatrix:
    def test_values_and_padding(self):
        ts = simple_set()
        expected = np.array(
            [
                [0.1, 0.0, 0.0],
                [0.2, 0.4, 0.0],
                [0.05, 0.1, 0.3],
            ]
        )
        np.testing.assert_allclose(ts.utilization_matrix, expected)

    def test_criticalities(self):
        np.testing.assert_array_equal(simple_set().criticalities, [1, 2, 3])


class TestLevelMatrix:
    def test_full_set(self):
        ts = simple_set()
        mat = ts.level_matrix()
        # L[j-1, k-1] = U_j(k): bucket rows by criticality.
        expected = np.array(
            [
                [0.1, 0.0, 0.0],
                [0.2, 0.4, 0.0],
                [0.05, 0.1, 0.3],
            ]
        )
        np.testing.assert_allclose(mat, expected)

    def test_bucket_merging(self):
        ts = MCTaskSet(
            [
                MCTask(wcets=(1.0, 2.0), period=10.0),
                MCTask(wcets=(2.0, 3.0), period=10.0),
            ],
            levels=2,
        )
        mat = ts.level_matrix()
        np.testing.assert_allclose(mat[1], [0.3, 0.5])
        np.testing.assert_allclose(mat[0], [0.0, 0.0])

    def test_subset_indices(self):
        ts = simple_set()
        mat = ts.level_matrix([0, 2])
        np.testing.assert_allclose(mat[0], [0.1, 0.0, 0.0])
        np.testing.assert_allclose(mat[1], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(mat[2], [0.05, 0.1, 0.3])

    def test_empty_indices_gives_zero_matrix(self):
        mat = simple_set().level_matrix([])
        np.testing.assert_allclose(mat, np.zeros((3, 3)))


class TestTotals:
    def test_total_utilization_counts_crit_at_or_above(self):
        ts = simple_set()
        # U(1): all tasks at level 1
        assert ts.total_utilization(1) == pytest.approx(0.1 + 0.2 + 0.05)
        # U(2): only tasks with l >= 2
        assert ts.total_utilization(2) == pytest.approx(0.4 + 0.1)
        # U(3): only the level-3 task
        assert ts.total_utilization(3) == pytest.approx(0.3)

    def test_total_vector_matches_scalar(self):
        ts = simple_set()
        vec = ts.total_utilization_vector()
        for k in range(1, 4):
            assert vec[k - 1] == pytest.approx(ts.total_utilization(k))

    def test_total_utilization_level_out_of_range(self):
        with pytest.raises(ModelError):
            simple_set().total_utilization(4)
        with pytest.raises(ModelError):
            simple_set().total_utilization(0)

    def test_average_utilization_is_raw_level_sum(self):
        ts = simple_set()
        assert ts.average_utilization(1) == pytest.approx(0.35)
        assert ts.average_utilization(3) == pytest.approx(0.3)


class TestDerivedSets:
    def test_subset(self):
        ts = simple_set()
        sub = ts.subset([1])
        assert len(sub) == 1
        assert sub.levels == 3
        assert sub[0] == ts[1]

    def test_subset_empty_rejected(self):
        with pytest.raises(ModelError):
            simple_set().subset([])

    def test_with_levels(self):
        ts = simple_set().with_levels(5)
        assert ts.levels == 5
        assert ts.utilization_matrix.shape == (3, 5)

    def test_appended_equals_cold_build(self):
        ts = simple_set()
        tail = [
            MCTask(wcets=(0.5, 1.0), period=8.0, name="new"),
            MCTask(wcets=(2.0,), period=40.0),
        ]
        grown = ts.appended(tail)
        cold = MCTaskSet(list(ts) + tail, levels=3)
        assert grown == cold and hash(grown) == hash(cold)
        np.testing.assert_array_equal(
            grown.utilization_matrix, cold.utilization_matrix
        )
        np.testing.assert_array_equal(grown.criticalities, cold.criticalities)
        assert grown.criticalities.dtype == cold.criticalities.dtype
        assert not grown.utilization_matrix.flags.writeable
        assert not grown.criticalities.flags.writeable
        assert len(ts) == 3  # the original is untouched

    def test_appended_validates_tail(self):
        with pytest.raises(ModelError, match="K=3"):
            simple_set().appended([MCTask(wcets=(1.0,) * 4, period=9.0)])
        with pytest.raises(ModelError, match="at least one task"):
            simple_set().appended([])
