"""Tests for per-scheme result aggregation."""

import math

import pytest

from repro.metrics import SchemeAccumulator
from repro.model import MCTask, MCTaskSet
from repro.partition import CATPA, FirstFitDecreasing
from repro.types import ModelError


def result_for(us, cores=2, scheme=FirstFitDecreasing):
    ts = MCTaskSet(
        [MCTask.from_utilizations([u], 10.0) for u in us], levels=1
    )
    return scheme().partition(ts, cores=cores)


class TestAccumulator:
    def test_counts_and_ratio(self):
        acc = SchemeAccumulator("ffd")
        acc.add(result_for([0.5, 0.4]))          # schedulable
        acc.add(result_for([0.9, 0.9, 0.9]))     # infeasible on 2 cores
        stats = acc.finalize()
        assert stats.total_sets == 2
        assert stats.schedulable_sets == 1
        assert stats.sched_ratio == pytest.approx(0.5)

    def test_quality_metrics_over_schedulable_only(self):
        acc = SchemeAccumulator("ffd")
        acc.add(result_for([0.5, 0.4]))          # FFD packs both on core 0
        acc.add(result_for([0.9, 0.9, 0.9]))     # failed: must not pollute means
        stats = acc.finalize()
        assert stats.u_sys == pytest.approx(0.9)
        assert stats.u_avg == pytest.approx(0.45)
        # Loaded-core Lambda: the idle second core is excluded, and a
        # single loaded core is perfectly balanced.
        assert stats.imbalance == pytest.approx(0.0)

    def test_empty_schedulable_gives_nan(self):
        acc = SchemeAccumulator("ffd")
        acc.add(result_for([0.9, 0.9, 0.9]))
        stats = acc.finalize()
        assert math.isnan(stats.u_sys)
        assert stats.sched_ratio == 0.0

    def test_no_sets_gives_nan_ratio(self):
        stats = SchemeAccumulator("ffd").finalize()
        assert math.isnan(stats.sched_ratio)

    def test_accumulators_are_keyed_by_label(self):
        # A label may differ from the partitioner's registry name.
        acc = SchemeAccumulator("ffd-as-baseline")
        acc.add(result_for([0.5]))
        assert acc.finalize().scheme == "ffd-as-baseline"

    def test_merge(self):
        a = SchemeAccumulator("ffd")
        b = SchemeAccumulator("ffd")
        a.add(result_for([0.5, 0.4]))
        b.add(result_for([0.3]))
        b.add(result_for([0.9, 0.9, 0.9]))
        a.merge(b)
        stats = a.finalize()
        assert stats.total_sets == 3
        assert stats.schedulable_sets == 2

    def test_merge_adds_wins(self):
        a = SchemeAccumulator("ffd", wins={"wfd": 2, "bfd": 0})
        b = SchemeAccumulator("ffd", wins={"wfd": 1, "bfd": 3})
        a.merge(b)
        assert a.wins == {"wfd": 3, "bfd": 3}
        assert a.finalize().wins == {"wfd": 3, "bfd": 3}

    def test_merge_mismatch_rejected(self):
        a = SchemeAccumulator("ffd")
        with pytest.raises(ModelError):
            a.merge(SchemeAccumulator("wfd"))

    def test_works_with_catpa_cached_utils(self):
        acc = SchemeAccumulator("ca-tpa")
        acc.add(result_for([0.4, 0.4], scheme=CATPA))
        stats = acc.finalize()
        assert stats.schedulable_sets == 1
        assert 0.0 <= stats.u_sys <= 1.0


class TestJsonRoundTrip:
    """The engine checkpoints accumulators and stats as strict JSON."""

    def _loaded(self):
        acc = SchemeAccumulator("ffd", wins={"wfd": 1, "ca-tpa": 0})
        acc.add(result_for([0.5, 0.4]))
        acc.add(result_for([0.9, 0.9, 0.9]))
        acc.add(result_for([0.3]))
        return acc

    def test_accumulator_round_trip_is_bit_identical(self):
        import json

        acc = self._loaded()
        restored = SchemeAccumulator.from_dict(json.loads(json.dumps(acc.to_dict())))
        assert restored == acc
        assert restored.finalize() == acc.finalize()

    def test_stats_round_trip_is_bit_identical(self):
        import json

        stats = self._loaded().finalize()
        restored = type(stats).from_dict(json.loads(json.dumps(stats.to_dict())))
        assert restored == stats

    def test_nan_means_map_to_null_and_back(self):
        import json

        acc = SchemeAccumulator("ffd")
        acc.add(result_for([0.9, 0.9, 0.9]))  # unschedulable on 2 cores
        stats = acc.finalize()
        data = stats.to_dict()
        json.dumps(data, allow_nan=False)  # strict JSON must accept it
        assert data["u_sys"] is None and data["sched_ratio"] == 0.0
        restored = type(stats).from_dict(data)
        assert math.isnan(restored.u_sys)
        assert restored.to_dict() == data
