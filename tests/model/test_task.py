"""Unit tests for the MCTask model."""

import math

import numpy as np
import pytest

from repro.model import MCTask
from repro.types import ModelError


class TestConstruction:
    def test_basic_fields(self):
        t = MCTask(wcets=(2.0, 5.0), period=10.0, name="t")
        assert t.criticality == 2
        assert t.period == 10.0
        assert t.wcets == (2.0, 5.0)

    def test_wcets_coerced_to_float(self):
        t = MCTask(wcets=(1, 2), period=4)
        assert t.wcets == (1.0, 2.0)
        assert isinstance(t.period, float)

    def test_numpy_real_scalars_accepted(self):
        t = MCTask(wcets=(np.int64(1), np.float32(2.5)), period=np.float64(10.0))
        assert t.wcets == (1.0, 2.5) and t.period == 10.0
        assert all(type(v) is float for v in (*t.wcets, t.period))

    def test_empty_wcets_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            MCTask(wcets=(), period=10.0)

    @pytest.mark.parametrize(
        "period", [0.0, -1.0, math.inf, math.nan, "x", "10", True, None, 10**400]
    )
    def test_bad_period_rejected(self, period):
        with pytest.raises(ModelError):
            MCTask(wcets=(1.0,), period=period)

    @pytest.mark.parametrize(
        "wcets",
        [(0.0,), (-1.0, 2.0), (math.inf,), (math.nan, 1.0), ("a",), "12", (True,),
         (1.0, np.bool_(True))],
    )
    def test_bad_wcets_rejected(self, wcets):
        with pytest.raises(ModelError):
            MCTask(wcets=wcets, period=10.0)

    @pytest.mark.parametrize("name", [["x"], None, 1])
    def test_non_str_name_rejected(self, name):
        with pytest.raises(ModelError, match="name must be a str"):
            MCTask(wcets=(1.0,), period=10.0, name=name)

    def test_decreasing_wcets_rejected(self):
        with pytest.raises(ModelError, match="non-decreasing"):
            MCTask(wcets=(5.0, 2.0), period=10.0)

    def test_equal_consecutive_wcets_allowed(self):
        # The model requires non-decreasing, not strictly increasing.
        t = MCTask(wcets=(2.0, 2.0, 3.0), period=10.0)
        assert t.criticality == 3

    def test_frozen(self):
        t = MCTask(wcets=(1.0,), period=2.0)
        with pytest.raises(AttributeError):
            t.period = 3.0


class TestUtilization:
    def test_per_level(self):
        t = MCTask(wcets=(2.0, 5.0), period=10.0)
        assert t.utilization(1) == pytest.approx(0.2)
        assert t.utilization(2) == pytest.approx(0.5)

    def test_above_own_criticality_is_zero(self):
        t = MCTask(wcets=(2.0,), period=10.0)
        assert t.utilization(2) == 0.0
        assert t.wcet(5) == 0.0

    def test_level_zero_rejected(self):
        t = MCTask(wcets=(2.0,), period=10.0)
        with pytest.raises(ModelError):
            t.utilization(0)
        with pytest.raises(ModelError):
            t.wcet(0)

    def test_max_utilization(self):
        t = MCTask(wcets=(2.0, 5.0, 6.0), period=10.0)
        assert t.max_utilization == pytest.approx(0.6)

    def test_utilization_vector_padding(self):
        t = MCTask(wcets=(2.0, 5.0), period=10.0)
        assert t.utilization_vector(4) == pytest.approx((0.2, 0.5, 0.0, 0.0))

    def test_utilization_vector_truncation_rejected(self):
        t = MCTask(wcets=(2.0, 5.0), period=10.0)
        with pytest.raises(ModelError):
            t.utilization_vector(1)


class TestHelpers:
    def test_from_utilizations_roundtrip(self):
        t = MCTask.from_utilizations([0.1, 0.3], period=50.0)
        assert t.wcets == pytest.approx((5.0, 15.0))
        assert t.utilization(2) == pytest.approx(0.3)

    def test_scaled(self):
        t = MCTask(wcets=(2.0, 4.0), period=10.0, name="x")
        s = t.scaled(0.5)
        assert s.wcets == pytest.approx((1.0, 2.0))
        assert s.period == t.period
        assert s.name == "x"

    def test_scaled_rejects_nonpositive(self):
        t = MCTask(wcets=(2.0,), period=10.0)
        with pytest.raises(ModelError):
            t.scaled(0.0)

    def test_equality_and_hash(self):
        a = MCTask(wcets=(1.0, 2.0), period=4.0)
        b = MCTask(wcets=(1.0, 2.0), period=4.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_str_contains_name(self):
        t = MCTask(wcets=(1.0,), period=2.0, name="nav")
        assert "nav" in str(t)
