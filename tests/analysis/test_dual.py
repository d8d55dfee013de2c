"""Dual-criticality specialization tests + cross-checks against Theorem 1."""

import numpy as np
import pytest

from repro.analysis import (
    SPEEDUP_BOUND,
    DualUtilizations,
    deadline_scale_factor,
    is_feasible_dual,
    is_feasible_theorem1,
    lambda_factors,
    minimum_speed,
)
from repro.analysis.dual import is_feasible_classic
from repro.types import ModelError


def mat(lo_lo, hi_lo, hi_hi):
    return np.array([[lo_lo, 0.0], [hi_lo, hi_hi]])


def du(lo_lo, hi_lo, hi_hi):
    return DualUtilizations(lo_lo=lo_lo, hi_lo=hi_lo, hi_hi=hi_hi)


def random_dual(rng):
    lo_lo = float(rng.uniform(0.0, 1.1))
    hi_lo = float(rng.uniform(0.0, 0.8))
    hi_hi = hi_lo * float(rng.uniform(1.0, 2.5))
    return du(lo_lo, hi_lo, hi_hi)


class TestEq7:
    def test_easy_set_feasible(self):
        assert is_feasible_dual(du(0.3, 0.2, 0.5))

    def test_overloaded_set_infeasible(self):
        assert not is_feasible_dual(du(0.6, 0.5, 0.9))

    def test_ratio_branch(self):
        # min picks U_2(1)/(1-U_2(2)) = 0.2/0.4 = 0.5 < U_2(2) is false here;
        # construct a case where the ratio branch is the smaller one.
        u = du(0.4, 0.1, 0.8)
        # ratio = 0.1/0.2 = 0.5 < 0.8 -> demand 0.9 <= 1
        assert is_feasible_dual(u)

    def test_top_level_saturation(self):
        assert not is_feasible_dual(du(0.2, 0.2, 1.05))

    def test_boundary_exact_one(self):
        assert is_feasible_dual(du(0.5, 0.0, 0.5))

    def test_from_level_matrix(self):
        u = DualUtilizations.from_level_matrix(mat(0.1, 0.2, 0.3))
        assert (u.lo_lo, u.hi_lo, u.hi_hi) == (0.1, 0.2, 0.3)

    def test_from_level_matrix_wrong_shape(self):
        with pytest.raises(ModelError):
            DualUtilizations.from_level_matrix(np.zeros((3, 3)))


class TestCrossChecks:
    def test_eq7_equals_theorem1_on_random_instances(self, rng):
        agree_feasible = 0
        for _ in range(500):
            u = random_dual(rng)
            m = mat(u.lo_lo, u.hi_lo, u.hi_hi)
            assert is_feasible_dual(u) == is_feasible_theorem1(m)
            agree_feasible += is_feasible_dual(u)
        assert 0 < agree_feasible < 500  # both branches exercised

    def test_x_factor_equals_lambda2(self, rng):
        for _ in range(200):
            u = random_dual(rng)
            m = mat(u.lo_lo, u.hi_lo, u.hi_hi)
            lam2 = lambda_factors(m)[1]
            x = deadline_scale_factor(u)
            if x is None:
                assert np.isnan(lam2)
            else:
                assert lam2 == pytest.approx(x)

    def test_eq7_implies_classic(self, rng):
        # The JACM'15 x-factor test dominates Eq. (7).
        hits = 0
        for _ in range(500):
            u = random_dual(rng)
            if is_feasible_dual(u):
                hits += 1
                assert is_feasible_classic(u)
        assert hits > 50

    @pytest.mark.parametrize(
        "u",
        [du(1.0, 0.0, 0.5), du(1.0, 3.832936958126261e-97, 0.5)],
        ids=["no-lo-mode-hi-demand", "subnormal-lo-mode-hi-demand"],
    )
    def test_eq7_implies_classic_at_saturated_lo(self, u):
        # U_1(1) = 1 leaves deadline_scale_factor no quotient, yet Eq. (7)
        # accepts; the classic test must too (x -> 0+ is admissible).
        assert deadline_scale_factor(u) is None
        assert is_feasible_dual(u)
        assert is_feasible_classic(u)

    def test_classic_strictly_stronger_example(self):
        # Accepted by the x-factor test, rejected by Eq. (7).
        u = du(0.3, 0.2, 0.75)
        assert not is_feasible_dual(u)
        assert is_feasible_classic(u)


class TestScaleFactor:
    def test_zero_without_hi_tasks(self):
        assert deadline_scale_factor(du(0.5, 0.0, 0.0)) == 0.0

    def test_none_when_lo_saturated(self):
        assert deadline_scale_factor(du(1.0, 0.1, 0.2)) is None

    def test_none_when_factor_too_large(self):
        assert deadline_scale_factor(du(0.5, 0.6, 0.7)) is None

    def test_value(self):
        assert deadline_scale_factor(du(0.4, 0.3, 0.5)) == pytest.approx(0.5)


class TestSpeedup:
    def test_minimum_speed_feasible_set_is_at_most_one(self):
        assert minimum_speed(du(0.2, 0.1, 0.3)) <= 1.0 + 1e-6

    def test_speedup_bound_holds_on_clairvoyant_feasible_sets(self, rng):
        # Any instance with max(U_1(1)+U_2(1), U_2(2)) <= 1 is feasible on
        # a unit-speed clairvoyant scheduler; EDF-VD (x-factor test) needs
        # speed <= 4/3.
        for _ in range(300):
            lo_lo = float(rng.uniform(0.0, 1.0))
            hi_lo = float(rng.uniform(0.0, 1.0 - lo_lo))
            hi_hi = float(rng.uniform(hi_lo, 1.0))
            s = minimum_speed(du(lo_lo, hi_lo, hi_hi))
            assert s <= SPEEDUP_BOUND + 1e-6

    def test_eq7_exceeds_four_thirds_on_extreme_instance(self):
        # Documented in minimum_speed's docstring: Eq. (7) is weaker.
        s = minimum_speed(du(0.75, 0.25, 1.0), test=is_feasible_dual)
        assert s == pytest.approx(1.5, abs=1e-6)
        assert s > SPEEDUP_BOUND
