"""Batch-vs-scalar equivalence of the vectorized Theorem-1 machinery.

The batch engine promises *bit-identical* results to the scalar path —
including the awkward corners: undefined (NaN) lambda chains, infeasible
matrices (``inf`` core utilization), and the ``K = 1`` degenerate case.
These properties are what lets the partitioners switch paths without
changing a single placement decision.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    available_utilizations,
    batch_available_utilizations,
    batch_capacity_terms,
    batch_core_utilization,
    batch_demand_terms,
    batch_is_feasible_core,
    batch_lambda_factors,
    batch_worst_case_load,
    capacity_terms,
    core_utilization,
    demand_terms,
    is_feasible_core,
    lambda_factors,
    worst_case_load,
)
from repro.analysis.batch import _is_feasible_stack
from repro.types import ModelError

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
# Entries up to ~1.6 routinely produce undefined lambda factors
# (denominator <= 0), failed conditions, and infeasible matrices, so the
# NaN/-inf/inf code paths all get exercised; half the stacks are scaled
# by 0.1, so that long chains stay defined.  K runs to 12: NumPy adds
# eight or more terms pairwise, so the level-order summation contract
# only shows past K = 8.


@st.composite
def level_matrix_stacks(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=8 if k <= 6 else 2))
    entries = st.floats(min_value=0.0, max_value=1.6, allow_nan=False)
    flat = draw(
        st.lists(entries, min_size=m * k * k, max_size=m * k * k)
    )
    scale = draw(st.sampled_from([1.0, 0.1]))
    mats = np.array(flat, dtype=np.float64).reshape(m, k, k) * scale
    # Level matrices are lower-triangular by construction (no utilization
    # above a task's own criticality); zero the strict upper triangle on
    # half the stacks so both shapes are covered.
    if draw(st.booleans()):
        mats *= np.tril(np.ones((k, k)))
    return mats


STACK_SETTINGS = settings(max_examples=150, deadline=None)


# ----------------------------------------------------------------------
# Element-wise equivalence (bit-identical, NaN-aware)
# ----------------------------------------------------------------------
class TestBatchMatchesScalar:
    @STACK_SETTINGS
    @given(level_matrix_stacks())
    def test_lambda_factors(self, mats):
        batch = batch_lambda_factors(mats)
        scalar = np.stack([lambda_factors(mat) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks())
    def test_demand_terms(self, mats):
        batch = batch_demand_terms(mats)
        scalar = np.stack([demand_terms(mat) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks())
    def test_capacity_terms(self, mats):
        batch = batch_capacity_terms(mats)
        scalar = np.stack([capacity_terms(mat) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks())
    def test_available_utilizations(self, mats):
        batch = batch_available_utilizations(mats)
        scalar = np.stack([available_utilizations(mat) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks(), st.sampled_from(["max", "min"]))
    def test_core_utilization(self, mats, rule):
        batch = batch_core_utilization(mats, rule=rule)
        scalar = np.array([core_utilization(mat, rule=rule) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks())
    def test_worst_case_load(self, mats):
        batch = batch_worst_case_load(mats)
        scalar = np.array([worst_case_load(mat) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks())
    def test_is_feasible_core(self, mats):
        batch = batch_is_feasible_core(mats)
        scalar = np.array([is_feasible_core(mat) for mat in mats])
        np.testing.assert_array_equal(batch, scalar)

    @STACK_SETTINGS
    @given(level_matrix_stacks(), st.sampled_from(["max", "min"]), st.data())
    def test_split_stack(self, mats, rule, data):
        """The lockstep's one call: Eq.-(15) values for the leading rows
        (admitted where finite), feasibility for the rest."""
        rows = data.draw(st.integers(0, len(mats)))
        admits, utils = _is_feasible_stack(mats, rule, rows)
        lead = np.array([core_utilization(mat, rule=rule) for mat in mats[:rows]])
        np.testing.assert_array_equal(utils, lead.reshape(rows))
        np.testing.assert_array_equal(admits[:rows], np.isfinite(lead))
        rest = np.array([is_feasible_core(mat) for mat in mats[rows:]], dtype=bool)
        np.testing.assert_array_equal(admits[rows:], rest)


# ----------------------------------------------------------------------
# Targeted corners
# ----------------------------------------------------------------------
class TestCorners:
    def test_undefined_lambda_chain_is_nan_from_first_failure(self):
        # U_1(1) >= 1 kills the j = 2 denominator: every later lambda
        # must be NaN even if its own denominator would be fine.
        mat = np.zeros((3, 3))
        mat[0, 0] = 1.0
        stack = np.stack([mat, np.zeros((3, 3))])
        lambdas = batch_lambda_factors(stack)
        assert np.isnan(lambdas[0, 1]) and np.isnan(lambdas[0, 2])
        np.testing.assert_array_equal(lambdas[1], np.array([0.0, 0.0, 0.0]))

    def test_level_order_sums_at_every_k(self):
        # Dense small entries keep every chain defined, so each sum shows.
        rng = np.random.default_rng(2016)
        for k in (7, 8, 9, 10, 12):
            mats = np.tril(rng.uniform(0.0, 0.15, size=(200, k, k)))
            np.testing.assert_array_equal(
                batch_lambda_factors(mats), np.stack([lambda_factors(m) for m in mats])
            )
            np.testing.assert_array_equal(
                batch_worst_case_load(mats), [worst_case_load(m) for m in mats]
            )
            for rule in ("max", "min"):
                np.testing.assert_array_equal(
                    batch_core_utilization(mats, rule),
                    [core_utilization(m, rule=rule) for m in mats],
                )

    def test_infeasible_rows_are_inf_feasible_rows_finite(self):
        heavy = np.full((2, 2), 2.0)
        light = np.array([[0.1, 0.0], [0.1, 0.3]])
        utils = batch_core_utilization(np.stack([heavy, light]))
        assert np.isinf(utils[0])
        assert np.isfinite(utils[1])
        assert utils[1] == core_utilization(light)

    def test_k1_degenerates_to_plain_edf(self):
        stack = np.array([[[0.4]], [[1.2]]])
        utils = batch_core_utilization(stack)
        assert utils[0] == pytest.approx(0.4)
        assert np.isinf(utils[1])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ModelError):
            batch_lambda_factors(np.zeros((2, 2)))
        with pytest.raises(ModelError):
            batch_core_utilization(np.zeros((2, 3, 2)))
        with pytest.raises(ModelError):
            batch_core_utilization(np.zeros((1, 2, 2)), rule="median")

    def test_empty_stack_allowed(self):
        # Zero matrices in, zero answers out — the Partition cache feeds
        # exactly the stale subset, which may be anything from 0 to M.
        out = batch_core_utilization(np.zeros((0, 3, 3)))
        assert out.shape == (0,)
        assert batch_is_feasible_core(np.zeros((0, 3, 3))).shape == (0,)
