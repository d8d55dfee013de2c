"""Property-based tests (hypothesis) on the core data structures and
invariants of the library.

Strategies build small-but-arbitrary MC task sets; the properties assert
the algebraic identities the rest of the library leans on: utilization
bookkeeping, the Theorem-1 machinery's ranges and cross-checks, ordering
rules, partition incrementality, and generator postconditions.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    available_utilizations,
    capacity_terms,
    contribution_matrix,
    contribution_order,
    core_utilization,
    demand_terms,
    is_feasible_dual,
    is_feasible_simple,
    is_feasible_theorem1,
    lambda_factors,
    utilization_contributions,
)
from repro.analysis.dual import DualUtilizations, is_feasible_classic
from repro.metrics import imbalance_factor
from repro.model import MCTask, MCTaskSet, Partition
from repro.partition.backend import available_backends, best_core, get_backend
from repro.types import EPS, fits_unit_capacity
from tests.conftest import eq15_rows, feasible_row

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite_u = st.floats(min_value=1e-4, max_value=0.9, allow_nan=False)


@st.composite
def mc_tasks(draw, max_levels=5):
    crit = draw(st.integers(min_value=1, max_value=max_levels))
    base = draw(finite_u)
    growths = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=2.0),
            min_size=crit - 1,
            max_size=crit - 1,
        )
    )
    utils = [base]
    for g in growths:
        utils.append(utils[-1] * g)
    period = draw(st.floats(min_value=1.0, max_value=1000.0))
    return MCTask.from_utilizations(utils, period=period)


@st.composite
def mc_tasksets(draw, min_tasks=1, max_tasks=8, levels=4):
    tasks = draw(st.lists(mc_tasks(levels), min_size=min_tasks, max_size=max_tasks))
    return MCTaskSet(tasks, levels=levels)


@st.composite
def dual_utilizations(draw):
    return DualUtilizations(
        lo_lo=draw(st.floats(min_value=0.0, max_value=1.5)),
        hi_lo=draw(st.floats(min_value=0.0, max_value=1.0)),
        hi_hi=draw(st.floats(min_value=0.0, max_value=1.5)),
    )


# ----------------------------------------------------------------------
# Model invariants
# ----------------------------------------------------------------------


class TestModelProperties:
    @given(mc_tasks())
    def test_utilization_monotone_in_level(self, task):
        utils = [task.utilization(k) for k in range(1, task.criticality + 1)]
        assert all(b >= a for a, b in zip(utils, utils[1:]))
        assert task.max_utilization == utils[-1]

    @given(mc_tasks(), st.floats(min_value=0.1, max_value=4.0))
    def test_scaling_scales_utilizations(self, task, factor):
        scaled = task.scaled(factor)
        for k in range(1, task.criticality + 1):
            assert scaled.utilization(k) == abs_approx(task.utilization(k) * factor)

    @given(mc_tasksets())
    def test_level_matrix_row_buckets(self, ts):
        # Row j of the level matrix is the sum of utilization rows of
        # tasks whose criticality is exactly j+1.
        mat = ts.level_matrix()
        for j in range(ts.levels):
            idx = [i for i in range(len(ts)) if ts.criticalities[i] == j + 1]
            expected = ts.utilization_matrix[idx].sum(axis=0)
            np.testing.assert_allclose(mat[j], expected, atol=1e-12)

    @given(mc_tasksets(min_tasks=2))
    def test_level_matrix_additive_over_disjoint_subsets(self, ts):
        half = len(ts) // 2
        a = list(range(half))
        b = list(range(half, len(ts)))
        np.testing.assert_allclose(
            ts.level_matrix(a) + ts.level_matrix(b),
            ts.level_matrix(),
            atol=1e-9,
        )

    @given(mc_tasksets())
    def test_total_utilization_counts_high_criticality_only(self, ts):
        for k in range(1, ts.levels + 1):
            expected = sum(
                t.utilization(k) for t in ts if t.criticality >= k
            )
            assert ts.total_utilization(k) == abs_approx(expected)


# ----------------------------------------------------------------------
# Analysis invariants
# ----------------------------------------------------------------------


class TestAnalysisProperties:
    @given(mc_tasksets())
    def test_lambda_factors_in_unit_interval_or_nan(self, ts):
        lambdas = lambda_factors(ts.level_matrix())
        assert lambdas[0] == 0.0
        for lam in lambdas[1:]:
            assert np.isnan(lam) or 0.0 <= lam < 1.0

    @given(mc_tasksets())
    def test_capacity_terms_at_most_one(self, ts):
        theta = capacity_terms(ts.level_matrix())
        for value in theta:
            assert np.isnan(value) or value <= 1.0 + 1e-12

    @given(mc_tasksets())
    def test_demand_terms_nonincreasing_in_k(self, ts):
        mu = demand_terms(ts.level_matrix())
        for a, b in zip(mu, mu[1:]):
            assert b <= a + 1e-12  # suffix sums shrink

    @given(mc_tasksets())
    def test_available_utilization_consistency(self, ts):
        mat = ts.level_matrix()
        avail = available_utilizations(mat)
        util = core_utilization(mat)
        if np.isfinite(util):
            assert is_feasible_theorem1(mat)
            assert util == abs_approx(float(np.max(1.0 - avail[avail >= -1e-12])))
        else:
            assert not is_feasible_theorem1(mat)

    @given(mc_tasksets())
    def test_eq4_implies_theorem1(self, ts):
        mat = ts.level_matrix()
        if is_feasible_simple(mat):
            assert is_feasible_theorem1(mat)

    @given(dual_utilizations())
    @example(DualUtilizations(1.0, 0.0, 0.5))
    @example(DualUtilizations(1.0, 3.832936958126261e-97, 0.5))
    def test_dual_eq7_equals_theorem1_and_implies_classic(self, u):
        mat = np.array([[u.lo_lo, 0.0], [u.hi_lo, u.hi_hi]])
        assert is_feasible_dual(u) == is_feasible_theorem1(mat)
        if is_feasible_dual(u):
            assert is_feasible_classic(u)

    @given(mc_tasksets())
    def test_contributions_are_shares(self, ts):
        contrib = contribution_matrix(ts)
        assert (contrib >= 0.0).all()
        assert (contrib <= 1.0 + 1e-12).all()
        totals = ts.total_utilization_vector()
        for k in range(ts.levels):
            if totals[k] > 0:
                assert contrib[:, k].sum() == abs_approx(1.0)

    @given(mc_tasksets())
    def test_contribution_order_is_permutation_sorted_by_priority(self, ts):
        order = contribution_order(ts)
        assert sorted(order) == list(range(len(ts)))
        contribs = utilization_contributions(ts)
        crit = ts.criticalities
        keys = [(-contribs[i], -crit[i], i) for i in order]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Partition and metrics invariants
# ----------------------------------------------------------------------


class TestPartitionProperties:
    @given(mc_tasksets(min_tasks=2), st.integers(min_value=1, max_value=4), st.randoms())
    def test_incremental_matrices_match_batch(self, ts, cores, rnd):
        part = Partition(ts, cores)
        for i in range(len(ts)):
            part.assign(i, rnd.randrange(cores))
        for m in range(cores):
            np.testing.assert_allclose(
                part.level_matrix(m),
                ts.level_matrix(part.tasks_on(m)),
                atol=1e-12,
            )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=8
        )
    )
    def test_imbalance_in_unit_interval(self, utils):
        value = imbalance_factor(np.array(utils))
        assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# Probe-backend invariants: the /place flush's column refresh
# ----------------------------------------------------------------------


class TestColumnRefreshProperties:
    """Re-probing only the placed core's column is unobservable.

    The serve flush probes a micro-batch once, then after every
    placement on core ``c`` re-probes column ``c`` of the rows still
    waiting.  Whatever the task set, core count, warm prefix and
    micro-batch, those refreshed rows must equal a full re-probe bit
    for bit — under every backend.
    """

    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_column_refresh_equals_full_reprobe(self, data):
        ts = data.draw(mc_tasksets(min_tasks=2, max_tasks=10, levels=3))
        cores = data.draw(st.integers(min_value=1, max_value=4))
        placed = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=cores - 1),
                max_size=len(ts) - 1,
            )
        )
        batch = data.draw(
            st.permutations(range(len(placed), len(ts))).map(list)
        )
        for impl in available_backends():
            probe = functools.partial(eq15_rows, get_backend(impl))
            part = Partition(ts, cores)
            for i, core in enumerate(placed):
                part.assign(i, core)
            utils = probe(part, batch)
            for t, task in enumerate(batch):
                core = best_core(utils[t])
                if core is None:
                    continue
                part.assign(task, core)
                rest = batch[t + 1 :]
                utils[t + 1 :, [core]] = probe(part, rest, cores=[core])
                np.testing.assert_array_equal(utils[t + 1 :], probe(part, rest))

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None, max_examples=50)
    def test_eps_boundary_feasibility_agrees_with_fits_unit_capacity(
        self, offset_in_eps, cores
    ):
        # Utilizations straddling 1.0 by fractions of EPS: every
        # backend's feasibility verdict on an empty core must match the
        # Eq.-(4) capacity predicate exactly.
        util = 1.0 + offset_in_eps * EPS
        ts = MCTaskSet(
            [MCTask.from_utilizations([util], period=10.0)], levels=1
        )
        part = Partition(ts, cores)
        expected = fits_unit_capacity(util)
        for impl in available_backends():
            feasible = feasible_row(get_backend(impl), part, 0)
            assert feasible.shape == (cores,)
            assert (feasible == expected).all()


# ----------------------------------------------------------------------
# Heuristic postconditions
# ----------------------------------------------------------------------


class TestHeuristicProperties:
    @given(mc_tasksets(levels=3), st.sampled_from(["ca-tpa", "ffd", "bfd", "wfd", "hybrid"]))
    @settings(deadline=None, max_examples=40)
    def test_schedulable_results_pass_the_feasibility_test(self, ts, scheme):
        from repro.analysis import is_feasible_partition
        from repro.partition import get_partitioner

        result = get_partitioner(scheme).partition(ts, cores=3)
        if result.schedulable:
            assert result.partition.is_complete
            assert is_feasible_partition(result.partition)
        else:
            assert result.failed_task is not None
            assert result.partition.core_of(result.failed_task) == -1

    @given(mc_tasksets(levels=2, max_tasks=6))
    @settings(deadline=None, max_examples=30)
    def test_catpa_succeeds_with_one_core_per_fitting_task(self, ts):
        from repro.analysis import is_feasible_core
        from repro.partition import CATPA

        # If every task fits alone on a core and there are at least as
        # many cores as tasks, some feasible core always exists at every
        # greedy step, so CA-TPA cannot fail.
        each_fits = all(
            is_feasible_core(ts.level_matrix([i])) for i in range(len(ts))
        )
        if each_fits:
            assert CATPA().partition(ts, cores=len(ts)).schedulable


# ----------------------------------------------------------------------
# Generator postconditions
# ----------------------------------------------------------------------


class TestGeneratorProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.3, max_value=0.7),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(deadline=None, max_examples=25)
    def test_generator_respects_config(self, levels, ifc, seed):
        from repro.gen import WorkloadConfig, generate_taskset

        config = WorkloadConfig(levels=levels, ifc=ifc, task_count_range=(5, 15))
        ts = generate_taskset(config, np.random.default_rng(seed))
        assert 5 <= len(ts) <= 15
        assert ts.levels == levels
        for t in ts:
            for k in range(2, t.criticality + 1):
                assert t.wcet(k) == abs_approx(t.wcet(k - 1) * (1 + ifc))


def abs_approx(value, tol=1e-9):
    import pytest

    return pytest.approx(value, abs=tol, rel=1e-9)


# ----------------------------------------------------------------------
# Extension-module invariants
# ----------------------------------------------------------------------


class TestDbfProperties:
    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_dbf_step_monotone_and_consistent(self, t, period, deadline, wcet):
        from repro.analysis import dbf_step

        value = dbf_step(t, period, deadline, wcet)
        later = dbf_step(t + period, period, deadline, wcet)
        assert value >= 0.0
        assert later >= value  # monotone in t
        # One extra full period adds one job — up to float rounding at
        # exact step boundaries (floor((t+p-d)/p) vs floor((t-d)/p)+1
        # can disagree by one ulp-job when t-d is a multiple of p).
        if t >= deadline:
            assert abs(later - (value + wcet)) <= wcet + 1e-9

    @given(mc_tasksets(levels=2, min_tasks=1, max_tasks=5))
    @settings(deadline=None, max_examples=30)
    def test_tuned_plans_respect_budget_floor(self, ts):
        from repro.analysis import tune_virtual_deadlines

        plan = tune_virtual_deadlines(ts)
        if plan is None:
            return
        for i, task in enumerate(ts):
            assert task.wcet(1) - 1e-9 <= plan.deadlines[i] <= task.period + 1e-9
            if task.criticality == 1:
                assert plan.deadlines[i] == task.period


class TestSerializationProperties:
    @given(mc_tasksets(levels=3))
    @settings(deadline=None, max_examples=30)
    def test_taskset_json_round_trip(self, ts):
        from repro.model import taskset_from_dict, taskset_to_dict

        assert taskset_from_dict(taskset_to_dict(ts)) == ts
