"""Unit and property tests for the structured explanation layer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import is_feasible_core
from repro.analysis.explain import (
    EXPLAIN_VERSION,
    HEADROOM_MAX_SCALE,
    explain_admission,
    explain_level_matrix,
    explain_result,
    format_explanation,
    headroom_for_matrix,
    headroom_profile,
    place_rejection_reason,
    task_sensitivity,
)
from repro.model import MCTask, MCTaskSet
from repro.partition.backend import available_backends, get_backend
from repro.partition.base import partition_lockstep
from repro.partition.registry import available_schemes, get_partitioner
from repro.types import EPS
from tests.conftest import contract_workload, random_taskset


def heavy_task(scale: float = 1.0) -> MCTask:
    return MCTask(period=10.0, wcets=(6.0 * scale, 9.0 * scale))


def rejected_taskset() -> MCTaskSet:
    """Three tasks of which only two fit on two cores."""
    return MCTaskSet([heavy_task() for _ in range(3)])


def assert_margins_are_the_decision(exp) -> None:
    """The explain contract: all decision margins >= -EPS iff admitted."""
    margins = exp.decision_margins()
    assert all(m >= -EPS for m in margins) == exp.admitted, (
        exp.scheme, exp.admitted, margins,
    )


class TestExplainLevelMatrix:
    def test_margin_sign_is_the_decision(self, rng):
        for _ in range(50):
            ts = random_taskset(rng, n=4, levels=3, max_u=0.6)
            mat = ts.level_matrix()
            ce = explain_level_matrix(mat)
            assert ce.feasible == is_feasible_core(mat)
            assert ce.feasible == (ce.margin >= -EPS)

    def test_eq4_margin_matches_load(self):
        mat = np.array([[0.3, 0.0], [0.2, 0.4]])
        ce = explain_level_matrix(mat)
        assert ce.load == pytest.approx(0.7)
        assert ce.eq4_margin == pytest.approx(0.3)
        assert ce.eq4_pass

    def test_first_failing_condition(self):
        # Saturated LO level: lambda_2 undefined, every condition fails.
        mat = np.array([[1.5, 0.0], [0.1, 0.2]])
        ce = explain_level_matrix(mat)
        assert not ce.feasible
        assert ce.first_feasible_condition is None
        assert ce.first_failing_condition == 1
        # theta(1) = 1 - lambda_1 = 1 is always defined; the failure is
        # a genuine demand excess, not an undefined lambda chain.
        assert ce.conditions[0].defined
        assert ce.conditions[0].margin < 0.0

    def test_undefined_condition_is_minus_inf(self):
        # K=3 with a saturated LO level: lambda_2 undefined makes the
        # k=2 capacity nan and its margin -inf.
        mat = np.zeros((3, 3))
        mat[0, 0] = 1.5
        mat[2, 1] = 0.1
        ce = explain_level_matrix(mat)
        assert not ce.conditions[1].defined
        assert ce.conditions[1].margin == float("-inf")

    def test_k1_plain_edf(self):
        ce = explain_level_matrix(np.array([[0.6]]))
        assert ce.feasible and ce.margin == pytest.approx(0.4)
        assert ce.conditions[0].k == 1
        assert ce.first_feasible_condition == 1


class TestExplainResult:
    def test_admitted_demo(self, rng):
        ts = random_taskset(rng, n=6, levels=2, max_u=0.3)
        result = get_partitioner("ca-tpa").partition(ts, 4)
        exp = explain_result(ts, 4, result)
        assert exp.version == EXPLAIN_VERSION
        assert exp.admitted == result.schedulable
        assert exp.assignment == tuple(result.partition.assignment.tolist())
        assert len(exp.core_explanations) == 4

    def test_rejected_carries_candidates_and_sensitivity(self):
        ts = rejected_taskset()
        exp = explain_admission(ts, 2)
        assert not exp.admitted
        assert exp.failed_task == 2
        assert exp.candidate_explanations is not None
        assert all(m < -EPS for m in exp.decision_margins())
        sens = exp.sensitivity
        assert sens is not None and sens.task == 2
        assert 0.0 < sens.best_scale < 1.0
        # Shrinking the failed task to just inside its reported scale
        # must admit it (best_scale itself is the boundary supremum, so
        # WCET rounding at exactly that scale can fall either way).
        part = get_partitioner("ca-tpa").partition(ts, 2).partition
        scale = sens.best_scale * (1.0 - 1e-9)
        shrunk = MCTask(
            period=10.0,
            wcets=tuple(w * scale for w in heavy_task().wcets),
        )
        mat = np.array(part.level_matrix(sens.best_core), copy=True)
        row = [shrunk.utilization(k) for k in range(1, 3)]
        mat[shrunk.criticality - 1, : shrunk.criticality] += row[
            : shrunk.criticality
        ]
        assert is_feasible_core(mat)

    def test_to_dict_is_json_safe(self):
        inputs = [
            (rejected_taskset(), 2),
            (MCTaskSet([heavy_task(0.1)]), 2),
            contract_workload(),
        ]
        for scheme in available_schemes():
            for ts, cores in inputs:
                exp = explain_admission(ts, cores, scheme)
                doc = json.loads(json.dumps(exp.to_dict(), allow_nan=False))
                assert doc["version"] == EXPLAIN_VERSION
                for ce in doc["core_explanations"]:
                    assert ce["margin"] is None or math.isfinite(ce["margin"])
                assert_margins_are_the_decision(exp)

    def test_format_explanation_renders(self):
        text = format_explanation(explain_admission(rejected_taskset(), 2))
        assert "REJECTED" in text
        assert "headroom" in text
        assert "candidate probes" in text


class TestBackendEquivalence:
    def test_all_backends_all_schemes(self, rng):
        inputs = [
            (random_taskset(rng, n=6, levels=levels, max_u=0.4), 2)
            for levels in (1, 2, 3)
        ]
        inputs.append(contract_workload())
        for ts, cores in inputs:
            for scheme in available_schemes():
                docs = []
                for impl in available_backends():
                    (result,) = partition_lockstep(
                        [(get_partitioner(scheme), ts, cores)], get_backend(impl)
                    )
                    exp = explain_result(ts, cores, result, probe_impl=impl)
                    assert exp.probe_impl == impl
                    assert_margins_are_the_decision(exp)
                    doc = exp.to_dict()
                    json.dumps(doc, allow_nan=False)
                    doc.pop("probe_impl")
                    docs.append(doc)
                assert len(docs) == 2 and docs[0] == docs[1], (ts.levels, scheme)

    def test_explain_admission_records_batch(self):
        ts = MCTaskSet([heavy_task(0.1)])
        assert explain_admission(ts, 1).probe_impl == "batch"


class TestHeadroom:
    def test_empty_partition_reports_clamp(self):
        ts = MCTaskSet([heavy_task(0.1)], levels=2)
        part = get_partitioner("ca-tpa").partition(ts, 2).partition
        prof = headroom_profile(part)
        assert prof.per_core[1] == HEADROOM_MAX_SCALE  # empty core
        assert prof.system == min(prof.per_core)

    def test_admitted_set_has_headroom_above_one(self):
        ts = MCTaskSet([heavy_task(0.2), heavy_task(0.2)])
        part = get_partitioner("ca-tpa").partition(ts, 2).partition
        assert headroom_profile(part).system > 1.0

    def test_rejected_core_has_headroom_below_one(self):
        mat = np.array([[0.0, 0.0], [1.2, 1.8]])
        assert headroom_for_matrix(mat) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(0.05, 1.5),
        hi_lo=st.floats(0.05, 1.5),
        hi_hi=st.floats(0.05, 1.8),
    )
    def test_bisection_brackets_the_boundary(self, lo, hi_lo, hi_hi):
        """α·(1−ε) admits and α·(1+ε) rejects around the found scale."""
        mat = np.array([[lo, 0.0], [hi_lo, hi_hi]])
        alpha = headroom_for_matrix(mat)
        if alpha == HEADROOM_MAX_SCALE:
            assert is_feasible_core(alpha * mat)
            return
        assert alpha > 0.0
        eps = 1e-6
        assert is_feasible_core(alpha * (1.0 - eps) * mat)
        assert not is_feasible_core(alpha * (1.0 + eps) * mat)

    def test_monotone_in_scale(self, rng):
        ts = random_taskset(rng, n=5, levels=2, max_u=0.4)
        mat = ts.level_matrix()
        alpha = headroom_for_matrix(mat)
        scaled = headroom_for_matrix(2.0 * mat)
        assert scaled == pytest.approx(alpha / 2.0, rel=1e-6)


class TestSensitivity:
    def test_zero_scale_when_nothing_fits(self):
        # Even an infinitesimal slice of the newcomer cannot fit a
        # saturated core (load exactly 1 leaves EPS-level room only).
        ts = MCTaskSet([MCTask(period=1.0, wcets=(1.0, 1.0))])
        part = get_partitioner("ca-tpa").partition(ts, 1).partition
        sens = task_sensitivity(part, 0)
        assert sens.task == 0

    def test_shrink_candidates_admit_after_shrinking(self):
        ts = rejected_taskset()
        part = get_partitioner("ca-tpa").partition(ts, 2).partition
        sens = task_sensitivity(part, 2)
        assert sens.shrink_candidates
        cand = sens.shrink_candidates[0]
        assert 0.0 <= cand.max_scale < 1.0


class TestPlaceRejectionReason:
    def test_reason_shape(self):
        ts = MCTaskSet([heavy_task(), heavy_task()])
        part = get_partitioner("ca-tpa").partition(ts, 2).partition
        reason = place_rejection_reason(part.level_matrices(), heavy_task())
        assert set(reason) == {"best_core", "best_margin", "cores"}
        assert reason["best_margin"] < 0.0
        assert len(reason["cores"]) == 2
        for entry in reason["cores"]:
            assert entry["first_failing_condition"] == 1
        json.dumps(reason, allow_nan=False)
