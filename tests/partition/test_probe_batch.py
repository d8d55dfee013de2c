"""Equivalence of the batch probe path with the scalar probe path.

The batch engine is the default for every partitioner; these tests pin
the guarantee that switching to the scalar path changes *nothing* about
probe values or placement decisions — which is also what keeps the
benchmark reference numbers valid across the two implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import batch_core_utilization, core_utilization
from repro.model import Partition
from repro.partition import (
    CATPA,
    CATPAVariant,
    BestFitDecreasing,
    FirstFitDecreasing,
    HybridPartitioner,
    WorstFitDecreasing,
)
from repro.partition.backend import get_backend
from repro.partition.base import Attempt
from repro.partition.probe import (
    batch_probe,
    batch_probe_tasks,
    candidate_level_matrix,
    probe_core_utilization,
    probe_feasible,
    probe_implementation,
    use_probe_implementation,
)
from repro.types import ModelError
from tests.conftest import feasible_row, random_taskset


def _answer_first_hit(part, rule):
    """A lockstep first-hit request for task 0 in core order [1, 0]."""
    attempt = Attempt(FirstFitDecreasing(), part.taskset, part.cores)
    attempt.task, attempt.prefer = 0, [1, 0]
    return get_backend(probe_implementation()).answer(rule, [attempt])


def random_partial_partition(rng, ts, cores):
    """Assign a random subset of tasks to random cores."""
    part = Partition(ts, cores)
    for i in range(len(ts)):
        core = int(rng.integers(-1, cores))
        if core >= 0:
            part.assign(i, core)
    return part


class TestBatchProbe:
    def test_candidate_stack_matches_per_core(self, rng):
        for _ in range(20):
            ts = random_taskset(rng, n=10, levels=4, max_u=0.4)
            part = random_partial_partition(rng, ts, cores=4)
            task = int(rng.integers(0, len(ts)))
            stack = part.candidate_stack(task)
            for m in range(4):
                np.testing.assert_array_equal(
                    stack[m], candidate_level_matrix(part, m, task)
                )

    @pytest.mark.parametrize("rule", ["max", "min"])
    def test_batch_probe_matches_scalar(self, rng, rule):
        for _ in range(20):
            ts = random_taskset(rng, n=12, levels=3, max_u=0.5)
            part = random_partial_partition(rng, ts, cores=5)
            task = int(rng.integers(0, len(ts)))
            batch = batch_probe(part, task, rule=rule)
            scalar = np.array(
                [
                    probe_core_utilization(part, m, task, rule=rule)
                    for m in range(5)
                ]
            )
            np.testing.assert_array_equal(batch, scalar)

    def test_batch_feasible_matches_scalar(self, rng):
        for _ in range(20):
            ts = random_taskset(rng, n=12, levels=2, max_u=0.6)
            part = random_partial_partition(rng, ts, cores=3)
            task = int(rng.integers(0, len(ts)))
            batch = feasible_row(get_backend("batch"), part, task)
            scalar = np.array(
                [probe_feasible(part, m, task) for m in range(3)]
            )
            np.testing.assert_array_equal(batch, scalar)


SCHEMES = [
    CATPA(),
    CATPA(alpha=0.1),
    CATPA(alpha=None),
    CATPA(eq9_rule="min"),
    CATPAVariant(order="max-utilization", selection="worst-fit"),
    CATPAVariant(selection="best-fit", alpha=0.2),
    CATPAVariant(selection="first-fit", alpha=None),
    FirstFitDecreasing(),
    BestFitDecreasing(),
    WorstFitDecreasing(),
    HybridPartitioner(),
]


class TestPartitionerEquivalence:
    @pytest.mark.parametrize(
        "scheme", SCHEMES, ids=lambda s: s.name
    )
    def test_scalar_and_batch_paths_place_identically(self, rng, scheme):
        for _ in range(15):
            ts = random_taskset(rng, n=14, levels=3, max_u=0.35)
            with use_probe_implementation("batch"):
                a = scheme.partition(ts, cores=4)
            with use_probe_implementation("scalar"):
                b = scheme.partition(ts, cores=4)
            assert a.schedulable == b.schedulable
            assert a.failed_task == b.failed_task
            np.testing.assert_array_equal(a.assignment, b.assignment)


class TestImplementationToggle:
    def test_default_is_batch(self):
        assert probe_implementation() == "batch"

    def test_toggle_restores_on_exit(self):
        with use_probe_implementation("scalar"):
            assert probe_implementation() == "scalar"
            with use_probe_implementation("batch"):
                assert probe_implementation() == "batch"
            assert probe_implementation() == "scalar"
        assert probe_implementation() == "batch"

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_probe_implementation("scalar"):
                raise RuntimeError("boom")
        assert probe_implementation() == "batch"

    def test_unknown_implementation_rejected(self):
        with pytest.raises(ModelError):
            with use_probe_implementation("simd"):
                pass


class TestMicroBatchProbes:
    """The (T, M) micro-batch primitives equal T single-task probes."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("rule", ["max", "min"])
    def test_batch_probe_tasks_bit_identical(self, seed, rule):
        rng = np.random.default_rng(seed)
        ts = random_taskset(rng, n=14)
        part = random_partial_partition(rng, ts, cores=4)
        idx = [i for i in range(len(ts)) if part.core_of(i) < 0][:5]
        got = batch_probe_tasks(part, idx, rule=rule)
        want = np.stack([batch_probe(part, i, rule=rule) for i in idx])
        assert np.array_equal(got, want)  # bit-identical, same kernel

    def test_scalar_path_matches_batch_path(self):
        rng = np.random.default_rng(3)
        ts = random_taskset(rng, n=12)
        part = random_partial_partition(rng, ts, cores=3)
        idx = list(range(len(ts)))
        batch_utils = batch_probe_tasks(part, idx)
        with use_probe_implementation("scalar"):
            scalar_utils = batch_probe_tasks(part, idx)
        np.testing.assert_allclose(scalar_utils, batch_utils, rtol=0, atol=1e-12)

    def test_empty_batch(self):
        rng = np.random.default_rng(1)
        ts = random_taskset(rng, n=6)
        part = random_partial_partition(rng, ts, cores=2)
        assert batch_probe_tasks(part, []).shape == (0, 2)

    def test_bad_rule_rejected(self):
        """Every public entry point taking an Eq.-(9) rule rejects an
        unknown one with the same message — even on an overloaded
        matrix, where no condition holds and no aggregation runs."""
        rng = np.random.default_rng(1)
        ts = random_taskset(rng, n=6)
        part = Partition(ts, cores=2)
        part.assign(1, 0)
        overloaded = np.array([[1.5, 0.0], [0.0, 0.0]])
        entry_points = [
            lambda rule: core_utilization(np.zeros((2, 2)), rule=rule),
            lambda rule: core_utilization(overloaded, rule=rule),
            lambda rule: batch_core_utilization(overloaded[None], rule=rule),
            lambda rule: part.core_utilizations(rule=rule),
            lambda rule: Partition(ts, cores=2).core_utilizations(rule=rule),
            lambda rule: probe_core_utilization(part, 0, 0, rule=rule),
            lambda rule: batch_probe(part, 0, rule=rule),
            lambda rule: batch_probe_tasks(part, [0], rule=rule),
            lambda rule: batch_probe_tasks(part, [0], rule=rule, cores=[1]),
            lambda rule: _answer_first_hit(part, rule),
        ]
        message = r"unknown Eq\. \(9\) rule 'median'; use 'max' or 'min'"
        for impl in ("batch", "scalar"):
            with use_probe_implementation(impl):
                for call in entry_points:
                    call("max")  # the entry point itself works
                    with pytest.raises(ModelError, match=message):
                        call("median")
