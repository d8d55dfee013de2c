"""Equivalence of the batch probe path with the scalar probe path.

The batch engine is the default for every partitioner; these tests pin
the guarantee that switching to the scalar path changes *nothing* about
probe values or placement decisions — which is also what keeps the
benchmark reference numbers valid across the two implementations.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.analysis import batch_core_utilization, core_utilization, is_feasible_core
from repro.model import Partition
from repro.partition import (
    CATPA,
    CATPAVariant,
    BestFitDecreasing,
    FirstFitDecreasing,
    HybridPartitioner,
    WorstFitDecreasing,
)
from repro.engine import Engine
from repro.partition.backend import (
    BATCH,
    DEFAULT_BACKEND,
    get_backend,
    probe_request,
)
from repro.partition.base import partition_lockstep
from repro.types import ModelError
from tests.conftest import attempt_request, eq15_rows, feasible_row, random_taskset


def _answer_first_hit(backend, part, rule):
    """A lockstep first-hit request for task 0 in core order [1, 0]."""
    return backend.answer(attempt_request(part, 0, [1, 0], rule=rule))[1]


def candidate_matrix(part, core, task):
    """Core ``core``'s level matrix with ``task`` added, one core at a
    time: ``U_{l_i}(k) += u_i(k)`` for ``k <= l_i`` (Eq. (3))."""
    mat = part.level_matrix(core).copy()
    crit = int(part.taskset.criticalities[task])
    mat[crit - 1, :crit] += part.taskset.utilization_matrix[task, :crit]
    return mat


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
            mats = part.level_matrices()
            stack = probe_request(mats, ts, [task]).stack
            for m in range(4):
                want = candidate_matrix(part, m, task)
                np.testing.assert_array_equal(stack[m], want)
                np.testing.assert_array_equal(
                    probe_request(mats, ts, [task], cores=[m]).stack[0], want
                )

    def test_batch_probe_matches_scalar(self, rng):
        for _ in range(20):
            ts = random_taskset(rng, n=12, levels=3, max_u=0.5)
            part = random_partial_partition(rng, ts, cores=5)
            task = int(rng.integers(0, len(ts)))
            (batch,) = eq15_rows(BATCH, part, [task])
            scalar = np.array(
                [core_utilization(candidate_matrix(part, m, task)) for m in range(5)]
            )
            np.testing.assert_array_equal(batch, scalar)
            np.testing.assert_array_equal(
                eq15_rows(get_backend("scalar"), part, [task])[0], scalar
            )

    def test_batch_feasible_matches_scalar(self, rng):
        for _ in range(20):
            ts = random_taskset(rng, n=12, levels=2, max_u=0.6)
            part = random_partial_partition(rng, ts, cores=3)
            task = int(rng.integers(0, len(ts)))
            batch = feasible_row(BATCH, part, task)
            scalar = np.array(
                [is_feasible_core(candidate_matrix(part, m, task)) for m in range(3)]
            )
            np.testing.assert_array_equal(batch, scalar)
            np.testing.assert_array_equal(
                feasible_row(get_backend("scalar"), part, task), scalar
            )


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
            a = scheme.partition(ts, cores=4)
            (b,) = partition_lockstep([(scheme, ts, 4)], get_backend("scalar"))
            assert a.schedulable == b.schedulable
            assert a.failed_task == b.failed_task
            np.testing.assert_array_equal(a.assignment, b.assignment)


class TestImplementationToggle:
    """The backend is named once (``--probe-impl``, ``Engine``) and
    passed down explicitly; unnamed, every layer holds ``BATCH``."""

    def test_default_is_batch(self):
        assert DEFAULT_BACKEND == "batch"
        assert get_backend(DEFAULT_BACKEND) is BATCH
        assert Engine().probe_impl == DEFAULT_BACKEND
        backend = inspect.signature(partition_lockstep).parameters["backend"]
        assert backend.default is BATCH

    def test_unknown_implementation_rejected(self):
        with pytest.raises(ModelError):
            Engine(probe_impl="simd")


class TestMicroBatchProbes:
    """A ``(T, M)`` micro-batch request equals T single-task requests."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_batch_probe_tasks_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_taskset(rng, n=14)
        part = random_partial_partition(rng, ts, cores=4)
        idx = [i for i in range(len(ts)) if part.core_of(i) < 0][:5]
        got = eq15_rows(BATCH, part, idx)
        want = np.concatenate([eq15_rows(BATCH, part, [i]) for i in idx])
        assert np.array_equal(got, want)  # bit-identical, same kernel

    def test_scalar_path_matches_batch_path(self):
        rng = np.random.default_rng(3)
        ts = random_taskset(rng, n=12)
        part = random_partial_partition(rng, ts, cores=3)
        idx = list(range(len(ts)))
        batch_utils = eq15_rows(BATCH, part, idx)
        scalar_utils = eq15_rows(get_backend("scalar"), part, idx)
        np.testing.assert_array_equal(scalar_utils, batch_utils)  # bit-identity

    def test_empty_batch(self):
        rng = np.random.default_rng(1)
        ts = random_taskset(rng, n=6)
        part = random_partial_partition(rng, ts, cores=2)
        assert eq15_rows(BATCH, part, []).shape == (0, 2)

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
            *[
                lambda rule, b=backend: _answer_first_hit(b, part, rule)
                for backend in (BATCH, get_backend("scalar"))
            ],
        ]
        message = r"unknown Eq\. \(9\) rule 'median'; use 'max' or 'min'"
        for call in entry_points:
            call("max")  # the entry point itself works
            with pytest.raises(ModelError, match=message):
                call("median")
