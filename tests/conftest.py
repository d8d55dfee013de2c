"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import MCTask, MCTaskSet


def attempt_request(partition, task_index, order=None, scheme="ffd", rule=None):
    """One attempt's request: :func:`repro.partition.backend.probe_request`
    for ``task_index``, read whole, or lazily along the core order
    ``order`` (first hit); an Eq.-(15) row under ``rule``, or a
    feasibility row when ``rule`` is ``None``."""
    from repro.partition.backend import probe_request

    request = probe_request(
        partition.level_matrices(), partition.taskset, [task_index]
    )._replace(schemes=[scheme])
    if order is not None:  # each core's rank in ``order``: argsort(keys) == order
        keys = np.argsort(np.asarray(order))[None].astype(np.float64)
        request = request._replace(keys=keys)
    if rule is None:
        return request._replace(split=0)
    return request._replace(rule=rule)


def eq15_rows(backend, partition, task_indices, cores=None):
    """``backend``'s ``(T, C)`` Eq.-(15) rows for ``task_indices`` of
    ``partition``: the answer to
    :func:`repro.partition.backend.probe_request` on its level matrices."""
    from repro.partition.backend import probe_request

    request = probe_request(
        partition.level_matrices(), partition.taskset, task_indices, cores
    )
    return backend.answer(request)[1]


def feasible_row(backend, partition, task_index):
    """``task_index``'s Eq.(4)-or-Theorem-1 feasibility on every core of
    ``partition``: ``(M,)`` bools, asked as one whole-row request."""
    (row,), _ = backend.answer(attempt_request(partition, task_index))
    return row


def contract_workload():
    """``(taskset, cores)``: the first seed-0 draw of a 4-core K=2 sweep
    point at NSU 0.55 with 10-20 tasks, the input the registry-wide
    contract tests run every scheme on."""
    from repro.gen import WorkloadConfig, generate_taskset

    config = WorkloadConfig(
        cores=4, levels=2, nsu=0.55, task_count_range=(10, 20)
    )
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
    return generate_taskset(config, rng), config.cores


def make_task(utils, period=100.0, name=""):
    """Task from a per-level utilization sequence (ascending WCETs implied)."""
    return MCTask.from_utilizations(utils, period=period, name=name)


def random_taskset(rng, n=8, levels=2, max_u=0.5):
    """A small random MC task set for property-style tests.

    Utilization vectors are non-decreasing by construction.
    """
    tasks = []
    for i in range(n):
        crit = int(rng.integers(1, levels + 1))
        base = float(rng.uniform(0.01, max_u))
        growth = rng.uniform(1.0, 1.8, size=crit - 1) if crit > 1 else []
        utils = [base]
        for g in growth:
            utils.append(utils[-1] * float(g))
        period = float(rng.uniform(10.0, 1000.0))
        tasks.append(MCTask.from_utilizations(utils, period=period, name=f"t{i}"))
    return MCTaskSet(tasks, levels=levels)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def dual_taskset():
    """A hand-checked dual-criticality set: 2 LO + 2 HI tasks."""
    return MCTaskSet(
        [
            MCTask(wcets=(2.0,), period=10.0, name="lo_a"),  # u=(0.2,)
            MCTask(wcets=(3.0,), period=20.0, name="lo_b"),  # u=(0.15,)
            MCTask(wcets=(2.0, 5.0), period=20.0, name="hi_a"),  # u=(0.1, 0.25)
            MCTask(wcets=(4.0, 12.0), period=40.0, name="hi_b"),  # u=(0.1, 0.3)
        ],
        levels=2,
    )
