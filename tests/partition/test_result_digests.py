"""Bit-exact pins of the partitioners' results over a seeded corpus.

Each cell digest hashes, for every scheme of the corpus, the exact
``repr`` of a :class:`PartitionResult`'s fields: scheme, verdict,
order, assignment, failed task, core counts, and the raw bytes of the
level matrices and of ``core_utilizations()``.  The counter digests
hash the instrumented counter snapshot of the whole corpus under each
probe backend; the scalar one is what shows that backend stays lazy (a
first-hit row probes cores only up to its first admitting core).

The values were captured before the lockstep driver moved from
per-attempt step machines to stacked per-``(K, M)`` arrays; a refactor
of the driver that means to change no placement, no float sum and no
counter must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.model import MCTask, MCTaskSet
from repro.partition import (
    CATPA,
    CATPAVariant,
    HybridPartitioner,
    available_schemes,
    get_partitioner,
    partition_lockstep,
)
from repro.partition.ablation import ORDERINGS, SELECTIONS
from repro.partition.backend import get_backend
from tests.conftest import random_taskset

SEED = 23
#: ``(K, M) -> max_u`` of each cell's task set.  For ``M <= 8`` it is
#: the load, found by a seeded grid search, at which the schemes'
#: outcomes differ most (who succeeds, and at which step the others
#: fail); the two wide cells hold one set most schemes place and one
#: that fails part-way, and stay few so the scalar run stays short.
LOADS = {
    (1, 1): 0.30, (1, 2): 0.34, (1, 8): 0.86,
    (2, 1): 0.64, (2, 2): 0.72, (2, 8): 0.64, (2, 32): 0.50,
    (3, 1): 0.68, (3, 2): 0.34, (3, 8): 0.68,
    (4, 1): 0.26, (4, 2): 0.24, (4, 8): 0.40, (4, 32): 0.26,
    (5, 1): 0.10, (5, 2): 0.24, (5, 8): 0.46,
    (6, 1): 0.18, (6, 2): 0.52, (6, 8): 0.22,
}

EXPECTED_CELLS = {
    "K1-M1": "d26a028578972e75",
    "K1-M2": "99fde2f8500fa853",
    "K1-M8": "7fb3c5f797400802",
    "K2-M1": "8c6cb398c2c40e28",
    "K2-M2": "c89b746ecaa5a800",
    "K2-M8": "a3e2553897c1fc4c",
    "K2-M32": "563c97fa503f5873",
    "K3-M1": "029d9aefc72da561",
    "K3-M2": "e65383821c7792e0",
    "K3-M8": "c159c595acc56d20",
    "K4-M1": "990a4093e71a38c8",
    "K4-M2": "b1352625d8d2f2cd",
    "K4-M8": "e38bfc5436f9e901",
    "K4-M32": "1670a256d1b63671",
    "K5-M1": "9f4b4f56f9852d05",
    "K5-M2": "f514a618d937c36f",
    "K5-M8": "c1780e0b49bd54b8",
    "K6-M1": "698309b2b189a6f6",
    "K6-M2": "b328421e7e4fc98a",
    "K6-M8": "03ae4d233d9e14be",
    "overloaded": "c3436f82d010c63a",
}

EXPECTED_COUNTERS = {
    "batch": "4c29796d0fb9e9cb",
    "scalar": "e1345817f79c9504",
}


def _schemes():
    """Fresh instances of every scheme of the corpus (a random order
    draws from its own seeded generator, so each run starts afresh)."""
    schemes = [get_partitioner(name) for name in available_schemes()]
    schemes += [CATPA(alpha=None), CATPA(eq9_rule="min"), HybridPartitioner(3)]
    for order in ORDERINGS:
        for selection in SELECTIONS:
            for alpha in (None, 0.3, 0.7):
                schemes.append(CATPAVariant(order, selection, alpha=alpha))
            schemes.append(CATPAVariant(order, selection, eq9_rule="min"))
    schemes.append(
        CATPAVariant("random", "min-increment", rng=np.random.default_rng(SEED))
    )
    return schemes


def _taskset(levels: int, cores: int) -> MCTaskSet:
    """Random tasks at the cell's load: ``2M + 4`` of them, ``M + 8``
    on the wide cells."""
    rng = np.random.default_rng(
        np.random.SeedSequence(SEED, spawn_key=(levels, cores))
    )
    return random_taskset(
        rng,
        n=2 * cores + 4 if cores <= 8 else cores + 8,
        levels=levels,
        max_u=LOADS[levels, cores],
    )


def _overloaded() -> MCTaskSet:
    """A set whose heaviest task fits on no core."""
    return MCTaskSet(
        [MCTask.from_utilizations([0.3, 1.2], period=10.0, name="heavy"),
         MCTask.from_utilizations([0.1], period=20.0, name="light")],
        levels=2,
    )


def _cells() -> list[tuple[str, MCTaskSet, int]]:
    cells = [
        (f"K{levels}-M{cores}", _taskset(levels, cores), cores)
        for levels, cores in LOADS
    ]
    return cells + [("overloaded", _overloaded(), 2)]


def _fields(result) -> tuple:
    part = result.partition
    return (
        result.scheme,
        result.schedulable,
        result.order,
        result.assignment.tolist(),
        result.failed_task,
        part.core_counts.tolist(),
        part.level_matrices().tobytes(),
        result.core_utilizations().tobytes(),
    )


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def corpus_digests(impl: str) -> tuple[dict[str, str], str]:
    """``(cell digests, counter digest)`` of the corpus partitioned in
    one lockstep run on the ``impl`` backend."""
    cells = _cells()
    jobs, names = [], []
    for name, taskset, cores in cells:
        for scheme in _schemes():
            jobs.append((scheme, taskset, cores))
            names.append(name)
    with obs.instrument() as state:
        results = partition_lockstep(jobs, get_backend(impl))
        counters = state.registry.snapshot()["counters"]
    by_cell: dict[str, list] = {name: [] for name, _, _ in cells}
    for name, result in zip(names, results):
        by_cell[name].append(_fields(result))
    digests = {name: _digest(fields) for name, fields in by_cell.items()}
    return digests, _digest(sorted(counters.items()))


@pytest.fixture(scope="module", params=["batch", "scalar"])
def corpus(request):
    return request.param, corpus_digests(request.param)


class TestResultDigests:
    def test_corpus_mixes_outcomes(self):
        jobs = [(s, ts, m) for _, ts, m in _cells() for s in _schemes()[:6]]
        verdicts = {r.schedulable for r in partition_lockstep(jobs)}
        assert verdicts == {True, False}

    def test_results_unchanged(self, corpus):
        _, (cells, _) = corpus
        assert cells == EXPECTED_CELLS

    def test_counters_unchanged(self, corpus):
        impl, (_, counters) = corpus
        assert counters == EXPECTED_COUNTERS[impl]
