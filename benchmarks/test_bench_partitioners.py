"""Micro-benchmarks: wall-clock cost of each partitioning heuristic.

Not a paper artifact — this validates the complexity discussion of
Section III (CA-TPA is O((M+N)*N) with a K^2 probe constant) and guards
the library against performance regressions.
"""

import numpy as np
import pytest

from repro.gen import WorkloadConfig, generate_taskset
from repro.partition import PAPER_SCHEMES, get_partitioner


def workload(cores=8, n_tasks=120, seed=13):
    config = WorkloadConfig(cores=cores, task_count_range=(n_tasks, n_tasks))
    rng = np.random.default_rng(seed)
    return config, generate_taskset(config, rng, n_tasks=n_tasks)


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
def test_partition_cost(benchmark, scheme):
    config, ts = workload()
    partitioner = get_partitioner(scheme)
    benchmark(partitioner.partition, ts, config.cores)


def test_catpa_scales_with_cores(benchmark):
    config, ts = workload(cores=32)
    partitioner = get_partitioner("ca-tpa")
    result = benchmark(partitioner.partition, ts, 32)
    assert result.partition.cores == 32


def test_probe_cost(benchmark):
    """A single CA-TPA probe of every core (the hot inner loop)."""
    from repro.model import Partition
    from repro.partition.backend import BATCH, probe_request

    config, ts = workload()
    part = Partition(ts, config.cores)
    for i in range(40):
        part.assign(i, i % config.cores)
    benchmark(lambda: BATCH.answer(probe_request(part.level_matrices(), ts, [41])))
