#!/usr/bin/env python3
"""Scalability study: schedulability and partitioning cost vs platform size.

Sweeps the core count (Figure 4's axis) on synthetic workloads and
reports, per scheme, the schedulability ratio and the wall-clock cost of
partitioning — demonstrating the O((M+N)*N) complexity claim of
Section III and the parallel experiment harness.

Run with::

    python examples/scalability_sweep.py [--sets 100] [--jobs 4]
"""

import argparse
import time

import numpy as np

from repro.engine import Engine, PointSpec, default_schemes
from repro.gen import WorkloadConfig, generate_taskset
from repro.partition import PAPER_SCHEMES, get_partitioner


def partitioning_cost(cores: int, n_tasks: int, repeats: int = 5) -> dict:
    """Mean wall-clock seconds to partition one task set, per scheme."""
    config = WorkloadConfig(cores=cores, task_count_range=(n_tasks, n_tasks))
    out = {}
    for name in PAPER_SCHEMES:
        partitioner = get_partitioner(name)
        total = 0.0
        for r in range(repeats):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(r,)))
            ts = generate_taskset(config, rng)
            start = time.perf_counter()
            partitioner.partition(ts, cores)
            total += time.perf_counter() - start
        out[name] = total / repeats
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=60)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    print("=== Schedulability ratio vs core count (NSU = 0.6) ===")
    header = f"{'M':>4} | " + " ".join(f"{s:>8}" for s in PAPER_SCHEMES)
    print(header)
    print("-" * len(header))
    engine = Engine(jobs=args.jobs)
    for cores in (2, 4, 8, 16):
        point = PointSpec(
            WorkloadConfig(cores=cores), tuple(default_schemes()), args.sets, seed=11
        )
        stats = engine.evaluate(point)
        cells = " ".join(f"{stats[s].sched_ratio:>8.3f}" for s in PAPER_SCHEMES)
        print(f"{cores:>4} | {cells}")

    print("\n=== Partitioning wall-clock per task set (N = 160 tasks) ===")
    print(header.replace("M", "M", 1))
    print("-" * len(header))
    for cores in (2, 8, 32):
        cost = partitioning_cost(cores, n_tasks=160)
        cells = " ".join(f"{cost[s] * 1e3:>7.2f}m" for s in PAPER_SCHEMES)
        print(f"{cores:>4} | {cells}   (milliseconds)")

    print("\nNote: CA-TPA probes all M cores per task, so its cost grows")
    print("linearly in M while the ratio improves with the added capacity.")


if __name__ == "__main__":
    main()
