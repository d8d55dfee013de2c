"""Theorem-1 probe engine throughput: scalar per-core probing vs batch.

Replays the placement decisions of a CA-TPA run on the Fig.-1 default
workload (paper parameters, seed 2016) and times every Eq.-(15) probe
twice on the *identical* partition state, each the ``answer`` of a
one-task ``probe_request``: once by the scalar backend (one ``(K, K)``
candidate matrix and one Theorem-1 chain per core — what every scheme
did before the batch engine) and once by the batch backend (one
``(M, K, K)`` stack, one NumPy pass).  Each pair of probes is asserted
bit-equal, so the speedup is measured on provably equivalent work.

An end-to-end ``Engine(probe_impl=...).evaluate`` timing of all five
schemes under both implementations is reported alongside
(:func:`gate.time_evaluate`, which also checks that both give the same
answer).  With jobs=1 that is one shard stepping every set x scheme
through the lockstep driver, so the batch side makes one stacked
kernel call per placement step where the scalar side probes core by
core; its ratio exceeds the single-probe ratio.

The third section pins the **column refresh** of the serve flush: a
daemon-style placement loop (probe every pending task, place one,
re-probe — the coordinator's ``/place`` flush) timed two ways on
identical work.  The ``batch`` row recomputes the full
``(pending, cores)`` grid every round; the ``incremental`` row (named
after the backend that once served it, so the committed baseline keeps
its schema) re-probes only the placed core's column, the one column a
placement makes stale.

Results land in ``BENCH_partition.json`` at the repo root (schema in
docs/API.md).  The acceptance gate is the probe-engine throughput.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
from conftest import bench_sets
from gate import (
    PARTITION_BASELINE,
    REPO_ROOT,
    SEED,
    one_task_probe,
    run_placement_bench,
    time_evaluate,
)

from repro.gen import WorkloadConfig, generate_taskset
from repro.model import Partition
from repro.partition import ordering
from repro.partition.backend import BATCH, best_core, get_backend

RESULT_PATH = REPO_ROOT / PARTITION_BASELINE


def _replay_probe_timings(config: WorkloadConfig, sets: int):
    """Time scalar vs batch probes on identical replayed CA-TPA states."""
    rng = np.random.default_rng(SEED)
    batch = one_task_probe(BATCH.answer)
    scalar = one_task_probe(get_backend("scalar").answer)
    probes = 0
    scalar_s = 0.0
    batch_s = 0.0
    for _ in range(sets):
        taskset = generate_taskset(config, rng)
        partition = Partition(taskset, config.cores)
        for task_index in ordering.by_contribution(taskset):
            start = time.perf_counter()
            new_utils = batch(partition, task_index)
            batch_s += time.perf_counter() - start
            start = time.perf_counter()
            scalar_utils = scalar(partition, task_index)
            scalar_s += time.perf_counter() - start
            np.testing.assert_array_equal(new_utils, scalar_utils)
            probes += 1
            # Greedy least-utilization placement, as the gate replays it.
            target = best_core(new_utils)
            if target is None:
                break  # task set not schedulable; next set
            partition.assign(task_index, target)
    return probes, scalar_s, batch_s


def test_probe_throughput(emit):
    config = WorkloadConfig()  # the Fig.-1 default point
    sets = bench_sets(60)

    probes, probe_scalar_s, probe_batch_s = _replay_probe_timings(config, sets)
    probe_speedup = probe_scalar_s / probe_batch_s

    end_to_end = time_evaluate(config, sets)
    placement = run_placement_bench(sets=bench_sets(6))

    payload = {
        "benchmark": "theorem1-probe-throughput",
        "workload": dataclasses.asdict(config),
        "sets": sets,
        "seed": SEED,
        "probe": {
            "count": probes,
            "scalar": {
                "seconds": probe_scalar_s,
                "probes_per_sec": probes / probe_scalar_s,
            },
            "batch": {
                "seconds": probe_batch_s,
                "probes_per_sec": probes / probe_batch_s,
            },
            "speedup": probe_speedup,
        },
        "placement": placement,
        "end_to_end": end_to_end,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        "Theorem-1 probe engine throughput "
        f"(Fig.-1 default workload, {sets} task sets, seed {SEED})",
        "",
        f"Eq.-(15) probes on replayed CA-TPA states ({probes} probes, "
        f"{config.cores} cores each):",
        f"  {'path':<8} {'seconds':>10} {'probes/sec':>12}",
        f"  {'scalar':<8} {probe_scalar_s:>10.3f} "
        f"{probes / probe_scalar_s:>12.0f}",
        f"  {'batch':<8} {probe_batch_s:>10.3f} "
        f"{probes / probe_batch_s:>12.0f}",
        f"  speedup: {probe_speedup:.2f}x",
        "",
        "Placement loop (daemon /place flush shape, "
        f"{placement['sets']} sets, {placement['hypotheses']} hypotheses, "
        f"backlog {placement['task_count_range']}):",
        f"  {'path':<12} {'seconds':>10} {'probes/sec':>12}",
        f"  {'batch':<12} {placement['batch']['seconds']:>10.3f} "
        f"{placement['batch']['probes_per_sec']:>12.0f}",
        f"  {'incremental':<12} {placement['incremental']['seconds']:>10.3f} "
        f"{placement['incremental']['probes_per_sec']:>12.0f}",
        f"  speedup: {placement['speedup']:.2f}x",
        "",
        "End-to-end Engine.evaluate, 5 schemes, jobs=1 (one lockstep shard):",
        f"  {'path':<8} {'seconds':>10} {'sets/sec':>12}",
        *(
            f"  {impl:<8} {end_to_end[impl]['seconds']:>10.3f} "
            f"{end_to_end[impl]['sets_per_sec']:>12.2f}"
            for impl in ("scalar", "batch")
        ),
        f"  speedup: {end_to_end['speedup']:.2f}x",
        "",
        f"[written to {RESULT_PATH.name}]",
    ]
    emit("probe_speed", "\n".join(lines))

    assert probe_speedup >= 3.0, (
        f"batch probe engine only {probe_speedup:.2f}x faster than scalar"
    )
    assert placement["speedup"] >= 3.0, (
        f"column refresh only {placement['speedup']:.2f}x faster "
        f"than a full re-probe on the placement loop"
    )
