"""Extension bench: runtime behaviour of the partitions each scheme builds.

The paper evaluates partitions analytically (acceptance, utilization,
balance).  This bench asks the complementary runtime question: once
deployed, how do the partitions *behave* under the same overload —
how many mode switches occur, how many LO jobs get dropped, how much
work completes?  Schemes that co-locate criticalities differently pay
different overload penalties, which analysis-only metrics never show.
"""

import numpy as np
from conftest import bench_sets

from repro.gen import WorkloadConfig, generate_taskset
from repro.partition import get_partitioner
from repro.sched import RandomScenario, SystemSimulator

SCHEMES = ("ca-tpa", "ffd", "wfd", "hybrid")


def test_runtime_behaviour_of_partitions(benchmark, emit):
    cfg = WorkloadConfig(cores=4, levels=2, nsu=0.55, task_count_range=(16, 24))
    sets = max(10, bench_sets(60) // 6)

    def campaign():
        totals = {
            s: {"sets": 0, "switches": 0, "dropped": 0, "released": 0,
                "completed": 0, "misses": 0}
            for s in SCHEMES
        }
        partitioners = {s: get_partitioner(s) for s in SCHEMES}
        for i in range(sets):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(i,)))
            ts = generate_taskset(cfg, rng)
            results = {
                s: partitioners[s].partition(ts, cfg.cores) for s in SCHEMES
            }
            if not all(r.schedulable for r in results.values()):
                continue  # compare behaviour on commonly-accepted sets only
            for s, res in results.items():
                report = SystemSimulator(res.partition, horizon=10000.0).run(
                    RandomScenario(overrun_prob=0.15), seed=i
                )
                t = totals[s]
                t["sets"] += 1
                t["switches"] += report.mode_switches
                t["dropped"] += report.dropped
                t["released"] += report.released
                t["completed"] += report.completed
                t["misses"] += report.miss_count
        return totals

    totals = benchmark.pedantic(campaign, rounds=1, iterations=1)

    header = (
        f"{'scheme':>8} {'sets':>5} {'switch/set':>11} {'drop %':>7}"
        f" {'done %':>7} {'misses':>7}"
    )
    lines = [
        "Runtime behaviour under sporadic overruns (commonly-accepted sets)",
        header,
        "-" * len(header),
    ]
    for s, t in totals.items():
        if t["sets"] == 0:
            lines.append(f"{s:>8}  (no commonly accepted sets)")
            continue
        lines.append(
            f"{s:>8} {t['sets']:>5} {t['switches'] / t['sets']:>11.1f}"
            f" {100 * t['dropped'] / t['released']:>7.2f}"
            f" {100 * t['completed'] / t['released']:>7.2f}"
            f" {t['misses']:>7}"
        )
    emit("runtime_behaviour", "\n".join(lines))

    for s, t in totals.items():
        assert t["misses"] == 0, s  # the guarantee holds for every scheme
