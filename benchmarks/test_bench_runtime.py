"""Runtime-simulation benchmarks: validation campaign + throughput.

Not a paper artifact (the paper's evaluation is analysis-only); this is
the repository's extra validation layer: partitions accepted by the
analysis are simulated against adversarial in-model scenarios and must
never miss a deadline.
"""

import numpy as np
from conftest import bench_sets

from repro.gen import WorkloadConfig, generate_taskset
from repro.partition import CATPA
from repro.sched import LevelScenario, RandomScenario, SystemSimulator


def test_validation_campaign(benchmark, emit):
    """Partition + simulate a batch; zero misses expected end to end."""
    config = WorkloadConfig(cores=4, nsu=0.5, task_count_range=(20, 40))
    campaign_sets = max(10, bench_sets(50) // 5)

    def campaign():
        catpa = CATPA()
        simulated = misses = switches = jobs = 0
        for i in range(campaign_sets):
            rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(i,)))
            ts = generate_taskset(config, rng)
            res = catpa.partition(ts, config.cores)
            if not res.schedulable:
                continue
            scenario = (
                RandomScenario(overrun_prob=0.3)
                if i % 2
                else LevelScenario(target=config.levels)
            )
            report = SystemSimulator(res.partition, horizon=10000.0).run(
                scenario, seed=i
            )
            simulated += 1
            misses += report.miss_count
            switches += report.mode_switches
            jobs += report.released
        return simulated, misses, switches, jobs

    simulated, misses, switches, jobs = benchmark.pedantic(
        campaign, rounds=1, iterations=1
    )
    emit(
        "runtime_validation",
        (
            "Runtime validation campaign (CA-TPA partitions, adversarial "
            "in-model scenarios)\n"
            f"  task sets simulated : {simulated}\n"
            f"  jobs released       : {jobs}\n"
            f"  mode switches       : {switches}\n"
            f"  deadline misses     : {misses}   (must be 0)"
        ),
    )
    assert simulated > 0
    assert misses == 0


def test_simulator_throughput(benchmark):
    """Raw event-loop speed on one loaded core (jobs/second figure)."""
    config = WorkloadConfig(cores=1, nsu=0.7, levels=2, task_count_range=(12, 12))
    ts = generate_taskset(config, np.random.default_rng(3), n_tasks=12)
    res = CATPA().partition(ts, 1)
    assert res.schedulable
    sim = SystemSimulator(res.partition, horizon=50000.0)
    report = benchmark(sim.run, RandomScenario(0.2), 7)
    assert report.miss_count == 0
