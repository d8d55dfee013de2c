"""End-to-end integration journeys across the whole library."""

import numpy as np
import pytest

from repro.analysis import is_feasible_partition
from repro.gen import WorkloadConfig, generate_taskset
from repro.metrics import partition_metrics
from repro.model import (
    load_partition,
    load_taskset,
    save_partition,
    save_taskset,
)
from repro.partition import available_schemes, get_partitioner
from repro.sched import (
    LevelScenario,
    RandomScenario,
    SporadicReleases,
    SystemSimulator,
)


@pytest.fixture(scope="module")
def workload():
    cfg = WorkloadConfig(cores=2, levels=2, nsu=0.5, task_count_range=(10, 14))
    return cfg, generate_taskset(cfg, np.random.default_rng(2024))


class TestFullJourney:
    def test_generate_partition_validate_persist(self, workload, tmp_path):
        cfg, ts = workload

        # 1. persist + reload the workload
        save_taskset(ts, tmp_path / "w.json")
        ts2 = load_taskset(tmp_path / "w.json")
        assert ts2 == ts

        # 2. partition
        result = get_partitioner("ca-tpa").partition(ts2, cfg.cores)
        assert result.schedulable
        metrics = partition_metrics(result.partition)
        assert 0.0 < metrics["u_avg"] <= metrics["u_sys"] <= 1.0

        # 3. simulate the deployment under stress
        report = SystemSimulator(
            result.partition,
            horizon=20000.0,
            releases=SporadicReleases(max_delay=0.3),
        ).run(RandomScenario(overrun_prob=0.2), seed=1)
        assert report.all_deadlines_met()
        assert report.completed > 0

        # 4. persist + reload the deployment, verify it still checks out
        save_partition(result.partition, tmp_path / "d.json")
        deployed = load_partition(tmp_path / "d.json")
        assert is_feasible_partition(deployed)
        report2 = SystemSimulator(deployed, horizon=5000.0).run(LevelScenario(2))
        assert report2.all_deadlines_met()

    def test_every_registered_scheme_runs_on_dual_workload(self, workload):
        cfg, ts = workload
        for name in available_schemes():
            if name == "ca-tpa-variant":
                scheme = get_partitioner(name, order="max-utilization")
            else:
                scheme = get_partitioner(name)
            result = scheme.partition(ts, cfg.cores)
            # every scheme must at least terminate with a coherent result
            assert result.partition.cores == cfg.cores
            if result.schedulable:
                assert is_feasible_partition(result.partition), name

    def test_accepted_schemes_all_survive_the_same_overload(self, workload):
        cfg, ts = workload
        for name in ("ca-tpa", "ffd", "bfd", "wfd", "hybrid"):
            result = get_partitioner(name).partition(ts, cfg.cores)
            if not result.schedulable:
                continue
            report = SystemSimulator(result.partition, horizon=10000.0).run(
                LevelScenario(2), seed=3
            )
            assert report.all_deadlines_met(), name

    def test_experiment_pipeline_to_csv(self, tmp_path):
        import csv

        from repro.experiments import (
            save_sweep_csv,
            figure1_nsu,
            run_sweep,
        )
        import dataclasses

        d = figure1_nsu(nsu_values=(0.5,))
        base = d.point

        def small(v):
            config, schemes = base(v)
            return config.with_(cores=2, task_count_range=(6, 8)), schemes

        sweep = run_sweep(dataclasses.replace(d, point=small), sets=5, seed=3)
        save_sweep_csv(sweep, tmp_path / "fig.csv")
        with open(tmp_path / "fig.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20  # 1 value x 5 schemes x 4 metrics
