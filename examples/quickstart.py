#!/usr/bin/env python3
"""Quickstart: partition a small mixed-criticality task set and simulate it.

Run with::

    python examples/quickstart.py
"""

from repro import MCTask, MCTaskSet, partition_taskset
from repro.metrics import partition_metrics
from repro.sched import HonestScenario, LevelScenario, SystemSimulator

# ----------------------------------------------------------------------
# 1. Describe the workload: implicit-deadline periodic MC tasks.
#    wcets=(c(1), ..., c(l)) — the vector length is the task's own
#    criticality level; period doubles as the relative deadline.
# ----------------------------------------------------------------------
taskset = MCTaskSet(
    [
        MCTask(wcets=(2.0, 5.0), period=20.0, name="flight_control"),  # HI
        MCTask(wcets=(3.0, 6.0), period=40.0, name="engine_monitor"),  # HI
        MCTask(wcets=(4.0,), period=25.0, name="telemetry"),           # LO
        MCTask(wcets=(6.0,), period=50.0, name="logging"),             # LO
        MCTask(wcets=(5.0,), period=30.0, name="display"),             # LO
    ],
    levels=2,
)

# ----------------------------------------------------------------------
# 2. Partition onto 2 cores with CA-TPA (per-core EDF-VD analysis).
# ----------------------------------------------------------------------
result = partition_taskset(taskset, cores=2, scheme="ca-tpa")
print(f"schedulable: {result.schedulable}")
for m in range(2):
    names = [taskset[i].name for i in result.partition.tasks_on(m)]
    print(f"  core {m}: {names}")

metrics = partition_metrics(result.partition)
print(
    f"U_sys={metrics['u_sys']:.3f}  U_avg={metrics['u_avg']:.3f}  "
    f"imbalance={metrics['imbalance']:.3f}"
)

# ----------------------------------------------------------------------
# 3. Validate at run time: simulate EDF-VD + AMC on the partition.
# ----------------------------------------------------------------------
sim = SystemSimulator(result.partition, horizon=2000.0)
for scenario, label in [
    (HonestScenario(), "honest (all jobs within LO budgets)"),
    (LevelScenario(target=2), "overload (HI tasks exhaust HI budgets)"),
]:
    report = sim.run(scenario)
    print(
        f"{label}: released={report.released} completed={report.completed} "
        f"dropped={report.dropped} mode_switches={report.mode_switches} "
        f"misses={report.miss_count}"
    )
    assert report.all_deadlines_met(), "analysis guarantee violated!"

print("OK: no non-dropped job ever missed its deadline.")
