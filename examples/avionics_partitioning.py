#!/usr/bin/env python3
"""IMA-style avionics consolidation: partition a DO-178-flavoured workload.

The paper's motivating scenario (Section I) is Integrated Modular
Avionics: functions certified at different design-assurance levels share
one multicore computer.  This example builds a 3-level workload (think
DAL-A / DAL-C / DAL-E), compares all five partitioning schemes on it,
and then stress-tests the chosen partition by simulating a certification
-style overload in which every high-assurance function exhausts its
pessimistic WCET.

Run with::

    python examples/avionics_partitioning.py
"""

from repro import MCTask, MCTaskSet
from repro.metrics import partition_metrics
from repro.partition import PAPER_SCHEMES, get_partitioner
from repro.sched import LevelScenario, RandomScenario, SystemSimulator

# Levels: 1 = mission (DAL-E-ish), 2 = essential (DAL-C), 3 = critical (DAL-A)
AVIONICS = MCTaskSet(
    [
        # critical flight functions: three WCET estimates each
        MCTask(wcets=(2.0, 3.0, 5.0), period=20.0, name="fly_by_wire"),
        MCTask(wcets=(3.0, 4.5, 7.0), period=40.0, name="air_data"),
        MCTask(wcets=(1.5, 2.5, 4.0), period=25.0, name="engine_fadec"),
        # essential functions
        MCTask(wcets=(4.0, 6.0), period=50.0, name="autopilot"),
        MCTask(wcets=(3.0, 5.0), period=40.0, name="nav_fusion"),
        MCTask(wcets=(2.5, 4.0), period=80.0, name="tcas"),
        # mission functions
        MCTask(wcets=(6.0,), period=60.0, name="weather_radar"),
        MCTask(wcets=(8.0,), period=100.0, name="cabin_display"),
        MCTask(wcets=(5.0,), period=50.0, name="datalink"),
        MCTask(wcets=(7.0,), period=200.0, name="maintenance_log"),
    ],
    levels=3,
)

CORES = 2

print(f"Workload: {len(AVIONICS)} functions, K={AVIONICS.levels}, M={CORES}\n")

print(f"{'scheme':>8} {'feasible':>9} {'U_sys':>7} {'U_avg':>7} {'Lambda':>7}")
results = {}
for name in PAPER_SCHEMES:
    res = get_partitioner(name).partition(AVIONICS, CORES)
    results[name] = res
    if res.schedulable:
        m = partition_metrics(res.partition)
        print(
            f"{name:>8} {'yes':>9} {m['u_sys']:>7.3f} {m['u_avg']:>7.3f}"
            f" {m['imbalance']:>7.3f}"
        )
    else:
        failed = AVIONICS[res.failed_task].name
        print(f"{name:>8} {'NO':>9}   (stuck at {failed!r})")

chosen = results["ca-tpa"]
assert chosen.schedulable, "CA-TPA could not certify this configuration"
print("\nCA-TPA placement:")
for m in range(CORES):
    names = [AVIONICS[i].name for i in chosen.partition.tasks_on(m)]
    print(f"  core {m}: {names}")

# ----------------------------------------------------------------------
# Certification stress: drive the system to each assurance level in turn.
# ----------------------------------------------------------------------
print("\nOverload simulations (horizon = 100 major frames):")
sim = SystemSimulator(chosen.partition, horizon=20000.0)
for target in (1, 2, 3):
    report = sim.run(LevelScenario(target=target))
    print(
        f"  exhaust level-{target} budgets: mode reached {report.max_mode}, "
        f"switches={report.mode_switches}, dropped={report.dropped}, "
        f"misses={report.miss_count}"
    )
    assert report.all_deadlines_met()

# And a long randomized campaign with sporadic overruns.
report = SystemSimulator(chosen.partition, horizon=100000.0).run(
    RandomScenario(overrun_prob=0.05), seed=42
)
print(
    f"  randomized campaign: {report.released} jobs, "
    f"{report.mode_switches} mode switches, misses={report.miss_count}"
)
assert report.all_deadlines_met()
print("\nOK: every non-dropped job met its deadline in all campaigns.")
