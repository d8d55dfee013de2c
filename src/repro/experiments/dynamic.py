"""Dynamic-scenario resilience sweep (shard kind ``dynsim``).

Where Figures 1-5 measure *offline* schedulability, this figure asks
what happens to a CA-TPA partition at **run time** when the world
misbehaves: every task set is simulated under a standard injected-event
script (:mod:`repro.sched.events`) — a WCET burst whose factor is the
swept parameter, a task arrival admitted through the same Theorem-1
probe the daemon uses, a departure, a core failure with re-partitioning
of the displaced tasks, the core's later hotplug return, and a train of
quasi-periodic recovery-to-low windows.  The sweep reports how deadline
misses, drops,
mode switches, and admission outcomes degrade as the burst factor grows.

Each data point is a ``kind="dynsim"`` :class:`~repro.engine.PointSpec`
whose :attr:`~repro.engine.spec.PointSpec.params` carry the burst
factor, so shards ride the same content-addressed checkpoint store as
every other figure and a re-run resumes from completed shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.core import Engine, ProgressHook, register_shard_kind
from repro.engine.spec import PointSpec, SchemeSpec
from repro.engine.store import ResultStore
from repro.gen.generator import generate_taskset
from repro.gen.params import WorkloadConfig
from repro.model.task import MCTask

__all__ = [
    "DEFAULT_BURST_FACTORS",
    "DynamicSweepResult",
    "dynamic_config",
    "dynamic_point",
    "format_dynamic",
    "run_dynamic_sweep",
    "standard_event_script",
]


def dynamic_config() -> WorkloadConfig:
    """The figure's default workload: the paper shape at NSU 0.5.

    The Section IV-A default (NSU 0.6) leaves CA-TPA only ~10% of sets
    schedulable, and unschedulable sets carry no runtime guarantee to
    stress — at 0.5 nearly every generated set actually simulates.
    """
    return WorkloadConfig(nsu=0.5)


#: Swept WCET burst factors: 1.0 is the control (the burst multiplies
#: demand by 1, i.e. injects nothing abnormal), the rest escalate.
DEFAULT_BURST_FACTORS = (1.0, 1.5, 2.0, 3.0, 4.0)

#: Simulated horizon in multiples of the longest period.  Long enough
#: that every scripted event instant (0.2H .. 0.8H) sees several
#: releases of every task on both sides.
SIM_CYCLES = 12.0

#: Per-job overrun probability of the RandomScenario driving the runs.
#: Deliberately small: injected recovery windows suppress the automatic
#: idle reset, so a noisy baseline would pin every core at max mode
#: before the burst even starts and the swept factor would have nothing
#: left to degrade.  At 0.5% the baseline stays mostly in low mode and
#: escalation tracks the burst.
OVERRUN_PROB = 0.005

#: Integer tallies a dynsim shard accumulates; merge is plain summation.
_TALLY_KEYS = (
    "sets",
    "simulated",
    "unschedulable",
    "released",
    "completed",
    "dropped",
    "pending",
    "deadline_misses",
    "sets_with_miss",
    "mode_switches",
    "idle_resets",
    "burst_jobs",
    "failure_drops",
    "arrival_admitted",
    "arrival_rejected",
    "departures",
    "displaced",
    "replaced",
    "repartition_lost",
    "mode_recovery_applied",
    "mode_recovery_noop",
    "mode_recovery_missed",
)


def standard_event_script(
    taskset, cores: int, horizon: float, burst_factor: float, rng
) -> list:
    """The figure's canonical mid-run adversity, scaled by the factor.

    Instants are fixed fractions of the horizon so every set faces the
    same relative timeline; only the arrival clone, the departing task,
    and the failing core are drawn from ``rng``.
    """
    from repro.sched import (
        core_failure,
        core_hotplug,
        mode_recovery,
        task_arrival,
        task_departure,
        wcet_burst,
    )

    n = len(taskset)
    src = taskset[int(rng.integers(n))]
    arriving = MCTask(
        wcets=tuple(0.5 * w for w in src.wcets),
        period=src.period,
        name="dyn-arrival",
    )
    events = [
        wcet_burst(0.25 * horizon, 0.6 * horizon, burst_factor),
        task_arrival(0.2 * horizon, arriving),
        task_departure(0.5 * horizon, int(rng.integers(n))),
    ]
    # Quasi-periodic recovery: one claimable window per eighth of the
    # run.  Injected windows suppress the automatic idle reset, so with
    # a single late window one early escalation would pin the core at
    # high mode for most of the horizon and every burst factor would
    # saturate to the same drop count; periodic windows let cores come
    # back down, making time-at-high-mode (and with it the drop
    # fraction) track how quickly each burst factor re-escalates.
    for k in range(8):
        events.append(
            mode_recovery(
                (k + 0.35) * horizon / 8.0, (k + 0.85) * horizon / 8.0
            )
        )
    if cores > 1:
        core = int(rng.integers(cores))
        events.append(core_failure(0.4 * horizon, core))
        events.append(core_hotplug(0.8 * horizon, core))
    return events


def _run_dynsim_shards(shards, *, probe_impl: str) -> list[dict]:
    """Engine shard runner: one tally per ``(point, start, count)``
    shard.  ``probe_impl`` is unused: partitioning and the event
    compiler probe on the batch backend."""
    return [_dynsim_tally(point, start, count) for point, start, count in shards]


def _dynsim_tally(point: PointSpec, start: int, count: int) -> dict:
    """Simulate task sets ``start .. start+count-1`` under the script.

    Only the first scheme partitions (the figure is about runtime
    resilience of one partitioner, not a scheme comparison); sets it
    cannot schedule are counted and skipped — there is no guarantee to
    stress.  Three decoupled seed streams per set (generation, script,
    simulation) keep every draw independent of the others' draw counts.
    The burst factor is the point's ``burst_factor`` param (1.0 if
    absent).
    """
    from repro.sched import RandomScenario, SystemSimulator, default_horizon

    config, seed = point.config, point.seed
    factor = float(dict(point.params).get("burst_factor", 1.0))
    partitioner = point.schemes[0].build()
    tally = dict.fromkeys(_TALLY_KEYS, 0)
    for i in range(start, start + count):
        tally["sets"] += 1
        gen_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(i,))
        )
        taskset = generate_taskset(config, gen_rng)
        result = partitioner.partition(taskset, config.cores)
        if not result.schedulable:
            tally["unschedulable"] += 1
            continue
        partition = result.partition
        horizon = default_horizon(partition, cycles=SIM_CYCLES)
        script_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(i, 0xD1))
        )
        report = SystemSimulator(
            partition,
            horizon=horizon,
            allow_infeasible=True,  # failure re-partitioning may overload
            events=standard_event_script(
                taskset, partition.cores, horizon, factor, script_rng
            ),
        ).run(
            RandomScenario(overrun_prob=OVERRUN_PROB),
            seed=np.random.SeedSequence(seed, spawn_key=(i, 0xD2)),
        )
        tally["simulated"] += 1
        tally["released"] += report.released
        tally["completed"] += report.completed
        tally["dropped"] += report.dropped
        tally["pending"] += report.pending
        tally["deadline_misses"] += report.miss_count
        tally["sets_with_miss"] += bool(report.miss_count)
        tally["mode_switches"] += report.mode_switches
        tally["idle_resets"] += report.idle_resets
        for key, value in report.events.counters.items():
            if key in tally:
                tally[key] += value
    return tally


def _encode_dynsim(result: dict) -> dict:
    return {"tally": dict(result)}


def _decode_dynsim(payload: dict) -> dict:
    return {key: int(payload["tally"].get(key, 0)) for key in _TALLY_KEYS}


def _merge_dynsim(point: PointSpec, shards: list) -> dict:
    merged = dict.fromkeys(_TALLY_KEYS, 0)
    for shard in shards:
        for key in _TALLY_KEYS:
            merged[key] += int(shard.get(key, 0))
    return merged


register_shard_kind(
    "dynsim",
    run=_run_dynsim_shards,
    encode=_encode_dynsim,
    decode=_decode_dynsim,
    merge=_merge_dynsim,
)


def dynamic_point(
    burst_factor: float,
    config: WorkloadConfig | None = None,
    scheme: SchemeSpec | None = None,
    sets: int = 200,
    seed: int = 2016,
) -> PointSpec:
    """One dynsim data point at the given burst factor."""
    return PointSpec(
        config=config or dynamic_config(),
        schemes=(scheme or SchemeSpec.make("ca-tpa", alpha=0.7),),
        sets=sets,
        seed=seed,
        kind="dynsim",
        params=(("burst_factor", float(burst_factor)),),
    )


def _rate(num: int, den: int) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class DynamicSweepResult:
    """Merged tallies per swept burst factor, plus derived rates."""

    factors: tuple[float, ...]
    tallies: tuple[dict, ...]
    config: WorkloadConfig = field(default_factory=dynamic_config)
    sets: int = 200
    seed: int = 2016
    scheme: str = "ca-tpa"

    def row(self, index: int) -> dict:
        """Derived per-factor metrics for rendering/export."""
        t = self.tallies[index]
        return {
            "burst_factor": self.factors[index],
            "simulated": t["simulated"],
            "unschedulable": t["unschedulable"],
            "miss_rate": _rate(t["deadline_misses"], t["released"]),
            "miss_set_fraction": _rate(t["sets_with_miss"], t["simulated"]),
            "dropped_fraction": _rate(t["dropped"], t["released"]),
            "mode_switches_per_set": _rate(t["mode_switches"], t["simulated"]),
            "arrival_admit_rate": _rate(
                t["arrival_admitted"],
                t["arrival_admitted"] + t["arrival_rejected"],
            ),
            "replaced": t["replaced"],
            "repartition_lost": t["repartition_lost"],
            "recovery_applied": t["mode_recovery_applied"],
        }

    def to_dict(self) -> dict:
        return {
            "figure": "dynamic",
            "scheme": self.scheme,
            "config": self.config.to_dict(),
            "sets": self.sets,
            "seed": self.seed,
            "factors": list(self.factors),
            "tallies": [dict(t) for t in self.tallies],
            "rows": [self.row(i) for i in range(len(self.factors))],
        }


def run_dynamic_sweep(
    factors=DEFAULT_BURST_FACTORS,
    sets: int = 200,
    seed: int = 2016,
    jobs: int | None = 1,
    store: ResultStore | None = None,
    progress: ProgressHook | None = None,
    config: WorkloadConfig | None = None,
    scheme: SchemeSpec | None = None,
) -> DynamicSweepResult:
    """Evaluate the dynamic figure: one dynsim point per burst factor."""
    config = config or dynamic_config()
    scheme = scheme or SchemeSpec.make("ca-tpa", alpha=0.7)
    engine = Engine(jobs=jobs, store=store, progress=progress)
    points = [
        dynamic_point(factor, config=config, scheme=scheme, sets=sets, seed=seed)
        for factor in factors
    ]
    with engine.queued(points):
        tallies = [engine.evaluate(point) for point in points]
    return DynamicSweepResult(
        factors=tuple(float(f) for f in factors),
        tallies=tuple(tallies),
        config=config,
        sets=sets,
        seed=seed,
        scheme=scheme.label,
    )


def format_dynamic(result: DynamicSweepResult) -> str:
    """Plain-text table of the dynamic resilience sweep."""
    lines = [
        "Dynamic scenario sweep: runtime resilience under injected events",
        f"scheme={result.scheme}  M={result.config.cores}  "
        f"K={result.config.levels}  NSU={result.config.nsu}  "
        f"sets/point={result.sets}  seed={result.seed}",
        "",
        f"{'burst':>6} {'sims':>5} {'miss%':>7} {'miss-sets%':>10} "
        f"{'drop%':>7} {'mode-up/set':>11} {'admit%':>7} "
        f"{'replaced':>8} {'lost':>5} {'recov':>6}",
    ]
    for i in range(len(result.factors)):
        row = result.row(i)
        lines.append(
            f"{row['burst_factor']:>6.2f} {row['simulated']:>5d} "
            f"{100 * row['miss_rate']:>6.2f}% "
            f"{100 * row['miss_set_fraction']:>9.1f}% "
            f"{100 * row['dropped_fraction']:>6.2f}% "
            f"{row['mode_switches_per_set']:>11.2f} "
            f"{100 * row['arrival_admit_rate']:>6.1f}% "
            f"{row['replaced']:>8d} {row['repartition_lost']:>5d} "
            f"{row['recovery_applied']:>6d}"
        )
    return "\n".join(lines)
