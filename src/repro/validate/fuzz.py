"""Seeded fuzz campaign driving generated workloads through the oracles.

The campaign rides on the experiment engine: each validation point is a
:class:`~repro.engine.spec.PointSpec` with ``kind="validate"``, so
shards resume from the :class:`~repro.engine.store.ResultStore` exactly
like figure sweeps do (an interrupted ``repro-mc validate --sets 5000``
picks up where it stopped), and the task sets are the very sets the
experiments see — set ``i`` of a point comes from
``SeedSequence(seed, spawn_key=(i,))``, the engine-wide convention.

Shard payloads are plain JSON: ``{"cases", "checks", "failures"}`` with
one record per oracle failure carrying the full task-set document, so a
cached failure can be rebuilt and shrunk without regenerating anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.engine.core import Engine, ProgressHook, register_shard_kind
from repro.engine.spec import PointSpec, SchemeSpec, default_schemes
from repro.engine.store import ResultStore
from repro.gen.generator import generate_taskset
from repro.gen.params import WorkloadConfig
from repro.model.io import taskset_from_dict, taskset_to_dict
from repro.obs import runtime as obs
from repro.validate.oracles import SIM_CYCLES, ValidationCase, all_oracles

__all__ = [
    "CAMPAIGN_CONFIGS",
    "CampaignResult",
    "OracleFailure",
    "campaign_points",
    "make_case",
    "run_campaign",
    "run_case",
]

#: Deliberately small workloads: a validation case runs every oracle —
#: ~10 partitioning attempts plus half a dozen short simulations — so
#: the grid trades per-case breadth for case throughput.  The corners:
#: the dual-criticality specialization (twice, once near the
#: feasibility boundary), a mid-size K=3 system, and a K=4 system
#: matching the paper's default level count.
CAMPAIGN_CONFIGS: tuple[WorkloadConfig, ...] = tuple(
    WorkloadConfig(
        cores=cores,
        levels=levels,
        nsu=nsu,
        task_count_range=(6, 12),
        period_ranges=((10, 60), (60, 240)),
    )
    for cores, levels, nsu in (
        (2, 2, 0.6),
        (2, 2, 0.9),
        (4, 3, 0.7),
        (4, 4, 0.5),
    )
)


def make_case(
    config: WorkloadConfig,
    schemes: tuple[SchemeSpec, ...],
    seed: int,
    index: int,
    sim_cycles: float = SIM_CYCLES,
) -> ValidationCase:
    """Task set ``index`` of a validation point, as a checkable case."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    return ValidationCase(
        taskset=generate_taskset(config, rng),
        config=config,
        schemes=tuple(schemes),
        seed=seed,
        set_index=index,
        sim_cycles=sim_cycles,
    )


def run_case(case: ValidationCase) -> list[dict]:
    """Run every registered oracle over one case.

    Returns one JSON-able failure record per failing oracle (empty =
    all green); an oracle that raises fails with the exception as its
    message (:meth:`~repro.validate.oracles.Oracle.failures`).
    Instrumented runs tally ``validate.cases``, ``validate.checks``,
    and ``validate.failures.<oracle>`` counters.
    """
    records = []
    instrumented = obs.OBS.enabled
    if instrumented:
        obs.counter("validate.cases").inc()
    for oracle in all_oracles():
        messages = oracle.failures(case)
        if instrumented:
            obs.counter("validate.checks").inc()
        if messages:
            if instrumented:
                obs.counter(f"validate.failures.{oracle.name}").inc()
            records.append(
                {
                    "oracle": oracle.name,
                    "set_index": case.set_index,
                    "messages": list(messages),
                    "taskset": taskset_to_dict(case.taskset),
                }
            )
    return records


def _run_validate_shards(shards, *, probe_impl: str) -> list[dict]:
    """Engine shard runner: cases ``start .. start+count-1`` of each
    ``(point, start, count)`` shard, one payload per shard.

    ``probe_impl`` is unused: the oracles name the backends they compare.
    """
    n_oracles = len(all_oracles())
    payloads = []
    for point, start, count in shards:
        failures: list[dict] = []
        for i in range(start, start + count):
            failures.extend(
                run_case(make_case(point.config, point.schemes, point.seed, i))
            )
        payloads.append(
            {"cases": count, "checks": count * n_oracles, "failures": failures}
        )
    return payloads


def _encode_validate(result: dict) -> dict:
    return dict(result)


def _decode_validate(payload: dict) -> dict:
    return {
        "cases": int(payload["cases"]),
        "checks": int(payload["checks"]),
        "failures": [dict(record) for record in payload["failures"]],
    }


def _merge_validate(point: PointSpec, shards: list) -> dict:
    merged = {"cases": 0, "checks": 0, "failures": []}
    for shard in shards:
        merged["cases"] += shard["cases"]
        merged["checks"] += shard["checks"]
        merged["failures"].extend(shard["failures"])
    return merged


register_shard_kind(
    "validate",
    run=_run_validate_shards,
    encode=_encode_validate,
    decode=_decode_validate,
    merge=_merge_validate,
)


@dataclass(frozen=True)
class OracleFailure:
    """One oracle violation, with everything needed to reproduce it."""

    oracle: str
    config: WorkloadConfig
    schemes: tuple[SchemeSpec, ...]
    seed: int
    set_index: int
    messages: tuple[str, ...]
    taskset_doc: dict

    def case(self, sim_cycles: float = SIM_CYCLES) -> ValidationCase:
        """Rebuild the failing :class:`ValidationCase` from the record."""
        return ValidationCase(
            taskset=taskset_from_dict(self.taskset_doc),
            config=self.config,
            schemes=self.schemes,
            seed=self.seed,
            set_index=self.set_index,
            sim_cycles=sim_cycles,
        )


@dataclass(frozen=True)
class CampaignResult:
    """Merged outcome of one validation campaign."""

    points: tuple[PointSpec, ...]
    cases: int
    checks: int
    failures: tuple[OracleFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"validate: {self.cases} cases x {len(all_oracles())} oracles "
            f"over {len(self.points)} points ({self.checks} checks): "
            + ("all green" if self.ok else f"{len(self.failures)} FAILURE(S)")
        ]
        for f in self.failures:
            lines.append(
                f"  FAIL {f.oracle} (seed {f.seed}, set {f.set_index}, "
                f"M={f.config.cores}, K={f.config.levels}, NSU={f.config.nsu:g})"
            )
            lines.extend(f"    {message}" for message in f.messages)
        return "\n".join(lines)


def campaign_points(
    sets: int,
    seed: int,
    schemes: tuple[SchemeSpec, ...] | None = None,
    configs: tuple[WorkloadConfig, ...] = CAMPAIGN_CONFIGS,
) -> tuple[PointSpec, ...]:
    """The campaign grid as engine point specs (``kind="validate"``)."""
    schemes = tuple(schemes) if schemes else tuple(default_schemes())
    return tuple(
        PointSpec(config=c, schemes=schemes, sets=sets, seed=seed, kind="validate")
        for c in configs
    )


def run_campaign(
    sets: int = 50,
    seed: int = 0,
    *,
    jobs: int | None = 1,
    store: ResultStore | str | os.PathLike | None = None,
    progress: ProgressHook | None = None,
    schemes: tuple[SchemeSpec, ...] | None = None,
    configs: tuple[WorkloadConfig, ...] = CAMPAIGN_CONFIGS,
) -> CampaignResult:
    """Fuzz ``sets`` task sets per campaign config through every oracle.

    Resumable: with a ``store``, completed shards are checkpointed and a
    re-run (same sets/seed/schemes) answers from cache.  The configs
    are one engine run: pooled, every config's shards share one pool.
    """
    points = campaign_points(sets, seed, schemes=schemes, configs=configs)
    engine = Engine(jobs=jobs, store=store, progress=progress)
    with engine.queued(points):
        payloads = [engine.evaluate(point) for point in points]
    cases = checks = 0
    failures: list[OracleFailure] = []
    for point, payload in zip(points, payloads):
        cases += payload["cases"]
        checks += payload["checks"]
        failures.extend(
            OracleFailure(
                oracle=record["oracle"],
                config=point.config,
                schemes=point.schemes,
                seed=point.seed,
                set_index=record["set_index"],
                messages=tuple(record["messages"]),
                taskset_doc=record["taskset"],
            )
            for record in payload["failures"]
        )
    return CampaignResult(
        points=points, cases=cases, checks=checks, failures=tuple(failures)
    )
