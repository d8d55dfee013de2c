"""Resumable, checkpointed experiment engine.

Declarative :class:`ExperimentSpec` grids (workload config × scheme
specs × sets/seed) evaluated by :class:`Engine`, which shards the work,
checkpoints completed shards into a content-addressed
:class:`ResultStore`, and renders everything into the versioned
:class:`SweepArtifact` schema that the reporting/export/CLI layers
consume.  See docs/API.md ("The experiment engine") for the store
layout and invalidation rules.
"""

from repro.engine.artifact import SCHEMA_VERSION, PointResult, SweepArtifact
from repro.engine.core import Engine, EngineRunStats
from repro.engine.spec import (
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
    default_schemes,
    plan_shards,
)
from repro.engine.store import ResultStore, default_store_root, shard_key

__all__ = [
    "SCHEMA_VERSION",
    "Engine",
    "EngineRunStats",
    "ExperimentSpec",
    "PointResult",
    "PointSpec",
    "ResultStore",
    "SchemeSpec",
    "SweepArtifact",
    "default_schemes",
    "default_store_root",
    "plan_shards",
    "shard_key",
]
