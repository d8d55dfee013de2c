"""Sweep definitions for Figures 1-5 of the paper.

Each figure sweeps one parameter around the Section IV-A defaults
(``M = 8``, ``K = 4``, ``NSU = 0.6``, ``alpha = 0.7``, ``IFC = 0.4``)
and reports four panels per swept value: (a) schedulability ratio,
(b) system utilization ``U_sys``, (c) average core utilization
``U_avg``, and (d) workload imbalance ``Lambda`` — panels (b)-(d) over
schedulable sets only.

A :class:`SweepDefinition` is a *builder*: :func:`definition_to_spec`
lowers it to a declarative :class:`~repro.engine.ExperimentSpec`, and
:func:`run_sweep` evaluates that spec on the resumable
:class:`~repro.engine.Engine`, returning the structured
:class:`~repro.engine.SweepArtifact` every renderer consumes.  Because
specs are pure data hashed per shard, figures that share a data point
(Fig. 1-5 all contain the Section IV-A default) reuse each other's
checkpoints when a store is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.artifact import SweepArtifact
from repro.engine.core import Engine, ProgressHook
from repro.engine.spec import (
    ExperimentSpec,
    PointSpec,
    SchemeSpec,
    default_schemes,
)
from repro.engine.store import ResultStore
from repro.gen.params import CORE_COUNTS, WorkloadConfig

__all__ = [
    "SweepDefinition",
    "definition_to_spec",
    "figure1_nsu",
    "figure2_ifc",
    "figure3_alpha",
    "figure4_cores",
    "figure5_levels",
    "FIGURES",
    "run_sweep",
]

@dataclass(frozen=True)
class SweepDefinition:
    """One figure: a parameter name, its values, and the point builder."""

    figure: str  #: e.g. "fig1"
    title: str
    parameter: str  #: axis label, e.g. "NSU"
    values: tuple
    #: maps a swept value to the (config, schemes) of that data point
    point: Callable[[object], tuple[WorkloadConfig, list[SchemeSpec]]]


def definition_to_spec(
    definition: SweepDefinition, sets: int = 200, seed: int = 2016
) -> ExperimentSpec:
    """Lower a figure definition to a declarative experiment spec."""
    points = []
    for value in definition.values:
        config, schemes = definition.point(value)
        points.append(
            PointSpec(
                config=config,
                schemes=tuple(schemes),
                sets=sets,
                seed=seed,
                kind="stats",
            )
        )
    return ExperimentSpec(
        figure=definition.figure,
        title=definition.title,
        parameter=definition.parameter,
        values=tuple(definition.values),
        points=tuple(points),
    )


def figure1_nsu(
    nsu_values: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8),
) -> SweepDefinition:
    """Figure 1: impact of the normalized system utilization."""
    return SweepDefinition(
        figure="fig1",
        title="Performance of the algorithms with varying NSU",
        parameter="NSU",
        values=tuple(nsu_values),
        point=lambda v: (WorkloadConfig(nsu=float(v)), default_schemes()),
    )


def figure2_ifc(
    ifc_values: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7),
) -> SweepDefinition:
    """Figure 2: impact of the WCET increment factor."""
    return SweepDefinition(
        figure="fig2",
        title="Performance of the algorithms with varying IFC",
        parameter="IFC",
        values=tuple(ifc_values),
        point=lambda v: (WorkloadConfig(ifc=float(v)), default_schemes()),
    )


def figure3_alpha(
    alpha_values: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
) -> SweepDefinition:
    """Figure 3: impact of the imbalance threshold (CA-TPA only knob)."""
    return SweepDefinition(
        figure="fig3",
        title="Performance of the algorithms with varying alpha",
        parameter="alpha",
        values=tuple(alpha_values),
        point=lambda v: (WorkloadConfig(), default_schemes(alpha=float(v))),
    )


def figure4_cores(
    core_values: Sequence[int] = CORE_COUNTS,
) -> SweepDefinition:
    """Figure 4: impact of the number of processor cores."""
    return SweepDefinition(
        figure="fig4",
        title="Performance of the algorithms with varying M",
        parameter="M",
        values=tuple(core_values),
        point=lambda v: (WorkloadConfig(cores=int(v)), default_schemes()),
    )


def figure5_levels(
    level_values: Sequence[int] = (2, 3, 4, 5, 6),
) -> SweepDefinition:
    """Figure 5: impact of the number of criticality levels."""
    return SweepDefinition(
        figure="fig5",
        title="Performance of the algorithms with varying K",
        parameter="K",
        values=tuple(level_values),
        point=lambda v: (WorkloadConfig(levels=int(v)), default_schemes()),
    )


#: Figure id -> zero-argument definition factory.
FIGURES: dict[str, Callable[[], SweepDefinition]] = {
    "fig1": figure1_nsu,
    "fig2": figure2_ifc,
    "fig3": figure3_alpha,
    "fig4": figure4_cores,
    "fig5": figure5_levels,
}


def run_sweep(
    definition: SweepDefinition,
    sets: int = 200,
    seed: int = 2016,
    jobs: int | None = 1,
    store: ResultStore | str | os.PathLike | None = None,
    progress: ProgressHook | None = None,
) -> SweepArtifact:
    """Evaluate every data point of a figure definition.

    With a ``store``, completed shards are checkpointed as they finish
    and later (or interrupted) runs resume from them; results are
    bit-identical with or without a store and for any ``jobs`` count.
    """
    spec = definition_to_spec(definition, sets=sets, seed=seed)
    return Engine(jobs=jobs, store=store, progress=progress).run(spec)
