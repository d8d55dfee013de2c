"""Experiment harness: figure sweeps, worked-example tables, reporting.

Every harness entry point is a thin builder over :mod:`repro.engine`:
sweeps lower to declarative specs, evaluate on the resumable
checkpointed :class:`~repro.engine.Engine`, and render from the one
structured :class:`~repro.engine.SweepArtifact` schema.  A single data
point is ``Engine(jobs=…, store=…).evaluate(PointSpec(…))``; its
``label -> SchemeStats`` result prints as a paired head-to-head table
with :func:`format_head_to_head`.
"""

from repro.engine.artifact import PointResult, SweepArtifact
from repro.engine.spec import SchemeSpec, default_schemes
from repro.experiments.dynamic import (
    DEFAULT_BURST_FACTORS,
    DynamicSweepResult,
    dynamic_point,
    format_dynamic,
    run_dynamic_sweep,
)
from repro.experiments.export import save_sweep_csv, sweep_to_csv
from repro.experiments.report import (
    format_allocation_trace,
    format_head_to_head,
    format_panel,
    format_sweep,
    format_table1,
)
from repro.experiments.sweeps import (
    FIGURES,
    SweepDefinition,
    definition_to_spec,
    figure1_nsu,
    figure2_ifc,
    figure3_alpha,
    figure4_cores,
    figure5_levels,
    run_sweep,
)
from repro.experiments.tables import (
    AllocationStep,
    allocation_trace,
    paper_example_taskset,
    table1_rows,
)

__all__ = [
    "AllocationStep",
    "DEFAULT_BURST_FACTORS",
    "DynamicSweepResult",
    "FIGURES",
    "dynamic_point",
    "format_dynamic",
    "run_dynamic_sweep",
    "PointResult",
    "SweepArtifact",
    "format_head_to_head",
    "SchemeSpec",
    "SweepDefinition",
    "allocation_trace",
    "default_schemes",
    "definition_to_spec",
    "figure1_nsu",
    "figure2_ifc",
    "figure3_alpha",
    "figure4_cores",
    "figure5_levels",
    "format_allocation_trace",
    "format_panel",
    "format_sweep",
    "format_table1",
    "paper_example_taskset",
    "run_sweep",
    "save_sweep_csv",
    "sweep_to_csv",
    "table1_rows",
]
