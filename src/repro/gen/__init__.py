"""Synthetic mixed-criticality workload generation."""

from repro.gen.generator import generate_batch, generate_taskset
from repro.gen.params import (
    ALPHA_RANGE,
    CORE_COUNTS,
    IFC_RANGE,
    LEVEL_RANGE,
    NSU_RANGE,
    PERIOD_RANGES,
    TASK_COUNT_RANGE,
    WorkloadConfig,
)

__all__ = [
    "ALPHA_RANGE",
    "CORE_COUNTS",
    "IFC_RANGE",
    "LEVEL_RANGE",
    "NSU_RANGE",
    "PERIOD_RANGES",
    "TASK_COUNT_RANGE",
    "WorkloadConfig",
    "generate_batch",
    "generate_taskset",
]
