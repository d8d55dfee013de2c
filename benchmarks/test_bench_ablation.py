"""Ablation: which CA-TPA ingredient buys what (DESIGN.md §5).

Swaps one design decision at a time — ordering rule, core-selection
rule, imbalance override — and reports the schedulability ratio of each
variant on the same workload, alongside FFD as the classical anchor.
"""

import numpy as np
from conftest import bench_sets, emit as _emit  # noqa: F401

from repro.engine import Engine, PointSpec, SchemeSpec
from repro.gen import WorkloadConfig


def ablation_specs():
    return [
        SchemeSpec.make("ca-tpa", label="paper (contrib/min-inc/a=0.7)"),
        SchemeSpec.make(
            "ca-tpa-variant", label="order: max-utilization", order="max-utilization"
        ),
        SchemeSpec.make(
            "ca-tpa-variant", label="order: criticality-first", order="criticality"
        ),
        SchemeSpec.make(
            "ca-tpa-variant", label="selection: first-fit", selection="first-fit"
        ),
        SchemeSpec.make(
            "ca-tpa-variant", label="selection: worst-fit", selection="worst-fit"
        ),
        SchemeSpec.make("ca-tpa", label="no imbalance override", alpha=None),
        SchemeSpec.make("ca-tpa", label="Eq.9 min rule", eq9_rule="min"),
        SchemeSpec.make("ffd", label="ffd (classical anchor)"),
    ]


def test_catpa_ablation(benchmark, emit):
    config = WorkloadConfig(nsu=0.55)  # mid-transition: differences visible

    def run():
        point = PointSpec(config, tuple(ablation_specs()), bench_sets(), seed=2016)
        return Engine(jobs=None).evaluate(point)

    stats = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["CA-TPA ablation at NSU=0.55 (schedulability ratio / imbalance)"]
    for label, s in stats.items():
        imb = "-" if np.isnan(s.imbalance) else f"{s.imbalance:.3f}"
        lines.append(f"  {label:>32}: {s.sched_ratio:.3f} / {imb}")
    emit("ablation_catpa", "\n".join(lines))

    # Sanity: worst-fit selection must not beat the paper's min-increment
    # by a wide margin (it is the known-weak spreading strategy).
    paper = stats["paper (contrib/min-inc/a=0.7)"].sched_ratio
    worst_fit = stats["selection: worst-fit"].sched_ratio
    assert worst_fit <= paper + 0.05
