"""The headline-gap evidence: pairwise dominance between the schemes.

EXPERIMENTS.md reports that CA-TPA ties FFD/BFD within noise at the
paper's defaults; this bench evaluates one plain stats point, whose
schemes run on the same task sets, and prints the win/loss matrix
(which aggregate ratios hide) with a sign test per scheme pair, so the
claim stays auditable.
"""

from conftest import bench_sets

from repro.engine import Engine, PointSpec
from repro.experiments import SchemeSpec, format_head_to_head
from repro.gen import WorkloadConfig


def test_head_to_head_matrix(benchmark, emit):
    cfg = WorkloadConfig(nsu=0.55)  # mid-transition: differences visible
    specs = tuple(
        SchemeSpec.make(name) for name in ("ca-tpa", "ffd", "bfd", "wfd", "hybrid")
    )
    sets = bench_sets(120)
    point = PointSpec(config=cfg, schemes=specs, sets=sets, seed=2016)

    stats = benchmark.pedantic(
        lambda: Engine().evaluate(point), rounds=1, iterations=1
    )
    emit("head_to_head", format_head_to_head(stats))

    accepted = {label: s.schedulable_sets for label, s in stats.items()}
    # FFD and BFD behave near-identically on these workloads.
    assert abs(accepted["ffd"] - accepted["bfd"]) <= sets // 20
    # CA-TPA is within a small band of the best classical scheme.
    best = max(accepted[s] for s in ("ffd", "bfd", "wfd", "hybrid"))
    assert accepted["ca-tpa"] >= best - max(2, sets // 10)
