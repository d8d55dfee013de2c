"""Extension bench: sensitivity to the criticality mix.

The paper draws task criticalities uniformly over ``1..K``.  Real IMA
workloads skew low (few DAL-A functions, many DAL-D/E ones).  This bench
sweeps the mix from strongly-low-skewed to strongly-high-skewed and
reports each scheme's acceptance — showing where criticality-aware
allocation matters most.
"""

from conftest import bench_sets

from repro.engine import Engine, PointSpec, SchemeSpec
from repro.gen import WorkloadConfig

MIXES = {
    "low-skew (8:4:2:1)": (8.0, 4.0, 2.0, 1.0),
    "uniform (paper)": None,
    "high-skew (1:2:4:8)": (1.0, 2.0, 4.0, 8.0),
}


def test_criticality_mix_sensitivity(benchmark, emit):
    sets = bench_sets(120)
    schemes = [
        SchemeSpec.make(name) for name in ("ca-tpa", "ffd", "wfd", "hybrid")
    ]

    def campaign():
        table = {}
        for label, weights in MIXES.items():
            cfg = WorkloadConfig(nsu=0.5, crit_weights=weights)
            point = PointSpec(cfg, tuple(schemes), sets, seed=2016)
            stats = Engine().evaluate(point)
            table[label] = {k: v.sched_ratio for k, v in stats.items()}
        return table

    table = benchmark.pedantic(campaign, rounds=1, iterations=1)

    names = [s.label for s in schemes]
    header = f"{'criticality mix':>22} | " + " ".join(f"{n:>8}" for n in names)
    lines = [
        f"Criticality-mix sensitivity (K=4, NSU=0.5, {sets} sets/point)",
        header,
        "-" * len(header),
    ]
    for label, row in table.items():
        lines.append(
            f"{label:>22} | " + " ".join(f"{row[n]:>8.3f}" for n in names)
        )
    emit("sensitivity_crit_mix", "\n".join(lines))

    # Low-skewed mixes carry less high-level WCET inflation, so every
    # scheme accepts at least as much there as on the high-skewed mix.
    for name in names:
        low = table["low-skew (8:4:2:1)"][name]
        high = table["high-skew (1:2:4:8)"][name]
        assert low >= high - 0.05, name
