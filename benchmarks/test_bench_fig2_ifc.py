"""Figure 2: performance of the partitioning schemes with varying IFC.

A larger WCET increment factor inflates every higher-level budget, so
schedulability must fall as IFC grows (Section IV-B: "a greater IFC
causes higher system workload and lower acceptance ratio").
"""

from conftest import run_figure

from repro.experiments import figure2_ifc


def test_fig2_ifc(benchmark, emit_artifact):
    result = benchmark.pedantic(
        lambda: run_figure(figure2_ifc), rounds=1, iterations=1
    )
    emit_artifact("fig2_ifc", result)

    ratios = result.series("sched_ratio")
    for scheme, series in ratios.items():
        for lo, hi in zip(series, series[1:]):
            assert hi <= lo + 0.05, f"{scheme} ratio increased with IFC: {series}"
    # CA-TPA stays competitive with the best classical scheme and is
    # more balanced than FFD/BFD wherever it schedules sets.
    imb = result.series("imbalance")
    for i in range(len(result.values)):
        best = max(ratios[s][i] for s in ratios)
        assert ratios["ca-tpa"][i] >= best - 0.07
        if ratios["ca-tpa"][i] > 0.05 and ratios["ffd"][i] > 0.05:
            assert imb["ca-tpa"][i] <= imb["ffd"][i] + 0.05
