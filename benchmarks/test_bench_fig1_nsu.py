"""Figure 1: performance of the partitioning schemes with varying NSU.

Regenerates all four panels (schedulability ratio, U_sys, U_avg,
Lambda) across NSU in [0.4, 0.8] for the five schemes, and checks the
qualitative shape claims of Section IV-B that are reproducible (see
EXPERIMENTS.md for the full paper-vs-measured discussion).
"""

from conftest import run_figure

from repro.experiments import figure1_nsu


def test_fig1_nsu(benchmark, emit_artifact):
    result = benchmark.pedantic(
        lambda: run_figure(figure1_nsu), rounds=1, iterations=1
    )
    emit_artifact("fig1_nsu", result)

    ratios = result.series("sched_ratio")
    # (shape) higher NSU never helps any scheme (weak monotone decrease).
    for scheme, series in ratios.items():
        for lo, hi in zip(series, series[1:]):
            assert hi <= lo + 0.05, f"{scheme} ratio increased with NSU: {series}"
    # (shape) WFD is never the best scheme at a contended point.
    for i, nsu in enumerate(result.values):
        point = {s: ratios[s][i] for s in ratios}
        if 0.03 < max(point.values()) < 0.97:
            assert point["wfd"] <= max(point.values()), nsu
            assert point["wfd"] <= point["ca-tpa"] + 0.05
