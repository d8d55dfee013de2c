"""Tests for CSV export of sweep results."""

import csv
import dataclasses
import io

import pytest

from repro.experiments import figure1_nsu, run_sweep, save_sweep_csv, sweep_to_csv


@pytest.fixture(scope="module")
def tiny_result():
    d = figure1_nsu(nsu_values=(0.4, 0.6))
    base_point = d.point

    def small_point(v):
        config, schemes = base_point(v)
        return config.with_(cores=2, task_count_range=(6, 8)), schemes

    return run_sweep(dataclasses.replace(d, point=small_point), sets=5, seed=9)


class TestCsvExport:
    def test_row_count(self, tiny_result):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(tiny_result))))
        # 2 values x 5 schemes x 4 metrics
        assert len(rows) == 40

    def test_columns(self, tiny_result):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(tiny_result))))
        assert set(rows[0]) == {
            "figure",
            "parameter",
            "value",
            "scheme",
            "metric",
            "result",
            "sets_per_point",
            "seed",
        }

    def test_values_match_stats(self, tiny_result):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(tiny_result))))
        wanted = [
            r
            for r in rows
            if r["scheme"] == "ffd"
            and r["metric"] == "sched_ratio"
            and r["value"] == "0.4"
        ]
        assert len(wanted) == 1
        assert float(wanted[0]["result"]) == pytest.approx(
            tiny_result.rows[0]["ffd"].sched_ratio
        )

    def test_save_to_file(self, tiny_result, tmp_path):
        path = tmp_path / "fig.csv"
        save_sweep_csv(tiny_result, path)
        assert path.read_text().startswith("figure,parameter,value,scheme")


class TestCliCsvFlag:
    def test_cli_writes_csv(self, tmp_path, capsys, monkeypatch):
        import dataclasses as dc

        from repro import cli
        from repro.experiments import sweeps

        def tiny_fig1():
            d = sweeps.figure1_nsu(nsu_values=(0.5,))
            base_point = d.point

            def small_point(v):
                config, schemes = base_point(v)
                return config.with_(cores=2, task_count_range=(5, 6)), schemes

            return dc.replace(d, point=small_point)

        monkeypatch.setitem(cli.FIGURES, "fig1", tiny_fig1)
        monkeypatch.setenv("REPRO_MC_STORE", str(tmp_path / "store"))
        assert cli.main(["fig1", "--sets", "3", "--csv", str(tmp_path / "csv")]) == 0
        out = (tmp_path / "csv" / "fig1.csv").read_text()
        assert "sched_ratio" in out

