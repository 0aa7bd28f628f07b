"""Experiment harness: specs, adaptive d, table builders at tiny scale."""
import importlib.util
import math
from pathlib import Path

import pandas as pd
import pytest

from repro.evalx import harness as H
from repro.synth_spatial import spatial_dataset_pdf


@pytest.fixture(autouse=True)
def _isolated_results_dir(tmp_path, monkeypatch):
    """Keep toy-scale CSVs out of results/ (owned by the benchmarks)."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))


class TestSpecs:
    def test_real_specs_match_table3_structure(self):
        assert [s.key for s in H.REAL_SPECS] == ["austin", "chicago", "nyc"]
        assert [a.n_regions for a in H.AUSTIN.attrs] == [50, 9]
        assert [a.n_regions for a in H.CHICAGO.attrs] == [77, 980, 50]
        assert [a.n_regions for a in H.NYC.attrs] == [5, 230]
        assert [a.n_regions for a in H.CHICAGO_SYNTH.attrs] == [23, 50, 59, 275, 801]

    def test_austin_has_no_duplicates(self):
        assert all(a.dup_ratio == 0.0 for a in H.AUSTIN.attrs)

    def test_nyc_borough_mostly_missing(self):
        borough = H.NYC.attrs[0]
        assert borough.missing_frac > 0.9  # 418,896 of 421,013 in the paper

    def test_n_scales_with_sf(self):
        assert H.AUSTIN.n(1.0) == 12_000
        assert H.AUSTIN.n(0.5) == 6_000
        assert H.AUSTIN.n(1e-9) == 500  # floor


class TestAdaptiveD:
    def test_expected_neighbor_count(self):
        n = 20_000
        d = H.adaptive_d(H.CHICAGO.bbox, n, target=40.0)
        area = H.bbox_area_m2(H.CHICAGO.bbox)
        expected = math.pi * d * d * n / area
        assert expected == pytest.approx(40.0, rel=1e-9)

    def test_smaller_n_larger_d(self):
        assert H.adaptive_d(H.CHICAGO.bbox, 1000) > H.adaptive_d(H.CHICAGO.bbox, 50_000)

    def test_paper_operating_point_magnitude(self):
        # The paper's sweep converges to d=1000 m at 20K Chicago records —
        # the adaptive rule should land in the same ballpark.
        d = H.adaptive_d(H.CHICAGO.bbox, 20_000)
        assert 500 <= d <= 2000


class TestRunSystem:
    @pytest.fixture(scope="class")
    def tiny(self):
        spec = H.DatasetSpec(
            key="tiny",
            bench_n=600,
            bbox=H.CHICAGO.bbox,
            attrs=(H.CHICAGO.attrs[0],),
            seed=1,
        )
        pdf = spatial_dataset_pdf(
            n=600, attrs=spec.attrs, bbox=spec.bbox, seed=spec.seed
        )
        return spec, pdf

    @pytest.mark.parametrize("system", H.SYSTEMS)
    def test_each_system_returns_repairs(self, spark, tiny, system):
        spec, pdf = tiny
        d = H.adaptive_d(spec.bbox, len(pdf))
        repairs, elapsed = H.run_system(
            spark, pdf, spec, spec.attrs[0].name, system, d_m=d
        )
        assert set(repairs.columns) >= {"rid", "new_value"}
        assert elapsed > 0

    def test_unknown_system_raises(self, spark, tiny):
        spec, pdf = tiny
        with pytest.raises(ValueError):
            H.run_system(spark, pdf, spec, "community", "nonsense", d_m=500.0)


class TestTableBuilders:
    def test_table2_reproduces_worked_example(self, spark):
        out = H.table2(spark)
        key = out.set_index(["rid", "value"])["sum_weights"]
        assert key[(1, "Manhattan")] == pytest.approx(0.89)
        assert key[(1, "Queens")] == pytest.approx(0.12)
        assert key[(1, "S. Island")] == pytest.approx(0.01)
        assert (H.results_dir() / "table2.csv").exists()

    def test_table3_tiny(self):
        out = H.table3(sf=0.05)
        assert set(out["dataset"]) == {"austin", "chicago", "nyc", "chicago_synthetic"}
        assert (out["errors"] > 0).all()
        aus = out[(out["dataset"] == "austin")]
        assert (aus["dup_ratio"] == 0.0).all()

    def test_table1_tiny(self, spark):
        out = H.table1(spark, sf=0.05)
        assert list(out["system"]) == ["holoclean", "sparcle_n2"]
        sp = out[out["system"] == "sparcle_n2"].iloc[0]
        hc = out[out["system"] == "holoclean"].iloc[0]
        assert 0 <= hc["total"] <= 1 and 0 <= sp["total"] <= 1
        assert sp["total"] >= hc["total"]
        assert sp["errors_at_new_location"] > hc["errors_at_new_location"]

    def test_run_dataset_rows_and_overall(self, spark):
        spec = H.DatasetSpec(
            key="mini",
            bench_n=600,
            bbox=H.CHICAGO.bbox,
            attrs=(H.CHICAGO.attrs[0], H.CHICAGO.attrs[2]),
            seed=2,
        )
        out = H.run_dataset(spark, spec, sf=1.0, systems=("sparcle_n2", "holoclean"))
        assert set(out["system"]) == {"sparcle_n2", "holoclean"}
        assert set(out["attribute"]) == {"community", "ward", "Overall"}
        assert ((out["f1"] >= 0) & (out["f1"] <= 1)).all()
        overall = out[out["attribute"] == "Overall"]
        assert len(overall) == 2 and (overall["elapsed_s"] > 0).all()
        t6 = H.table6(out)
        cols = ["dataset", "system", "elapsed_s", "n_records"]
        pd.testing.assert_frame_equal(t6, overall[cols].reset_index(drop=True))
        assert (H.results_dir() / "table6.csv").exists()

    def test_param_sweep_tiny(self, spark):
        out = H.param_sweep(
            spark, sf=0.25, d_values=(800.0,), n_values=(0.0, 2.0)
        )
        assert len(out) == 2
        assert ((out["f1"] >= 0) & (out["f1"] <= 1)).all()
        assert (H.results_dir() / "param_sweep.csv").exists()


class TestTablesScript:
    def test_dispatch_without_spark(self, monkeypatch, capsys):
        jobs = Path(__file__).resolve().parents[1] / "jobs"
        monkeypatch.syspath_prepend(str(jobs))
        spec = importlib.util.spec_from_file_location("tables", jobs / "tables.py")
        tables = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tables)

        tables.main(["table3", "0.05"])
        assert "chicago_synthetic" in capsys.readouterr().out
        assert len(pd.read_csv(H.results_dir() / "table3.csv")) == 12
        with pytest.raises(SystemExit, match="table1, table2, table3, table4, table5, param_sweep"):
            tables.main(["table6"])


class TestResultsDir:
    def test_exists_and_writable(self):
        d = H.results_dir()
        assert d.is_dir()
        probe = d / ".probe"
        probe.write_text("ok")
        assert probe.read_text() == "ok"
        probe.unlink()
