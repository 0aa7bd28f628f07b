"""Benchmark + regeneration of every paper table.

Each table gets one pytest-benchmark target that runs its harness builder
once (``pedantic(rounds=1)``: a full cleaning run is minutes, not
microseconds — the benchmark records wall-clock, it does not sample).
``REPRO_BENCH_SF`` scales record counts (1.0 = default bench scale).
Table 6 times Table 4's runs, so the Table 4 target checks both tables.
"""
import os

import pandas as pd

from repro.evalx import harness as H

SF = float(os.environ.get("REPRO_BENCH_SF", "1.0"))


def run_once(benchmark, name, fn, *args, **kwargs) -> pd.DataFrame:
    out = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    print(f"\n[{name}]\n" + out.to_string(index=False))
    return out


def test_table1(benchmark, spark):
    out = run_once(benchmark, "table1", H.table1, spark, sf=SF)
    assert len(out) == 2
    sp = out[out["system"] == "sparcle_n2"].iloc[0]
    hc = out[out["system"] == "holoclean"].iloc[0]
    # The paper's headline: Sparcle repairs new-location errors, the host
    # system mostly cannot.
    assert sp["errors_at_new_location"] > hc["errors_at_new_location"]


def test_table2(benchmark, spark):
    out = run_once(benchmark, "table2", H.table2, spark)
    assert len(out) == 15  # 3+3+2+3+2+2 candidates for r1..r6


def test_table3(benchmark):
    out = run_once(benchmark, "table3", H.table3, sf=SF)
    assert len(out) == 12  # 2 + 3 + 2 + 5 dependencies


def test_table4_and_table6(benchmark, spark):
    out = run_once(benchmark, "table4", H.table4, spark, sf=SF)
    piv = out[out["attribute"] == "Overall"].set_index(["dataset", "system"])["f1"]
    for ds in ("austin", "chicago", "nyc"):
        assert piv[(ds, "sparcle_n2")] > piv[(ds, "holoclean")]
    t6 = pd.read_csv(H.results_dir() / "table6.csv")
    print("\n[table6]\n" + t6.to_string(index=False))
    assert set(t6["dataset"]) == {"austin", "chicago", "nyc"}
    assert (t6["elapsed_s"] > 0).all()


def test_table5(benchmark, spark):
    out = run_once(benchmark, "table5", H.table5, spark, sf=SF)
    piv = out.set_index(["attribute", "system"])["f1"]
    for attr in ("district", "ward", "zipcode", "beat", "census"):
        assert piv[(attr, "sparcle_n2")] > piv[(attr, "holoclean")]


def test_param_sweep(benchmark, spark):
    out = run_once(benchmark, "param_sweep", H.param_sweep, spark, sf=SF)
    # Distance weighting on (n=2) should not lose to the n=0 ablation at
    # the paper's operating point d=1000.
    piv = out.set_index(["d_m", "n_exp"])["f1"]
    assert piv[(1000.0, 2.0)] >= piv[(1000.0, 0.0)] - 0.02
