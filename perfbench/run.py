"""Sparcle benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload chicago-range --seed 102 --seconds 5 --trace 0

Run from the repository root. With ``--trace 0`` the run times the call into
``repro.core.pipeline`` end to end and prints ``setup_s``, ``cold_clean_s``,
``clean_s`` and ``f1``; with ``--trace 1`` it calls each layer's public
function in pipeline order and prints the per-layer metrics (see
``perfbench/README.md``). Every pass's repairs are checked against the
DuckDB oracle; a pass that raises or disagrees is a failed operation. The
last line of standard output is the JSON result.

Spark runs at ``local[4]`` with the session of ``jobs/_common.session``
(Arrow on, broadcast joins off) at 4 shuffle partitions, not the shipped 64,
so that a run fits its time budget. Temporary files go to ``.perfbench/`` in
the repository root.
"""
import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
SHUFFLE_PARTITIONS = "4"
DRIVER_MEMORY = "2g"


def _spark_env() -> None:
    """Point every Spark and JVM temporary directory into ``WORK``."""
    tmp = WORK / "tmp"
    for d in (tmp, WORK / "spark", WORK / "results"):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # -XX:-UsePerfData: no hsperfdata files under /tmp, for the launcher JVM
    # that spark-submit starts first and for the driver JVM below.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = SHUFFLE_PARTITIONS
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master local[4]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={WORK / 'spark'}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={WORK / 'warehouse'}"),
            "--conf " + shlex.quote(f"spark.driver.extraJavaOptions=-XX:-UsePerfData -Djava.io.tmpdir={tmp}"),
            "pyspark-shell",
        ]
    )


def _stop(spark) -> None:
    """Stop Spark and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _log(msg: str) -> None:
    print(f"[perfbench] {time.perf_counter() - T_PROCESS:7.2f} s: {msg}", file=sys.stderr, flush=True)


class Run:
    """One workload and seed in this process: set-up, passes and checks."""

    def __init__(self, workload, seed: int, seconds: float):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def setup(self):
        """Session up, input generated and cached: ``setup_s`` from process start.

        Measured once: the JVM launch and the first Spark job happen once per
        process, and an in-process repeat would time a warm path a user of
        ``jobs/*.py`` never takes.
        """
        sys.path.insert(0, str(ROOT))
        from jobs._common import session
        from workloads import ATTRIBUTE, inputs

        spark = session("perfbench")
        _log("session up")
        pdf = inputs(self.seed)
        sdf = spark.createDataFrame(pdf[["rid", "lat", "lon", ATTRIBUTE]]).cache()
        sdf.count()
        self.setup_s = time.perf_counter() - T_PROCESS
        self.spark, self.pdf, self.sdf = spark, pdf, sdf
        self.constraint = self.wl.constraint(len(pdf))

    def prepare_oracle(self) -> None:
        """Expected decisions from DuckDB, outside every timed region."""
        from oracle import expected_decisions
        from workloads import ATTRIBUTE

        self.decisions = expected_decisions(self.pdf, ATTRIBUTE, self.constraint)
        self.observed = dict(zip(self.pdf["rid"], self.pdf[ATTRIBUTE]))

    def check(self, repairs) -> None:
        """Compare one pass's repairs with the oracle; a disagreement fails the pass."""
        from oracle import disagreements

        bad = disagreements(self.decisions, repairs, self.observed)
        if bad:
            print(f"[perfbench] {bad} cells disagree with the oracle", file=sys.stderr)
            self.failed += 1

    def clean_pass(self):
        """One untraced pass: the pipeline call plus collecting ``repairs``.

        Returns (seconds, repairs pdf, CleanResult), or None if the pass raised.
        """
        self.attempted += 1
        self.spark.sparkContext._jvm.System.gc()  # start each pass with no garbage left over
        try:
            t0 = time.perf_counter()
            out = self.wl.clean(self.sdf, self.constraint)
            repairs = out.repairs.toPandas()
            elapsed = time.perf_counter() - t0
            _log(f"pass {self.attempted}: {elapsed:.2f} s")
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        self.check(repairs)
        return elapsed, repairs, out

    def end_to_end(self) -> None:
        from repro.evalx.metrics import evaluate_repairs
        from workloads import ATTRIBUTE

        cold = self.clean_pass()
        warm, repairs = [], None
        t0 = time.perf_counter()
        while not warm or time.perf_counter() - t0 < self.seconds:
            res = self.clean_pass()
            if res is None:
                break
            warm.append(res[0])
            repairs = res[1]
        if cold is None or repairs is None:
            return
        self.metric("setup_s", self.setup_s, "s")
        self.metric("cold_clean_s", cold[0], "s")
        self.metric("clean_s", statistics.median(warm), "s")
        f1 = evaluate_repairs(self.pdf, repairs[["rid", "new_value"]], attribute=ATTRIBUTE).f1
        self.metric("f1", f1, "ratio")
        # Too few passes for any percentile below the maximum.
        print(
            f"[perfbench] clean_s over {len(warm)} warm passes: "
            f"median {statistics.median(warm):.3f} s, max {max(warm):.3f} s"
        )

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and bool(self.metrics),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _table6_line(name: str, seed: int, metrics: dict) -> None:
    """Record this run's clean_s and print the Sparcle/host ratio once both exist."""
    results = WORK / "results"
    if "clean_s" in metrics:
        (results / f"{name}-{seed}.json").write_text(json.dumps(metrics["clean_s"]))
    medians = {}
    for wl in ("chicago-range", "chicago-host"):
        vals = [json.loads(p.read_text())["value"] for p in results.glob(f"{wl}-*.json")]
        if not vals:
            return
        medians[wl] = (statistics.median(vals), len(vals))
    (r, nr), (h, nh) = medians["chicago-range"], medians["chicago-host"]
    print(
        f"[perfbench] Table 6: clean_s(chicago-range) / clean_s(chicago-host) = {r / h:.3f} "
        f"(median {r:.3f} s over {nr} runs / median {h:.3f} s over {nh} runs; "
        "paper: 1.17-1.29; not gated)"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _spark_env()  # before anything can fix Python's temp dir
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    run = Run(wl, seed, args.seconds)
    try:
        run.setup()
        _log(f"set up in {run.setup_s:.2f} s")
        run.prepare_oracle()
        _log("oracle ready")
        if args.trace:
            from trace_layers import traced_run

            traced_run(run, WORK)
        else:
            run.end_to_end()
    finally:
        if getattr(run, "spark", None) is not None:
            _stop(run.spark)
            _log("spark stopped")
    for name, m in run.metrics.items():
        print(f"[perfbench] {args.workload} seed {seed}: {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        _table6_line(args.workload, seed, run.metrics)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
