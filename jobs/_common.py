"""Shared session builder for spark-submit entrypoints.

Mirrors the test fixture's configuration (conftest.py). ``jobs/tables.py``
runs the ``repro.evalx.harness`` builders in this session, so tables can be
regenerated with ``spark-submit jobs/tables.py table4 [sf]`` or plain
``python jobs/tables.py table4``; ``perfbench/run.py`` uses it too.
"""
import os

from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
