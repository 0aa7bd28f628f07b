"""Regenerate one of the paper's tables by name.

Usage: python jobs/tables.py NAME [sf]   (or spark-submit jobs/tables.py NAME [sf])

NAME is one of ``table1`` … ``table5`` or ``param_sweep`` (Figure 5 as a
table); ``sf`` scales record counts (default 1.0). ``table4`` also writes
``table6.csv``: Table 6 times the runs that Table 4 scores. ``table3``
starts no Spark session and ``table2`` ignores ``sf``.
"""
import sys
from typing import Sequence

import pandas as pd
from _common import session

from repro.evalx import harness

BUILDERS = {
    "table1": harness.table1,
    "table2": harness.table2,
    "table3": harness.table3,
    "table4": harness.table4,
    "table5": harness.table5,
    "param_sweep": harness.param_sweep,
}


def sf_arg(argv: Sequence[str], default: float = 1.0) -> float:
    return float(argv[1]) if len(argv) > 1 else default


def build(name: str, sf: float) -> pd.DataFrame:
    """Run the builder ``name`` at scale ``sf``, in a Spark session if it needs one."""
    builder = BUILDERS[name]
    if name == "table3":
        return builder(sf=sf)
    spark = session(f"sparcle-{name}")
    try:
        return builder(spark) if name == "table2" else builder(spark, sf=sf)
    finally:
        spark.stop()


def main(argv: Sequence[str]) -> None:
    if not argv or argv[0] not in BUILDERS:
        sys.exit(f"usage: tables.py NAME [sf], NAME one of: {', '.join(BUILDERS)}")
    print(build(argv[0], sf_arg(argv)).to_string(index=False))


if __name__ == "__main__":
    main(sys.argv[1:])
