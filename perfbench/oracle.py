"""DuckDB repair oracle: the expected repair set, recomputed from the input.

The oracle re-derives every cell decision of ``sparcle_clean`` with the
semantics of DESIGN.md §6, in SQL and without Spark:

- neighbor pairs with weights: exact-location pairs (weight 1) or range
  pairs ``dist < d`` under the equirectangular ``F`` with
  ``W = (1 - dist/d)^n``;
- Algorithm 1: both endpoints of a null-safe disagreement, plus every null
  cell, are erroneous;
- Algorithm 2: neighbor weights plus the own-value default, the
  spatially-aware Naive Bayes score, normalisation, MinProb and MaxProb;
- the AimNet host format: the least summed violation weight wins, ties
  broken by the higher normalised probability, then the smaller value.

Spark and DuckDB add weights in different orders, so two candidates whose
exact scores are equal may come out a few ulps apart. A Spark decision
therefore agrees with the oracle when it picks the oracle's value, or a
value whose oracle score ties the winner's within ``TIE_RTOL``.
"""
import math
import os

import duckdb
import pandas as pd

from repro.core.constraints import ExactLocationConstraint, SpatialRangeConstraint
from repro.spatial.geo import M_PER_DEG_LAT, meters_per_degree_lon

TIE_RTOL = 1e-9
#: DESIGN.md §6, restated rather than imported so that a change to the
#: program's constants shows up as a disagreement.
OWN_VALUE_WEIGHT = 0.01
OTHER_VALUE_FACTOR = 0.1

_DECISIONS = """
WITH err AS (
    SELECT r1 AS rid FROM dm WHERE v1 IS DISTINCT FROM v2
    UNION SELECT r2 FROM dm WHERE v1 IS DISTINCT FROM v2
    UNION SELECT rid FROM t WHERE v IS NULL
),
neigh AS (
    SELECT r1 AS rid, v2 AS value, sum(w) AS weight
    FROM dm WHERE v2 IS NOT NULL AND r1 IN (SELECT rid FROM err)
    GROUP BY r1, v2
),
own AS (
    SELECT t.rid, t.v AS value, {own_weight}::DOUBLE AS weight
    FROM t JOIN err USING (rid)
    WHERE t.v IS NOT NULL
      AND NOT EXISTS (SELECT 1 FROM neigh n WHERE n.rid = t.rid AND n.value = t.v)
),
freq AS (SELECT v AS value, count(*) AS cnt FROM t WHERE v IS NOT NULL GROUP BY v),
scored AS (
    SELECT c.rid, c.value,
           (c.weight / {total}::DOUBLE)
           * ((CASE WHEN c.value IS NOT DISTINCT FROM t.v THEN 1.0::DOUBLE
                    ELSE {pseudo}::DOUBLE END)
              / coalesce(f.cnt, 1)::DOUBLE) AS prob
    FROM (SELECT * FROM neigh UNION ALL SELECT * FROM own) c
    JOIN t USING (rid) LEFT JOIN freq f USING (value)
),
kept AS (
    SELECT * FROM (
        SELECT rid, value, prob / sum(prob) OVER (PARTITION BY rid) AS prob_norm
        FROM scored
    ) WHERE prob_norm >= {min_prob}::DOUBLE
),
ranked AS (
    SELECT *,
           row_number() OVER (PARTITION BY rid ORDER BY prob_norm DESC, value) AS rk,
           count(*) OVER (PARTITION BY rid) AS n_cands,
           max(prob_norm) OVER (PARTITION BY rid) AS top
    FROM kept
),
labeled AS (
    SELECT DISTINCT rid FROM ranked
    WHERE rk = 1 AND (n_cands = 1 OR top > {max_prob}::DOUBLE)
),
remaining AS (SELECT * FROM kept WHERE rid NOT IN (SELECT rid FROM labeled)),
violation AS (
    SELECT c.rid, c.value, any_value(c.prob_norm) AS prob_norm,
           coalesce(sum(CASE WHEN d.v2 IS DISTINCT FROM c.value THEN d.w
                             ELSE 0.0::DOUBLE END), 0.0::DOUBLE) AS score
    FROM remaining c
    LEFT JOIN (SELECT r1, v2, w FROM dm WHERE v2 IS NOT NULL) d ON d.r1 = c.rid
    GROUP BY c.rid, c.value
),
-- One row per decided cell and candidate: the score that decides the cell
-- (prob_norm for labels, violation weight for AimNet) and its rank.
decided AS (
    SELECT rid, value, prob_norm AS score, rk FROM ranked
    WHERE rid IN (SELECT rid FROM labeled)
    UNION ALL
    SELECT rid, value, score,
           row_number() OVER (PARTITION BY rid ORDER BY score, prob_norm DESC, value)
    FROM violation
)
SELECT d.rid, d.value, list(o.value ORDER BY o.value) AS acceptable
FROM decided d
JOIN decided o ON o.rid = d.rid
 AND abs(o.score - d.score) <= {rtol} * greatest(abs(o.score), abs(d.score))
WHERE d.rk = 1
GROUP BY d.rid, d.value
"""


def _pairs_sql(constraint, pdf: pd.DataFrame) -> str:
    """SQL for the weighted pair table ``(r1, r2, w)`` of ``constraint``."""
    if isinstance(constraint, ExactLocationConstraint) or (
        isinstance(constraint, SpatialRangeConstraint) and constraint.d_m == 0
    ):
        return (
            "SELECT a.rid AS r1, b.rid AS r2, 1.0::DOUBLE AS w FROM t a JOIN t b"
            " ON a.lat = b.lat AND a.lon = b.lon AND a.rid <> b.rid"
        )
    if not isinstance(constraint, SpatialRangeConstraint) or constraint.distance != "equirect":
        raise TypeError(f"the oracle has no pair semantics for {constraint!r}")
    # Same reference latitude and the same operation order as
    # repro.spatial.geo.equirect_m, so each distance is bit-identical.
    ref_lat = (pdf["lat"].min() + pdf["lat"].max()) / 2.0
    m_lon = meters_per_degree_lon(ref_lat)
    d = float(constraint.d_m)
    n = float(constraint.weight.n)
    weight = "1.0::DOUBLE" if n == 0 else f"pow(greatest(0.0::DOUBLE, 1.0::DOUBLE - dist / {d!r}), {n!r})"
    band = d / M_PER_DEG_LAT * 1.01  # lat prefilter; the distance test decides
    return f"""
        SELECT r1, r2, {weight} AS w FROM (
            SELECT a.rid AS r1, b.rid AS r2,
                   sqrt(((b.lon - a.lon) * {m_lon!r}) * ((b.lon - a.lon) * {m_lon!r})
                        + ((b.lat - a.lat) * {M_PER_DEG_LAT!r})
                          * ((b.lat - a.lat) * {M_PER_DEG_LAT!r})) AS dist
            FROM t a JOIN t b ON abs(a.lat - b.lat) < {band!r} AND a.rid <> b.rid
        ) WHERE dist < {d!r}
    """


def expected_decisions(
    pdf: pd.DataFrame,
    attribute: str,
    constraint,
    *,
    min_prob: float = 0.05,
    max_prob: float = 0.95,
) -> pd.DataFrame:
    """Per decided cell: ``rid, value, acceptable`` (a list of values).

    Only AimNet-format decisions are derived: the kept workloads use that
    corrector, so the other host formats would go unchecked here.
    """
    con = duckdb.connect()
    try:
        con.execute(f"SET threads TO {len(os.sched_getaffinity(0))}")
        con.register("src", pdf[["rid", "lat", "lon", attribute]])
        con.execute(f'CREATE TABLE t AS SELECT rid, lat, lon, "{attribute}" AS v FROM src')
        con.execute(
            "CREATE TABLE dm AS SELECT p.r1, p.r2, a.v AS v1, b.v AS v2, p.w FROM ("
            + _pairs_sql(constraint, pdf)
            + ") p JOIN t a ON a.rid = p.r1 JOIN t b ON b.rid = p.r2"
        )
        sql = _DECISIONS.format(
            own_weight=repr(OWN_VALUE_WEIGHT),
            pseudo=repr(OTHER_VALUE_FACTOR),
            total=len(pdf),
            min_prob=repr(float(min_prob)),
            max_prob=repr(float(max_prob)),
            rtol=repr(TIE_RTOL),
        )
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def disagreements(decisions: pd.DataFrame, repairs: pd.DataFrame, observed: dict) -> int:
    """Cells where Spark's ``repairs`` (rid, old_value, new_value) disagree.

    ``observed`` maps rid to the input value. A decided cell agrees when
    its final value is one the oracle accepts; an undecided cell agrees
    when Spark left it unchanged.
    """
    fixes = dict(zip(repairs["rid"], repairs["new_value"]))
    bad = sum(
        1
        for rid, old in zip(repairs["rid"], repairs["old_value"])
        if not _same(old, observed[rid])
    )
    decided = set()
    for rid, acceptable in zip(decisions["rid"], decisions["acceptable"]):
        decided.add(rid)
        final = fixes.get(rid, observed[rid])
        if _is_null(final) or final not in set(acceptable):
            bad += 1
    return bad + sum(1 for rid in fixes if rid not in decided)


def _is_null(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


def _same(a, b) -> bool:
    return (_is_null(a) and _is_null(b)) or a == b
