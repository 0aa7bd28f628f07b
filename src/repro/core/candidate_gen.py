"""Spatial candidate generator (§4, Algorithm 2).

Three phases per erroneous cell:

1. **Initial candidates** (§4.1): the values of all spatial neighbors,
   weighted by the summed DistanceMatrix weights (nearby co-occurrence
   instead of exact co-occurrence), plus the cell's own value at the
   default minimal weight 0.01 when no neighbor shares it.
2. **Probability estimation** (§4.2): spatially-aware Naive Bayes —
   ``Prob(C = v) = |Spatial(v,R)|/|D| × Π_{A'} Count((v,R.A'),D)/Count(v,D)``
   with the record-identifier factor following the minimality principle
   (1 for the cell's original value, 0.1 otherwise).
3. **Labeling and cutoffs** (§4.3): normalise per cell, drop candidates
   below ``MinProb``, and label a cell clean when a single candidate
   remains or the top one exceeds ``MaxProb``.

Everything is DataFrame algebra: one group-by over the DistanceMatrix
(with each erroneous cell's own value folded in as a weightless row), a
broadcast join against the value-frequency table, and windows over one
partitioning by cell — no per-row Python.
"""
from dataclasses import dataclass
from typing import Sequence

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.distance_matrix import V2, W
from repro.spatial.join import R1

VALUE = "value"
WEIGHT = "weight"  # phase-1 sum of weights (|Spatial(v, R)|, or 0.01 default)
SPATIAL_WEIGHT = "spatial_weight"  # neighbor-only part (0 if own-value-only)
PROB = "prob"
PROB_NORM = "prob_norm"

#: Default minimal weight for the cell's own value when no neighbor shares
#: it (§4.1), and the minimality-principle pseudo-count (§4.2).
DEFAULT_OWN_WEIGHT = 0.01
MINIMALITY_PSEUDO_COUNT = 0.1


@dataclass(frozen=True)
class CandidateResult:
    """Output of Algorithm 2.

    ``candidates`` holds the surviving candidate values for cells that are
    *still* erroneous; ``labels`` holds cells confidently resolved in
    phase 3 (their label is a final repair).
    """

    candidates: DataFrame  # id_col, value, weight, spatial_weight, prob, prob_norm
    labels: DataFrame  # id_col, label


def value_frequency(df: DataFrame, attribute: str) -> DataFrame:
    """``Count(v, D)`` per non-null value — Figure 3b's statistics table."""
    return (
        df.where(F.col(attribute).isNotNull())
        .groupBy(F.col(attribute).alias(VALUE))
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def generate_candidates(
    df: DataFrame,
    dm: DataFrame,
    error_ids: DataFrame,
    *,
    attribute: str,
    id_col: str = "rid",
    other_attrs: Sequence[str] = (),
    min_prob: float = 0.05,
    max_prob: float = 0.95,
    freq: DataFrame | None = None,
    total: int | None = None,
) -> CandidateResult:
    """Run all three phases; see module docstring.

    ``freq``/``total`` default to statistics of ``df`` and are overridable
    so the paper's worked example (Figure 3b: |D| = 1000) is testable
    verbatim.
    """
    freq = freq if freq is not None else value_frequency(df, attribute)
    total = total if total is not None else df.count()

    # ---- Phase 1: weighted nearby co-occurrence --------------------------
    # Each neighbor row votes for its value with weight W; the cell's own
    # value enters the same group-by as a weightless row, so it ends up with
    # its neighbors' summed weight if any neighbor shares it, else with the
    # default. Taking the own value from the input row, not from v1, keeps
    # it for cells that never appear as r1 (a directed kNN matrix).
    votes = dm.select(
        F.col(R1).alias(id_col), F.col(V2).alias(VALUE), F.col(W).alias("_w"),
        F.lit(False).alias("_own"),
    ).unionByName(
        df.select(
            F.col(id_col), F.col(attribute).alias(VALUE),
            F.lit(None).cast("double").alias("_w"), F.lit(True).alias("_own"),
        )
    )
    neighbor_sum = F.sum("_w")
    cands = (
        votes.where(F.col(VALUE).isNotNull())
        # An inner join on the distinct error ids: unlike a semi-join, the
        # optimizer does not push it into each branch of the union.
        .join(error_ids.select(id_col), on=id_col)
        .groupBy(id_col, VALUE)
        .agg(
            F.coalesce(neighbor_sum, F.lit(DEFAULT_OWN_WEIGHT)).alias(WEIGHT),
            F.coalesce(neighbor_sum, F.lit(0.0)).alias(SPATIAL_WEIGHT),
            F.max("_own").alias("_own"),
        )
    )

    # ---- Phase 2: spatially-aware Naive Bayes ---------------------------
    # ``freq`` has one row per distinct value; the session disables
    # automatic broadcasts, so ask for it.
    cands = cands.join(
        F.broadcast(freq.withColumnRenamed("cnt", "_cnt_v")), on=VALUE, how="left"
    ).withColumn(
        # A candidate value always occurs in D (it is a neighbor's or the
        # cell's own value) but guard the join anyway.
        "_cnt_v", F.coalesce(F.col("_cnt_v"), F.lit(1))
    )
    # Record-identifier factor: 1 for the original value, 0.1 otherwise
    # (both divided by Count(v, D)) — the minimality bias of §4.2.
    prob = (F.col(WEIGHT) / F.lit(float(total))) * (
        F.when(F.col("_own"), F.lit(1.0)).otherwise(F.lit(MINIMALITY_PSEUDO_COUNT))
        / F.col("_cnt_v")
    )
    # Generic non-spatial attributes A': Count((v, R.A'), D) / Count(v, D).
    for a in other_attrs:
        coocc = df.where(F.col(attribute).isNotNull()).groupBy(
            F.col(attribute).alias(VALUE), F.col(a).alias(f"_av_{a}")
        ).agg(F.count(F.lit(1)).alias(f"_co_{a}"))
        cands = (
            cands.join(
                df.select(F.col(id_col), F.col(a).alias(f"_av_{a}")), on=id_col
            )
            .join(coocc, on=[VALUE, f"_av_{a}"], how="left")
            .withColumn(
                f"_co_{a}",
                F.coalesce(F.col(f"_co_{a}"), F.lit(MINIMALITY_PSEUDO_COUNT)),
            )
        )
        prob = prob * (F.col(f"_co_{a}") / F.col("_cnt_v"))
    cands = cands.withColumn(PROB, prob)

    # ---- Phase 3: normalisation, MinProb cutoff, MaxProb labeling -------
    cell = Window.partitionBy(id_col)
    cands = cands.withColumn(PROB_NORM, F.col(PROB) / F.sum(PROB).over(cell))
    # One ordered window gives the rank and, over the whole cell, the count
    # and top probability that decide whether the cell is labeled.
    order = cell.orderBy(F.col(PROB_NORM).desc(), F.col(VALUE).asc())
    whole = order.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    kept = (
        cands.where(F.col(PROB_NORM) >= F.lit(float(min_prob)))
        .withColumn("_rank", F.row_number().over(order))
        .withColumn(
            "_labeled",
            (F.count(F.lit(1)).over(whole) == 1)
            | (F.max(PROB_NORM).over(whole) > F.lit(float(max_prob))),
        )
    )
    labels = kept.where(F.col("_labeled") & (F.col("_rank") == 1)).select(
        F.col(id_col), F.col(VALUE).alias("label")
    )
    remaining = kept.where(~F.col("_labeled")).select(
        id_col, VALUE, WEIGHT, SPATIAL_WEIGHT, PROB, PROB_NORM
    )
    return CandidateResult(candidates=remaining, labels=labels)
