"""DistanceMatrix construction (§3.2).

For a constraint ``C`` over attribute ``A``, the DistanceMatrix is the
materialised spatial self-join ``(R1, R2, v1, v2, D, W)``: ``R2`` is within
range ``d`` of ``R1`` (or among its k nearest), ``v1/v2`` are the two
records' values of ``A``, ``D`` the distance under ``F`` and ``W`` the
weight under ``W``. All later Sparcle stages are cheap scans/joins of this
table, which is why the paper materialises it once per constraint.

:func:`build_distance_matrix` carries ``A`` through both sides of the
spatial join, so the join emits ``v1/v2`` itself. :func:`build_pairs` and
:func:`attach_values` are the same table in two steps (pairs, then a join
per side to fetch the values), kept for layer-by-layer measurement.
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.constraints import (
    Constraint,
    ExactLocationConstraint,
    SpatialKNNConstraint,
    SpatialRangeConstraint,
)
from repro.spatial.join import (
    DIST,
    R1,
    R2,
    V1,
    V2,
    Extent,
    self_exact_join,
    self_knn_join,
    self_range_join,
)

W = "w"

DM_COLUMNS = (R1, R2, V1, V2, DIST, W)


def _weighted_pairs(
    df: DataFrame,
    constraint: Constraint,
    *,
    value_col: str | None,
    id_col: str,
    lat_col: str,
    lon_col: str,
    extent: Extent | None,
) -> DataFrame:
    """The constraint's pairs with ``W``, carrying ``value_col`` if given."""
    cols = dict(id_col=id_col, lat_col=lat_col, lon_col=lon_col, value_col=value_col)
    if isinstance(constraint, ExactLocationConstraint) or (
        # d=0 degenerates to the exact-equality constraint (§6.1).
        isinstance(constraint, SpatialRangeConstraint) and constraint.d_m == 0
    ):
        return self_exact_join(df, **cols).withColumn(W, F.lit(1.0))
    if isinstance(constraint, SpatialRangeConstraint):
        pairs = self_range_join(
            df, d_m=constraint.d_m, distance=constraint.distance, extent=extent, **cols
        )
        return pairs.withColumn(
            W, constraint.weight.expr(F.col(DIST), F.lit(float(constraint.d_m)))
        )
    if isinstance(constraint, SpatialKNNConstraint):
        pairs = self_knn_join(
            df, k=constraint.k, distance=constraint.distance, extent=extent, **cols
        )
        # The paper sets d to the k-th neighbor distance of each r1 (§6).
        kth = Window.partitionBy(R1)
        pairs = pairs.withColumn("_d_max", F.max(DIST).over(kth))
        return pairs.withColumn(
            W, constraint.weight.expr(F.col(DIST), F.col("_d_max"))
        ).drop("_d_max")
    raise TypeError(f"unsupported constraint {constraint!r}")


def build_pairs(
    df: DataFrame,
    constraint: Constraint,
    *,
    id_col: str = "rid",
    lat_col: str = "lat",
    lon_col: str = "lon",
    extent: Extent | None = None,
) -> DataFrame:
    """Weighted neighbor pairs ``(r1, r2, dist_m, w)`` for ``constraint``."""
    return _weighted_pairs(
        df, constraint, value_col=None, id_col=id_col, lat_col=lat_col,
        lon_col=lon_col, extent=extent,
    )


def attach_values(
    pairs: DataFrame, df: DataFrame, attribute: str, *, id_col: str = "rid"
) -> DataFrame:
    """Join the dependent attribute onto both sides of the pair table."""
    vals = df.select(F.col(id_col), F.col(attribute))
    return (
        pairs.join(
            vals.select(F.col(id_col).alias(R1), F.col(attribute).alias(V1)), on=R1
        )
        .join(vals.select(F.col(id_col).alias(R2), F.col(attribute).alias(V2)), on=R2)
        .select(*DM_COLUMNS)
    )


def build_distance_matrix(
    df: DataFrame,
    constraint: Constraint,
    *,
    id_col: str = "rid",
    lat_col: str = "lat",
    lon_col: str = "lon",
    extent: Extent | None = None,
) -> DataFrame:
    """The full ``(R1, R2, v1, v2, D, W)`` DistanceMatrix for a constraint."""
    return _weighted_pairs(
        df, constraint, value_col=constraint.attribute, id_col=id_col,
        lat_col=lat_col, lon_col=lon_col, extent=extent,
    ).select(*DM_COLUMNS)
