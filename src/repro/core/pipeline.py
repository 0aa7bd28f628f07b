"""End-to-end Sparcle pipeline (Figure 2).

``sparcle_clean`` wires the three Sparcle modules together and hands the
formulated input to the requested host corrector:

    DistanceMatrix → error detector → candidate generator → formulator
    → host error corrector → repaired dataset

A run materialises the DistanceMatrix, then one checkpointed output table
(every input row with its repaired value and flags); ``repaired_df``,
``repairs`` and the diagnostics are all read from that table, so the
returned frames stay cheap to read after the call (DESIGN.md §7).

``host_baseline_clean`` runs the *same* pipeline on the classical
exact-location denial constraint — i.e. the host data cleaning system
without spatial awareness (the paper's HoloClean competitor and the d=0
degenerate case of §6.1).
"""
import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.core import candidate_gen as cg
from repro.core import formulator
from repro.core.constraints import Constraint, ExactLocationConstraint
from repro.core.distance_matrix import build_distance_matrix
from repro.core.error_detector import detect_errors
from repro.hostsys.aimnet import REPAIR, repair_from_violations
from repro.hostsys.holoclean import repair_from_factors
from repro.spatial.join import compute_extent

CORRECTORS = ("holoclean", "aimnet", "baran")

#: The input's record id and coordinate columns.
ID, LAT, LON = "rid", "lat", "lon"

#: Columns the checkpointed output table adds to the input's (dropped from
#: ``repaired_df``): the observed value and three per-row flags.
_OLD, _ERR, _LABELED, _CHANGED = "_old", "_err", "_labeled", "_changed"
_FLAGS = (_ERR, _LABELED, _CHANGED)


@dataclass
class CleanResult:
    """Output of one cleaning run over one constraint."""

    repaired_df: DataFrame  # input df with the target attribute repaired
    repairs: DataFrame  # rid, old_value, new_value (changed cells only)
    diagnostics: dict = field(default_factory=dict)


def _output_table(
    df: DataFrame,
    error_ids: DataFrame,
    labels: DataFrame,
    corrected: DataFrame,
    attribute: str,
) -> DataFrame:
    """Every input row with its final value, its observed value and flags.

    Labels and corrector picks are disjoint fixes; a row is ``_changed``
    when its fix ``IS DISTINCT FROM`` the observed value (DESIGN.md §6).
    """
    fixes = labels.select(
        F.col(ID), F.col("label").alias("_fix"), F.lit(True).alias(_LABELED)
    ).unionByName(
        corrected.select(
            F.col(ID), F.col(REPAIR).alias("_fix"), F.lit(False).alias(_LABELED)
        )
    )
    errs = error_ids.select(ID, F.lit(True).alias(_ERR))
    return (
        df.join(fixes, on=ID, how="left")
        .join(errs, on=ID, how="left")
        .select(
            *(
                F.coalesce(F.col("_fix"), F.col(c)).alias(c) if c == attribute else F.col(c)
                for c in df.columns
            ),
            F.col(attribute).alias(_OLD),
            F.coalesce(F.col(_ERR), F.lit(False)).alias(_ERR),
            F.coalesce(F.col(_LABELED), F.lit(False)).alias(_LABELED),
            (
                F.col("_fix").isNotNull() & ~F.col("_fix").eqNullSafe(F.col(attribute))
            ).alias(_CHANGED),
        )
    )


def sparcle_clean(
    df: DataFrame, constraint: Constraint, *, corrector: str = "holoclean"
) -> CleanResult:
    """Clean ``constraint.attribute`` of ``df`` (columns ``rid``, ``lat``,
    ``lon`` and the attribute); see module docstring."""
    if corrector not in CORRECTORS:
        raise ValueError(f"corrector must be one of {CORRECTORS}, got {corrector!r}")
    t0 = time.perf_counter()
    attribute = constraint.attribute
    extent = compute_extent(df, LAT, LON)

    dm = build_distance_matrix(df, constraint, extent=extent).cache()
    n_pairs = dm.count()  # materialise: every later stage scans this table

    detected = detect_errors(df, dm, attribute=attribute)
    cand = cg.generate_candidates(
        df, dm, detected.error_ids, attribute=attribute, total=extent.n
    )
    cands = cand.candidates.cache()

    if corrector == "aimnet":
        feats = formulator.violation_features(dm, cands)
        corrected = repair_from_violations(feats, cands)
    elif corrector == "baran":
        # Baran's probabilities and HoloClean's factor sums share the arg-max.
        feats = formulator.probability_features(cands)
        corrected = repair_from_factors(feats, cands)
    else:
        feats = formulator.factor_features(dm, cands)
        corrected = repair_from_factors(feats, cands)

    # The one materialisation after the DistanceMatrix: every output is a
    # scan of this table, and the diagnostics are observed while it is
    # built, so no extra job runs. Only then can dm and cands go.
    counts = Observation("sparcle_clean")
    out = (
        _output_table(df, detected.error_ids, cand.labels, corrected, attribute)
        .observe(counts, *(F.count(F.when(F.col(c), 1)).alias(c) for c in _FLAGS))
        .localCheckpoint()
    )
    flagged = counts.get
    dm.unpersist(blocking=False)
    cands.unpersist(blocking=False)

    repaired_df = out.select(*df.columns)
    repairs = out.where(F.col(_CHANGED)).select(
        F.col(ID), F.col(_OLD).alias("old_value"), F.col(attribute).alias("new_value")
    )
    diagnostics = {
        "n_records": extent.n,
        "n_pairs": n_pairs,
        "n_detected_errors": flagged[_ERR],
        "n_labeled": flagged[_LABELED],
        "n_repaired": flagged[_CHANGED],
        "elapsed_s": time.perf_counter() - t0,
    }
    return CleanResult(repaired_df=repaired_df, repairs=repairs, diagnostics=diagnostics)


def host_baseline_clean(
    df: DataFrame, attribute: str, *, corrector: str = "holoclean"
) -> CleanResult:
    """The host system without Sparcle: exact-location co-occurrence only."""
    return sparcle_clean(df, ExactLocationConstraint(attribute), corrector=corrector)
