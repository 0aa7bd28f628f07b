"""HoloClean/MLNClean-style error corrector (substrate).

HoloClean's original error-correction is MAP inference over a Markov Logic
Network factor graph [41, 43]; the paper's Figure 4(c) tabulates exactly
the per-candidate factor sums. With cells treated independently (the other
factors are muted in the paper's comparison), MAP inference is the
arg-max of those sums — ties break toward the higher Algorithm-2
probability, then the smaller value (substitution documented in
DESIGN.md). The Baran-format probability vectors use the same arg-max
(:func:`repair_from_factors`), but on probabilities.
"""
from pyspark.sql import DataFrame

from repro.hostsys.aimnet import _argbest


def repair_from_factors(
    features: DataFrame, cands: DataFrame, *, id_col: str = "rid"
) -> DataFrame:
    """Pick, per cell, the candidate maximising the factor-function sum."""
    return _argbest(features, cands, id_col, ascending=False)
