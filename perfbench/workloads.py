"""The benchmark's workloads: seeded inputs and the one call each one times.

Both workloads clean the ``census`` attribute of the harness's Chicago
analog (980 regions, 19% errors, duplication ratio 0.64) with the AimNet
corrector. ``chicago-range`` runs Sparcle at the paper's default operating
point; ``chicago-host`` runs the host system without Sparcle on the same
input, so it isolates per-job overhead and gives the Table 6 denominator.

Inputs are scaled to sf 0.05 (1,200 rows): a pass costs about the same at
500 rows as at 2,400 (Spark job overhead dominates), and a run has to fit
its set-up, cold pass, timed pass and oracle in about a minute.
"""
from dataclasses import dataclass

import pandas as pd

from repro.core.constraints import (
    Constraint,
    ExactLocationConstraint,
    SpatialRangeConstraint,
    WeightFunction,
)
from repro.core.pipeline import CleanResult, host_baseline_clean, sparcle_clean
from repro.evalx.harness import CHICAGO, adaptive_d
from repro.synth_spatial import spatial_dataset_pdf

SF = 0.05
ATTRIBUTE = "census"
CORRECTOR = "aimnet"
DEFAULT_SEED = CHICAGO.seed


@dataclass(frozen=True)
class Workload:
    name: str
    sparcle: bool  # False: host_baseline_clean on exact locations

    def constraint(self, n_rows: int) -> Constraint:
        if not self.sparcle:
            return ExactLocationConstraint(ATTRIBUTE)
        return SpatialRangeConstraint(ATTRIBUTE, adaptive_d(CHICAGO.bbox, n_rows), WeightFunction(n=2.0))

    def clean(self, sdf, constraint: Constraint) -> CleanResult:
        """The timed call into ``repro.core.pipeline``."""
        if self.sparcle:
            return sparcle_clean(sdf, constraint, corrector=CORRECTOR)
        return host_baseline_clean(sdf, ATTRIBUTE, corrector=CORRECTOR)


def inputs(seed: int) -> pd.DataFrame:
    """rid, lat, lon, the observed attribute and its ``__truth``; same seed, same frame."""
    pdf = spatial_dataset_pdf(n=CHICAGO.n(SF), attrs=CHICAGO.attrs, bbox=CHICAGO.bbox, seed=seed)
    return pdf[["rid", "lat", "lon", ATTRIBUTE, f"{ATTRIBUTE}__truth"]]


WORKLOADS = {w.name: w for w in (Workload("chicago-range", True), Workload("chicago-host", False))}
