"""Traced run: each layer's public function, timed from outside.

The layers are called in pipeline order, and each output is cached and
counted before the next call starts, so a layer's span covers exactly its
own Spark jobs. Every call runs under its own ``sc.setJobGroup``; the jobs,
stages and tasks of a layer are read back from ``statusTracker``. Spans
(name, start, end, parent, run id) are kept in memory and written to
``.perfbench/trace-<workload>-<seed>.json`` when the run ends.

Materialising each layer separately defeats pipelining and recomputes
shared inputs, so the traced pass is slower than an untraced one; the
difference is reported as ``trace.overhead_s``, and end-to-end numbers come
only from untraced runs.
"""
import json
import threading
import time
import traceback
import uuid
from contextlib import contextmanager

import numpy as np
import pandas as pd

from repro.core import candidate_gen as cg
from repro.core import formulator
from repro.core.distance_matrix import attach_values, build_pairs
from repro.core.error_detector import detect_errors
from repro.hostsys.aimnet import REPAIR, repair_from_violations
from repro.spatial import grid
from repro.spatial.join import R1
from workloads import ATTRIBUTE


class Tracer:
    """Spans and per-span Spark job counts for one run."""

    def __init__(self, sc):
        self.sc = sc
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: str | None = None):
        group = f"{self.run_id}/{name}"
        self.sc.setJobGroup(group, name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.spans.append(
                {"name": name, "start": start, "end": end, "parent": parent,
                 "run_id": self.run_id, **self._counts(group)}
            )

    def seconds(self, name: str) -> float:
        return next(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def counts(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)

    def _counts(self, group: str) -> dict:
        # The status store is fed by the listener bus; drain it first so
        # every job of the group is visible and complete.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty(60_000)
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        stages = tasks = failed = 0
        for job in jobs:
            info = tracker.getJobInfo(job)
            for sid in info.stageIds if info else ():
                st = tracker.getStageInfo(sid)
                if st is None or st.numCompletedTasks == 0:
                    continue  # skipped: its shuffle output was reused
                stages += 1
                tasks += st.numCompletedTasks
                failed += st.numFailedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks, "failed_tasks": failed}

    def write(self, path) -> None:
        path.write_text(json.dumps(self.spans, indent=1))


class StoragePeak:
    """Peak of Spark's storage memory in use while the block runs, in MB
    above the level at its start (sampled every 20 ms)."""

    def __init__(self, sc):
        self._mm = sc._jvm.org.apache.spark.SparkEnv.get().memoryManager()
        self._stop = threading.Event()
        self.peak_mb = 0.0

    def _sample(self) -> None:
        base = self._mm.storageMemoryUsed()
        peak = base
        while not self._stop.wait(0.02):
            peak = max(peak, self._mm.storageMemoryUsed())
        peak = max(peak, self._mm.storageMemoryUsed())
        self.peak_mb = (peak - base) / 2**20

    def __enter__(self):
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _tile_matched_pairs(pdf, constraint) -> int:
    """Pairs the grid join matches on tile key before its distance filter.

    Built from per-tile record counts (``repro.spatial.grid`` tiling): each
    record meets every record of its 3x3 tile neighbourhood but itself.
    """
    d_m = getattr(constraint, "d_m", 0)
    if not d_m:  # exact-location join: the "tile" is the coordinate itself
        counts = pdf.groupby(["lat", "lon"]).size().to_numpy()
        return int((counts * counts).sum() - len(pdf))
    max_abs_lat = float(np.abs(pdf["lat"]).max())
    lat_deg, lon_deg = grid.tile_sizes_deg(d_m, max_abs_lat)
    cx = np.floor(pdf["lon"].to_numpy() / lon_deg).astype(np.int64)
    cy = np.floor(pdf["lat"].to_numpy() / lat_deg).astype(np.int64)
    tiles: dict[tuple[int, int], int] = {}
    for key in zip(cx.tolist(), cy.tolist()):
        tiles[key] = tiles.get(key, 0) + 1
    matched = sum(
        n * tiles.get((x + dx, y + dy), 0)
        for (x, y), n in tiles.items()
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    )
    return matched - len(pdf)


def _decided_repairs(labels_pdf, corrected_pdf, observed: dict):
    """Repairs (rid, old_value, new_value) from the traced decisions."""
    fixes = pd.concat(
        [labels_pdf.rename(columns={"label": "new_value"}),
         corrected_pdf.rename(columns={REPAIR: "new_value"})]
    )
    fixes["old_value"] = fixes["rid"].map(observed)
    return fixes[fixes["new_value"] != fixes["old_value"]]


def _traced_pass(tracer: Tracer, run) -> dict:
    """Each layer's public call, cached and counted before the next starts."""
    sdf = run.sdf
    with tracer.span("traced_pass"):
        with tracer.span("spatial.join", "traced_pass"):
            pairs = build_pairs(sdf, run.constraint).cache()
            n_pairs = pairs.count()
        with tracer.span("core.distance_matrix", "traced_pass"):
            dm = attach_values(pairs, sdf, ATTRIBUTE).cache()
            dm_rows = dm.count()
        with tracer.span("core.error_detector", "traced_pass"):
            error_ids = detect_errors(sdf, dm, attribute=ATTRIBUTE).error_ids.cache()
            flagged = error_ids.count()
        with tracer.span("core.candidate_gen", "traced_pass"):
            cand = cg.generate_candidates(sdf, dm, error_ids, attribute=ATTRIBUTE)
            cands = cand.candidates.cache()
            n_cands = cands.count()
            labels = cand.labels.cache()
            n_labeled = labels.count()
        with tracer.span("core.formulator", "traced_pass"):
            feats = formulator.violation_features(dm, cands).cache()
            n_feats = feats.count()
        with tracer.span("hostsys", "traced_pass"):
            corrected = repair_from_violations(feats, cands).cache()
            n_repairs = corrected.count()

    # Counters from frames the pass already built; no span is open.
    out = {
        "pairs": n_pairs, "dm_rows": dm_rows, "flagged": flagged, "cands": n_cands,
        "labeled": n_labeled, "feats": n_feats, "repairs": n_repairs,
        "decided": _decided_repairs(labels.toPandas(), corrected.toPandas(), run.observed),
        "per_r1": pairs.groupBy(R1).count().toPandas()["count"],
        "flagged_ids": set(error_ids.toPandas()["rid"]),
        "cells": cands.select("rid").distinct().count(),
    }
    for df in (pairs, dm, error_ids, cands, labels, feats, corrected):
        df.unpersist(blocking=True)
    return out


def traced_run(run, out_dir) -> None:
    """Two untraced passes, then one traced pass; records per-layer metrics."""
    sc = run.spark.sparkContext
    tracer = Tracer(sc)
    metric = run.metric

    # The first pass in the process pays JIT and codegen and is discarded;
    # the second, untraced and under one job group, gives the pipeline
    # counters and the reference for trace.overhead_s.
    if run.clean_pass() is None:
        return
    with StoragePeak(sc) as storage, tracer.span("core.pipeline"):
        untraced = run.clean_pass()
    if untraced is None:
        return
    run.attempted += 1
    try:
        t = _traced_pass(tracer, run)
    except Exception:
        traceback.print_exc()
        run.failed += 1
        return
    run.check(t["decided"])

    pipe = tracer.counts("core.pipeline")
    for key in ("jobs", "stages", "tasks"):
        metric(f"core.pipeline.{key}", pipe[key], "count")
    metric("core.pipeline.cached_mb", storage.peak_mb, "MB")

    join = tracer.counts("spatial.join")
    metric("spatial.join.s", tracer.seconds("spatial.join"), "s")
    metric("spatial.join.pairs", t["pairs"], "count")
    for key in ("jobs", "stages", "tasks", "failed_tasks"):
        metric(f"spatial.join.{key}", join[key], "count")
    matched = _tile_matched_pairs(run.pdf, run.constraint)
    metric("spatial.join.useful_ratio", t["pairs"] / max(matched, 1), "ratio")
    per_r1 = t["per_r1"]  # records without neighbours have no row
    metric("spatial.join.neighbors_p50", float(per_r1.median()) if len(per_r1) else 0.0, "count")
    metric("spatial.join.neighbors_max", int(per_r1.max()) if len(per_r1) else 0, "count")

    metric("core.distance_matrix.s", tracer.seconds("core.distance_matrix"), "s")
    metric("core.distance_matrix.rows", t["dm_rows"], "count")
    metric("core.distance_matrix.jobs", tracer.counts("core.distance_matrix")["jobs"], "count")

    metric("core.error_detector.s", tracer.seconds("core.error_detector"), "s")
    pdf = run.pdf
    is_err = pdf[ATTRIBUTE].isna() | (pdf[ATTRIBUTE] != pdf[f"{ATTRIBUTE}__truth"])
    true_flagged = len(t["flagged_ids"] & set(pdf.loc[is_err, "rid"]))
    metric("core.error_detector.flagged", t["flagged"], "count")
    metric("core.error_detector.flagged_share", t["flagged"] / len(pdf), "ratio")
    metric("core.error_detector.precision", true_flagged / max(t["flagged"], 1), "ratio")

    gen = tracer.counts("core.candidate_gen")
    metric("core.candidate_gen.s", tracer.seconds("core.candidate_gen"), "s")
    metric("core.candidate_gen.candidates", t["cands"], "count")
    metric("core.candidate_gen.labeled", t["labeled"], "count")
    metric("core.candidate_gen.cands_per_cell", t["cands"] / max(t["cells"], 1), "ratio")
    metric("core.candidate_gen.jobs", gen["jobs"], "count")
    metric("core.candidate_gen.stages", gen["stages"], "count")

    metric("core.formulator.s", tracer.seconds("core.formulator"), "s")
    metric("core.formulator.rows", t["feats"], "count")
    metric("core.formulator.jobs", tracer.counts("core.formulator")["jobs"], "count")

    metric("hostsys.s", tracer.seconds("hostsys"), "s")
    metric("hostsys.repairs", t["repairs"], "count")
    metric("hostsys.jobs", tracer.counts("hostsys")["jobs"], "count")

    metric("trace.overhead_s", tracer.seconds("traced_pass") - untraced[0], "s")

    # Reading repaired_df after the call returned, once, after every pass.
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        untraced[2].repaired_df.toPandas()
    except Exception:
        traceback.print_exc()
        run.failed += 1
        return
    metric("core.pipeline.repaired_read_s", time.perf_counter() - t0, "s")
    tracer.write(out_dir / f"trace-{run.wl.name}-{run.seed}.json")
