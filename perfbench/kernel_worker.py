"""The ``kernel_stress`` workload, in a process of its own.

    python perfbench/kernel_worker.py SEED SECONDS TRACE RESULT.json

Builds the seeded 1000x1000 grid (several times, to time set-up), then
runs the in-process pipeline compute_geometry_field -> cei_series ->
trim_series -> aice + detect_peaks for about SECONDS. The parent
reads this process's peak RSS and CPU from ``os.wait4``. With TRACE=1,
traced and untraced operations alternate. Checks run between operations,
outside the timed interval, and everything lands in RESULT.json.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import numpy as np

import checks
import gen
import spans
from cohortgeo import analytics, geometry

GRID = 1000
WARMUP_GRID = 100
SETUP_REPEATS = 3
POINT_SAMPLES = 64


def pipeline(surface):
    field = geometry.compute_geometry_field(surface)
    series = analytics.trim_series(analytics.cei_series(field, surface),
                                   analytics.DEFAULT_TRIM_YEAR)
    report = analytics.aice(series, analytics.DEFAULT_WINDOW)
    peaks = analytics.detect_peaks(series, analytics.DEFAULT_WINDOW)
    return field, series, report, peaks


def setup(seed: int):
    surface, ridge = gen.stress_surface(seed, GRID)
    missing = int(surface.missing_mask.sum())
    if surface.rates.shape != (GRID, GRID) or not 0 < missing < GRID * GRID // 100:
        raise SystemExit(f"stress grid has shape {surface.rates.shape}, {missing} missing")
    pipeline(gen.stress_surface(seed, WARMUP_GRID)[0])
    return surface, ridge


def digest(field, series, report, peaks) -> str:
    h = hashlib.sha256()
    for arr in (field.valid, field.normal_curvatures, field.normals,
                series.values, series.point_counts):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(report.to_json().encode())
    h.update(peaks.to_json().encode())
    return h.hexdigest()


def main() -> int:
    seed, seconds, trace, result_path = (int(sys.argv[1]), float(sys.argv[2]),
                                         sys.argv[3] == "1", sys.argv[4])
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        surface, ridge = setup(seed)
        setup_s.append(time.perf_counter() - t0)

    check_rng = np.random.default_rng([seed, 7])
    ops = []
    first_digest = None
    t_start = time.perf_counter()
    while True:
        rec = spans.Recorder() if trace and len(ops) % 2 == 0 else None
        restore = spans.instrument(rec) if rec is not None else None
        c0, t0 = time.process_time(), time.perf_counter()
        result = pipeline(surface)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if restore is not None:
            restore()
        field, series = result[0], result[1]
        d = digest(*result)
        first_digest = first_digest or d
        problems = checks.problems(surface, field, series, ridge, check_rng,
                                   POINT_SAMPLES)
        if d != first_digest:
            problems.append("result differs from the first operation")
        trace_record = None
        if rec is not None:
            trace_record = {"spans": rec.spans, "counts": rec.counts,
                            "outside_ns": round(wall * 1e9) - spans.top_level_ns(rec.spans)}
        ops.append({"wall_s": wall, "cpu_s": cpu, "cells": surface.rates.size,
                    "trace": trace_record, "problems": problems})
        del field, series, result
        # stop at the operation count closest to the requested duration
        now = time.perf_counter()
        if now - t_start + wall / 2 >= seconds and len(ops) >= (2 if trace else 1):
            break

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": statistics.median(setup_s), "ops": ops,
                   "digest": first_digest}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
