"""Correctness checks shared by the CLI workloads and the kernel worker."""

from __future__ import annotations

import numpy as np

from cohortgeo import compute_point_geometry, prepare_grid
from cohortgeo.analytics import DEFAULT_WINDOW

POINT_TOL = 1e-13


def window_top(series) -> int:
    """Birth year with the largest index inside the default analysis window."""
    lo, hi = DEFAULT_WINDOW
    keep = (series.birth_years >= lo) & (series.birth_years <= hi)
    return int(series.birth_years[keep][np.argmax(series.values[keep])])


def point_error(surface, field, rng: np.random.Generator, samples: int) -> float:
    """Largest gap between the per-point reference path and the field's
    normal curvatures, over ``samples`` random valid points."""
    grid = prepare_grid(surface)
    valid = np.argwhere(field.valid)
    worst = 0.0
    for i, j in valid[rng.choice(len(valid), samples, replace=False)]:
        ncs = compute_point_geometry(grid, int(i), int(j))[3]
        worst = max(worst, float(np.max(np.abs(ncs - field.normal_curvatures[i, j]))))
    return worst


def problems(surface, field, series, ridge: int | None,
             rng: np.random.Generator, samples: int) -> list[str]:
    """What is wrong with one result: the per-point check and the ridge check.

    ``series`` is the trimmed series; ``ridge`` the planted birth year or None.
    """
    found = []
    worst = point_error(surface, field, rng, samples)
    if not worst <= POINT_TOL:
        found.append(f"per-point path differs from the field by {worst:.3e}")
    if ridge is not None and abs(window_top(series) - ridge) > 1:
        found.append(f"top cohort {window_top(series)}, ridge planted at {ridge}")
    return found
