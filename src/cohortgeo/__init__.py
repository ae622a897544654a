"""Cohort effect detection on mortality surfaces via discrete geometry.

Pipeline: ingest a (year x age) death-rate grid, estimate per-point
surface geometry from 3-point stencils (tangents, curvature vectors, a
normal, and directional normal curvatures), aggregate the cohort-versus-
cross curvature mismatch per birth year, then summarize that series
(aggregate dispersion index, peak widths, tail diagnostics).

The analytic oracle lives in :mod:`cohortgeo.smooth` and the scalar
one-point reference steps in :mod:`cohortgeo.geometry`; neither is
re-exported here.
"""

from __future__ import annotations

import os
import sys

# numpy's bundled OpenBLAS starts a worker thread per extra core at import,
# and an idle worker busy-waits. This package never gives BLAS enough work
# to split (batched 3x3 eigh, degree-1 polyfit); its own parallelism is the
# kernel's block pool. So when it is the first to load numpy and no thread
# count is set, numpy loads with OpenBLAS on the calling thread only. The
# variable is set only around the import: os.environ and child processes
# keep the caller's environment.
if "numpy" not in sys.modules and not any(
        v in os.environ
        for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

from .analytics import (
    CEISeries,
    CohortReport,
    Peak,
    UShapeReport,
    aice,
    cei_series,
    detect_peaks,
    trim_series,
    u_shape_diagnostic,
)
from .errors import (
    AmbiguousNormalError,
    AnalyticsError,
    CohortGeoError,
    ConsistencyError,
    DegenerateStencilError,
    DegenerateTangentError,
    EmptySeriesError,
    FormatError,
    GeometryError,
    IngestError,
    ParameterError,
    QuadratureError,
    SampleSizeError,
    StructuralError,
    SurfaceSizeError,
    UndefinedAiceError,
)
from .geometry import (
    COHORT,
    CROSS,
    GeometryField,
    GeometryOptions,
    compute_geometry_field,
    compute_point_geometry,
    prepare_grid,
)
from .hmd import HmdParseResult, load_hmd, parse_hmd
from .surface import (
    MortalitySurface,
    Sex,
    SurfaceGrid,
    parse_csv_matrix,
    parse_json,
    serialize,
)
from .svgchart import render_series_chart

__version__ = "0.1.0"

__all__ = [
    "COHORT",
    "CROSS",
    "AmbiguousNormalError",
    "AnalyticsError",
    "CEISeries",
    "CohortGeoError",
    "CohortReport",
    "ConsistencyError",
    "DegenerateStencilError",
    "DegenerateTangentError",
    "EmptySeriesError",
    "FormatError",
    "GeometryError",
    "GeometryField",
    "GeometryOptions",
    "HmdParseResult",
    "IngestError",
    "MortalitySurface",
    "ParameterError",
    "Peak",
    "QuadratureError",
    "SampleSizeError",
    "Sex",
    "StructuralError",
    "SurfaceGrid",
    "SurfaceSizeError",
    "UShapeReport",
    "UndefinedAiceError",
    "aice",
    "cei_series",
    "compute_geometry_field",
    "compute_point_geometry",
    "detect_peaks",
    "load_hmd",
    "parse_csv_matrix",
    "parse_hmd",
    "parse_json",
    "prepare_grid",
    "render_series_chart",
    "serialize",
    "trim_series",
    "u_shape_diagnostic",
    "__version__",
]
