"""Exception hierarchy.

Three branches mirror the pipeline stages (ingestion, geometry, analytics)
so callers -- in particular the CLI -- can map failures to exit codes
without inspecting messages.
"""

from __future__ import annotations


class CohortGeoError(Exception):
    """Base class for all package errors."""


# --- ingestion -------------------------------------------------------------

class IngestError(CohortGeoError):
    """Any failure while reading or validating input data."""


class FormatError(IngestError):
    """Malformed input text (bad header, unparsable token, ragged row)."""


class StructuralError(IngestError):
    """Input parses token-wise but violates grid structure.

    Examples: non-contiguous year blocks, duplicate (year, age) rows,
    negative rates, years present with differing age sets.
    """


# --- geometry --------------------------------------------------------------

class GeometryError(CohortGeoError):
    """Any failure inside the curvature kernel."""


class SurfaceSizeError(GeometryError):
    """Grid smaller than the 3x3 minimum needed for one interior stencil."""


class DegenerateStencilError(GeometryError):
    """Stencil chord of zero or non-finite length; no discrete parameter."""


class DegenerateTangentError(GeometryError):
    """Least-squares tangent length outside [1e-14, inf); no unit direction."""


class AmbiguousNormalError(GeometryError):
    """Smallest eigenvalue of the tangent scatter matrix is not unique.

    Happens when the four stencil tangents are (numerically) parallel, so
    every vector in a whole plane minimises the normal objective.
    """


# --- analytics -------------------------------------------------------------

class AnalyticsError(CohortGeoError):
    """Any failure while aggregating curvature into cohort statistics."""


class ConsistencyError(AnalyticsError):
    """Geometry field and surface describe different grids."""


class EmptySeriesError(AnalyticsError):
    """An operation produced or received a series with no entries."""


class UndefinedAiceError(AnalyticsError):
    """Coefficient of variation is undefined: the windowed mean is not positive
    or NaN, or the mean or sample stdev overflowed to a non-finite value."""


class SampleSizeError(AnalyticsError):
    """Too few windowed entries: fewer than two for a sample deviation, or
    fewer than the baseline window for peak detection."""


class ParameterError(AnalyticsError):
    """Invalid analysis parameters (reversed window, even baseline width, ...)."""
