"""Cohort-level aggregation of the pointwise geometry.

Each grid point (year t, age x) belongs to the birth cohort c = t - x.
The cohort effect index for a cohort sums |NC_cohort - NC_cross| over the
cohort's valid grid points, giving one nonnegative value per birth year.
On top of that series: trimming (the terminal cohorts are border artifacts
and drop to zero), the aggregate index (coefficient of variation over an
analysis window), peak detection against a rolling-median baseline, and a
diagnostic for the upward-then-cliff tail shape of untrimmed series.

Cohorts are indexed by birth year throughout; a grid point contributes to
exactly one cohort. The default index is a plain sum, so cohorts with few
valid points (near grid corners, or heavily masked) score low regardless
of effect strength; ``normalization="mean"`` divides by the point count
instead.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np

from .errors import (
    ConsistencyError,
    EmptySeriesError,
    ParameterError,
    SampleSizeError,
    StructuralError,
    UndefinedAiceError,
)
from .geometry import COHORT, CROSS, GeometryField
from .surface import (MortalitySurface, Sex, _as_contiguous_int_axis, _as_int64_array,
                      _content_eq, _csv_text, _integer, _json_text, _positive_real,
                      _store_read_only, _store_sex)

DEFAULT_TRIM_YEAR = 1970
DEFAULT_WINDOW = (1922, 1970)
DEFAULT_BASELINE_WINDOW = 11
DEFAULT_THRESHOLD_RATIO = 1.25


def _window_bounds(window: tuple[int, int]) -> tuple[int, int]:
    error = ParameterError(f"window bounds must be integers, not {window!r}")
    try:
        y0, y1 = window
    except (TypeError, ValueError):
        raise error from None
    y0, y1 = _integer(y0, error), _integer(y1, error)
    if y0 > y1:
        raise ParameterError(f"window [{y0}, {y1}] is reversed")
    return y0, y1


@dataclass(frozen=True, eq=False)
class CEISeries:
    """Cohort effect index per birth year, over a contiguous year range.

    ``values[k]`` is the index for cohort ``birth_years[k]``;
    ``point_counts[k]`` is how many valid grid points contributed. Cohorts
    whose points are all invalid or on the border carry value 0 and count 0.
    Birth years pass the surface's integer-axis rule (int64, step 1, within
    +-2**53) and any invalid array raises :class:`StructuralError`. A sex
    name (``"female"``) is stored as its :class:`Sex`, as a surface does.
    Construction stores read-only views, as :class:`MortalitySurface` does:
    a write through the series raises ``ValueError``, and the arrays passed
    in keep their own flags. The ``values`` view is not a copy, so a caller
    who keeps a writeable reference to it must not change it.
    """

    birth_years: np.ndarray
    values: np.ndarray
    point_counts: np.ndarray
    sex: Sex | None = None
    source_label: str = ""
    options_label: str = ""

    def __post_init__(self) -> None:
        years = _as_contiguous_int_axis(self.birth_years, "birth_years")
        values = np.asarray(self.values, dtype=float)
        counts = _as_int64_array(self.point_counts, "point_counts")
        if not (values.shape == years.shape and counts.shape == years.shape):
            raise StructuralError("birth_years, values, point_counts must align")
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise StructuralError("cohort index values must be finite and >= 0")
        if np.any(counts < 0):
            raise StructuralError("point counts must be >= 0")
        if np.any(values[counts == 0] != 0.0):
            raise StructuralError("cohorts with zero points must have zero value")
        if self.sex is not None:
            _store_sex(self)
        _store_read_only(self, birth_years=years, values=values, point_counts=counts)

    def __len__(self) -> int:
        return int(self.birth_years.size)

    def __iter__(self) -> Iterator[tuple[int, float, int]]:
        return zip(self.birth_years.tolist(), self.values.tolist(),
                   self.point_counts.tolist())

    __eq__ = _content_eq

    @property
    def first_year(self) -> int:
        return int(self.birth_years[0])

    @property
    def last_year(self) -> int:
        return int(self.birth_years[-1])

    def to_csv(self) -> str:
        return _csv_text([("birth_year", "cei", "point_count"), *self])

    @classmethod
    def from_csv(cls, text: str, source_label: str = "") -> "CEISeries":
        try:
            rows = [(n, r) for n, r in enumerate(csv.reader(io.StringIO(text)), 1) if r]
        except csv.Error as exc:
            raise ValueError(f"malformed series CSV: {exc}") from None
        if not rows or [c.strip() for c in rows[0][1]] != ["birth_year", "cei", "point_count"]:
            raise ValueError("expected header 'birth_year,cei,point_count'")
        years, values, counts = [], [], []
        for n, r in rows[1:]:
            if len(r) != 3:
                raise ValueError(f"malformed series CSV: row {n}: "
                                 f"expected 3 columns, got {len(r)}: {r!r}")
            try:
                years.append(int(r[0]))
                values.append(float(r[1]))
                counts.append(int(r[2]))
            except ValueError as exc:
                raise ValueError(f"malformed series CSV: row {n}: {exc}") from None
        return cls(birth_years=years, values=values, point_counts=counts,
                   source_label=source_label)

    def to_json(self) -> str:
        return _json_text({
            "sex": self.sex.value if self.sex is not None else None,
            "source_label": self.source_label,
            "options": self.options_label,
            "entries": [
                {"birth_year": y, "cei": v, "point_count": n} for y, v, n in self
            ],
        })


@dataclass(frozen=True)
class Peak:
    """Maximal run of consecutive years above the detection threshold."""

    start_year: int
    end_year: int
    width_years: int = field(init=False)
    max_cei: float

    def __post_init__(self) -> None:
        error = ParameterError(
            f"peak years must be integers, not {(self.start_year, self.end_year)!r}")
        start, end = _integer(self.start_year, error), _integer(self.end_year, error)
        if start > end:
            raise ValueError("peak start must not exceed end")
        object.__setattr__(self, "start_year", start)
        object.__setattr__(self, "end_year", end)
        object.__setattr__(self, "width_years", end - start + 1)
        object.__setattr__(self, "max_cei", float(self.max_cei))


@dataclass(frozen=True)
class CohortReport:
    """Windowed summary of a cohort series.

    Stores what :func:`aice` (``mean``, ``sample_stdev``) and
    :func:`detect_peaks` (``peaks``) measure; the other half stays None,
    and ``replace(a, peaks=p.peaks)`` merges them. ``aice`` is worked out
    as ``sample_stdev / mean`` (a mean that is not positive, or a mean or
    stdev that is not finite, raises :class:`UndefinedAiceError`),
    ``min_gap``/``max_gap`` as the extreme peak widths in years, None
    without peaks.
    """

    window: tuple[int, int]
    mean: float | None = None
    sample_stdev: float | None = None
    aice: float | None = field(init=False)
    peaks: tuple[Peak, ...] | None = None
    min_gap: int | None = field(init=False)
    max_gap: int | None = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", _window_bounds(self.window))
        for key in ("mean", "sample_stdev"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, float(getattr(self, key)))
        if self.mean is not None and not self.mean > 0.0:
            raise UndefinedAiceError("aice undefined: windowed mean is not positive")
        if not all(np.isfinite(v) for v in (self.mean, self.sample_stdev) if v is not None):
            raise UndefinedAiceError("aice undefined: windowed mean or stdev is not finite")
        if self.sample_stdev is not None and self.sample_stdev < 0:
            raise UndefinedAiceError("aice undefined: windowed stdev is negative")
        measured = self.mean is not None and self.sample_stdev is not None
        object.__setattr__(self, "aice", self.sample_stdev / self.mean if measured else None)
        widths = [p.width_years for p in self.peaks or ()]
        object.__setattr__(self, "min_gap", min(widths, default=None))
        object.__setattr__(self, "max_gap", max(widths, default=None))

    def to_json(self) -> str:
        return _json_text(asdict(self))

    def to_csv(self) -> str:
        rows = [("key", "value"), ("window_start", self.window[0]),
                ("window_end", self.window[1])]
        rows += ((key, getattr(self, key)) for key in ("mean", "sample_stdev", "aice"))
        if self.peaks is not None:
            rows.append(("peak_count", len(self.peaks)))
            rows += ((f"peak_{k}", f"{p.start_year}-{p.end_year}"
                      f" width={p.width_years} max={p.max_cei!r}")
                     for k, p in enumerate(self.peaks))
            rows += (("min_gap", self.min_gap), ("max_gap", self.max_gap))
        return _csv_text(rows)


def cei_series(
    field: GeometryField,
    surface: MortalitySurface,
    normalization: str = "sum",
) -> CEISeries:
    """Aggregate |NC_cohort - NC_cross| per birth cohort.

    ``field`` must be the geometry of ``surface``: its axes must equal the
    surface's years and ages, or :class:`ConsistencyError` is raised. The
    cohorts, sex and source label come from the surface, which has already
    validated its axes as integers with step 1.

    The series spans every cohort the grid touches, from (first year -
    last age) through (last year - first age); cohorts without valid
    points get value 0. ``normalization="mean"`` divides each cohort's sum
    by its point count and appends ``,normalization=mean`` to the series'
    ``options_label``.
    """
    if normalization not in ("sum", "mean"):
        raise ParameterError(f"unknown normalization {normalization!r}")
    years, ages = surface.years, surface.ages
    if not (np.array_equal(field.years, years) and np.array_equal(field.ages, ages)):
        raise ConsistencyError("geometry field axes do not match the supplied surface")

    c_min = int(years[0]) - int(ages[-1])
    c_max = int(years[-1]) - int(ages[0])
    n = c_max - c_min + 1
    cohort_index = (years[:, None] - ages[None, :]) - c_min
    diff = np.abs(field.normal_curvatures[:, :, COHORT]
                  - field.normal_curvatures[:, :, CROSS])
    mask = field.valid
    cohorts = cohort_index[mask]
    sums = np.bincount(cohorts, weights=diff[mask], minlength=n)
    counts = np.bincount(cohorts, minlength=n)
    # Held until return, the index stayed resident under the series arrays:
    # 7 MB more peak RSS on a 1000x1000 grid.
    del cohorts
    values = sums
    options_label = field.options.label()
    if normalization == "mean":
        values = np.where(counts > 0, sums / np.where(counts > 0, counts, 1), 0.0)
        options_label += ",normalization=mean"
    return CEISeries(
        birth_years=np.arange(c_min, c_max + 1),
        values=values,
        point_counts=counts.astype(int),
        sex=surface.sex,
        source_label=surface.source_label,
        options_label=options_label,
    )


def trim_series(series: CEISeries, max_birth_year: int = DEFAULT_TRIM_YEAR) -> CEISeries:
    """Drop cohorts born after ``max_birth_year``.

    The youngest cohorts sit against the grid border where every point is
    zeroed, so an untrimmed series always collapses at its right end.
    """
    keep = series.birth_years <= _integer(max_birth_year, ParameterError(
        f"max_birth_year must be an integer, not {max_birth_year!r}"))
    if not np.any(keep):
        raise EmptySeriesError(
            f"no cohorts at or before {max_birth_year} "
            f"(series starts at {series.first_year})"
        )
    return replace(series, birth_years=series.birth_years[keep],
                   values=series.values[keep], point_counts=series.point_counts[keep])


def _windowed(series: CEISeries, window: tuple[int, int]
              ) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """The checked int bounds of ``window`` and the years and values in it."""
    y0, y1 = _window_bounds(window)
    keep = (series.birth_years >= y0) & (series.birth_years <= y1)
    return (y0, y1), series.birth_years[keep], series.values[keep]


def aice(series: CEISeries, window: tuple[int, int] = DEFAULT_WINDOW) -> CohortReport:
    """Coefficient of variation of the windowed series.

    Dimensionless dispersion: sample standard deviation (n - 1 denominator)
    over mean. Scaling the series leaves it unchanged, and on HMD-shaped
    rates so does a ``z_scale`` from 0.01 to 2 (within 1e-4 relative). It
    ranks cohort effects only between files of similar population size and
    calendar span, whose noise and point sets move it as much as the effect.
    """
    window, years, values = _windowed(series, window)
    if years.size < 2:
        raise SampleSizeError(
            f"aice needs at least 2 cohorts in window {window}, got {years.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the report refuses inf/NaN
        mean, stdev = np.mean(values), np.std(values, ddof=1)
    return CohortReport(window=window, mean=mean, sample_stdev=stdev)


def rolling_median_baseline(values: np.ndarray, width: int) -> np.ndarray:
    """Centered rolling median; the half-window shrinks near the ends so the
    window stays symmetric around each point."""
    error = ParameterError("baseline window must be a positive odd integer")
    if _integer(width, error) < 1 or width % 2 == 0:
        raise error
    v = np.asarray(values, dtype=float)
    n = v.size
    half = width // 2
    out = np.empty(n)
    for k in range(n):
        h = min(half, k, n - 1 - k)
        out[k] = np.median(v[k - h:k + h + 1])
    return out


def detect_peaks(
    series: CEISeries,
    window: tuple[int, int] = DEFAULT_WINDOW,
    baseline_window: int = DEFAULT_BASELINE_WINDOW,
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
) -> CohortReport:
    """Find maximal runs of years whose value exceeds the local baseline.

    Baseline is a centered rolling median of ``baseline_window`` years; a
    year is elevated when value > threshold_ratio * baseline. Each maximal
    elevated run becomes one peak; the report works out the gaps from their
    widths. Deterministic: no randomness, ties resolve by the strict >.
    Malformed options raise :class:`ParameterError`, checked before a window
    with fewer than ``baseline_window`` cohorts raises :class:`SampleSizeError`.
    """
    threshold_ratio = _positive_real(
        threshold_ratio, ParameterError("threshold_ratio must be positive and finite"))
    window, years, values = _windowed(series, window)
    baseline = rolling_median_baseline(values, baseline_window)
    if years.size == 0:
        raise SampleSizeError(f"window {window} contains no cohorts")
    if years.size < baseline_window:
        raise SampleSizeError(
            f"window has {years.size} cohorts, fewer than the "
            f"baseline window {baseline_window}"
        )
    # A threshold that overflows to inf marks no year as elevated.
    with np.errstate(over="ignore"):
        elevated = values > threshold_ratio * baseline
    # In the False-padded mask, flips alternate between the first index of
    # an elevated run and the index just past its end.
    edges = np.flatnonzero(np.diff(elevated, prepend=False, append=False)).tolist()
    return CohortReport(window=window, peaks=tuple(
        Peak(start_year=years[start], end_year=years[end - 1],
             max_cei=np.max(values[start:end]))
        for start, end in zip(edges[0::2], edges[1::2])
    ))


@dataclass(frozen=True)
class UShapeReport:
    """Tail diagnostic for an untrimmed series.

    ``slope`` is the linear trend of values for cohorts born at or after
    ``cutoff_year`` (excluding a flagged terminal drop); ``drop_start_year``
    marks where the series starts its final collapse toward the zeroed
    border cohorts, or None when no such cliff exists. Informational only.
    """

    cutoff_year: int
    n_points: int
    slope: float | None
    drop_start_year: int | None


def u_shape_diagnostic(series: CEISeries,
                       cutoff_year: int = DEFAULT_TRIM_YEAR) -> UShapeReport:
    """Characterize the post-cutoff tail of an untrimmed series.

    Walks backward over the terminal strictly-decreasing run; it counts as
    a drop (border artifact) when it loses at least half of its starting
    value. The trend slope is fit on the remaining tail segment, against
    years since its first cohort, so that it stays exact for birth years
    far from 0.
    """
    cutoff_year = _integer(cutoff_year, ParameterError(
        f"cutoff_year must be an integer, not {cutoff_year!r}"))
    keep = series.birth_years >= cutoff_year
    years = series.birth_years[keep].astype(float)
    values = series.values[keep]
    n = years.size
    run_start = n - 1
    while run_start > 0 and values[run_start - 1] > values[run_start]:
        run_start -= 1
    drop_start_year: int | None = None
    trend_end = n
    if run_start < n - 1 and values[run_start] > 0:
        decline = values[run_start] - values[-1]
        if decline >= 0.5 * values[run_start]:
            drop_start_year = int(years[run_start + 1])
            trend_end = run_start + 1

    slope: float | None = None
    if trend_end >= 2:
        slope = float(np.polyfit(years[:trend_end] - years[0], values[:trend_end], 1)[0])
    return UShapeReport(
        cutoff_year=cutoff_year,
        n_points=n,
        slope=slope,
        drop_start_year=drop_start_year,
    )
