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
import json
from dataclasses import asdict, dataclass, replace
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
from .surface import (MortalitySurface, Sex, _as_contiguous_int_axis,
                      _as_int64_array, _content_eq, _store_read_only)

DEFAULT_TRIM_YEAR = 1970
DEFAULT_WINDOW = (1922, 1970)
DEFAULT_BASELINE_WINDOW = 11
DEFAULT_THRESHOLD_RATIO = 1.25


@dataclass(frozen=True, eq=False)
class CEISeries:
    """Cohort effect index per birth year, over a contiguous year range.

    ``values[k]`` is the index for cohort ``birth_years[k]``;
    ``point_counts[k]`` is how many valid grid points contributed. Cohorts
    whose points are all invalid or on the border carry value 0 and count 0.
    Birth years pass the surface's integer-axis rule (int64, step 1, within
    +-2**53) and any invalid series raises :class:`StructuralError`.
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["birth_year", "cei", "point_count"])
        writer.writerows(self)  # csv writes floats with repr
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, sex: Sex | None = None,
                 source_label: str = "", options_label: str = "") -> "CEISeries":
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
        return cls(birth_years=years, values=values, point_counts=counts, sex=sex,
                   source_label=source_label, options_label=options_label)

    def to_json(self) -> str:
        obj = {
            "sex": self.sex.value if self.sex is not None else None,
            "source_label": self.source_label,
            "options": self.options_label,
            "entries": [
                {"birth_year": y, "cei": v, "point_count": n} for y, v, n in self
            ],
        }
        return json.dumps(obj, indent=2) + "\n"


@dataclass(frozen=True)
class Peak:
    """Maximal run of consecutive years above the detection threshold."""

    start_year: int
    end_year: int
    width_years: int
    max_cei: float

    def __post_init__(self) -> None:
        if self.start_year > self.end_year:
            raise ValueError("peak start must not exceed end")
        if self.width_years != self.end_year - self.start_year + 1:
            raise ValueError("peak width must equal end - start + 1")


@dataclass(frozen=True)
class CohortReport:
    """Windowed summary of a cohort series.

    Populated piecewise: :func:`aice` fills the dispersion fields,
    :func:`detect_peaks` fills the peak fields, unfilled ones stay None.
    ``min_gap``/``max_gap`` are the extreme peak widths in years; None when
    no peaks were detected (or peaks were not computed).
    """

    window: tuple[int, int]
    mean: float | None = None
    sample_stdev: float | None = None
    aice: float | None = None
    peaks: tuple[Peak, ...] | None = None
    min_gap: int | None = None
    max_gap: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerow(["window_start", self.window[0]])
        writer.writerow(["window_end", self.window[1]])
        for key in ("mean", "sample_stdev", "aice"):
            v = getattr(self, key)
            writer.writerow([key, "" if v is None else repr(float(v))])
        if self.peaks is not None:
            writer.writerow(["peak_count", len(self.peaks)])
            for k, p in enumerate(self.peaks):
                writer.writerow(
                    [f"peak_{k}", f"{p.start_year}-{p.end_year}"
                     f" width={p.width_years} max={repr(float(p.max_cei))}"]
                )
            writer.writerow(["min_gap", "" if self.min_gap is None else self.min_gap])
            writer.writerow(["max_gap", "" if self.max_gap is None else self.max_gap])
        return out.getvalue()


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
    keep = series.birth_years <= int(max_birth_year)
    if not np.any(keep):
        raise EmptySeriesError(
            f"no cohorts at or before {max_birth_year} "
            f"(series starts at {series.first_year})"
        )
    return replace(series, birth_years=series.birth_years[keep],
                   values=series.values[keep], point_counts=series.point_counts[keep])


def _windowed(series: CEISeries, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    y0, y1 = int(window[0]), int(window[1])
    if y0 > y1:
        raise ParameterError(f"window [{y0}, {y1}] is reversed")
    keep = (series.birth_years >= y0) & (series.birth_years <= y1)
    return series.birth_years[keep], series.values[keep]


def aice(series: CEISeries, window: tuple[int, int] = DEFAULT_WINDOW) -> CohortReport:
    """Coefficient of variation of the windowed series.

    Dimensionless dispersion: sample standard deviation (n - 1 denominator)
    over mean. Scale-invariant, which is what makes values comparable
    across countries and rate conventions.
    """
    years, values = _windowed(series, window)
    if years.size < 2:
        raise SampleSizeError(
            f"aice needs at least 2 cohorts in window {window}, got {years.size}"
        )
    mean = float(np.mean(values))
    if mean <= 0.0:
        raise UndefinedAiceError("aice undefined: windowed mean is not positive")
    stdev = float(np.std(values, ddof=1))
    return CohortReport(
        window=(int(window[0]), int(window[1])),
        mean=mean,
        sample_stdev=stdev,
        aice=stdev / mean,
    )


def rolling_median_baseline(values: np.ndarray, width: int) -> np.ndarray:
    """Centered rolling median; the half-window shrinks near the ends so the
    window stays symmetric around each point."""
    if width < 1 or width % 2 == 0:
        raise ParameterError("baseline window must be a positive odd integer")
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
    elevated run becomes one peak; min_gap/max_gap are the extreme peak
    widths. Deterministic: no randomness, ties resolve by the strict >.
    Malformed options raise :class:`ParameterError`, checked before a window
    with fewer than ``baseline_window`` cohorts raises :class:`SampleSizeError`.
    """
    if not (0 < threshold_ratio < np.inf):
        raise ParameterError("threshold_ratio must be positive and finite")
    years, values = _windowed(series, window)
    baseline = rolling_median_baseline(values, baseline_window)
    if years.size == 0:
        raise SampleSizeError(f"window {window} contains no cohorts")
    if years.size < baseline_window:
        raise SampleSizeError(
            f"window has {years.size} cohorts, fewer than the "
            f"baseline window {baseline_window}"
        )
    elevated = values > threshold_ratio * baseline
    # In the False-padded mask, flips alternate between the first index of
    # an elevated run and the index just past its end.
    edges = np.flatnonzero(np.diff(elevated, prepend=False, append=False)).tolist()
    peaks = [
        Peak(start_year=int(years[start]), end_year=int(years[end - 1]),
             width_years=end - start, max_cei=float(np.max(values[start:end])))
        for start, end in zip(edges[0::2], edges[1::2])
    ]
    widths = [p.width_years for p in peaks]
    return CohortReport(
        window=(int(window[0]), int(window[1])),
        peaks=tuple(peaks),
        min_gap=min(widths) if widths else None,
        max_gap=max(widths) if widths else None,
    )


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
    value. The trend slope is fit on the remaining tail segment.
    """
    keep = series.birth_years >= int(cutoff_year)
    years = series.birth_years[keep].astype(float)
    values = series.values[keep]
    n = years.size
    if n == 0:
        return UShapeReport(cutoff_year=int(cutoff_year), n_points=0,
                            slope=None, drop_start_year=None)

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
        slope = float(np.polyfit(years[:trend_end], values[:trend_end], 1)[0])
    return UShapeReport(
        cutoff_year=int(cutoff_year),
        n_points=n,
        slope=slope,
        drop_start_year=drop_start_year,
    )
