"""Cohort aggregation, trimming, dispersion index, peaks, tail diagnostic."""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohortgeo as cg
from cohortgeo import (
    CEISeries,
    CohortReport,
    ConsistencyError,
    EmptySeriesError,
    ParameterError,
    Peak,
    SampleSizeError,
    Sex,
    StructuralError,
    SurfaceGrid,
    UndefinedAiceError,
    render_series_chart,
    smooth,
)
from cohortgeo.analytics import rolling_median_baseline

from test_surface import make_surface


def series_of(values, first_year=1900, counts=None, **kwargs) -> CEISeries:
    values = np.asarray(values, dtype=float)
    if counts is None:
        counts = np.ones(values.size, dtype=int)
    return CEISeries(
        birth_years=np.arange(first_year, first_year + values.size),
        values=values,
        point_counts=np.asarray(counts, dtype=int),
        **kwargs,
    )


# Integers near 0 and near the float-exact and int64 limits, +-2**53 and +-2**63.
_EDGE_INTS = st.one_of(*(st.integers(c - 3, c + 3)
                         for c in (0, 2**53, -2**53, 2**63, -2**63)))


class TestCEISeriesType:
    def test_validation(self):
        with pytest.raises(StructuralError,
                           match="birth_years must be strictly increasing with step 1"):
            CEISeries(birth_years=np.array([1900, 1902]),
                      values=np.zeros(2), point_counts=np.zeros(2, dtype=int))
        with pytest.raises(StructuralError, match=">= 0"):
            series_of([-1.0, 2.0])
        with pytest.raises(StructuralError, match="zero value"):
            series_of([1.0, 2.0], counts=[0, 1])
        with pytest.raises(StructuralError,
                           match="birth_years must be a nonempty 1-D sequence"):
            series_of([])

    @pytest.mark.parametrize("values, counts, message", [
        ([1.0, 2.0, 3.0], [1, 1], "birth_years, values, point_counts must align"),
        ([1.0, 2.0], [1, 1, 1], "birth_years, values, point_counts must align"),
        ([1.0, 0.0], [1, -1], "point counts must be >= 0"),
    ], ids=["long-values", "long-counts", "negative-count"])
    def test_shape_and_count_messages(self, values, counts, message):
        with pytest.raises(StructuralError) as exc:
            CEISeries(birth_years=[1900, 1901], values=values, point_counts=counts)
        assert str(exc.value) == message

    def test_lookup_and_iteration(self):
        s = series_of([1.0, 2.0, 3.0], first_year=1950)
        assert s.values[1951 - s.first_year] == 2.0
        assert list(s) == [(1950, 1.0, 1), (1951, 2.0, 1), (1952, 3.0, 1)]
        assert len(s) == 3

    @pytest.mark.parametrize("years, counts, message", [
        ([1950.5, 1951.5], [1, 2], "birth_years must be integers"),
        ([1950, 1951], [1.7, 2.2], "point_counts must be integers"),
        ([1950.0, np.nan], [1, 1], "birth_years must be integers"),
        ([1950, 1951], [1.0, np.inf], "point_counts must be integers"),
        ([10**20, 10**20 + 1], [1, 1], "birth_years must fit in a 64-bit integer"),
        (np.array([2**64 - 2, 2**64 - 1], dtype=np.uint64), [1, 1],
         "birth_years must fit in a 64-bit integer"),
    ], ids=[f"years{k}-counts{k}" for k in range(6)])
    def test_non_integral_axes_rejected(self, years, counts, message):
        with pytest.raises(StructuralError, match=message):
            CEISeries(birth_years=years, values=[1.0, 2.0], point_counts=counts)

    def test_integral_float_axes_accepted(self):
        s = CEISeries(birth_years=[1950.0, 1951.0], values=[1.0, 2.0],
                      point_counts=[1.0, 2.0])
        assert list(s) == [(1950, 1.0, 1), (1951, 2.0, 2)]

    def test_large_int_beside_a_float_is_not_rounded(self):
        # as one numpy array the list would be float64, rounding 2**60 + 1
        s = CEISeries(birth_years=[1950, 1951], values=[1.0, 1.0],
                      point_counts=[2**60 + 1, 1.0])
        assert s.point_counts.tolist() == [2**60 + 1, 1]

    @pytest.mark.parametrize("row, message", [
        pytest.param("100000000000000000000,1.0,1",
                     "birth_years must fit in a 64-bit integer",
                     id="100000000000000000000,1.0,1"),
        pytest.param("1950,1.0,100000000000000000000",
                     "point_counts must fit in a 64-bit integer",
                     id="1950,1.0,100000000000000000000"),
    ])
    def test_from_csv_beyond_int64(self, row, message):
        with pytest.raises(StructuralError, match=message):
            CEISeries.from_csv("birth_year,cei,point_count\n" + row + "\n")

    @pytest.mark.parametrize("text, message", [
        ("1900.0,1.0,1\n", "row 2: invalid literal for int() with base 10: '1900.0'"),
        ("1900,1.0,1\n\nTrue,1.0,1\n",
         "row 4: invalid literal for int() with base 10: 'True'"),
        ("1900,x,1\n", "row 2: could not convert string to float: 'x'"),
        ("1900,1.0,1.5\n", "row 2: invalid literal for int() with base 10: '1.5'"),
        ("1900,1.0\n", "row 2: expected 3 columns, got 2: ['1900', '1.0']"),
    ], ids=["float-year", "bool-year-after-blank", "word-value", "float-count",
            "two-columns"])
    def test_from_csv_bad_number_names_its_row(self, text, message):
        with pytest.raises(ValueError) as exc:
            CEISeries.from_csv("birth_year,cei,point_count\n" + text)
        assert str(exc.value) == "malformed series CSV: " + message

    def test_csv_round_trip(self):
        s = series_of([0.1 + 0.2, 0.0, 7e-17], counts=[3, 0, 1],
                      sex=Sex.FEMALE, source_label="src", options_label="opt")
        text = s.to_csv()
        assert text.splitlines()[0] == "birth_year,cei,point_count"
        again = CEISeries.from_csv(text, source_label="src")
        assert again == replace(s, sex=None, options_label="")

    def test_from_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            CEISeries.from_csv("year,value\n1900,1.0")

    @pytest.mark.parametrize("text", [
        "birth_year,cei,point_count\n1900,1.0,3\r1901,2.0,3\n",
        "birth_year,cei,point_count\n1900," + "1" * 140_000 + ",3\n",
    ], ids=["bare-cr", "field-over-reader-limit"])
    def test_from_csv_reader_errors_are_value_errors(self, text):
        with pytest.raises(ValueError, match="malformed series CSV"):
            CEISeries.from_csv(text)

    def test_arrays_are_read_only_views(self):
        years = np.arange(1950, 1953)
        values = np.array([1.0, 0.0, 2.5])
        counts = np.array([2, 0, 1])
        s = CEISeries(birth_years=years, values=values, point_counts=counts)
        for arr in (s.birth_years, s.values, s.point_counts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        for arr in (years, values, counts):
            assert arr.flags.writeable
        assert np.shares_memory(s.values, values)

    @pytest.mark.parametrize("name, value", [
        ("birth_years", np.arange(1901, 1904)),
        ("values", np.array([1.0, 2.0, 4.0])),
        ("point_counts", np.array([1, 1, 2])),
        ("sex", Sex.MALE),
        ("source_label", "other"),
        ("options_label", "z_scale=2.0"),
    ])
    def test_each_field_alone_breaks_equality(self, name, value):
        s = series_of([1.0, 2.0, 3.0], sex=Sex.TOTAL, source_label="lbl",
                      options_label="z_scale=1.0")
        assert s == replace(s)
        assert replace(s, **{name: value}) != s

    def test_other_types_are_unequal(self):
        s = series_of([1.0, 2.0])
        assert s != s.to_csv()
        assert s != list(s)
        assert s.__eq__(object()) is NotImplemented

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.one_of(_EDGE_INTS, _EDGE_INTS.map(float), st.booleans()),
                 max_size=4),
        st.tuples(_EDGE_INTS, st.integers(1, 4)).map(
            lambda p: list(range(p[0], p[0] + p[1])))))
    def test_birth_years_follow_the_surface_axis_rule(self, years):
        n = len(years)

        def rejection(build):
            try:
                return build()
            except StructuralError as exc:
                return str(exc)

        series = rejection(lambda: CEISeries(birth_years=years, values=np.ones(n),
                                             point_counts=np.ones(n, dtype=int)))
        surface = rejection(lambda: cg.MortalitySurface(years=years, ages=[0],
                                                        rates=np.ones((n, 1))))
        if isinstance(surface, str):
            assert series == "birth_" + surface
        else:
            assert np.array_equal(series.birth_years, surface.years)
            assert series.birth_years.dtype == surface.years.dtype

    def test_scalar_axes_rejected_like_empty_ones(self):
        with pytest.raises(StructuralError,
                           match="^birth_years must be a nonempty 1-D sequence$"):
            CEISeries(birth_years=1950, values=1.0, point_counts=1)
        with pytest.raises(StructuralError,
                           match="^point_counts must be a nonempty 1-D sequence$"):
            CEISeries(birth_years=[1950], values=[1.0], point_counts=1)
        with pytest.raises(StructuralError, match="^years must be a nonempty 1-D sequence$"):
            cg.MortalitySurface(years=1900, ages=[0], rates=[[1.0]])

    def test_sex_name_is_stored_as_its_member(self):
        named = CEISeries(birth_years=[1900, 1901], values=[1.0, 2.0],
                          point_counts=[1, 1], sex="female")
        member = replace(named, sex=Sex.FEMALE)
        assert named.sex is Sex.FEMALE
        assert named.to_json() == member.to_json()
        assert render_series_chart([named]) == render_series_chart([member])
        with pytest.raises(ValueError, match="'women' is not a valid Sex"):
            replace(named, sex="women")

    def test_json_structure(self):
        s = series_of([1.0, 2.0], sex=Sex.TOTAL, source_label="lbl")
        obj = json.loads(s.to_json())
        assert obj["sex"] == "total"
        assert obj["source_label"] == "lbl"
        assert obj["entries"][1] == {"birth_year": 1901, "cei": 2.0,
                                     "point_count": 1}


class TestCeiSeries:
    def test_plane_all_zero(self):
        t = np.arange(10)[:, None]
        x = np.arange(8)[None, :]
        surface = make_surface(0.2 * t + 0.3 * x + 1.0, first_year=1900)
        field = cg.compute_geometry_field(surface)
        s = cg.cei_series(field, surface)
        assert np.abs(s.values).max() < 1e-12

    def test_covered_cohort_range(self):
        surface = make_surface(np.ones((5, 4)) + np.arange(5)[:, None] * 0.1,
                               first_year=2000, first_age=0)
        field = cg.compute_geometry_field(surface)
        s = cg.cei_series(field, surface)
        assert s.first_year == 2000 - 3
        assert s.last_year == 2004 - 0
        # corner cohorts touch only border points
        assert s.point_counts[0] == 0 and s.values[0] == 0.0
        assert s.point_counts[-1] == 0 and s.values[-1] == 0.0

    def test_brute_force_bit_exact(self):
        rng = np.random.default_rng(13)
        z = rng.uniform(0.05, 1.0, size=(12, 9))
        z[4, 4] = np.nan
        surface = make_surface(z, first_year=1950, first_age=10)
        field = cg.compute_geometry_field(surface)
        s = cg.cei_series(field, surface)

        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for i, year in enumerate(surface.years):
            for j, age in enumerate(surface.ages):
                if not field.valid[i, j]:
                    continue
                c = int(year) - int(age)
                nc = field.normal_curvatures[i, j]
                sums[c] = sums.get(c, 0.0) + abs(nc[cg.COHORT] - nc[cg.CROSS])
                counts[c] = counts.get(c, 0) + 1
        for y, v, n in s:
            assert v == sums.get(y, 0.0)  # bit-exact, not approximate
            assert n == counts.get(y, 0)

    def test_mismatched_surface_rejected(self):
        surface = make_surface(np.ones((5, 4)))
        other = make_surface(np.ones((5, 5)))
        field = cg.compute_geometry_field(surface)
        with pytest.raises(ConsistencyError):
            cg.cei_series(field, other)

    def test_non_integer_axes_rejected(self):
        surf = smooth.gaussian_bump(4.0, domain=((-20, 20), (-20, 20)))
        grid = smooth.sample_grid(surf, -5, 5, -5, 5, step=0.5)
        field = cg.compute_geometry_field(grid)
        with pytest.raises(ConsistencyError):
            cg.cei_series(field, make_surface(np.ones(grid.shape)))

    def test_mean_normalization(self):
        rng = np.random.default_rng(19)
        surface = make_surface(rng.uniform(0.1, 1.0, size=(8, 6)))
        field = cg.compute_geometry_field(surface)
        total = cg.cei_series(field, surface, normalization="sum")
        mean = cg.cei_series(field, surface, normalization="mean")
        for (y, v_sum, n), (_, v_mean, n2) in zip(total, mean):
            assert n == n2
            if n == 0:
                assert v_mean == 0.0
            else:
                assert v_mean == v_sum / n

    def test_mean_normalization_is_labelled(self):
        surface = make_surface(np.full((5, 5), 0.5))
        field = cg.compute_geometry_field(surface)
        label = field.options.label()
        assert cg.cei_series(field, surface).options_label == label
        mean = cg.cei_series(field, surface, normalization="mean")
        assert mean.options_label == label + ",normalization=mean"

    def test_unknown_normalization(self):
        surface = make_surface(np.ones((4, 4)))
        field = cg.compute_geometry_field(surface)
        with pytest.raises(ParameterError):
            cg.cei_series(field, surface, normalization="median")

    def test_metadata_propagates(self):
        surface = make_surface(np.ones((4, 4)) * 0.5, sex=Sex.MALE, label="lbl")
        field = cg.compute_geometry_field(surface)
        s = cg.cei_series(field, surface)
        assert s.sex is Sex.MALE
        assert s.source_label == "lbl"
        assert "z_scale" in s.options_label

    @pytest.mark.filterwarnings("error")
    def test_axes_past_int64_rejected_without_warning(self):
        # Integral floats that no int64 holds: the field cannot be the
        # geometry of any surface, and nothing is cast to find that out.
        grid = SurfaceGrid(t=2.0**63 + 2048 * np.arange(5), x=np.arange(5.0),
                           z=np.full((5, 5), 0.5))
        field = cg.compute_geometry_field(grid)
        with pytest.raises(ConsistencyError):
            cg.cei_series(field, make_surface(np.full((5, 5), 0.5)))


class TestTrim:
    def test_count_example(self):
        s = series_of(np.linspace(1, 2, 106), first_year=1900)
        trimmed = cg.trim_series(s, 1970)
        assert len(trimmed) == 71
        assert trimmed.first_year == 1900 and trimmed.last_year == 1970

    def test_default_trim_year(self):
        s = series_of(np.ones(200), first_year=1850)
        assert cg.trim_series(s).last_year == 1970

    def test_trim_below_start_empty(self):
        s = series_of([1.0, 2.0], first_year=1990)
        with pytest.raises(EmptySeriesError):
            cg.trim_series(s, 1970)

    def test_idempotent(self):
        s = series_of(np.linspace(1, 3, 50), first_year=1940)
        once = cg.trim_series(s, 1970)
        twice = cg.trim_series(once, 1970)
        assert once == twice

    def test_windowed_monotonicity(self):
        from cohortgeo.analytics import _windowed

        s = series_of(np.linspace(1, 3, 80), first_year=1920)
        _, inner_years, _ = _windowed(s, (1940, 1950))
        _, outer_years, _ = _windowed(s, (1935, 1955))
        assert set(inner_years) <= set(outer_years)


class TestAice:
    def test_hand_example(self):
        report = cg.aice(series_of([1.0, 2.0, 3.0], first_year=1930),
                         window=(1930, 1932))
        assert report.mean == 2.0
        assert report.sample_stdev == 1.0
        assert report.aice == 0.5

    def test_constant_series_zero(self):
        report = cg.aice(series_of([4.0] * 10, first_year=1930),
                         window=(1930, 1939))
        assert report.aice == 0.0

    def test_sample_size_error(self):
        s = series_of([1.0, 2.0, 3.0], first_year=1930)
        with pytest.raises(SampleSizeError):
            cg.aice(s, window=(1930, 1930))
        with pytest.raises(SampleSizeError):
            cg.aice(s, window=(1800, 1810))

    def test_zero_mean_undefined(self):
        s = series_of([0.0, 0.0, 0.0], first_year=1930, counts=[0, 0, 0])
        with pytest.raises(UndefinedAiceError):
            cg.aice(s, window=(1930, 1932))

    def test_reversed_window(self):
        s = series_of([1.0, 2.0, 3.0], first_year=1930)
        with pytest.raises(ParameterError):
            cg.aice(s, window=(1932, 1930))

    def test_reversed_window_refused_by_a_hand_built_report(self):
        with pytest.raises(ParameterError, match=r"^window \[1970, 1922\] is reversed$"):
            CohortReport(window=(1970, 1922), mean=1.0, sample_stdev=0.5)

    def test_reversed_window_refused_by_the_chart(self):
        # it used to draw the chart with no shading
        s = series_of(np.linspace(1.0, 2.0, 80), first_year=1900)
        with pytest.raises(ParameterError, match=r"^window \[1950, 1920\] is reversed$"):
            render_series_chart([s], window=(1950, 1920))

    @pytest.mark.parametrize("values", [[1e200, 1e-200, 5.0], [1.7e308] * 3],
                             ids=["stdev-overflows", "mean-overflows"])
    def test_overflowing_window_undefined_without_warnings(self, values):
        s = series_of(values, first_year=1930)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedAiceError, match="not finite"):
                cg.aice(s, window=(1930, 1932))

    @pytest.mark.parametrize("year", [1922.9, 1922.0, True],
                             ids=["fraction", "float", "bool"])
    def test_birth_year_parameters_must_be_integers(self, year):
        # truncating (1922.9, 1970) would analyse cohort 1922, below the window
        s = series_of(np.linspace(1.0, 2.0, 80), first_year=1900)
        window = f"window bounds must be integers, not {(year, 1970)!r}"
        for call, message in (
                (lambda: cg.aice(s, (year, 1970)), window),
                (lambda: cg.aice(s, (1922, year)),
                 f"window bounds must be integers, not {(1922, year)!r}"),
                (lambda: cg.detect_peaks(s, (year, 1970)), window),
                (lambda: CohortReport(window=(year, 1970)), window),
                (lambda: cg.trim_series(s, year),
                 f"max_birth_year must be an integer, not {year!r}"),
                (lambda: cg.u_shape_diagnostic(s, year),
                 f"cutoff_year must be an integer, not {year!r}")):
            with pytest.raises(ParameterError) as exc:
                call()
            assert str(exc.value) == message
        report = cg.aice(s, (np.int64(1922), np.int32(1970)))
        assert report.window == (1922, 1970)
        assert [type(y) for y in report.window] == [int, int]
        assert cg.trim_series(s, np.int64(1950)).last_year == 1950
        assert cg.u_shape_diagnostic(s, np.int64(1970)).cutoff_year == 1970

    @pytest.mark.parametrize("window", [None, 1922, (1922,), (1922, 1950, 1),
                                        (1922.0, 1970)],
                             ids=["none", "int", "single", "triple", "float-bound"])
    def test_window_must_be_a_pair_of_integers(self, window):
        s = series_of(np.linspace(1.0, 2.0, 80), first_year=1900)
        calls = [lambda: cg.aice(s, window), lambda: cg.detect_peaks(s, window),
                 lambda: CohortReport(window=window)]
        if window is not None:  # a chart without a window is unshaded
            calls.append(lambda: render_series_chart([s], window=window))
        for call in calls:
            with pytest.raises(ParameterError) as exc:
                call()
            assert str(exc.value) == f"window bounds must be integers, not {window!r}"

    def test_list_window_reads_as_the_tuple(self):
        s = series_of(np.linspace(1.0, 2.0, 80), first_year=1900)
        assert cg.aice(s, [1922, 1970]) == cg.aice(s, (1922, 1970))
        assert cg.detect_peaks(s, [1922, 1970]) == cg.detect_peaks(s, (1922, 1970))
        assert CohortReport(window=[1922, 1970]).window == (1922, 1970)
        assert (render_series_chart([s], window=[1922, 1970])
                == render_series_chart([s], window=(1922, 1970)))

    def test_scale_examples(self):
        a = cg.aice(series_of([1.0, 2.0, 3.0], first_year=1930), (1930, 1932))
        b = cg.aice(series_of([10.0, 20.0, 30.0], first_year=1930), (1930, 1932))
        assert a.aice == b.aice == 0.5
        c = cg.aice(series_of([5.0] * 3, first_year=1930), (1930, 1932))
        d = cg.aice(series_of([50.0] * 3, first_year=1930), (1930, 1932))
        assert c.aice == d.aice == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.01, 1e6, allow_nan=False), min_size=2,
                        max_size=40),
        k=st.floats(1e-6, 1e6, allow_nan=False),
    )
    def test_scale_invariance_property(self, values, k):
        s = series_of(values, first_year=1900)
        window = (1900, 1900 + len(values) - 1)
        base = cg.aice(s, window).aice
        scaled = cg.aice(replace(s, values=s.values * k), window).aice
        assert abs(base - scaled) <= 1e-12 * max(1.0, abs(base))

    def test_translation_strictly_decreases(self):
        s = series_of([1.0, 2.0, 3.0], first_year=1930)
        shifted = series_of([2.5, 3.5, 4.5], first_year=1930)
        w = (1930, 1932)
        assert cg.aice(shifted, w).aice < cg.aice(s, w).aice


class TestRollingMedian:
    def test_shrinks_symmetrically(self):
        out = rolling_median_baseline(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
        assert list(out) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_even_width_rejected(self):
        with pytest.raises(ParameterError):
            rolling_median_baseline(np.ones(5), 4)

    def test_median_suppresses_spike(self):
        v = np.ones(11)
        v[5] = 100.0
        out = rolling_median_baseline(v, 5)
        assert out[5] == 1.0


class TestDetectPeaks:
    def test_rectangular_pulse(self):
        values = np.ones(40)
        values[12:18] = 3.0  # six elevated years
        s = series_of(values, first_year=1900)
        # a 6-year run needs w > 2*6 - 1 so the run is a minority of its own
        # window; the default w = 11 would put the median inside the pulse
        report = cg.detect_peaks(s, window=(1900, 1939), baseline_window=15)
        assert len(report.peaks) == 1
        peak = report.peaks[0]
        assert (peak.start_year, peak.end_year) == (1912, 1917)
        assert peak.width_years == 6
        assert peak.max_cei == 3.0
        assert report.min_gap == report.max_gap == 6

    def test_constant_series_no_peaks(self):
        s = series_of(np.full(30, 2.0), first_year=1900)
        report = cg.detect_peaks(s, window=(1900, 1929))
        assert report.peaks == ()
        assert report.min_gap is None and report.max_gap is None

    def test_two_peaks_gap_extremes(self):
        values = np.ones(60)
        values[10:12] = 5.0   # width 2
        values[30:37] = 5.0   # width 7
        s = series_of(values, first_year=1900)
        report = cg.detect_peaks(s, window=(1900, 1959), baseline_window=15)
        assert [p.width_years for p in report.peaks] == [2, 7]
        assert report.min_gap == 2
        assert report.max_gap == 7

    def test_window_shorter_than_baseline(self):
        s = series_of(np.ones(8), first_year=1900)
        with pytest.raises(SampleSizeError):
            cg.detect_peaks(s, window=(1900, 1907), baseline_window=11)

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        values = rng.uniform(0.5, 2.0, size=50)
        s = series_of(values, first_year=1900)
        r1 = cg.detect_peaks(s, window=(1900, 1949))
        r2 = cg.detect_peaks(s, window=(1900, 1949))
        assert r1 == r2

    def test_peak_invariants(self):
        with pytest.raises(ValueError):
            Peak(start_year=1950, end_year=1940, max_cei=1.0)
        assert Peak(start_year=1940, end_year=1950, max_cei=1.0).width_years == 11

    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf"),
                                       True, None, "2",
                                       pytest.param(10**400, id="10**400")])
    def test_threshold_must_be_positive_and_finite(self, ratio):
        s = series_of(np.ones(20), first_year=1900)
        with pytest.raises(ParameterError, match="positive and finite"):
            cg.detect_peaks(s, window=(1900, 1919), threshold_ratio=ratio)

    def test_threshold_overflowing_to_inf_elevates_nothing(self):
        # 1e308 times the baseline of 2.0 overflows to inf
        values = np.full(20, 2.0)
        values[8:11] = 1e300
        s = series_of(values, first_year=1900)
        report = cg.detect_peaks(s, window=(1900, 1919), threshold_ratio=1e308)
        assert report.peaks == ()
        assert report.min_gap is None and report.max_gap is None

    @pytest.mark.parametrize("width", [11.0, 11.5, True],
                             ids=["float", "fraction", "bool"])
    def test_baseline_window_must_be_an_integer(self, width):
        s = series_of(np.ones(20), first_year=1900)
        with pytest.raises(ParameterError,
                           match="^baseline window must be a positive odd integer$"):
            cg.detect_peaks(s, window=(1900, 1919), baseline_window=width)
        assert cg.detect_peaks(s, window=(1900, 1919),
                               baseline_window=np.int64(11)).peaks == ()

    def test_hand_built_report_works_out_aice_and_gaps(self):
        peaks = (Peak(1910, 1911, 3.0), Peak(1930, 1936, 5.0))
        report = CohortReport(window=(np.int64(1900), 1950), mean=2.0,
                              sample_stdev=0.5, peaks=peaks)
        assert json.loads(report.to_json()) == {
            "window": [1900, 1950], "mean": 2.0, "sample_stdev": 0.5,
            "aice": 0.25, "peaks": [
                {"start_year": 1910, "end_year": 1911, "width_years": 2, "max_cei": 3.0},
                {"start_year": 1930, "end_year": 1936, "width_years": 7, "max_cei": 5.0}],
            "min_gap": 2, "max_gap": 7,
        }
        assert [type(y) for y in report.window] == [int, int]
        for peaks in (None, ()):
            bare = CohortReport(window=(1900, 1950), peaks=peaks)
            assert (bare.aice, bare.min_gap, bare.max_gap) == (None, None, None)
        for name in ("aice", "min_gap", "max_gap"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                CohortReport(window=(1900, 1950), **{name: 2})
        with pytest.raises(UndefinedAiceError, match="windowed mean is not positive"):
            CohortReport(window=(1900, 1950), mean=0.0, sample_stdev=0.0)

    def test_hand_built_report_refuses_a_negative_stdev(self):
        with pytest.raises(UndefinedAiceError,
                           match="^aice undefined: windowed stdev is negative$"):
            CohortReport(window=(1900, 1950), mean=1.0, sample_stdev=-1.0)
        for zero in (0.0, -0.0):  # np.std of a constant window
            assert CohortReport(window=(1900, 1950), mean=1.0, sample_stdev=zero).aice == 0.0

    def test_report_and_peaks_store_plain_numbers(self):
        report = CohortReport(window=(1900, 1950), mean=2, sample_stdev=1)
        assert "\nmean,2.0\n" in report.to_csv()
        assert '"mean": 2.0,' in report.to_json()
        peak = Peak(np.int64(1900), np.int64(1902), np.float32(0.5))
        assert [type(v) for v in (peak.start_year, peak.end_year, peak.max_cei)] == [
            int, int, float]
        report = CohortReport(window=(1900, 1950), mean=np.float32(0.5),
                              sample_stdev=np.float64(0.25), peaks=(peak,))
        assert json.loads(report.to_json()) == {
            "window": [1900, 1950], "mean": 0.5, "sample_stdev": 0.25, "aice": 0.5,
            "peaks": [{"start_year": 1900, "end_year": 1902, "width_years": 3,
                       "max_cei": 0.5}],
            "min_gap": 3, "max_gap": 3,
        }

    @pytest.mark.parametrize("years", [(1900.5, 1902), (1900, 1902.0), (True, 1902)],
                             ids=["fraction", "float", "bool"])
    def test_peak_years_must_be_integers(self, years):
        with pytest.raises(ParameterError,
                           match=r"^peak years must be integers, not \("):
            Peak(*years, 1.0)

    @pytest.mark.parametrize("summary", [cg.aice, cg.detect_peaks])
    def test_empty_window_named_by_int_bounds(self, summary):
        s = series_of(np.ones(20), first_year=1900)
        with pytest.raises(SampleSizeError, match=r"window \(1990, 1995\) contains no|"
                           r"in window \(1990, 1995\), got 0$"):
            summary(s, window=(np.int64(1990), np.int64(1995)))

    def test_aice_and_gaps_halves_merge_by_replace(self):
        values = np.linspace(1.0, 2.0, 60)
        values[10:12] = 5.0   # width 2
        values[30:37] = 5.0   # width 7
        s = series_of(values, first_year=1900)
        window = (1900, 1959)
        dispersion = cg.aice(s, window)
        gaps = cg.detect_peaks(s, window, baseline_window=15)
        merged = replace(dispersion, peaks=gaps.peaks)
        assert merged == CohortReport(window=window, mean=dispersion.mean,
                                      sample_stdev=dispersion.sample_stdev,
                                      peaks=gaps.peaks)
        assert merged.aice == dispersion.aice == dispersion.sample_stdev / dispersion.mean
        assert (merged.min_gap, merged.max_gap) == (gaps.min_gap, gaps.max_gap) == (2, 7)
        assert list(json.loads(merged.to_json())) == [
            "window", "mean", "sample_stdev", "aice", "peaks", "min_gap", "max_gap"]

    def test_report_json(self):
        values = np.ones(40)
        values[12:18] = 3.0
        s = series_of(values, first_year=1900)
        report = cg.detect_peaks(s, window=(1900, 1939), baseline_window=15)
        obj = json.loads(report.to_json())
        assert obj["window"] == [1900, 1939]
        assert obj["min_gap"] == 6
        assert obj["peaks"][0]["start_year"] == 1912


def scan_peaks(years, values, baseline_window, threshold_ratio):
    """Independent oracle for ``detect_peaks``: walk the elevated mask and
    close a peak at the end of each run."""
    baseline = rolling_median_baseline(values, baseline_window)
    elevated = values > threshold_ratio * baseline
    peaks = []
    k = 0
    n = years.size
    while k < n:
        if elevated[k]:
            start = k
            while k + 1 < n and elevated[k + 1]:
                k += 1
            peaks.append(Peak(
                start_year=int(years[start]),
                end_year=int(years[k]),
                max_cei=float(np.max(values[start:k + 1])),
            ))
        k += 1
    return tuple(peaks)


class TestDetectPeaksOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, 3.0, 1e-3, 7.5]),
                        min_size=1, max_size=40),
        window=st.tuples(st.integers(1890, 1950), st.integers(0, 50)),
        half_width=st.integers(0, 6),
        threshold_ratio=st.sampled_from([0.5, 1.0, 1.25, 2.0, 1e-9]),
    )
    def test_matches_elevated_run_scan(self, values, window, half_width,
                                       threshold_ratio):
        s = series_of(values, first_year=1900)
        window = (window[0], window[0] + window[1])
        keep = (s.birth_years >= window[0]) & (s.birth_years <= window[1])
        years, vals = s.birth_years[keep], s.values[keep]
        width = 2 * half_width + 1
        if years.size < width:
            with pytest.raises(SampleSizeError):
                cg.detect_peaks(s, window, width, threshold_ratio)
            return
        report = cg.detect_peaks(s, window, width, threshold_ratio)
        peaks = scan_peaks(years, vals, width, threshold_ratio)
        assert report.peaks == peaks
        widths = [p.width_years for p in peaks]
        assert report.min_gap == (min(widths) if widths else None)
        assert report.max_gap == (max(widths) if widths else None)


class TestUShape:
    def test_rising_then_cliff(self):
        values = np.concatenate([np.linspace(1.0, 5.0, 30), [0.0]])
        s = series_of(values, first_year=1960)
        report = cg.u_shape_diagnostic(s, cutoff_year=1970)
        assert report.slope > 0
        assert report.drop_start_year == 1960 + 30

    def test_flat_no_drop(self):
        s = series_of(np.full(40, 2.0), first_year=1950)
        report = cg.u_shape_diagnostic(s, cutoff_year=1970)
        assert abs(report.slope) < 1e-12  # polyfit noise, not exactly zero
        assert report.drop_start_year is None

    def test_cutoff_beyond_series(self):
        s = series_of([1.0, 2.0], first_year=1900)
        report = cg.u_shape_diagnostic(s, cutoff_year=1970)
        assert report.n_points == 0
        assert report.slope is None
        assert report.drop_start_year is None

    def test_mild_decline_not_flagged(self):
        # terminal sag that loses less than half its height is not a cliff
        values = np.concatenate([np.linspace(1.0, 4.0, 20), [3.9, 3.8]])
        s = series_of(values, first_year=1965)
        report = cg.u_shape_diagnostic(s, cutoff_year=1965)
        assert report.drop_start_year is None

    @pytest.mark.parametrize("first_year", [1970, 10**9, 2**52, -2**53])
    def test_slope_exact_far_from_year_zero(self, first_year):
        # the fit runs on years since the first one: raw years this large
        # leave polyfit's design matrix rank-deficient
        s = series_of(0.37 * np.arange(30), first_year=first_year)
        report = cg.u_shape_diagnostic(s, cutoff_year=first_year)
        assert abs(report.slope - 0.37) < 1e-12


class TestGoldenBytes:
    """sha256 digests of the chart and report texts for two hand-valued
    series. They pin every emitted byte: markup, attribute order, number
    formatting, escaping and key order."""

    A = [0.0, 1.2, 0.9, 1.1, 1.0, 3.5, 4.25, 1.05, 0.95, 1.0, 1.1, 0.9, 1.0,
         2.75, 1.0, 1.2, 0.8, 1.0, 1.1, 1 / 3, 1.0, 1.0, 5.5, 1.0, 0.9]
    B = [0.5, 0.7, 0.1 + 0.2, 0.6, 2.0, 0.55, 0.5, 0.45, 1e-3, 0.5,
         0.65, 0.5, 0.4, 0.5, 7e-17, 0.5, 0.6, 0.5, 0.5, 0.45]
    WINDOW = (1902, 1922)
    DIGESTS = {
        "svg": "d61658cd236224c54c346bd9392ca58300fd816a2ca6307338ba5bccdc8c8bf7",
        "aice_json": "3b8b7b4a74c0ed98b7d0d7e5ccd9676cffb330bf2b99410ce75aed215fc57565",
        "aice_csv": "b298d2f39ddc9cb379ba9bfc6b5dfe96230ef0ede8435018a0b62880ccda6bba",
        "gaps_json": "594a7acbf0bc034437f13242c0beff9caf6498c0faa6a8e04146698a70e6b78f",
        "gaps_csv": "59ed3e9fcd9d42520fdd07bc61737322839f51f91b838639732dfd96b20d1190",
        "series_csv": "2f2c465de74bb24f2a16b1e0085c6e68dc963044d25fba83ec2075654e547d78",
        "series_json": "9bf8c7657d9f6203f655b5e52e2562e1e05557e146bc5eb1785c172d0a1766cb",
    }

    @pytest.fixture
    def texts(self):
        a = CEISeries(birth_years=np.arange(1900, 1925), values=np.array(self.A),
                      point_counts=np.array([0] + [3] * 24), sex=Sex.FEMALE,
                      source_label="cohort-A", options_label="z1")
        b = CEISeries(birth_years=np.arange(1903, 1923), values=np.array(self.B),
                      point_counts=np.full(20, 2), source_label="cohort-B")
        report = cg.aice(a, self.WINDOW)
        gaps = cg.detect_peaks(a, self.WINDOW)
        # one two-year and one single-year peak: both bracket-label forms
        assert [(p.start_year, p.end_year) for p in gaps.peaks] == [
            (1905, 1906), (1913, 1913)]
        trimmed = cg.trim_series(a, 1920)
        shown = replace(trimmed, values=trimmed.values * 2.0)
        legend = [replace(a, source_label="a & <A>", sex=None),
                  replace(b, source_label='b "B"')]
        return {
            "svg": render_series_chart(legend, title='A&B <x> "q"',
                                       window=self.WINDOW, peaks=gaps.peaks),
            "aice_json": report.to_json(), "aice_csv": report.to_csv(),
            "gaps_json": gaps.to_json(), "gaps_csv": gaps.to_csv(),
            "series_csv": shown.to_csv(), "series_json": shown.to_json(),
        }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, texts, name):
        digest = hashlib.sha256(texts[name].encode()).hexdigest()
        assert digest == self.DIGESTS[name]
