"""Checks on HMD-shaped planted files, where no analytic answer exists.

With year and age steps of 1, HMD rates make the surface nearly flat, so
each normal curvature reduces to a halved second difference of the rates
and nc_cohort - nc_cross to half the cross difference of the 3x3
neighbourhood. ``linearized_cei`` sums that from the rates alone, as an
oracle for the kernel independent of its chords, tangents and ``eigh``.

The AICE properties pin when the index ranks cohort effects: across
``z_scale`` up to 2, but not across files of different population size or
calendar span. The peak property pins that noise alone makes one-year
peaks, so a ``min_gap`` of 1 on noisy data can be noise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cohortgeo import (
    GeometryOptions,
    MortalitySurface,
    Sex,
    aice,
    cei_series,
    compute_geometry_field,
    detect_peaks,
    parse_hmd,
    trim_series,
)
from cohortgeo.analytics import DEFAULT_WINDOW

from conftest import PLANTED_RADIX, planted_hmd_text

SEEDS = range(4)
AMPLITUDES = (0.0, 0.1, 0.3)


@lru_cache(maxsize=None)
def planted_surface(seed: int, amplitude: float, n_years: int = 110,
                    radix: float = PLANTED_RADIX) -> MortalitySurface:
    text = planted_hmd_text(seed, amplitude, n_years=n_years, radix=radix)
    return parse_hmd(text).surfaces[Sex.TOTAL]


def window_series(surface: MortalitySurface, z_scale: float = 1.0):
    field = compute_geometry_field(surface, GeometryOptions(z_scale=z_scale))
    return trim_series(cei_series(field, surface))


def window_aice(surface: MortalitySurface, z_scale: float = 1.0) -> float:
    return aice(window_series(surface, z_scale)).aice


def linearized_cei(surface: MortalitySurface) -> tuple[np.ndarray, np.ndarray]:
    """Birth years and sum over each cohort of |m[i-1,j-1] + m[i+1,j+1]
    - m[i-1,j+1] - m[i+1,j-1]| / 2, over the interior points whose whole
    3x3 neighbourhood is present, as the kernel skips the others."""
    m = surface.rates
    cross = np.abs(m[:-2, :-2] + m[2:, 2:] - m[:-2, 2:] - m[2:, :-2]) / 2
    full = sliding_window_view(~np.isnan(m), (3, 3)).all(axis=(2, 3))
    cohorts = surface.years[1:-1, None] - surface.ages[None, 1:-1]
    first = int(surface.years[0] - surface.ages[-1])
    n = int(surface.years[-1] - surface.ages[0]) - first + 1
    sums = np.bincount(cohorts[full] - first, weights=cross[full], minlength=n)
    return np.arange(first, first + n), sums


def assert_kernel_matches_linearized(surface: MortalitySurface) -> None:
    series = window_series(surface)
    years, oracle = linearized_cei(surface)
    lo, hi = DEFAULT_WINDOW
    kernel = series.values[(series.birth_years >= lo) & (series.birth_years <= hi)]
    expected = oracle[(years >= lo) & (years <= hi)]
    assert kernel.size == expected.size == hi - lo + 1
    np.testing.assert_allclose(kernel, expected, rtol=1e-4, atol=0)
    expected_aice = np.std(expected, ddof=1) / np.mean(expected)
    assert aice(series).aice == pytest.approx(expected_aice, rel=1e-4, abs=0)


class TestLinearizedOracle:
    # Largest errors seen on seeds 0-7 at amplitudes 0-0.5: 3.1e-5 per
    # cohort and 5.2e-6 for AICE; with missing cells 1.2e-5 and 1.2e-6.

    @pytest.mark.parametrize("amplitude", AMPLITUDES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_window_cohorts_and_aice(self, seed, amplitude):
        assert_kernel_matches_linearized(planted_surface(seed, amplitude))

    @pytest.mark.parametrize("seed", range(3))
    def test_with_missing_cells(self, seed):
        surface = planted_surface(seed, 0.1)
        rates = surface.rates.copy()
        holes = np.random.default_rng(seed).choice(rates.size, 200, replace=False)
        rates.flat[holes] = np.nan
        assert_kernel_matches_linearized(
            MortalitySurface(years=surface.years, ages=surface.ages, rates=rates))

    def test_oracle_skips_points_beside_a_missing_cell(self):
        rates = np.ones((5, 5))
        rates[2, 2] = np.nan  # every interior point touches it
        surface = MortalitySurface(years=range(1900, 1905), ages=range(5), rates=rates)
        assert not linearized_cei(surface)[1].any()
        assert not compute_geometry_field(surface).valid.any()


class TestAiceComparability:
    """Where one AICE may be ranked against another (seeds 0-7 measured)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_population_size_outweighs_the_cohort_effect(self, seed):
        # 2.21-2.26 against 1.51-1.61: the noise of a small population
        # dilutes the ridge's share of the dispersion
        large = window_aice(planted_surface(seed, 0.1, radix=1e7))
        small = window_aice(planted_surface(seed, 0.3, radix=1e5))
        assert large > small

    @pytest.mark.parametrize("seed", SEEDS)
    def test_calendar_span_outweighs_the_cohort_effect(self, seed):
        # files from 1900 ending 1979 and 2029: 0.98-1.12 against 1.47-1.54
        short = window_aice(planted_surface(seed, 0.1, n_years=80))
        long = window_aice(planted_surface(seed, 0.05, n_years=130))
        assert short < long

    @pytest.mark.parametrize("amplitude", AMPLITUDES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rate_scale_up_to_2_keeps_aice(self, seed, amplitude):
        # worst seen 1.1e-5; from z_scale 5 on it moves by 1e-4 and more
        surface = planted_surface(seed, amplitude)
        base = window_aice(surface)
        for z_scale in (0.01, 0.1, 0.5, 2.0):
            assert window_aice(surface, z_scale) == pytest.approx(base, rel=1e-4, abs=0)


class TestNoisePeaks:
    def test_noise_alone_makes_one_year_peaks(self):
        # seeds 0-7 with no planted effect: 7 files report 11 peaks in all,
        # every one a year wide, so min_gap is 1 wherever it is defined
        reports = [detect_peaks(window_series(planted_surface(seed, 0.0)))
                   for seed in range(8)]
        assert sum(bool(r.peaks) for r in reports) >= 6
        assert all(p.width_years == 1 for r in reports for p in r.peaks)
        assert {r.min_gap for r in reports} <= {1, None}
