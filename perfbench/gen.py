"""Seeded inputs for the benchmark workloads.

Rates come from ``smooth.gompertz_surface`` (one parameter set per sex)
with multiplicative log-normal jitter whose spread follows Poisson noise
of the implied death counts, as in real HMD tables: small at middle ages,
large where few people survive. HMD files use the real Mx 1x1 layout:
title, blank line, header, ``110+`` open age, ``.`` for missing cells and
6-decimal rates. Shapes are fixed per workload and the seed only moves
content (calendar span, jitter, ridge cohort, missing cells), so every
seed asks for the same amount of work.

Planted ridges sit on cohorts inside the default analysis window
1922:1970 that reach age 85 or more inside the grid. On raw rates the
index weights each point by its rate level, so a cohort effect shows as
the window's top cohort only where its cohort reaches old ages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cohortgeo import smooth
from cohortgeo.analytics import DEFAULT_WINDOW
from cohortgeo.surface import MortalitySurface

HEADER = "  Year          Age             Female            Male           Total"
N_AGES = 111          # ages 0..110, the last one written as 110+
RADIX = 1_000_000     # exposure at age 0; deaths = rate * exposure
MAX_SIGMA = 0.3       # cap on the log-scale noise where exposure vanishes
STRESS_SIGMA = 0.01   # log-scale noise of the stress grid
RIDGE_AMPLITUDE = 0.25
RIDGE_WIDTH = 1.5     # exp(-(c - c0)^2 / width), c = year - age

# (female, male, total) Gompertz parameters: base rate, age slope, improvement
_SEX_PARAMS = ((6e-5, 0.092, 0.011), (1.2e-4, 0.087, 0.009), (9e-5, 0.089, 0.010))


@dataclass(frozen=True)
class HmdSpec:
    """One synthetic country file: shape, planted ridge and missing cells."""

    name: str
    first_year: int
    n_years: int
    ridge_cohort: int | None
    with_missing: bool

    @property
    def last_year(self) -> int:
        return self.first_year + self.n_years - 1

    @property
    def cells(self) -> int:
        return self.n_years * N_AGES


def ridge_factor(years: np.ndarray, ages: np.ndarray, cohort: int) -> np.ndarray:
    c = years[:, None] - ages[None, :]
    return 1.0 + RIDGE_AMPLITUDE * np.exp(-((c - cohort) ** 2) / RIDGE_WIDTH)


def poisson_sigma(rates: np.ndarray) -> np.ndarray:
    """Relative sd 1/sqrt(deaths) from a period life table of each year."""
    survivors = RADIX * np.exp(-np.cumsum(rates, axis=1) + rates)
    return np.minimum(MAX_SIGMA, 1.0 / np.sqrt(rates * survivors))


def hmd_rates(spec: HmdSpec, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Three (years x ages) rate matrices, NaN where the file has ``.``."""
    years = np.arange(spec.first_year, spec.last_year + 1)
    ages = np.arange(N_AGES)
    domain = ((spec.first_year - 1.0, spec.last_year + 1.0), (-1.0, N_AGES + 0.0))
    missing = np.zeros((spec.n_years, N_AGES), dtype=bool)
    if spec.with_missing:
        # early years of small populations: no exposure at the oldest ages
        early = max(3, spec.n_years // 4)
        for i in range(early):
            missing[i, N_AGES - 1 - int(rng.integers(1, 6)):] = True
        rows = rng.integers(early, spec.n_years, size=4)
        cols = rng.integers(5, N_AGES - 10, size=4)
        missing[rows, cols] = True
    out = []
    for base, slope, improvement in _SEX_PARAMS:
        surf = smooth.gompertz_surface(base_rate=base, age_slope=slope,
                                       improvement=improvement, domain=domain)
        z = surf.f(years.astype(float)[:, None], ages.astype(float)[None, :])
        z = z * np.exp(rng.normal(0.0, 1.0, z.shape) * poisson_sigma(z))
        if spec.ridge_cohort is not None:
            z = z * ridge_factor(years, ages, spec.ridge_cohort)
        out.append(np.where(missing, np.nan, z))
    return tuple(out)


def _token(v: float) -> str:
    return "." if np.isnan(v) else f"{v:.6f}"


def hmd_text(spec: HmdSpec, rates: tuple[np.ndarray, ...]) -> str:
    lines = [f"{spec.name}, Death rates (period 1x1) \tLast modified: 01 Oct 2026;"
             "  Methods Protocol: v6 (2017)", "", HEADER]
    female, male, total = rates
    for i in range(spec.n_years):
        year = spec.first_year + i
        for age in range(N_AGES):
            label = f"{age}+" if age == N_AGES - 1 else str(age)
            lines.append(f"  {year}          {label:<4}         "
                         f"{_token(female[i, age]):>10}      "
                         f"{_token(male[i, age]):>10}       "
                         f"{_token(total[i, age]):>10}")
    return "\n".join(lines) + "\n"


def csv_matrix_text(rates: np.ndarray) -> str:
    """Bare CSV matrix of one sex column, same 6-decimal values as the file."""
    return "".join(
        ",".join("" if np.isnan(v) else f"{v:.6f}" for v in row) + "\n"
        for row in rates
    )


def panel_specs(rng: np.random.Generator, shapes: list[int],
                ridge_slots: frozenset[int],
                missing_slots: frozenset[int]) -> list[HmdSpec]:
    """Files of the given year counts, ending between 2010 and 2022."""
    specs = []
    for k, n_years in enumerate(shapes):
        last = int(rng.integers(2010, 2023))
        ridge = None
        if k in ridge_slots:
            ridge = int(rng.integers(DEFAULT_WINDOW[0] + 2, last - 85 + 1))
        specs.append(HmdSpec(name=f"Synthland{k}", first_year=last - n_years + 1,
                             n_years=n_years, ridge_cohort=ridge,
                             with_missing=k in missing_slots))
    return specs


def stress_surface(seed: int, n: int = 1000) -> tuple[MortalitySurface, int]:
    """n x n seeded grid with clustered missing cells and a planted ridge.

    The default ``age_slope=0.09`` spans e^90 over 1000 ages and fails the
    surface's own derivative self-check, so slope and improvement are
    divided by n / 100: the grid covers an HMD table's rate range in ten
    times as many steps. Years start in 1901 so that every cohort of the
    analysis window runs across most of the grid.
    """
    rng = np.random.default_rng([seed, n])
    years = np.arange(1901, 1901 + n)
    ages = np.arange(n)
    scale = n / 100.0
    domain = ((years[0] - 1.0, years[-1] + 1.0), (-1.0, n + 0.0))
    surf = smooth.gompertz_surface(base_rate=1e-4, age_slope=0.09 / scale,
                                   improvement=0.01 / scale, domain=domain)
    z = surf.f(years.astype(float)[:, None], ages.astype(float)[None, :])
    z = z * np.exp(rng.normal(0.0, STRESS_SIGMA, z.shape))
    ridge = int(rng.integers(DEFAULT_WINDOW[0] + 3, DEFAULT_WINDOW[1] - 4))
    z = z * ridge_factor(years, ages, ridge)
    for _ in range(12):
        ci, cj = (int(v) for v in rng.integers(12, n - 12, size=2))
        r = int(rng.integers(2, 12))
        ii, jj = np.ogrid[-r:r + 1, -r:r + 1]
        blob = (ii * ii + jj * jj <= r * r) & (rng.random((2 * r + 1,) * 2) < 0.6)
        z[ci - r:ci + r + 1, cj - r:cj + r + 1][blob] = np.nan
    surface = MortalitySurface(years=years, ages=ages, rates=z,
                               source_label=f"stress{n}x{n}")
    return surface, ridge
