"""Shared fixtures: synthetic HMD text builders and real-data discovery.

Real country files are license-gated and not bundled. Tests that need them
look in ``$COHORTGEO_HMD_DIR`` (or ``tests/data/hmd/``) for files matching
``*Mx_1x1*`` and skip with instructions when absent.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import cohortgeo
from cohortgeo import smooth

# Preferred filename prefixes per country; first match wins.
HMD_COUNTRY_PATTERNS = {
    "UK": ("GBR_NP", "GBRTENW", "GBR"),
    "US": ("USA",),
    "Canada": ("CAN",),
    "Japan": ("JPN",),
}

HMD_SKIP_MESSAGE = (
    "needs real HMD Mx 1x1 data for {country}: set COHORTGEO_HMD_DIR or put "
    "files like GBRTENW.Mx_1x1.txt under tests/data/hmd/ (free account at "
    "mortality.org; period death rates, 1x1)"
)


def hmd_data_dir() -> Path:
    env = os.environ.get("COHORTGEO_HMD_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "hmd"


def find_hmd_file(country: str) -> Path | None:
    directory = hmd_data_dir()
    if not directory.is_dir():
        return None
    candidates = [p for p in sorted(directory.iterdir())
                  if p.is_file() and "mx_1x1" in p.name.lower()]
    for prefix in HMD_COUNTRY_PATTERNS[country]:
        for p in candidates:
            if p.name.upper().startswith(prefix.upper()):
                return p
    return None


def require_hmd_file(country: str) -> Path:
    path = find_hmd_file(country)
    if path is None:
        pytest.skip(HMD_SKIP_MESSAGE.format(country=country))
    return path


def package_env(**overrides) -> dict[str, str]:
    """Environment for a child Python that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cohortgeo.__file__))
    return dict(os.environ, PYTHONPATH=src, **overrides)


def make_hmd_text(rows, title="Testland, Death rates (period 1x1)",
                  trailing_blank_lines=0) -> str:
    """Build Mx 1x1 text from (year, age_token, female, male, total) rows."""
    lines = [title, ""]
    lines.append("  Year          Age             Female            Male           Total")
    for year, age, f, m, t in rows:
        lines.append(f"  {year}          {age:>4}           {f:>10}      {m:>10}       {t:>10}")
    lines.extend([""] * trailing_blank_lines)
    return "\n".join(lines) + "\n"


def dense_hmd_rows(years, ages, rate_fn):
    """Complete grid of rows with rates from ``rate_fn(year, age, sex_index)``."""
    rows = []
    for year in years:
        for age in ages:
            f, m, t = (rate_fn(year, age, k) for k in range(3))
            rows.append((year, age, f, m, t))
    return rows


# The rate model of the benchmark's seeded HMD files, so that tests need not
# import the bench: Gompertz rates per sex (female, male, total: base rate,
# age slope, improvement), log-normal jitter whose spread is that of Poisson
# death counts from a period life table, and a ridge on one birth cohort.
PLANTED_SEX_PARAMS = ((6e-5, 0.092, 0.011), (1.2e-4, 0.087, 0.009),
                      (9e-5, 0.089, 0.010))
PLANTED_N_AGES = 111  # ages 0..110, the last one written as 110+
PLANTED_RADIX = 1_000_000  # exposure at age 0; deaths = rate * exposure
PLANTED_MAX_SIGMA = 0.3  # cap on the log-scale noise where exposure vanishes
PLANTED_RIDGE_WIDTH = 1.5  # exp(-(c - cohort)^2 / width), c = year - age


def planted_hmd_text(seed: int, amplitude: float, ridge_cohort: int = 1930,
                     first_year: int = 1900, n_years: int = 110,
                     radix: float = PLANTED_RADIX) -> str:
    """Seeded HMD Mx 1x1 text, ages 0..110+, with a ridge of relative height
    ``amplitude`` on birth cohort ``ridge_cohort``, for a population whose
    exposure at age 0 is ``radix``: the smaller it is, the noisier the rates."""
    rng = np.random.default_rng(seed)
    years = np.arange(first_year, first_year + n_years)
    ages = np.arange(PLANTED_N_AGES)
    domain = ((years[0] - 1.0, years[-1] + 1.0), (-1.0, PLANTED_N_AGES + 0.0))
    cohorts = years[:, None] - ages[None, :]
    ridge = 1.0 + amplitude * np.exp(-((cohorts - ridge_cohort) ** 2)
                                     / PLANTED_RIDGE_WIDTH)
    columns = []
    for base, slope, improvement in PLANTED_SEX_PARAMS:
        surf = smooth.gompertz_surface(base_rate=base, age_slope=slope,
                                       improvement=improvement, domain=domain)
        z = surf.f(years.astype(float)[:, None], ages.astype(float)[None, :])
        survivors = radix * np.exp(-np.cumsum(z, axis=1) + z)
        sigma = np.minimum(PLANTED_MAX_SIGMA, 1.0 / np.sqrt(z * survivors))
        columns.append(z * np.exp(rng.normal(0.0, 1.0, z.shape) * sigma) * ridge)
    rows = [(year, f"{age}+" if age == PLANTED_N_AGES - 1 else str(age),
             *(f"{c[i, age]:.6f}" for c in columns))
            for i, year in enumerate(years.tolist()) for age in ages.tolist()]
    return make_hmd_text(rows)


@pytest.fixture
def small_hmd_text() -> str:
    years = range(1930, 1936)
    ages = range(0, 8)
    rng = np.random.default_rng(42)
    values = {}
    for year in years:
        for age in ages:
            base = 0.001 * (1 + age) + 0.0001 * (year - 1930)
            jitter = rng.uniform(0.9, 1.1, size=3)
            values[(year, age)] = tuple(f"{base * j:.6f}" for j in jitter)
    rows = [(y, a, *values[(y, a)]) for y in years for a in ages]
    return make_hmd_text(rows)
