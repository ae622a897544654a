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
