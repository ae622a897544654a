"""Acceptance gate: ten pinned pipeline criteria, one pass/fail line each.

Criteria 5-8 need real HMD country files (license-gated, not bundled) and
skip with download instructions when the files are absent. Everything else
runs on synthetic surfaces with analytically known answers, and seeded
HMD-shaped files stand in for criterion 06's AICE ordering and criterion
07's generation gaps.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cohortgeo import smooth
from cohortgeo.analytics import (
    DEFAULT_WINDOW,
    CEISeries,
    aice,
    cei_series,
    detect_peaks,
    trim_series,
    u_shape_diagnostic,
)
from cohortgeo.cli import main as cli_main
from cohortgeo.geometry import compute_geometry_field, estimate_normal
from cohortgeo.hmd import load_hmd, parse_hmd
from cohortgeo.surface import MortalitySurface, Sex, parse_csv_matrix, parse_json
from conftest import (
    HMD_COUNTRY_PATTERNS,
    dense_hmd_rows,
    find_hmd_file,
    make_hmd_text,
    planted_hmd_text,
    require_hmd_file,
)


@contextmanager
def criterion(num: int, name: str):
    """Print exactly one ACCEPTANCE line per criterion, whatever happens."""
    try:
        yield
    except BaseException as exc:
        word = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
        print(f"ACCEPTANCE {num:02d} {name}: {word}")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


_COUNTRY_CACHE: dict[str, tuple[MortalitySurface, CEISeries]] = {}


def country_series(country: str) -> tuple[MortalitySurface, CEISeries]:
    """Full pipeline on a real country file; untrimmed series, cached."""
    if country not in _COUNTRY_CACHE:
        path = require_hmd_file(country)
        surface = load_hmd(path, sex=Sex.TOTAL)
        field = compute_geometry_field(surface)
        _COUNTRY_CACHE[country] = (surface, cei_series(field, surface))
    return _COUNTRY_CACHE[country]


def test_acceptance_01_flat_surface_null():
    with criterion(1, "flat surface yields an identically zero index"):
        # abstract 0..99 coordinates, like the other synthetic criteria; the
        # residual is pure rounding noise and scales with the magnitude of z
        years = np.arange(0, 100)
        ages = np.arange(0, 100)
        rates = 0.3 * years[:, None] + 0.7 * ages[None, :] + 5.0
        surface = MortalitySurface(years=years, ages=ages, rates=rates,
                                   sex=Sex.TOTAL, source_label="plane")
        t0 = time.perf_counter()
        field = compute_geometry_field(surface)
        series = cei_series(field, surface)
        elapsed = time.perf_counter() - t0
        assert field.valid[1:-1, 1:-1].all()
        assert np.abs(field.normal_curvatures).max() < 1e-12
        assert max(v for _, v, _ in series) < 1e-12
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


def test_acceptance_02_sphere_umbilic():
    with criterion(2, "sphere is umbilic at the expected curvature"):
        surf = smooth.sphere_cap(500.0, center=(39.5, 39.5))
        ms = smooth.materialize_mortality_surface(
            surf, np.arange(80), np.arange(80))
        field = compute_geometry_field(ms)
        valid = field.valid
        assert valid[1:-1, 1:-1].all()
        nc = field.normal_curvatures[valid]
        target = -1.0 / 500.0
        assert np.abs(nc[:, 0] - nc[:, 1]).max() < 1e-4
        assert np.abs(nc - target).max() <= 0.02 * abs(target)
        for _, v, n in cei_series(field, ms):
            if n:
                assert v < 1e-3 * n
            else:
                assert v == 0.0


def test_acceptance_03_ridge_peak_location_and_mass():
    with criterion(3, "cohort ridge peaks at its birth year with matching mass"):
        surf = smooth.gaussian_ridge(width=50.0,
                                     domain=((0.0, 100.0), (0.0, 100.0)))
        ms = smooth.materialize_mortality_surface(
            surf, np.arange(100), np.arange(100))
        t0 = time.perf_counter()
        field = compute_geometry_field(ms)
        series = cei_series(field, ms)
        elapsed = time.perf_counter() - t0
        peak_year, peak_value, _ = max(series, key=lambda e: e[1])
        assert peak_year == 0
        # The discrete index sums one value per unit step along the diagonal;
        # the line integral weights by arc length, sqrt(2) per unit step, so
        # the two agree after dividing the integral by sqrt(2).
        target = smooth.smooth_cei(surf, 0.0, (0.5, 98.5)) / math.sqrt(2.0)
        assert abs(peak_value - target) <= 0.10 * target
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


def test_acceptance_04_refinement_convergence():
    with criterion(4, "halving the step shrinks curvature error by >= 1.5x"):
        surf = smooth.gaussian_bump(8.0)
        directions = ((1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0))

        def max_error(step: float) -> float:
            grid = smooth.sample_grid(surf, -20.0, 20.0, -20.0, 20.0, step)
            field = compute_geometry_field(grid)
            worst = 0.0
            for i in range(1, len(grid.t) - 1):
                for j in range(1, len(grid.x) - 1):
                    assert field.valid[i, j]
                    point = (float(grid.t[i]), float(grid.x[j]))
                    for k, d in enumerate(directions):
                        exact = smooth.smooth_normal_curvature(surf, point, d)
                        err = abs(float(field.normal_curvatures[i, j, k]) - exact)
                        worst = max(worst, err)
            return worst

        e_coarse = max_error(1.0)
        e_fine = max_error(0.5)
        assert e_coarse / e_fine >= 1.5, (e_coarse, e_fine)


def test_acceptance_05_uk_interwar_cohort():
    with criterion(5, "UK shows the 1925 +/- 1 cohort and elevated 1930-1935"):
        _, series = country_series("UK")
        trimmed = trim_series(series, 1970)
        idx = {int(y): float(v) for y, v, _ in trimmed}

        def is_local_max(y: int) -> bool:
            return (y - 1 in idx and y + 1 in idx
                    and idx[y] > idx[y - 1] and idx[y] > idx[y + 1])

        assert any(is_local_max(y) for y in (1924, 1925, 1926))
        values = np.array([v for _, v, _ in trimmed])
        q90 = float(np.quantile(values, 0.9))
        elevated = sum(1 for y in range(1930, 1936) if idx.get(y, 0.0) >= q90)
        assert elevated >= 4, f"only {elevated} of 1930-1935 in the top decile"


def test_acceptance_06_country_ordering_and_scale():
    with criterion(6, "AICE ranks UK > Canada > US > Japan at expected scale"):
        reports = {}
        for country in ("UK", "Canada", "US", "Japan"):
            _, series = country_series(country)
            reports[country] = aice(series, (1922, 1970))
        a = {c: r.aice for c, r in reports.items()}
        assert a["UK"] > a["Canada"] > a["US"] > a["Japan"], a
        assert abs(a["UK"] - 0.6177) <= 0.15, a["UK"]
        for country, report in reports.items():
            assert 5e-5 / 3 <= report.mean <= 8e-5 * 3, (country, report.mean)


@pytest.mark.parametrize("seed", range(4))
def test_planted_panel_aice_follows_ridge_amplitude(seed, tmp_path, capsys):
    """Criterion 06's cross-country comparison on four seeded HMD-shaped
    files that differ only in the height of a ridge on cohort 1930."""
    aices = []
    for amplitude in (0.05, 0.15, 0.3, 0.5):
        path = tmp_path / f"ridge{amplitude}.Mx_1x1.txt"
        path.write_text(planted_hmd_text(seed, amplitude))
        assert cli_main(["aice", str(path), "--format", "json"]) == 0
        aices.append(json.loads(capsys.readouterr().out)["aice"])
        assert cli_main(["cei", str(path)]) == 0
        series = CEISeries.from_csv(capsys.readouterr().out)
        inside = ((series.birth_years >= DEFAULT_WINDOW[0])
                  & (series.birth_years <= DEFAULT_WINDOW[1]))
        top = series.birth_years[inside][np.argmax(series.values[inside])]
        assert top == 1930, (amplitude, top)
    assert all(a < b for a, b in zip(aices, aices[1:])), aices


def test_acceptance_07_uk_generation_gaps():
    with criterion(7, "UK peak spacing matches the known generation gaps"):
        _, series = country_series("UK")
        report = detect_peaks(series, (1922, 1970))
        assert report.max_gap is not None, "no peaks detected"
        assert 8 <= report.max_gap <= 12, report.max_gap
        assert 2 <= report.min_gap <= 4, report.min_gap


@pytest.mark.parametrize("seed", range(8))
def test_planted_generation_gaps(seed):
    """Criterion 07's peak widths on seeded HMD-shaped files with ridges of
    amplitude 0.3 on cohorts 1930 and 1945 (at 0.1 a ridge's peak splits)."""
    def report(ridge_cohorts):
        text = planted_hmd_text(seed, 0.3, ridge_cohorts)
        surface = parse_hmd(text).surfaces[Sex.TOTAL]
        field = compute_geometry_field(surface)
        return detect_peaks(trim_series(cei_series(field, surface)))

    both = report((1930, 1945))
    ridges = [(p.start_year, p.end_year) for p in both.peaks if p.width_years > 1]
    assert ridges == [(1927, 1930), (1942, 1945)], both.peaks
    assert (both.min_gap, both.max_gap) == (1, 4)
    assert all(p.end_year != 1945 for p in report((1930,)).peaks)


def test_acceptance_08_u_shape_rise_and_terminal_drop():
    with criterion(8, "post-1970 cohorts trend upward then hit the data edge"):
        for country in ("UK", "Canada", "US", "Japan"):
            _, series = country_series(country)
            report = u_shape_diagnostic(series, 1970)
            assert report.slope is not None and report.slope > 0, country
            assert report.drop_start_year is not None, country
            assert series.values[-1] == 0.0, country


def test_acceptance_09_internal_consistency():
    with criterion(9, "accumulation is bit-exact and the normal is optimal"):
        # 1) per-cohort sums equal a naive dictionary re-walk, bit for bit
        surf = smooth.gompertz_surface()
        years = np.arange(1900, 1960)
        ages = np.arange(0, 40)
        rates = np.asarray(
            surf.f(years.astype(float)[:, None], ages.astype(float)[None, :]),
            dtype=float).copy()
        rates[10, 5] = np.nan
        rates[30, 20] = np.nan
        ms = MortalitySurface(years=years, ages=ages, rates=rates,
                              sex=Sex.TOTAL, source_label="gompertz")
        field = compute_geometry_field(ms)
        series = cei_series(field, ms)
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        for i, y in enumerate(years):
            for j, x in enumerate(ages):
                if not field.valid[i, j]:
                    continue
                c = int(y) - int(x)
                nc = field.normal_curvatures[i, j]
                sums[c] = sums.get(c, 0.0) + abs(float(nc[0]) - float(nc[1]))
                counts[c] = counts.get(c, 0) + 1
        for y, v, n in series:
            assert v == sums.get(y, 0.0)
            assert n == counts.get(y, 0)

        # 2) the estimated normal beats 10,000 random unit vectors on each
        # of 1,000 random tangent quadruples, and attains the eigenvalue
        rng = np.random.default_rng(20260826)
        quads = rng.normal(size=(1000, 4, 3))
        quads /= np.linalg.norm(quads, axis=2, keepdims=True)
        randoms = rng.normal(size=(10000, 3))
        randoms /= np.linalg.norm(randoms, axis=1, keepdims=True)
        M = np.einsum("qka,qkb->qab", quads, quads)
        best_random = np.full(1000, np.inf)
        for lo in range(0, randoms.shape[0], 2000):
            chunk = randoms[lo:lo + 2000]
            f_all = np.einsum("qab,ra,rb->qr", M, chunk, chunk, optimize=True)
            best_random = np.minimum(best_random, f_all.min(axis=1))
        lam_min = np.linalg.eigvalsh(M)[:, 0]
        for q in range(quads.shape[0]):
            n_hat = estimate_normal(*quads[q])
            f_hat = float(n_hat @ M[q] @ n_hat)
            assert f_hat <= best_random[q] + 1e-12
            assert abs(f_hat - lam_min[q]) <= 1e-10


def test_acceptance_10_round_trip_determinism(tmp_path):
    with criterion(10, "ingest round-trips exactly and reruns are byte-identical"):
        source = None
        for country in HMD_COUNTRY_PATTERNS:
            source = find_hmd_file(country)
            if source is not None:
                break
        if source is not None:
            text = source.read_text()
        else:
            # same layout as the real files: header, open age tokens not
            # needed, sprinkled "." missing cells
            def rate(year, age, k):
                if (year + age) % 13 == 0:
                    return "."
                v = 1e-4 * (1 + age + 10 * k) * (1 + 0.01 * (year - 1950))
                return f"{v:.6f}"

            text = make_hmd_text(
                dense_hmd_rows(range(1950, 1980), range(0, 30), rate))
            source = tmp_path / "TST.Mx_1x1.txt"
            source.write_text(text)

        result = parse_hmd(text)
        for sex in Sex:
            original = result.surfaces[sex]
            assert parse_json(original.to_json()) == original
            again = parse_csv_matrix(
                original.to_csv(),
                first_year=int(original.years[0]),
                first_age=int(original.ages[0]),
                sex=original.sex,
                source_label=original.source_label,
            )
            assert again == original

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = cli_main(["cei", str(source), "--sex", "total",
                             "-o", str(target)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
