"""Kernel tests: stencil ops against hand values and analytic oracles.

The scalar operations are checked against frozen hand computations
(collinear tangents, circle and parabola curvature, plane normals) and
against independent optimizers (scipy for the least-squares slope, a
spherical grid and Monte-Carlo search for the normal). The vectorized
field assembly is checked point-by-point against the scalar path.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import cohortgeo as cg
from cohortgeo import geometry, smooth
from cohortgeo import (
    COHORT,
    CROSS,
    AmbiguousNormalError,
    DegenerateStencilError,
    DegenerateTangentError,
    GeometryOptions,
    SurfaceSizeError,
)
from cohortgeo.geometry import AGE, PERIOD
from cohortgeo.surface import SurfaceGrid

from test_surface import make_surface


class TestDiscreteParameter:
    def test_equal_chords(self):
        s = geometry.discrete_parameter((0, 0, 0), (1, 1, 1), (2, 2, 2))
        assert s == (0.0, 0.5, 1.0)

    def test_unequal_chords(self):
        s = geometry.discrete_parameter((0, 0, 0), (1, 0, 0), (4, 0, 0))
        assert s == (0.0, 0.25, 1.0)

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateStencilError):
            geometry.discrete_parameter((1, 2, 3), (1, 2, 3), (4, 5, 6))
        with pytest.raises(DegenerateStencilError):
            geometry.discrete_parameter((0, 0, 0), (1, 2, 3), (1, 2, 3))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_s1_strictly_inside(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 3))
        if np.allclose(pts[0], pts[1]) or np.allclose(pts[1], pts[2]):
            return
        s0, s1, s2 = geometry.discrete_parameter(*pts)
        assert s0 == 0.0 and s2 == 1.0 and 0.0 < s1 < 1.0


class TestLsDerivative:
    def test_affine_exact(self):
        assert geometry._ls_slope(0.0, 1.0, 2.0, 0.0, 0.5, 1.0) == 2.0

    def test_symmetric_dip_zero(self):
        assert geometry._ls_slope(1.0, 0.0, 1.0, 0.0, 0.5, 1.0) == 0.0

    def test_constant_zero(self):
        assert geometry._ls_slope(3.0, 3.0, 3.0, 0.0, 0.3, 1.0) == 0.0

    def test_matches_independent_minimizer(self):
        # objective: sum over the two outer samples of the squared residual
        # of a line through (s1, v1) with slope d
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.normal(size=3)
            s1 = rng.uniform(0.05, 0.95)
            params = (0.0, s1, 1.0)

            def objective(d):
                return ((v[0] - v[1] - d * (0.0 - s1)) ** 2
                        + (v[2] - v[1] - d * (1.0 - s1)) ** 2)

            best = minimize_scalar(objective)
            ours = geometry._ls_slope(*v, *params)
            assert abs(ours - best.x) < 1e-7
            assert objective(ours) <= best.fun + 1e-12


class TestDiscreteTangent:
    def test_collinear_equal_spacing(self):
        T, V = geometry.discrete_tangent((0, 0, 0), (1, 1, 1), (2, 2, 2))
        assert np.allclose(T, (2.0, 2.0, 2.0), atol=1e-15)
        assert np.allclose(V, np.ones(3) / math.sqrt(3.0), atol=1e-15)

    def test_symmetric_dip_kills_z(self):
        T, V = geometry.discrete_tangent((-1, 0, 1), (0, 0, 0), (1, 0, 1))
        assert np.allclose(T, (2.0, 0.0, 0.0), atol=1e-15)
        assert np.allclose(V, (1.0, 0.0, 0.0), atol=1e-15)

    def test_backtracking_curve_degenerate(self):
        with pytest.raises(DegenerateTangentError):
            geometry.discrete_tangent((0, 0, 0), (1, 0, 0), (0, 0, 0))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 3)) * rng.uniform(0.1, 10)
        try:
            _, V = geometry.discrete_tangent(*pts)
        except (DegenerateStencilError, DegenerateTangentError):
            return
        assert abs(np.linalg.norm(V) - 1.0) < 1e-12


def circle_stencil(r: float, theta: float) -> tuple[np.ndarray, ...]:
    angles = np.array([-theta, 0.0, theta])
    pts = np.stack([r * np.sin(angles), np.zeros(3), r * np.cos(angles)], axis=1)
    return tuple(pts)


class TestCurvatureVector:
    def test_straight_line_any_spacing(self):
        cv = geometry.curvature_vector((0, 0, 0), (1, 1, 1), (5, 5, 5))
        assert np.allclose(cv, 0.0, atol=1e-14)

    def test_circle_magnitude_and_direction(self):
        r, theta = 2.0, 0.2
        cv = geometry.curvature_vector(*circle_stencil(r, theta))
        # exact discrete value: 1 / (r cos(theta/2)), pointing at the centre
        expected = 1.0 / (r * math.cos(theta / 2.0))
        assert abs(np.linalg.norm(cv) - expected) < 1e-12
        toward_center = np.array([0.0, 0.0, -1.0])
        assert np.dot(cv / np.linalg.norm(cv), toward_center) > 0.999999

    def test_circle_error_is_second_order(self):
        r = 2.0
        errs = []
        for theta in (0.2, 0.1):
            cv = geometry.curvature_vector(*circle_stencil(r, theta))
            errs.append(abs(np.linalg.norm(cv) - 1.0 / r))
        # halving theta should cut the error ~4x; demand at least 3x
        assert errs[0] / errs[1] >= 3.0

    def test_parabola_vertex(self):
        for h in (0.1, 0.05):
            cv = geometry.curvature_vector(
                (-h, 0, h * h / 2), (0, 0, 0), (h, 0, h * h / 2))
            expected_z = 1.0 / math.sqrt(1.0 + h * h / 4.0)
            assert abs(cv[0]) < 1e-14 and abs(cv[1]) < 1e-14
            assert abs(cv[2] - expected_z) < 1e-12
        # osculating curvature at the vertex is 1
        assert abs(expected_z - 1.0) < 1e-3


class TestEstimateNormal:
    def test_horizontal_tangents(self):
        n = geometry.estimate_normal((1, 0, 0), (0, 1, 0),
                               (1 / math.sqrt(2), 1 / math.sqrt(2), 0),
                               (1 / math.sqrt(2), -1 / math.sqrt(2), 0))
        assert np.allclose(n, (0, 0, 1), atol=1e-12)

    def test_tilted_plane_normal(self):
        # tangents spanning the plane z = t
        s2 = 1 / math.sqrt(2)
        s3 = 1 / math.sqrt(3)
        n = geometry.estimate_normal((s2, 0, s2), (0, 1, 0),
                               (s3, s3, s3), (s3, -s3, s3))
        assert np.allclose(n, (-s2, 0, s2), atol=1e-12)

    def test_brute_force_spherical_grid(self):
        s2 = 1 / math.sqrt(2)
        s3 = 1 / math.sqrt(3)
        tangents = np.array([(s2, 0, s2), (0, 1, 0), (s3, s3, s3), (s3, -s3, s3)])
        n = geometry.estimate_normal(*tangents)

        def f(vec):
            return float(np.sum((tangents @ vec) ** 2))

        phis = np.linspace(0, math.pi, 181)
        lams = np.linspace(0, 2 * math.pi, 361)
        best = math.inf
        for phi in phis:
            z = math.cos(phi)
            s = math.sin(phi)
            cand = np.stack([s * np.cos(lams), s * np.sin(lams),
                             np.full_like(lams, z)], axis=1)
            best = min(best, float(np.min(np.sum((cand @ tangents.T) ** 2, axis=1))))
        assert f(n) <= best + 1e-9

    def test_monte_carlo_minimality_and_eigenvalue(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            tangents = rng.normal(size=(4, 3))
            tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
            M = tangents.T @ tangents
            w = np.linalg.eigvalsh(M)
            if w[1] - w[0] < 1e-6:
                continue
            n = geometry.estimate_normal(*tangents)
            f_n = float(np.sum((tangents @ n) ** 2))
            randoms = rng.normal(size=(10_000, 3))
            randoms /= np.linalg.norm(randoms, axis=1, keepdims=True)
            f_rand = np.sum((randoms @ tangents.T) ** 2, axis=1)
            assert f_n <= float(f_rand.min()) + 1e-12
            assert abs(f_n - w[0]) < 1e-10

    def test_parallel_tangents_ambiguous(self):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(AmbiguousNormalError):
            geometry.estimate_normal(v, v, v, v)

    def test_sign_convention_vertical_plane(self):
        # tangents spanning the plane t = 0; both +x and -x normals solve it
        s2 = 1 / math.sqrt(2)
        n = geometry.estimate_normal((0, 0, 1), (0, 1, 0), (0, s2, s2), (0, s2, -s2))
        assert np.allclose(n, (1, 0, 0), atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        tangents = rng.normal(size=(4, 3))
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        n = geometry.estimate_normal(*tangents)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12


class TestNormalCurvature:
    def test_zero_curvature_vector(self):
        assert geometry.normal_curvature((0, 0, 1), (0, 0, 0)) == 0.0

    def test_plain_dot(self):
        assert geometry.normal_curvature((0, 0, 1), (0.3, -0.1, 0.25)) == 0.25


class TestGeometryOptions:
    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            GeometryOptions(z_scale=0.0)
        with pytest.raises(ValueError):
            GeometryOptions(z_scale=-1.0)

    def test_prepare_grid_log_drops_nonpositive(self):
        s = make_surface([[0.0, 0.2, 0.1]] * 3)
        g = cg.prepare_grid(s, GeometryOptions(log_rates=True))
        assert not g.present[0, 0]
        assert g.present[0, 1]
        assert g.z[0, 1] == np.log(0.2)

    def test_prepare_grid_scale(self):
        s = make_surface([[0.1, 0.2], [0.3, 0.4]])
        g = cg.prepare_grid(s, GeometryOptions(z_scale=100.0))
        assert g.z[1, 1] == 0.4 * 100.0


def field_on(rates, **kwargs):
    return cg.compute_geometry_field(make_surface(rates), **kwargs)


class TestComputeGeometryField:
    def test_plane_annihilation(self):
        t = np.arange(12)[:, None]
        x = np.arange(9)[None, :]
        z = 0.3 * t + 0.7 * x + 5.0
        field = field_on(z)
        assert field.valid[1:-1, 1:-1].all()
        assert not field.valid[0].any() and not field.valid[-1].any()
        assert np.abs(field.normal_curvatures[field.valid]).max() < 1e-12
        assert np.abs(field.curvature_vectors[field.valid]).max() < 1e-12

    def test_three_by_three_single_valid_point(self):
        field = field_on(np.ones((3, 3)))
        assert field.valid.sum() == 1
        assert field.valid[1, 1]

    def test_too_small_grid(self):
        with pytest.raises(SurfaceSizeError):
            field_on(np.ones((2, 3)))

    def test_missing_cell_poisons_neighbourhood(self):
        z = np.ones((7, 7)) * 0.5
        z += 0.01 * (np.arange(7)[:, None] ** 2)  # break the eigengap tie
        z[3, 3] = np.nan
        field = field_on(z)
        for i in range(2, 5):
            for j in range(2, 5):
                assert not field.valid[i, j]
        assert field.normal_curvatures[3, 3].max() == 0.0

    def test_constant_surface_is_valid_flat(self):
        # all tangents horizontal: eigengap is 2, normal well defined
        field = field_on(np.full((5, 5), 0.7))
        assert field.valid[1:-1, 1:-1].all()
        assert np.allclose(field.normals[2, 2], (0, 0, 1), atol=1e-12)
        assert np.abs(field.normal_curvatures[field.valid]).max() < 1e-14

    def test_unit_norms_everywhere_valid(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.1, 1.0, size=(10, 10))
        field = field_on(z)
        V = field.tangents[field.valid]
        N = field.normals[field.valid]
        assert np.abs(np.linalg.norm(V, axis=-1) - 1.0).max() < 1e-12
        assert np.abs(np.linalg.norm(N, axis=-1) - 1.0).max() < 1e-12

    def test_matches_scalar_reference_path(self, monkeypatch):
        rng = np.random.default_rng(17)
        z = rng.uniform(0.05, 1.5, size=(9, 8))
        z[2, 5] = np.nan
        self._check_against_scalar_path(make_surface(z))
        # 23 rows in blocks of 4 interior rows: six blocks, five seams
        z = rng.uniform(0.05, 1.5, size=(23, 11))
        z[7, 3] = z[16, 9] = np.nan
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", 4 * 11)
        self._check_against_scalar_path(make_surface(z))

    @staticmethod
    def _check_against_scalar_path(surface):
        field = cg.compute_geometry_field(surface)
        grid = cg.prepare_grid(surface, field.options)
        ny, nx = grid.shape
        checked = 0
        for i in range(1, ny - 1):
            for j in range(1, nx - 1):
                if not field.valid[i, j]:
                    continue
                tangents, cvs, normal, ncs = cg.compute_point_geometry(grid, i, j)
                assert np.abs(tangents - field.tangents[i, j]).max() < 1e-13
                assert np.abs(cvs - field.curvature_vectors[i, j]).max() < 1e-13
                assert np.abs(normal - field.normals[i, j]).max() < 1e-13
                assert np.abs(ncs - field.normal_curvatures[i, j]).max() < 1e-13
                checked += 1
        assert checked > 20

    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        z = rng.uniform(0.1, 1.0, size=(8, 8))
        f0 = field_on(z)
        f1 = field_on(z + 137.5)
        assert np.array_equal(f0.valid, f1.valid)
        assert np.abs(f0.tangents - f1.tangents).max() < 1e-12
        assert np.abs(f0.curvature_vectors - f1.curvature_vectors).max() < 1e-11
        assert np.abs(f0.normals - f1.normals).max() < 1e-12
        assert np.abs(f0.normal_curvatures - f1.normal_curvatures).max() < 1e-12

    def test_reflection_swaps_period_and_age(self):
        rng = np.random.default_rng(29)
        z = rng.uniform(0.1, 1.0, size=(9, 9))
        z = (z + z.T) / 2.0  # symmetric across the diagonal
        field = field_on(z, options=None)
        nc = field.normal_curvatures
        assert np.array_equal(field.valid, field.valid.T)
        mask = field.valid
        assert np.abs((nc[..., COHORT] - nc[..., COHORT].T)[mask]).max() < 1e-12
        assert np.abs((nc[..., CROSS] - nc[..., CROSS].T)[mask]).max() < 1e-12
        assert np.abs((nc[..., PERIOD] - nc[..., AGE].T)[mask]).max() < 1e-12

    def test_ridge_bends_across_not_along(self):
        surf = smooth.gaussian_ridge(width=50.0, amplitude=1.0, center=0.0,
                                 domain=((-30, 30), (-30, 30)))
        grid = smooth.sample_grid(surf, -20, 20, -20, 20, step=1.0)
        field = cg.compute_geometry_field(grid)
        mid = 20  # t == x == 0, on the ridge crest
        assert field.valid[mid, mid]
        nc = field.normal_curvatures[mid, mid]
        assert abs(nc[COHORT]) < 1e-10
        assert abs(nc[CROSS]) > 1e-3

    def test_sphere_all_directions_agree(self):
        R = 200.0
        surf = smooth.sphere_cap(R, center=(14.5, 14.5), domain=((-1, 31), (-1, 31)))
        grid = smooth.sample_grid(surf, 0, 29, 0, 29, step=1.0)
        field = cg.compute_geometry_field(grid)
        nc = field.normal_curvatures[field.valid]
        assert np.abs(nc + 1.0 / R).max() < 0.02 / R
        spread = np.abs(nc.max(axis=1) - nc.min(axis=1)).max()
        assert spread < 1e-4

    def test_z_scale_changes_geometry_consistently(self):
        rng = np.random.default_rng(31)
        z = rng.uniform(0.1, 1.0, size=(6, 6))
        scaled_opts = GeometryOptions(z_scale=50.0)
        f_opt = field_on(z, options=scaled_opts)
        f_raw = field_on(z * 50.0)
        assert np.abs(f_opt.normal_curvatures - f_raw.normal_curvatures).max() < 1e-12

    def test_float_grid_spacing_supported(self):
        surf = smooth.gaussian_bump(4.0, center=(0.0, 0.0), domain=((-20, 20), (-20, 20)))
        grid = smooth.sample_grid(surf, -5, 5, -5, 5, step=0.5)
        field = cg.compute_geometry_field(grid)
        assert field.valid.sum() > 0
        assert field.years[1] - field.years[0] == 0.5


FIELD_ARRAYS = ("valid", "tangents", "curvature_vectors", "normals",
                "normal_curvatures")


def blocked_case(kind: str):
    """37x23 gompertz-like rates with missing cells or a planted ridge."""
    rng = np.random.default_rng(41)
    t = np.arange(37)[:, None]
    x = np.arange(23)[None, :]
    rates = 0.001 * np.exp(0.08 * x) * (1.0 + 0.01 * rng.standard_normal((37, 23)))
    if kind == "ridge":
        return rates * (1.0 + 0.3 * np.exp(-(((t - x) - 10) / 1.5) ** 2))
    rates[rng.integers(0, 37, 6), rng.integers(0, 23, 6)] = np.nan
    return rates


def one_huge_cell(ny: int, nx: int):
    rates = 0.001 * np.exp(0.05 * np.arange(nx))[None, :] * np.ones((ny, 1))
    rates[ny // 2, nx // 2] = 1e200  # squared chord lengths overflow here
    return make_surface(rates)


class TestRowBlocks:
    @pytest.mark.parametrize("kind, options", [
        ("holes", None),
        ("ridge", None),
        ("holes", GeometryOptions(log_rates=True)),
        ("ridge", GeometryOptions(z_scale=37.0)),
    ])
    def test_block_height_invariance(self, monkeypatch, kind, options):
        surface = make_surface(blocked_case(kind))
        ny, nx = surface.rates.shape
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", ny * nx + 1)
        whole = cg.compute_geometry_field(surface, options)
        assert whole.valid.any()
        for points in (nx, 5 * nx, 7 * nx + 3):
            monkeypatch.setattr(geometry, "_BLOCK_POINTS", points)
            blocked = cg.compute_geometry_field(surface, options)
            for name in FIELD_ARRAYS:
                assert np.array_equal(getattr(blocked, name),
                                      getattr(whole, name)), (points, name)

    def test_more_threads_than_cores(self, monkeypatch):
        # Blocks write disjoint slices of shared arrays; frequent thread
        # switches with eight workers must not lose or mix any row.
        surface = make_surface(blocked_case("holes"))
        ny, nx = surface.rates.shape
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", ny * nx + 1)
        whole = cg.compute_geometry_field(surface)
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", nx)
        monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocked = cg.compute_geometry_field(surface)
        finally:
            sys.setswitchinterval(interval)
        for name in FIELD_ARRAYS:
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

    def test_warnings_match_single_block(self, monkeypatch):
        surface = one_huge_cell(400, 120)

        def messages(points):
            monkeypatch.setattr(geometry, "_BLOCK_POINTS", points)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cg.compute_geometry_field(surface)
            return {str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)}

        single = messages(400 * 120)
        assert single
        assert messages(32768) == single  # two blocks of 273 rows
        assert messages(5 * 120) == single

    def test_caller_errstate_reaches_blocks(self, monkeypatch):
        surface = one_huge_cell(40, 12)
        for points in (40 * 12, 3 * 12):
            monkeypatch.setattr(geometry, "_BLOCK_POINTS", points)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                cg.compute_geometry_field(surface)


class TestFieldExport:
    def test_csv_shape_and_header(self):
        field = field_on(np.ones((4, 5)) + np.arange(5)[None, :] * 0.1)
        lines = field.to_csv().splitlines()
        assert lines[0] == ("year,age,valid,normal_t,normal_x,normal_z,"
                            "nc_cohort,nc_cross,nc_period,nc_age")
        assert len(lines) == 1 + 4 * 5

    def test_json_keys(self):
        import json as _json

        field = field_on(np.ones((3, 3)))
        obj = _json.loads(field.to_json())
        for key in ("years", "ages", "directions", "options", "valid",
                    "normals", "normal_curvatures"):
            assert key in obj
        assert obj["directions"] == ["cohort", "cross", "period", "age"]
