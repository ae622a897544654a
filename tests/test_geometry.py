"""Kernel tests: stencil ops against hand values and analytic oracles.

The scalar operations are checked against frozen hand computations
(collinear tangents, circle and parabola curvature, plane normals) and
against independent optimizers (scipy for the least-squares slope, a
spherical grid and Monte-Carlo search for the normal). The vectorized
field assembly is checked point-by-point against the scalar path.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import sys
import threading
import tracemalloc
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
    GeometryError,
    GeometryOptions,
    StructuralError,
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

    @pytest.mark.parametrize("q0, q1, q2", [
        ((0, 0, 0), (1, 0, np.nan), (2, 0, 0)),
        ((0, 0, 0), (1, 0, 1e200), (2, 0, 0)),
        ((0, 0, -1e200), (1, 0, 1e200), (2, 0, 1e200)),
    ], ids=["missing", "overflowing-chord", "infinite-difference"])
    def test_nonfinite_chords_rejected_silently(self, q0, q1, q2):
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DegenerateStencilError):
            warnings.simplefilter("always")
            geometry.discrete_parameter(q0, q1, q2)
        assert not caught

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

    def test_overflowing_length_rejected_silently(self):
        # finite chords, but |T|^2 overflows: V = T/|T| would be zero
        q = ((0, 0, -1.2e154), (1, 0, 0), (2, 0, 1.2e154))
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(DegenerateTangentError):
            warnings.simplefilter("always")
            geometry.discrete_tangent(*q)
        assert not caught

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
        with pytest.raises(ValueError):
            GeometryOptions(z_scale="2")
        with pytest.raises(ValueError):
            GeometryOptions(z_scale=None)

    def test_int_beyond_float_range_refused(self):
        with pytest.raises(ValueError, match="^z_scale must be positive and finite$"):
            GeometryOptions(z_scale=10**400)

    @pytest.mark.parametrize("z_scale", [np.float64(2.0), 2, np.int64(2), np.float32(2.0)],
                             ids=["float64", "int", "int64", "float32"])
    def test_equal_options_write_the_same_label(self, z_scale):
        options = GeometryOptions(z_scale=z_scale, log_rates=True)
        assert options == GeometryOptions(z_scale=2.0, log_rates=True)
        assert options.label() == "z_scale=2.0,log_rates"
        assert type(options.z_scale) is float

    @pytest.mark.parametrize("z_scale", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_scale_refused(self, z_scale):
        with pytest.raises(ValueError, match="^z_scale must be a number, not a bool$"):
            GeometryOptions(z_scale=z_scale)

    @pytest.mark.parametrize("log_rates", ["no", 1, None], ids=["str", "int", "none"])
    def test_non_bool_log_rates_refused(self, log_rates):
        with pytest.raises(ValueError, match="^log_rates must be a bool$"):
            GeometryOptions(log_rates=log_rates)

    def test_numpy_bool_log_rates_stored_as_bool(self):
        options = GeometryOptions(log_rates=np.True_)
        assert options == GeometryOptions(log_rates=True)
        assert type(options.log_rates) is bool

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

    @pytest.mark.parametrize("log_rates", [False, True])
    def test_prepare_grid_overflow_is_structural(self, log_rates):
        s = make_surface(np.arange(1.0, 13.0).reshape(4, 3))
        options = GeometryOptions(z_scale=1e308, log_rates=log_rates)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(StructuralError, match=r"^z_scale=1e\+308 overflows"):
            warnings.simplefilter("always")
            cg.prepare_grid(s, options)
        assert not caught

    @pytest.mark.parametrize("z_scale", [1e-320, 1e-306, 2.0**-1013])
    @pytest.mark.parametrize("log_rates", [False, True])
    def test_prepare_grid_underflow_is_structural(self, z_scale, log_rates):
        # 0.001 * 2**-1013 is just below the smallest normal float, 2**-1022
        s = make_surface([[0.001, 0.2, 0.5], [0.3, 0.4, 0.6], [0.7, 0.8, 0.9]])
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(StructuralError,
                              match=rf"^z_scale={z_scale!r} underflows the rates$"):
            warnings.simplefilter("always")
            cg.prepare_grid(s, GeometryOptions(z_scale=z_scale, log_rates=log_rates))
        assert not caught

    def test_prepare_grid_zero_and_negative_rates_pass(self):
        z = np.array([[0.0, -0.2, 0.3], [np.nan, -0.0, 0.5], [1.0, -2.0, 3.0]])
        grid = SurfaceGrid(t=np.arange(3), x=np.arange(3), z=z)
        # the smallest nonzero magnitude becomes 0.2 * 1e-306, still normal
        g = cg.prepare_grid(grid, GeometryOptions(z_scale=1e-306))
        assert np.array_equal(g.z, z * 1e-306, equal_nan=True)
        assert np.nanmin(np.abs(g.z[g.z != 0])) >= np.finfo(float).tiny

    def test_prepare_grid_log_is_silent_and_exact(self):
        z = np.array([[0.0, -2.0, 0.3], [np.nan, 1e-300, 5.0], [1.0, 2.0, 3.0]])
        grid = SurfaceGrid(t=np.arange(3), x=np.arange(3), z=z)
        with np.errstate(all="raise"):
            g = cg.prepare_grid(grid, GeometryOptions(z_scale=2.0, log_rates=True))
        positive = z * 2.0 > 0
        assert np.array_equal(g.present, positive)
        assert np.array_equal(g.z[positive], np.log(z[positive] * 2.0))


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

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (3, 1), (1, 2)])
    def test_point_geometry_refuses_border_points(self, i, j):
        grid = cg.prepare_grid(make_surface(np.ones((4, 3))))
        with pytest.raises(SurfaceSizeError) as exc:
            cg.compute_point_geometry(grid, i, j)
        assert str(exc.value) == f"({i}, {j}) is not interior to the grid"

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
        # each read of the tangents or curvature vectors runs the kernel
        field_tangents, field_cvs = field._stencil_vectors()
        checked = 0
        for i in range(1, ny - 1):
            for j in range(1, nx - 1):
                if not field.valid[i, j]:
                    continue
                tangents, cvs, normal, ncs = cg.compute_point_geometry(grid, i, j)
                assert np.abs(tangents - field_tangents[i, j]).max() < 1e-13
                assert np.abs(cvs - field_cvs[i, j]).max() < 1e-13
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

    @pytest.mark.parametrize("surf", [
        smooth.sphere_cap(60.0),
        smooth.gaussian_bump(8.0, amplitude=5.0),
        smooth.gaussian_ridge(width=50.0, amplitude=5.0),
        smooth.gompertz_surface(1e-2, 0.05, 0.02),
    ], ids=["sphere", "bump", "ridge", "gompertz"])
    def test_normals_converge_to_the_exact_normal(self, surf):
        """Over the central 40% of the domain, the largest error against the
        oracle's upward normal shrinks at least 3.5-fold per halved step:
        second-order convergence."""
        (t0, t1), (x0, x1) = surf.domain
        tc, xc, ht, hx = (t0 + t1) / 2, (x0 + x1) / 2, (t1 - t0) / 5, (x1 - x0) / 5
        errors = []
        for step in (1.0, 0.5, 0.25):
            grid = smooth.sample_grid(surf, tc - ht, tc + ht, xc - hx, xc + hx, step=step)
            field = cg.compute_geometry_field(grid)
            exact = surf.normal(grid.t[:, None], grid.x[None, :])
            assert field.valid[1:-1, 1:-1].all()
            errors.append(np.abs(field.normals - exact)[field.valid].max())
        assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5, errors

    def test_float_grid_spacing_supported(self):
        surf = smooth.gaussian_bump(4.0, center=(0.0, 0.0), domain=((-20, 20), (-20, 20)))
        grid = smooth.sample_grid(surf, -5, 5, -5, 5, step=0.5)
        field = cg.compute_geometry_field(grid)
        assert field.valid.sum() > 0
        assert field.years[1] - field.years[0] == 0.5


FIELD_ARRAYS = ("valid", "tangents", "curvature_vectors", "normals",
                "normal_curvatures")


def field_arrays(field) -> dict[str, np.ndarray]:
    """Every array of ``field``. The tangents and curvature vectors come from
    one kernel pass, under the kernel settings in force at the call."""
    tangents, curvature_vectors = field._stencil_vectors()
    return {"valid": field.valid, "tangents": tangents,
            "curvature_vectors": curvature_vectors, "normals": field.normals,
            "normal_curvatures": field.normal_curvatures}


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


def hmd_like(ny: int, nx: int, seed: int, holes: int = 0):
    """Gompertz-like rates with 1% noise, a planted cohort ridge and
    ``holes`` missing cells."""
    rng = np.random.default_rng(seed)
    t = np.arange(ny)[:, None]
    x = np.arange(nx)[None, :]
    rates = 0.001 * np.exp(0.08 * x) * (1.0 + 0.01 * rng.standard_normal((ny, nx)))
    rates = rates * (1.0 + 0.3 * np.exp(-(((t - x) - ny // 3) / 1.5) ** 2))
    rates[rng.integers(0, ny, holes), rng.integers(0, nx, holes)] = np.nan
    return rates


GOLDEN_CASES = {
    "holes_300x200": lambda: (make_surface(hmd_like(300, 200, 1, holes=120)), None),
    "huge_cell_400x120": lambda: (one_huge_cell(400, 120), None),
    "holes_log_rates": lambda: (make_surface(hmd_like(300, 200, 1, holes=120)),
                                GeometryOptions(log_rates=True)),
    "ridge_z_scale_37": lambda: (make_surface(hmd_like(270, 111, 2)),
                                 GeometryOptions(z_scale=37.0)),
    "three_rows": lambda: (make_surface(hmd_like(3, 150, 3, holes=2)), None),
    "hmd_270x111": lambda: (make_surface(hmd_like(270, 111, 4, holes=30)), None),
}

# sha256 of each field array's bytes: block size, block layout and threading
# must not move a single bit.
GOLDEN_DIGESTS = {
    'hmd_270x111': (
        '7c14d9750019a8405a8501768103e56939f5e6389d71e162dab2f052405672f9',
        '38e62120e93dff755cc2e6881eeb8d2a0d41ea2b5062f20c3993b123068d4198',
        '1881b2717b13c2af5a08b34833ecf1b212a0d1bbeb00f870da05f59167ff806a',
        'a0bc03d4ed4e1a7efb47e976f1f6c63f43fe26a3264518d0ad367e44da924f37',
        '1ca6dc8ceb7d72cfd93cf0c168d3040e3020e4c224de38bcc301f77cdb814736',
    ),
    'holes_300x200': (
        'f434651a641b0222c5f21960e923b55c5fb68dd14113f295aaffa9985878ca27',
        'd684eb845501fa13820f3c97c4e878c9a9e8472bb9a69e1f7e3e099c67ff27e7',
        '3998e0736c664d5d4adfd9b07e3915c5db0d0b30880488fe0fe4db8e0d584e4e',
        'bf21a4bb3d5f71bfc00cc1d053e4995edadbd9149e1b8e4725507f44f7d9285b',
        '3323a9d1854131054e21cdfcd4757b113ef12d51284d65df67a0ddb80c0526a0',
    ),
    'holes_log_rates': (
        'f434651a641b0222c5f21960e923b55c5fb68dd14113f295aaffa9985878ca27',
        '6c0aca938166642619ea1dd6b1544af2c7f4528207308ff3e6d6804f97754830',
        '9aefa390da64c9617d91c6339b7f493704292dc94a8bb8376f03ec43af7a3d70',
        '285ce6aa02a8a6427ce261105edc0e2f441b78f9562630d7d1509dbbdc58b534',
        '109386915612e6f9b74607658f9f07386d85cb0ad0d3bb1fc341f8764972e4fd',
    ),
    'huge_cell_400x120': (
        'cc9bfd255eebdf694d21c457be65f0a7ce32c7643b77810978d16e85d3e55867',
        '09e7bccac9bfc65956c4cd455013cf42221ddf2027233e1bcf66407c08723c73',
        'bf8bad530a73c03880d241c30556c1685756c360b229625147d1a21a0fcb105b',
        '7baf4acf422151a845ffbec917fde5557f72cde13520f874b0d9731202f0ed94',
        'e43a981d3cd4c8c09561ca2e96a1ed4e7be5530e55b7b8c261501bbb7719105e',
    ),
    'ridge_z_scale_37': (
        '5c1cf42cd36d8c2ef90abebd2fb78d5ba66f2d41eeaff9ef65f4b58045f2471c',
        'd723cb64a5b85b94c0a3b04a489fb20723c178a16f7bb81011e655c1d5185aef',
        '863b6914afe65f85ed38c415755ca46c24fce5de26be2bd8071697b810539c09',
        '5d51d99aefe680682016b04906c906302beab51b5cc630101a52a6ffccaf0088',
        '227ce07dd7ae34a7595005412f58292b32f555519264d36deb8e58119f3feefe',
    ),
    'three_rows': (
        '893ae7991c35f47f343be7fd03a1528b5a6f2dcea0f93a0610f6899bb7be39ee',
        '1035f9e1b4e4a01147b2e0e6b7b58ba3d7246838d54276a0ef8a15ece9ad323f',
        'bc3370afd06f5e01ebb697212c9e9b5e9abe07c8f1f1bbd32b02d0d326e4af6f',
        '07dab7c3d7ae9408d4e2bd3b40e92cf11497a84ff4f8a3ac517db28db0422b1d',
        '9be51c8f836319cfa416d1a12bbb8d7314034e65bd3ea11a07c49feaa28ce136',
    ),
}


def field_digests(field) -> tuple[str, ...]:
    arrays = field_arrays(field)
    return tuple(hashlib.sha256(np.ascontiguousarray(arrays[name]).tobytes())
                 .hexdigest() for name in FIELD_ARRAYS)


class TestGoldenFields:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_field_bytes(self, monkeypatch, case):
        surface, options = GOLDEN_CASES[case]()
        nx = surface.rates.shape[1]
        assert cg.compute_geometry_field(surface, options).valid.any()
        for points in (geometry._BLOCK_POINTS, nx, 7 * nx + 3):
            monkeypatch.setattr(geometry, "_BLOCK_POINTS", points)
            field = cg.compute_geometry_field(surface, options)
            assert field_digests(field) == GOLDEN_DIGESTS[case], points


def record_threads(monkeypatch):
    """Record each thread pool's ``max_workers`` and the threads that run
    kernel blocks."""
    pools, threads = [], set()

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    kernel_rows = geometry._kernel_rows

    def recording_rows(*args):
        threads.add(threading.get_ident())
        kernel_rows(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(geometry, "_kernel_rows", recording_rows)
    return pools, threads


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
        whole = field_arrays(cg.compute_geometry_field(surface, options))
        assert whole["valid"].any()
        for points in (nx, 5 * nx, 7 * nx + 3):
            monkeypatch.setattr(geometry, "_BLOCK_POINTS", points)
            blocked = field_arrays(cg.compute_geometry_field(surface, options))
            for name in FIELD_ARRAYS:
                assert np.array_equal(blocked[name], whole[name]), (points, name)

    def test_more_threads_than_cores(self, monkeypatch):
        # Blocks write disjoint slices of shared arrays; frequent thread
        # switches with eight workers must not lose or mix any row.
        surface = make_surface(blocked_case("holes"))
        ny, nx = surface.rates.shape
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", ny * nx + 1)
        whole = field_arrays(cg.compute_geometry_field(surface))
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", nx)
        # the grid is small enough for the calling thread; force the pool
        monkeypatch.setattr(geometry, "_SERIAL_POINTS", 0)
        monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 8)
        pools, threads = record_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocked = field_arrays(cg.compute_geometry_field(surface))
        finally:
            sys.setswitchinterval(interval)
        # one pool per kernel pass: the field, then its tangents and curvature vectors
        assert pools == [8, 8]
        assert threading.get_ident() not in threads
        assert_fields_equal(blocked, whole)

    def test_hmd_size_grid_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 8)
        surface = make_surface(hmd_like(270, 111, 4, holes=30))
        assert 270 * 111 > 3 * geometry._BLOCK_POINTS
        field = cg.compute_geometry_field(surface)
        assert field_digests(field) == GOLDEN_DIGESTS["hmd_270x111"]

    @pytest.mark.parametrize("ny, pools", [(256, []), (257, [2])])
    def test_pool_only_above_serial_points(self, monkeypatch, ny, pools):
        # 256 x 128 is exactly geometry._SERIAL_POINTS
        surface = make_surface(hmd_like(ny, 128, 6, holes=20))
        monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 1)
        serial = field_arrays(cg.compute_geometry_field(surface))
        monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 2)
        started, threads = record_threads(monkeypatch)
        field = cg.compute_geometry_field(surface)
        assert started == pools
        assert (threading.get_ident() in threads) == (not pools)
        # read the on-demand arrays only after the pools were counted
        assert_fields_equal(field_arrays(field), serial)

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_vectors_leave_the_field_bits_alone(self, monkeypatch, pool):
        # every kernel output goes through one write path: asking for the
        # tangents and curvature vectors must not move a bit of the field
        surface = make_surface(blocked_case("holes"))
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", surface.rates.shape[1])
        if pool:
            monkeypatch.setattr(geometry, "_SERIAL_POINTS", 0)
            monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 8)
        pools, _ = record_threads(monkeypatch)
        field = cg.compute_geometry_field(surface)
        plain = geometry._run_kernel(field.grid)
        with_vectors = geometry._run_kernel(field.grid, vectors=True)
        assert pools == ([8, 8, 8] if pool else [])
        assert len(plain) == 3 and len(with_vectors) == 5
        assert not field.valid[1:-1, 1:-1].all()  # missing cells reject points
        for name, a, b in zip(("valid", "normals", "normal_curvatures"),
                              plain, with_vectors):
            stored = getattr(field, name)
            assert a.dtype == b.dtype == stored.dtype, name
            assert a.tobytes() == b.tobytes() == stored.tobytes(), name
        for vectors in with_vectors[3:]:
            assert vectors.shape == field.shape + (4, 3)
            assert not vectors[~field.valid].any()


def test_kernel_scratch_memory_stays_bounded(monkeypatch):
    # numpy buffers are traced; besides the field's 57 bytes per point, the
    # kernel may hold only block-sized scratch (at most a few MB per worker),
    # never whole-grid copies: 27.6 MB in all, where storing the tangents
    # and curvature vectors took 82 MB. Two workers, as on a 2-core machine.
    monkeypatch.setattr(geometry, "_worker_count", lambda n_blocks: 2)
    surface = make_surface(hmd_like(600, 500, 5, holes=200))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        field = cg.compute_geometry_field(surface)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    field_bytes = sum(getattr(field, name).nbytes
                      for name in ("valid", "normals", "normal_curvatures"))
    assert peak - field_bytes < 16e6
    assert peak < 32e6


def test_prepare_grid_shares_the_surface_rates():
    # 600x500 rates are 2.4 MB; only the axes and the isinf mask may be new.
    surface = make_surface(hmd_like(600, 500, 5, holes=200))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = cg.prepare_grid(surface)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.shares_memory(grid.z, surface.rates)
    assert peak < 2e6


def test_prepare_grid_passes_a_grid_through():
    grid = SurfaceGrid(t=np.arange(3) * 0.5, x=np.arange(4.0), z=np.ones((3, 4)))
    assert cg.prepare_grid(grid) is grid


class TestFieldStorage:
    def test_arrays_are_read_only_views(self):
        field = cg.compute_geometry_field(make_surface(blocked_case("holes")))
        # tangents and curvature vectors are new arrays on each read, read-only too
        for name in ("years", "ages") + FIELD_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(field, name)[1] = 0

    @pytest.mark.parametrize("options", [None, GeometryOptions(z_scale=37.0)])
    def test_stores_57_bytes_per_point(self, options):
        surface = make_surface(blocked_case("holes"))
        field = cg.compute_geometry_field(surface, options)
        ny, nx = field.shape
        stored = [v for v in vars(field).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in stored) == 57 * ny * nx + 8 * (ny + nx)
        assert field.grid.shape == (ny, nx)
        # with default options the kept grid is the surface's rates, not a copy
        assert np.shares_memory(field.grid.z, surface.rates) == (options is None)

    def test_hand_built_field_shares_the_callers_arrays(self):
        ny, nx = 3, 4
        arrays = {"years": np.arange(ny, dtype=float),
                  "ages": np.arange(nx, dtype=float),
                  "valid": np.zeros((ny, nx), dtype=bool),
                  "normals": np.zeros((ny, nx, 3)),
                  "normal_curvatures": np.zeros((ny, nx, 4))}
        field = geometry.GeometryField(options=GeometryOptions(), **arrays)
        for name, arr in arrays.items():
            assert arr.flags.writeable
            assert np.shares_memory(getattr(field, name), arr)
            assert not getattr(field, name).flags.writeable
        with pytest.raises(ValueError, match="built without its grid"):
            field.tangents

    @pytest.mark.parametrize("name, array, message", [
        ("valid", np.zeros((2, 2), dtype=bool), r"valid has shape \(2, 2\), the axes "
         r"need \(3, 4\)"),
        ("valid", np.zeros((3, 4), dtype=int), "valid must be a bool array, not int64"),
        ("normals", np.zeros((3, 4, 2)), r"normals has shape \(3, 4, 2\), the axes "
         r"need \(3, 4, 3\)"),
        ("normal_curvatures", np.zeros((4, 3, 4)), r"normal_curvatures has shape "
         r"\(4, 3, 4\), the axes need \(3, 4, 4\)"),
    ], ids=["valid-shape", "valid-dtype", "normals", "normal-curvatures"])
    def test_hand_built_field_arrays_must_fit_its_axes(self, name, array, message):
        arrays = {"years": np.arange(3.0), "ages": np.arange(4.0),
                  "valid": np.zeros((3, 4), dtype=bool), "normals": np.zeros((3, 4, 3)),
                  "normal_curvatures": np.zeros((3, 4, 4)), name: array}
        with pytest.raises(ValueError, match=f"^{message}$"):
            geometry.GeometryField(options=GeometryOptions(), **arrays)


HUGE_CELL_BLOCKS = (400 * 120 + 1, 32768, 5 * 120)  # whole grid, two blocks, five rows


def huge_cell_fields(monkeypatch):
    """The arrays of the ``one_huge_cell(400, 120)`` field at each of
    ``HUGE_CELL_BLOCKS``, asserting that no kernel pass emits a warning."""
    surface = one_huge_cell(400, 120)
    fields = []
    for points in HUGE_CELL_BLOCKS:
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", points)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fields.append(field_arrays(cg.compute_geometry_field(surface)))
        assert not caught
    return fields


def assert_fields_equal(a: dict, b: dict):
    """Compare two :func:`field_arrays` results."""
    for name in FIELD_ARRAYS:
        assert np.array_equal(a[name], b[name]), name


class TestValidityRule:
    """An overflowing chord rejects its points silently, at any block size."""

    def test_no_warning_same_field_unit_tangents(self, monkeypatch):
        whole, *blocked = huge_cell_fields(monkeypatch)
        for field in blocked:
            assert_fields_equal(field, whole)
        # the border and the huge cell's 3x3 neighbourhood are rejected
        expected = np.zeros((400, 120), dtype=bool)
        expected[1:-1, 1:-1] = True
        expected[199:202, 59:62] = False
        assert np.array_equal(whole["valid"], expected)
        norms = np.linalg.norm(whole["tangents"][whole["valid"]], axis=-1)
        assert norms.shape[1] == 4
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_caller_errstate_has_no_effect(self, monkeypatch):
        default = huge_cell_fields(monkeypatch)
        with np.errstate(all="raise"):
            raising = huge_cell_fields(monkeypatch)
        for a, b in zip(default, raising):
            assert_fields_equal(a, b)

    def test_valid_points_match_scalar_path_rejected_ones_raise(self):
        surface = one_huge_cell(400, 120)
        field = cg.compute_geometry_field(surface)
        grid = cg.prepare_grid(surface)
        # rates do not depend on the year, so every row away from the huge
        # cell repeats row 190's field bit for bit
        arrays = field_arrays(field)
        for name, a in arrays.items():
            for rows in (slice(1, 190), slice(211, 399)):
                assert (a[rows] == a[190]).all(), name
        field_tangents, field_cvs = arrays["tangents"], arrays["curvature_vectors"]
        checked = rejected = 0
        for i in range(190, 211):
            for j in range(1, 119):
                try:
                    tangents, cvs, normal, ncs = cg.compute_point_geometry(grid, i, j)
                except GeometryError:
                    assert not field.valid[i, j], (i, j)
                    rejected += 1
                    continue
                assert field.valid[i, j], (i, j)
                assert np.abs(tangents - field_tangents[i, j]).max() < 1e-13
                assert np.abs(cvs - field_cvs[i, j]).max() < 1e-13
                assert np.abs(normal - field.normals[i, j]).max() < 1e-13
                assert np.abs(ncs - field.normal_curvatures[i, j]).max() < 1e-13
                checked += 1
        assert rejected == 9 and checked == 21 * 118 - 9


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


@st.composite
def rate_grids(draw, max_exponent=300):
    """3..30 x 3..30 grids on integer axes with optional holes; cell
    magnitudes spread over a random decade range within 1e-300..1e300."""
    ny, nx = draw(st.integers(3, 30)), draw(st.integers(3, 30))
    lo = draw(st.integers(-300, max_exponent))
    hi = min(lo + draw(st.integers(0, 600)), max_exponent)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = 10.0 ** rng.uniform(lo, hi, (ny, nx))
    if draw(st.booleans()):
        z = z * rng.choice([-1.0, 1.0], (ny, nx))
    z[rng.random((ny, nx)) < draw(st.sampled_from([0.0, 0.02, 0.2]))] = np.nan
    t0, x0 = draw(st.integers(-3000, 3000)), draw(st.integers(-200, 200))
    return SurfaceGrid(t=np.arange(t0, t0 + ny), x=np.arange(x0, x0 + nx), z=z)


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(grid=rate_grids())
    def test_silent_unit_finite_and_zero_where_rejected(self, grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            field = field_arrays(cg.compute_geometry_field(grid))
        assert not caught
        valid = field["valid"]
        assert not valid[[0, -1]].any() and not valid[:, [0, -1]].any()
        V = np.linalg.norm(field["tangents"][valid], axis=-1)
        N = np.linalg.norm(field["normals"][valid], axis=-1)
        assert np.abs(V - 1.0).max(initial=0.0) < 1e-12
        assert np.abs(N - 1.0).max(initial=0.0) < 1e-12
        assert np.isfinite(field["normal_curvatures"][valid]).all()
        for name in FIELD_ARRAYS[1:]:
            assert not field[name][~valid].any(), name

    @settings(max_examples=100, deadline=None)
    @given(grid=rate_grids(), shift=st.integers(-10**6, 10**6))
    def test_integer_axis_shift_is_exact(self, grid, shift):
        field = field_arrays(cg.compute_geometry_field(grid))
        for t, x in ((grid.t + shift, grid.x), (grid.t, grid.x + shift)):
            assert_fields_equal(field_arrays(
                cg.compute_geometry_field(SurfaceGrid(t=t, x=x, z=grid.z))), field)

    @settings(max_examples=100, deadline=None)
    @given(grid=rate_grids(max_exponent=295), k=st.integers(-16, 16))
    def test_power_of_two_z_scale_is_prescaling(self, grid, k):
        scaled = cg.compute_geometry_field(grid, GeometryOptions(z_scale=2.0**k))
        prescaled = SurfaceGrid(t=grid.t, x=grid.x, z=grid.z * 2.0**k)
        assert_fields_equal(field_arrays(scaled),
                            field_arrays(cg.compute_geometry_field(prescaled)))

    # The two properties below are not bit-exact, so they compare at points
    # valid in both fields. Rates of magnitude at most 1 keep every slope at
    # most 2 per step, where the normal is well conditioned: the rounding
    # error stays within a few hundred ulps of the largest |z| involved.
    @settings(max_examples=100, deadline=None)
    @given(grid=rate_grids(max_exponent=0),
           c=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    def test_z_shift_keeps_normals_and_curvatures(self, grid, c):
        a = cg.compute_geometry_field(grid)
        b = cg.compute_geometry_field(SurfaceGrid(t=grid.t, x=grid.x, z=grid.z + c))
        assert_close_where_both_valid(a, b.valid, b.normals, b.normal_curvatures,
                                      scale=max_abs(grid.z) + abs(c))

    @settings(max_examples=100, deadline=None)
    @given(grid=rate_grids(max_exponent=0))
    def test_transpose_swaps_period_and_age(self, grid):
        # Swapping t and x keeps the cohort diagonal, runs the cross stencil
        # reversed (its curvature vector is even under reversal) and swaps
        # the period and age directions and the normal's t and x components.
        b = cg.compute_geometry_field(SurfaceGrid(t=grid.x, x=grid.t, z=grid.z.T))
        assert_close_where_both_valid(
            cg.compute_geometry_field(grid), b.valid.T,
            b.normals.transpose(1, 0, 2)[..., [1, 0, 2]],
            b.normal_curvatures.transpose(1, 0, 2)[..., [COHORT, CROSS, AGE, PERIOD]],
            scale=max_abs(grid.z))


def max_abs(z: np.ndarray) -> float:
    return float(np.abs(z[~np.isnan(z)]).max(initial=0.0))


def assert_close_where_both_valid(field, valid, normals, curvatures, scale):
    both = field.valid & valid
    tol = 1e-12 * (1.0 + scale)
    assert np.abs(field.normals[both] - normals[both]).max(initial=0.0) <= tol
    assert np.abs(field.normal_curvatures[both] - curvatures[both]).max(initial=0.0) <= tol
