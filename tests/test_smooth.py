"""Analytic oracle: exact curvatures, catalog surfaces, cohort quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

import cohortgeo as cg
from cohortgeo import smooth
from cohortgeo.smooth import AnalyticSurface, QuadratureError


class TestSelfCheck:
    def test_wrong_derivative_rejected(self):
        with pytest.raises(ValueError, match="f_t"):
            AnalyticSurface(
                name="broken",
                f=lambda t, x: t * x,
                f_t=lambda t, x: np.full_like(np.asarray(t, float), 99.0),
                f_x=lambda t, x: np.asarray(t, float),
                f_tt=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_tx=lambda t, x: np.ones_like(np.asarray(t, float)),
                f_xx=lambda t, x: np.zeros_like(np.asarray(t, float)),
                domain=((0.0, 10.0), (0.0, 10.0)),
            )

    def test_wrong_second_derivative_rejected(self):
        with pytest.raises(ValueError, match="f_xx"):
            AnalyticSurface(
                name="broken2",
                f=lambda t, x: np.asarray(x, float) ** 2,
                f_t=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_x=lambda t, x: 2.0 * np.asarray(x, float),
                f_tt=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_tx=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_xx=lambda t, x: np.zeros_like(np.asarray(t, float)),
                domain=((0.0, 10.0), (0.0, 10.0)),
            )

    # the years and ages of a 100-year HMD file, one unit of margin each side
    SWEEP_DOMAIN = ((1899.0, 2001.0), (-1.0, 111.0))

    @pytest.mark.parametrize("seed, family", enumerate(
        ["plane", "gompertz", "ridge", "bump", "sphere"]))
    def test_exact_catalog_surfaces_construct_at_any_size(self, seed, family):
        rng = np.random.default_rng(seed)

        def lu(lo, hi):  # log-uniform
            return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

        def sign():
            return float(rng.choice([-1.0, 1.0]))

        build = {
            "plane": lambda: smooth.plane(sign() * lu(1e-4, 1e3), sign() * lu(1e-4, 1e3),
                                          lu(1.0, 1e3), domain=self.SWEEP_DOMAIN),
            "gompertz": lambda: smooth.gompertz_surface(
                lu(1e-6, 1e-1), rng.uniform(0.01, 0.12), rng.uniform(-0.03, 0.05),
                domain=self.SWEEP_DOMAIN),
            "ridge": lambda: smooth.gaussian_ridge(lu(2.0, 1e3), lu(1e-3, 10.0), 1930.0,
                                                   domain=self.SWEEP_DOMAIN),
            "bump": lambda: smooth.gaussian_bump(lu(2.0, 100.0), (1950.0, 55.0),
                                                 lu(1e-3, 10.0), domain=self.SWEEP_DOMAIN),
            "sphere": lambda: smooth.sphere_cap(lu(200.0, 1e4), (1950.0, 55.0),
                                                domain=self.SWEEP_DOMAIN),
        }[family]
        for _ in range(400):
            build()

    @pytest.mark.parametrize("slope", [1e3, 1e4, 1e5])
    def test_steep_plane_through_the_domain_constructs(self, slope):
        # f is small where f_t is large: the step's own rounding, not f's,
        # would dominate a difference taken with a step like 1e-4
        smooth.plane(slope, 10.0, -1950.0 * slope - 550.0, domain=self.SWEEP_DOMAIN)

    @pytest.mark.parametrize("label, f, f_t, f_x, f_xx", [
        ("f_xx", lambda t, x: 1e5 + x * x, 0.0, lambda t, x: 2.0 * x, 2.01),
        ("f_x", lambda t, x: 1e5 * t + x * x, 1e5, lambda t, x: 2.0 * x + 1e-4, 2.0),
    ], ids=["f_xx-off-by-half-a-percent", "f_x-off-by-1e-4"])
    def test_small_error_on_a_large_surface_rejected(self, label, f, f_t, f_x, f_xx):
        def const(value):
            return lambda t, x: np.full(np.broadcast(t, x).shape, value)
        with pytest.raises(ValueError, match=f"'mis-derived': {label} disagrees"):
            AnalyticSurface(name="mis-derived", f=f, f_t=const(f_t), f_x=f_x,
                            f_tt=const(0.0), f_tx=const(0.0), f_xx=const(f_xx),
                            domain=((0.0, 10.0), (0.0, 10.0)))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            smooth.plane(1.0, 1.0, 0.0, domain=((5.0, 5.0), (0.0, 1.0)))

    def test_surface_off_its_real_domain_rejected(self):
        # a sphere of radius 5 is not real-valued over most of [0, 50]^2
        with pytest.raises(ValueError, match="not finite") as info:
            smooth.sphere_cap(5.0, domain=((0.0, 50.0), (0.0, 50.0)))
        assert "nan" not in str(info.value).lower()

    def test_catalog_members_construct(self):
        smooth.plane(0.3, 0.7, 5.0)
        smooth.sphere_cap(500.0)
        smooth.gaussian_ridge(width=50.0)
        smooth.gaussian_bump(8.0)
        smooth.gompertz_surface()

    @pytest.mark.parametrize("value", [0.0, -2.0, math.inf, math.nan, True, "50",
                                       pytest.param(10**400, id="10**400")])
    def test_ridge_width_and_bump_sigma_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            smooth.gaussian_ridge(width=value)
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            smooth.gaussian_bump(value, domain=((-5.0, 5.0), (-5.0, 5.0)))

    @pytest.mark.parametrize("value", [0.0, -2.0, math.inf, math.nan, True, "50"])
    def test_sphere_radius_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="^radius must be positive and finite, got "):
            smooth.sphere_cap(value, domain=((-5.0, 5.0), (-5.0, 5.0)))

    def test_equal_parameters_give_one_name(self):
        assert smooth.gaussian_bump(8).name == smooth.gaussian_bump(8.0).name
        assert smooth.plane(1, 2, 3).name == smooth.plane(1.0, 2.0, 3.0).name
        assert (smooth.gompertz_surface(improvement=0).name
                == smooth.gompertz_surface(improvement=0.0).name)


class TestNormalCurvature:
    def test_plane_zero_any_direction(self):
        surf = smooth.plane(0.4, -0.0, 2.0, domain=((0, 10), (0, 10)))
        for d in ((1, 1), (1, -1), (0.3, 0.9)):
            assert abs(smooth.smooth_normal_curvature(surf, (4.0, 5.0), d)) < 1e-15

    def test_sphere_minus_one_over_radius(self):
        R = 500.0
        surf = smooth.sphere_cap(R, center=(0.0, 0.0))
        rng = np.random.default_rng(2)
        for _ in range(20):
            point = rng.uniform(-100, 100, size=2)
            d = rng.normal(size=2)
            nc = smooth.smooth_normal_curvature(surf, point, d)
            assert abs(nc + 1.0 / R) < 1e-12

    def test_sphere_diagonals_agree(self):
        surf = smooth.sphere_cap(500.0)
        p = (40.0, -35.0)
        nc1 = smooth.smooth_normal_curvature(surf, p, (1, 1))
        nc2 = smooth.smooth_normal_curvature(surf, p, (1, -1))
        assert abs(nc1 - nc2) < 1e-12

    def test_ridge_flat_along_cohort(self):
        surf = smooth.gaussian_ridge(width=50.0, amplitude=1.0)
        for u in (-7.0, 0.0, 3.0):
            nc = smooth.smooth_normal_curvature(surf, (u / 2, -u / 2), (1, 1))
            assert nc == 0.0  # d^T H d cancels exactly for d = (1, 1)

    def test_ridge_cross_closed_form(self):
        w, amp = 50.0, 1.0
        surf = smooth.gaussian_ridge(width=w, amplitude=amp)
        for u in (0.0, 2.5, -6.0):
            g = amp * math.exp(-u * u / w)
            g1 = -2.0 * u / w * g
            g2 = (4.0 * u * u / (w * w) - 2.0 / w) * g
            expected = 4.0 * g2 / ((2.0 + 4.0 * g1 * g1)
                                   * math.sqrt(1.0 + 2.0 * g1 * g1))
            nc = smooth.smooth_normal_curvature(surf, (u / 2, -u / 2), (1, -1))
            assert abs(nc - expected) < 1e-14

    def test_direction_scaling_invariance(self):
        surf = smooth.gaussian_bump(5.0)
        p = (2.0, -3.0)
        base = smooth.smooth_normal_curvature(surf, p, (0.6, -1.7))
        for k in (7.3, -2.0, 1e-3):
            scaled = smooth.smooth_normal_curvature(surf, p, (0.6 * k, -1.7 * k))
            assert abs(scaled - base) < 1e-12

    def test_zero_direction_rejected(self):
        surf = smooth.plane(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            smooth.smooth_normal_curvature(surf, (1.0, 1.0), (0.0, 0.0))

    def test_normal_is_upward_unit(self):
        surf = smooth.gaussian_bump(5.0)
        n = surf.normal(1.0, 2.0)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
        assert n[2] > 0
        ft = float(surf.f_t(1.0, 2.0))
        fx = float(surf.f_x(1.0, 2.0))
        w = math.sqrt(1 + ft * ft + fx * fx)
        assert np.allclose(n, (-ft / w, -fx / w, 1 / w), atol=1e-14)


class TestCrossDirection:
    def test_plane_z_equals_t(self):
        surf = smooth.plane(1.0, 0.0, 0.0, domain=((0, 10), (0, 10)))
        dt, dx = smooth.cohort_cross_direction(surf, 5.0, 5.0)
        assert abs(dt - 2.0 / 3.0) < 1e-15
        assert abs(dx + 4.0 / 3.0) < 1e-15

    def test_lifted_orthogonality(self):
        rng = np.random.default_rng(9)
        surf = smooth.gaussian_bump(6.0, center=(1.0, -2.0))
        for _ in range(20):
            t, x = rng.uniform(-10, 10, size=2)
            ft = float(surf.f_t(t, x))
            fx = float(surf.f_x(t, x))
            dt, dx = smooth.cohort_cross_direction(surf, t, x)
            lift_T = np.array([1.0, 1.0, ft + fx])
            lift_N = np.array([dt, dx, ft * dt + fx * dx])
            assert abs(np.dot(lift_T, lift_N)) < 1e-12


class TestSmoothCei:
    def test_plane_zero(self):
        surf = smooth.plane(0.2, 0.5, 1.0, domain=((-100, 100), (-100, 100)))
        assert smooth.smooth_cei(surf, 0.0, (-20.0, 20.0)) == 0.0

    def test_sphere_umbilic_vanishes(self):
        surf = smooth.sphere_cap(500.0)
        val = smooth.smooth_cei(surf, 3.0, (-50.0, 50.0))
        assert val < 1e-10

    def test_ridge_peaks_at_origin_cohort(self):
        surf = smooth.gaussian_ridge(width=50.0, domain=((-80, 80), (-80, 80)))
        vals = {c: smooth.smooth_cei(surf, c, (-30.0, 30.0))
                for c in (0, 3, 5, 10, -3, -10)}
        assert all(vals[0] > vals[c] for c in (3, 5, 10, -3, -10))
        # exp(-u^2/50) has inflection points at u = +/-5, so the cohort
        # sitting exactly there has zero cross curvature all along its path
        assert vals[5] == 0.0
        assert abs(vals[3] - vals[-3]) < 1e-9  # symmetric profile
        assert abs(vals[10] - vals[-10]) < 1e-9

    def test_matches_scipy_quadrature(self):
        surf = smooth.gaussian_bump(6.0, center=(0.0, 5.0))
        c = -3.0

        def integrand(t):
            x = t - c
            nc_t = smooth.smooth_normal_curvature(surf, (t, x), (1, 1))
            dn = smooth.cohort_cross_direction(surf, t, x)
            nc_n = smooth.smooth_normal_curvature(surf, (t, x), dn)
            ft = float(surf.f_t(t, x))
            fx = float(surf.f_x(t, x))
            speed = math.sqrt(2.0 + (ft + fx) ** 2)
            return abs(nc_t - nc_n) * speed

        ours = smooth.smooth_cei(surf, c, (-8.0, 12.0))
        ref, err = quad(integrand, -8.0, 12.0, limit=200)
        assert err < 1e-8
        assert abs(ours - ref) < 1e-6 * max(1.0, abs(ref))

    def test_quadrature_convergence_budget(self, monkeypatch):
        monkeypatch.setattr(smooth, "_REL_TOL", 1e-16)
        monkeypatch.setattr(smooth, "_MAX_HALVINGS", 2)
        surf = smooth.gaussian_bump(6.0)
        with pytest.raises(QuadratureError):
            smooth.smooth_cei(surf, 0.0, (-10.0, 10.0))

    def test_deterministic(self):
        surf = smooth.gaussian_ridge(width=40.0)
        a = smooth.smooth_cei(surf, 1.0, (-20.0, 20.0))
        b = smooth.smooth_cei(surf, 1.0, (-20.0, 20.0))
        assert a == b

    def test_domain_enforced(self):
        surf = smooth.gaussian_bump(5.0)  # default domain +-20
        with pytest.raises(ValueError, match="domain"):
            smooth.smooth_cei(surf, 0.0, (-50.0, 50.0))

    def test_empty_range_rejected(self):
        surf = smooth.plane(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            smooth.smooth_cei(surf, 0.0, (5.0, 5.0))


class TestMaterialization:
    def test_sample_grid_axes(self):
        surf = smooth.plane(0.1, 0.2, 3.0, domain=((-10, 10), (-10, 10)))
        grid = smooth.sample_grid(surf, -2, 2, -1, 1, step=0.5)
        assert np.allclose(grid.t, np.arange(-2, 2.25, 0.5))
        assert np.allclose(grid.x, np.arange(-1, 1.25, 0.5))
        assert grid.z[0, 0] == 0.1 * -2 + 0.2 * -1 + 3.0

    def test_sample_grid_bad_step(self):
        surf = smooth.plane(0.1, 0.2, 3.0)
        with pytest.raises(ValueError):
            smooth.sample_grid(surf, 0, 5, 0, 5, step=0.0)

    @pytest.mark.parametrize("step", ["1", True, math.inf, None,
                                      pytest.param(10**400, id="10**400")])
    def test_sample_grid_step_must_be_a_positive_real(self, step):
        surf = smooth.plane(0.1, 0.2, 3.0)
        with pytest.raises(ValueError, match="^step must be positive$"):
            smooth.sample_grid(surf, 0, 5, 0, 5, step=step)

    def test_materialize_mortality_surface(self):
        surf = smooth.gompertz_surface()
        ms = smooth.materialize_mortality_surface(
            surf, np.arange(1900, 1910), np.arange(0, 5))
        assert ms.rates.shape == (10, 5)
        assert ms.source_label.startswith("gompertz")
        assert float(ms.rates.min()) > 0
        # ageing dominates: rates increase along the age axis
        assert np.all(np.diff(ms.rates, axis=1) > 0)

    def test_gompertz_pipeline_runs(self):
        surf = smooth.gompertz_surface()
        ms = smooth.materialize_mortality_surface(
            surf, np.arange(1900, 1920), np.arange(0, 15))
        field = cg.compute_geometry_field(ms)
        assert field.valid.sum() == 18 * 13
