"""Analytic oracle: exact curvatures, catalog surfaces, cohort quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

import cohortgeo as cg
from cohortgeo import smooth
from cohortgeo.smooth import AnalyticSurface, QuadratureError
from cohortgeo.surface import _MAX_GRID_CELLS, _check_grid_size

# a power of two near 1e-4: t + h and t - h round only where they cross a
# power of two, so a difference divides by the step it really took
FD_STEP = 2.0 ** -13
FD_TOL = 1e-6


def assert_derivatives_match(surface: AnalyticSurface) -> None:
    """Check each derivative of ``surface`` against a central first
    difference of the function one order below it (``f_t`` and ``f_x`` of
    ``f``, ``f_tt`` and ``f_tx`` of ``f_t``, ``f_xx`` of ``f_x``) at 100 seeded
    points inside the inner 90% of its domain. The tolerance is ``FD_TOL``
    plus the difference's own rounding noise, 4 ulps per evaluation (the
    chain rule adds two roundings). Construction checks none of this, so
    this is how to check a hand-built surface."""
    (t0, t1), (x0, x1) = surface.domain
    rng = np.random.default_rng(0)
    pad_t, pad_x = 0.05 * (t1 - t0), 0.05 * (x1 - x0)
    t = rng.uniform(t0 + pad_t, t1 - pad_t, 100)
    x = rng.uniform(x0 + pad_x, x1 - pad_x, 100)
    h = FD_STEP
    checks = (("f_t", surface.f_t, surface.f, h, 0.0), ("f_x", surface.f_x, surface.f, 0.0, h),
              ("f_tt", surface.f_tt, surface.f_t, h, 0.0),
              ("f_xx", surface.f_xx, surface.f_x, 0.0, h),
              ("f_tx", surface.f_tx, surface.f_t, 0.0, h))
    for label, derivative, below, dt, dx in checks:
        with np.errstate(all="ignore"):  # a nan fails the comparison below
            exact = np.asarray(derivative(t, x), dtype=float)
            up, down = below(t + dt, x + dx), below(t - dt, x - dx)
            approx = (up - down) / (2 * h)
            noise = 2 * np.finfo(float).eps * (np.abs(up) + np.abs(down)) / h
        err = np.abs(exact - approx)
        assert np.all(err < FD_TOL + noise), (
            f"surface {surface.name!r}: {label} disagrees with finite "
            f"differences (max error {float(np.max(err)):.3e})")


class TestSelfCheck:
    def test_wrong_derivative_rejected(self):
        with pytest.raises(AssertionError, match="f_t"):
            assert_derivatives_match(AnalyticSurface(
                name="broken",
                f=lambda t, x: t * x,
                f_t=lambda t, x: np.full_like(np.asarray(t, float), 99.0),
                f_x=lambda t, x: np.asarray(t, float),
                f_tt=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_tx=lambda t, x: np.ones_like(np.asarray(t, float)),
                f_xx=lambda t, x: np.zeros_like(np.asarray(t, float)),
                domain=((0.0, 10.0), (0.0, 10.0)),
            ))

    def test_wrong_second_derivative_rejected(self):
        with pytest.raises(AssertionError, match="f_xx"):
            assert_derivatives_match(AnalyticSurface(
                name="broken2",
                f=lambda t, x: np.asarray(x, float) ** 2,
                f_t=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_x=lambda t, x: 2.0 * np.asarray(x, float),
                f_tt=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_tx=lambda t, x: np.zeros_like(np.asarray(t, float)),
                f_xx=lambda t, x: np.zeros_like(np.asarray(t, float)),
                domain=((0.0, 10.0), (0.0, 10.0)),
            ))

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
            assert_derivatives_match(build())

    @pytest.mark.parametrize("slope", [1e3, 1e4, 1e5])
    def test_steep_plane_through_the_domain_constructs(self, slope):
        # f is small where f_t is large: the step's own rounding, not f's,
        # would dominate a difference taken with a step like 1e-4
        assert_derivatives_match(
            smooth.plane(slope, 10.0, -1950.0 * slope - 550.0, domain=self.SWEEP_DOMAIN))

    @pytest.mark.parametrize("surface", [
        lambda d: smooth.plane(5.19e-229, -7.14e57, 5.35e59, domain=d),
        lambda d: smooth.gaussian_ridge(0.00138, 7.1e7, 1833.3, domain=d),
    ], ids=["plane-cancels", "ridge-truncates"])
    def test_exact_surface_beyond_finite_differences_samples(self, surface):
        # a construction-time finite-difference check refused these exact
        # surfaces: f cancels between huge terms, or a difference truncates
        grid = smooth.sample_grid(surface(self.SWEEP_DOMAIN), 1900, 2000, 0, 110)
        assert grid.z.shape == (101, 111) and np.isfinite(grid.z).all()

    @pytest.mark.parametrize("label, f, f_t, f_x, f_xx", [
        ("f_xx", lambda t, x: 1e5 + x * x, 0.0, lambda t, x: 2.0 * x, 2.01),
        ("f_x", lambda t, x: 1e5 * t + x * x, 1e5, lambda t, x: 2.0 * x + 1e-4, 2.0),
    ], ids=["f_xx-off-by-half-a-percent", "f_x-off-by-1e-4"])
    def test_small_error_on_a_large_surface_rejected(self, label, f, f_t, f_x, f_xx):
        def const(value):
            return lambda t, x: np.full(np.broadcast(t, x).shape, value)
        with pytest.raises(AssertionError, match=f"'mis-derived': {label} disagrees"):
            assert_derivatives_match(AnalyticSurface(
                name="mis-derived", f=f, f_t=const(f_t), f_x=f_x, f_tt=const(0.0),
                f_tx=const(0.0), f_xx=const(f_xx), domain=((0.0, 10.0), (0.0, 10.0))))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            smooth.plane(1.0, 1.0, 0.0, domain=((5.0, 5.0), (0.0, 1.0)))

    @pytest.mark.parametrize("domain", [((0.0, math.inf), (0.0, 1.0)),
                                        ((-1e308, 1e308), (0.0, 1.0)),
                                        ((0.0, 1.0), (math.nan, 1.0))],
                             ids=["infinite", "extent-overflows", "nan"])
    def test_domain_without_a_finite_extent_rejected(self, domain):
        with pytest.raises(ValueError, match=r"^surface 'plane\(1.0,1.0,1.0\)': domain "
                           r".* needs a positive, finite extent on each axis$"):
            smooth.plane(1, 1, 1, domain=domain)

    def test_surface_off_its_real_domain_rejected(self):
        # a sphere of radius 5 is not real-valued over most of [0, 50]^2:
        # it constructs, and sampling it names the first cell off the cap
        surf = smooth.sphere_cap(5.0, domain=((0.0, 50.0), (0.0, 50.0)))
        with pytest.raises(ValueError, match="not finite") as info:
            smooth.sample_grid(surf, 0, 50, 0, 50)
        assert str(info.value) == (
            "surface 'sphere_cap(R=5.0,center=(0.0,0.0))': f is not finite at "
            "(t, x) = (0.0, 6.0)")

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

    def test_names_hold_every_input_the_formula_uses(self):
        assert (smooth.sphere_cap(500.0).name
                != smooth.sphere_cap(500.0, center=(10.0, 0.0)).name)
        assert (smooth.gaussian_bump(8.0).name
                != smooth.gaussian_bump(8.0, center=(0.0, 10.0)).name)
        assert (smooth.gompertz_surface(domain=((1900, 2000), (0, 100))).name
                != smooth.gompertz_surface(domain=((1950, 2050), (0, 100))).name)
        assert smooth.gaussian_bump(8, center=(1, 2)).name == \
            "gaussian_bump(sigma=8.0,amp=1.0,center=(1.0,2.0))"


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

    def test_non_finite_sample_names_its_cell(self):
        # the cap ends 0.3 inside the domain's corners; the grid reaches them
        surf = smooth.sphere_cap(9.8, domain=((-7.2, 7.2), (-7.2, 7.2)))
        with pytest.raises(ValueError) as info:
            smooth.materialize_mortality_surface(surf, range(-7, 8), range(-7, 8))
        assert str(info.value) == (
            "surface 'sphere_cap(R=9.8,center=(0.0,0.0))': f is not finite at "
            "(t, x) = (-7, -7)")

    def test_grid_size_rule(self):
        surf = smooth.plane(0.1, 0.2, 3.0)
        budget = f"over the budget of {_MAX_GRID_CELLS:,}"
        # refused before the axes are built: 10**12 cells would need terabytes
        with pytest.raises(ValueError, match=f"^sample_grid: a 1000001 x 1000001 "
                                             f"grid has 1,000,002,000,001 cells, {budget}$"):
            smooth.sample_grid(surf, 0, 1e6, 0, 1e6)
        with pytest.raises(ValueError, match=f"^surface 'plane.*': a 4001 x 1000 grid "
                                             f"has 4,001,000 cells, {budget}$"):
            smooth.materialize_mortality_surface(surf, np.arange(4001), np.arange(1000))
        _check_grid_size(1000, 1000, "the stress grid")
        _check_grid_size(2000, 2000, "a grid at the budget")
        _check_grid_size(-5, -10**9, "an empty grid")  # a reversed sample_grid range
