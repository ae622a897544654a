"""Exact differential geometry on smooth synthetic surfaces z = f(t, x).

Ground truth for the discrete kernel: closed-form first and second
derivatives give the exact unit normal and the normal curvature along any
tangent direction via the standard graph-surface fundamental forms. A
small catalog of surfaces with hand-coded derivatives is provided; every
construction self-checks each supplied derivative against a central first
difference of the function one order below it (``f_t`` and ``f_x`` of
``f``, ``f_tt`` and ``f_tx`` of ``f_t``, ``f_xx`` of ``f_x``) at 100
random sample points.

For a birth cohort ``c`` the cohort path is ``t -> (t, t - c, f(t, t-c))``.
The smooth cohort effect index integrates ``|NC_T - NC_N|`` along that path
with respect to arc length, where ``T`` is the lifted (1, 1) direction and
``N`` is its in-tangent-plane orthogonal complement (Gram-Schmidt within
the tangent plane). The integrand has an absolute value and therefore
possible kinks, so the quadrature is a composite midpoint rule with
adaptive step halving rather than a higher-order rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CohortGeoError
from .surface import MortalitySurface, SurfaceGrid, _positive_real

_SELF_CHECK_POINTS = 100
_SELF_CHECK_TOL = 1e-6
# a power of two near 1e-4: t + h and t - h round only where they cross a
# power of two, so a difference divides by the step it really took
_FD_STEP = 2.0 ** -13
# smooth_cei's midpoint schedule: 16 intervals, halved until two successive
# sums agree to _REL_TOL relative, at most _MAX_HALVINGS times
_REL_TOL = 1e-8
_MAX_HALVINGS = 20

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureError(CohortGeoError):
    """Adaptive quadrature failed to converge within the refinement budget."""


@dataclass(frozen=True)
class AnalyticSurface:
    """Smooth surface with closed-form derivatives up to second order.

    ``domain`` bounds where the surface (and its cohort paths) may be
    evaluated; the derivative self-check samples uniformly inside it.
    """

    name: str
    f: ScalarField
    f_t: ScalarField
    f_x: ScalarField
    f_tt: ScalarField
    f_tx: ScalarField
    f_xx: ScalarField
    domain: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 100.0), (0.0, 100.0))

    def __post_init__(self) -> None:
        (t0, t1), (x0, x1) = self.domain
        if not (t0 < t1 and x0 < x1):
            raise ValueError(f"empty domain for surface {self.name!r}")
        self._self_check()

    def _self_check(self) -> None:
        # Each derivative must agree with a central first difference of the
        # function one order below it, within _SELF_CHECK_TOL plus that
        # difference's own rounding noise; a mismatch means a catalog entry
        # (or user surface) was mis-derived.
        (t0, t1), (x0, x1) = self.domain
        rng = np.random.default_rng(0)
        pad_t = 0.05 * (t1 - t0)
        pad_x = 0.05 * (x1 - x0)
        t = rng.uniform(t0 + pad_t, t1 - pad_t, _SELF_CHECK_POINTS)
        x = rng.uniform(x0 + pad_x, x1 - pad_x, _SELF_CHECK_POINTS)
        h = _FD_STEP
        checks = (("f_t", self.f_t, self.f, h, 0.0), ("f_x", self.f_x, self.f, 0.0, h),
                  ("f_tt", self.f_tt, self.f_t, h, 0.0), ("f_xx", self.f_xx, self.f_x, 0.0, h),
                  ("f_tx", self.f_tx, self.f_t, 0.0, h))
        for label, derivative, below, dt, dx in checks:
            # Off the surface's real domain the formulas give nan; that is
            # reported below, so numpy's warnings about it are noise.
            with np.errstate(all="ignore"):
                exact = np.asarray(derivative(t, x), dtype=float)
                up, down = below(t + dt, x + dx), below(t - dt, x - dx)
                approx = (up - down) / (2 * h)
                noise = np.finfo(float).eps * (np.abs(up) + np.abs(down)) / h
            if not (np.isfinite(exact).all() and np.isfinite(approx).all()):
                raise ValueError(
                    f"surface {self.name!r}: {label} is not finite everywhere "
                    f"on the domain {self.domain}; the surface is not "
                    f"real-valued there"
                )
            err = np.abs(exact - approx)
            if not np.all(err < _SELF_CHECK_TOL + noise):
                raise ValueError(
                    f"surface {self.name!r}: {label} disagrees with finite "
                    f"differences (max error {float(np.max(err)):.3e})"
                )

    def contains(self, t: float, x: float) -> bool:
        (t0, t1), (x0, x1) = self.domain
        return t0 <= t <= t1 and x0 <= x <= x1

    def normal(self, t, x) -> np.ndarray:
        """Upward unit normal(s) at (t, x); stacked on the last axis."""
        ft = np.asarray(self.f_t(t, x), dtype=float)
        fx = np.asarray(self.f_x(t, x), dtype=float)
        w = np.sqrt(1.0 + ft * ft + fx * fx)
        return np.stack([-ft / w, -fx / w, np.ones_like(ft) / w], axis=-1)


def smooth_normal_curvature(surface: AnalyticSurface, point, direction) -> float:
    """Exact normal curvature at ``point`` along a (t, x) direction.

    Second fundamental form over first, for the graph z = f(t, x) with the
    upward normal: ``(d^T H d) / (|lifted d|^2 sqrt(1 + |grad f|^2))``.
    Invariant under scaling of ``direction``.
    """
    t, x = float(point[0]), float(point[1])
    dt, dx = float(direction[0]), float(direction[1])
    if dt == 0.0 and dx == 0.0:
        raise ValueError("direction must be nonzero")
    return float(_nc_dir(surface, np.asarray(t), np.asarray(x), dt, dx))


def _nc_dir(surface: AnalyticSurface, t, x, dt, dx):
    ft = surface.f_t(t, x)
    fx = surface.f_x(t, x)
    num = (dt * dt * surface.f_tt(t, x)
           + 2.0 * dt * dx * surface.f_tx(t, x)
           + dx * dx * surface.f_xx(t, x))
    dz = ft * dt + fx * dx
    first_form = dt * dt + dx * dx + dz * dz
    w = np.sqrt(1.0 + ft * ft + fx * fx)
    return num / (first_form * w)


def cohort_cross_direction(surface: AnalyticSurface, t, x):
    """(t, x) direction whose lift is tangent-plane-orthogonal to the cohort lift.

    Gram-Schmidt of the lifted (1, -1) direction against the lifted (1, 1)
    direction, expressed back in the parameter plane.
    """
    ft = surface.f_t(t, x)
    fx = surface.f_x(t, x)
    e1z = ft + fx
    e2z = ft - fx
    # lifted e1 = (1, 1, e1z), e2 = (1, -1, e2z); mu = <e2,e1>/<e1,e1>
    mu = e1z * e2z / (2.0 + e1z * e1z)
    return 1.0 - mu, -1.0 - mu


def smooth_cei(surface: AnalyticSurface, birth_year: float,
               t_range: tuple[float, float]) -> float:
    """Arc-length integral of ``|NC_T - NC_N|`` along one cohort path.

    Composite midpoint quadrature starting at 16 intervals, halving until
    two successive refinements agree to 1e-8 relative. Raises
    :class:`QuadratureError` after 20 halvings without agreement.
    """
    a, b = float(t_range[0]), float(t_range[1])
    if not a < b:
        raise ValueError(f"empty integration range [{a}, {b}]")
    c = float(birth_year)
    for endpoint in (a, b):
        if not surface.contains(endpoint, endpoint - c):
            raise ValueError(
                f"cohort path for birth year {c} leaves the domain at t={endpoint}"
            )

    def total(n: int) -> float:
        tm = a + (np.arange(n) + 0.5) * ((b - a) / n)
        xm = tm - c
        nc_t = _nc_dir(surface, tm, xm, 1.0, 1.0)
        nc_n = _nc_dir(surface, tm, xm, *cohort_cross_direction(surface, tm, xm))
        speed = np.sqrt(2.0 + (surface.f_t(tm, xm) + surface.f_x(tm, xm)) ** 2)
        return float(np.sum(np.abs(nc_t - nc_n) * speed) * ((b - a) / n))

    n = 16
    prev = total(n)
    for _ in range(_MAX_HALVINGS):
        n *= 2
        cur = total(n)
        if abs(cur - prev) <= _REL_TOL * max(abs(cur), abs(prev)):
            return cur
        if abs(cur) < 1e-15 and abs(prev) < 1e-15:
            return cur
        prev = cur
    raise QuadratureError(
        f"cohort integral did not converge after {_MAX_HALVINGS} halvings"
    )


# --- catalog -----------------------------------------------------------------

def _const_field(value: float) -> ScalarField:
    def g(t, x):
        shape = np.broadcast(np.asarray(t), np.asarray(x)).shape
        return np.full(shape, value, dtype=float)
    return g


def plane(a: float, b: float, c: float,
          domain=((0.0, 100.0), (0.0, 100.0))) -> AnalyticSurface:
    """z = a t + b x + c. Zero curvature everywhere."""
    a, b, c = float(a), float(b), float(c)
    return AnalyticSurface(
        name=f"plane({a},{b},{c})",
        f=lambda t, x: a * np.asarray(t, float) + b * np.asarray(x, float) + c,
        f_t=_const_field(a),
        f_x=_const_field(b),
        f_tt=_const_field(0.0),
        f_tx=_const_field(0.0),
        f_xx=_const_field(0.0),
        domain=domain,
    )


def sphere_cap(radius: float, center=(0.0, 0.0), domain=None) -> AnalyticSurface:
    """Upper cap of a sphere: umbilic, normal curvature -1/R in every direction."""
    r = _positive_real(radius, ValueError(
        f"radius must be positive and finite, got {radius!r}"))
    t0, x0 = float(center[0]), float(center[1])
    if domain is None:
        half = 0.5 * r / math.sqrt(2.0)
        domain = ((t0 - half, t0 + half), (x0 - half, x0 + half))

    def zfun(t, x):
        return np.sqrt(r * r - (np.asarray(t, float) - t0) ** 2
                       - (np.asarray(x, float) - x0) ** 2)

    def f_t(t, x):
        return -(np.asarray(t, float) - t0) / zfun(t, x)

    def f_x(t, x):
        return -(np.asarray(x, float) - x0) / zfun(t, x)

    def f_tt(t, x):
        z = zfun(t, x)
        return -(z * z + (np.asarray(t, float) - t0) ** 2) / z ** 3

    def f_xx(t, x):
        z = zfun(t, x)
        return -(z * z + (np.asarray(x, float) - x0) ** 2) / z ** 3

    def f_tx(t, x):
        z = zfun(t, x)
        return -((np.asarray(t, float) - t0) * (np.asarray(x, float) - x0)) / z ** 3

    return AnalyticSurface(
        name=f"sphere_cap(R={r})",
        f=zfun, f_t=f_t, f_x=f_x, f_tt=f_tt, f_tx=f_tx, f_xx=f_xx,
        domain=domain,
    )


def gaussian_ridge(width: float = 50.0, amplitude: float = 1.0,
                   center: float = 0.0,
                   domain=((-50.0, 50.0), (-50.0, 50.0))) -> AnalyticSurface:
    """Cohort-aligned ridge ``z = g(t - x)``, profile
    ``g(u) = amplitude * exp(-(u-center)^2 / width)``.

    ``u = t - x`` is the birth year, so ``center`` is the birth year the
    ridge sits on. Flat along (1, 1); all bending is across the ridge.
    ``width`` must be positive and finite.
    """
    w = _positive_real(width, ValueError(f"width must be positive and finite, got {width!r}"))
    amp = float(amplitude)
    u0 = float(center)

    def u(t, x):
        return np.asarray(t, float) - np.asarray(x, float)

    def g(t, x):
        return amp * np.exp(-((u(t, x) - u0) ** 2) / w)

    def g1(t, x):
        return -2.0 * (u(t, x) - u0) / w * g(t, x)

    def g2(t, x):
        return (4.0 * (u(t, x) - u0) ** 2 / (w * w) - 2.0 / w) * g(t, x)

    return AnalyticSurface(
        name=f"gaussian_ridge(width={w},amp={amp},center={u0})",
        f=g, f_t=g1, f_x=lambda t, x: -g1(t, x),
        f_tt=g2, f_tx=lambda t, x: -g2(t, x), f_xx=g2,
        domain=domain,
    )


def gaussian_bump(sigma: float, center=(0.0, 0.0), amplitude: float = 1.0,
                  domain=None) -> AnalyticSurface:
    """Radially symmetric bump ``amp * exp(-rho^2 / (2 sigma^2))``, for a
    positive and finite ``sigma``."""
    sigma = _positive_real(sigma, ValueError(
        f"sigma must be positive and finite, got {sigma!r}"))
    s2 = sigma ** 2  # ** raises OverflowError where sigma * sigma gives inf
    amp = float(amplitude)
    t0, x0 = float(center[0]), float(center[1])
    if domain is None:
        r = 4.0 * sigma
        domain = ((t0 - r, t0 + r), (x0 - r, x0 + r))

    def g(t, x):
        dt = np.asarray(t, float) - t0
        dx = np.asarray(x, float) - x0
        return amp * np.exp(-(dt * dt + dx * dx) / (2.0 * s2))

    def f_t(t, x):
        return -(np.asarray(t, float) - t0) / s2 * g(t, x)

    def f_x(t, x):
        return -(np.asarray(x, float) - x0) / s2 * g(t, x)

    def f_tt(t, x):
        dt = np.asarray(t, float) - t0
        return (dt * dt / s2 - 1.0) / s2 * g(t, x)

    def f_xx(t, x):
        dx = np.asarray(x, float) - x0
        return (dx * dx / s2 - 1.0) / s2 * g(t, x)

    def f_tx(t, x):
        dt = np.asarray(t, float) - t0
        dx = np.asarray(x, float) - x0
        return dt * dx / (s2 * s2) * g(t, x)

    return AnalyticSurface(
        name=f"gaussian_bump(sigma={sigma},amp={amp})",
        f=g, f_t=f_t, f_x=f_x, f_tt=f_tt, f_tx=f_tx, f_xx=f_xx,
        domain=domain,
    )


def gompertz_surface(base_rate: float = 1e-4, age_slope: float = 0.09,
                     improvement: float = 0.01,
                     domain=((1900.0, 2000.0), (0.0, 100.0))) -> AnalyticSurface:
    """Separable mortality-like surface: exponential ageing times period decline.

    ``z = base_rate * exp(age_slope * x) * exp(-improvement * (t - t_start))``.
    """
    base_rate, age_slope = float(base_rate), float(age_slope)
    improvement = float(improvement)
    t_start = domain[0][0]

    def u(t):
        return np.exp(-improvement * (np.asarray(t, float) - t_start))

    def v(x):
        return base_rate * np.exp(age_slope * np.asarray(x, float))

    return AnalyticSurface(
        name=f"gompertz(base={base_rate},age_slope={age_slope},improvement={improvement})",
        f=lambda t, x: u(t) * v(x),
        f_t=lambda t, x: (-improvement * u(t)) * v(x),
        f_x=lambda t, x: u(t) * (age_slope * v(x)),
        f_tt=lambda t, x: (improvement * improvement * u(t)) * v(x),
        f_tx=lambda t, x: (-improvement * u(t)) * (age_slope * v(x)),
        f_xx=lambda t, x: u(t) * (age_slope * age_slope * v(x)),
        domain=domain,
    )


# --- materialization ---------------------------------------------------------

def sample_grid(surface: AnalyticSurface,
                t_start: float, t_stop: float,
                x_start: float, x_stop: float,
                step: float = 1.0) -> SurfaceGrid:
    """Evaluate the surface on a regular grid (any positive step)."""
    _positive_real(step, ValueError("step must be positive"))
    nt = int(math.floor((t_stop - t_start) / step + 1e-9)) + 1
    nx = int(math.floor((x_stop - x_start) / step + 1e-9)) + 1
    t = t_start + step * np.arange(nt)
    x = x_start + step * np.arange(nx)
    z = surface.f(t[:, None], x[None, :])
    return SurfaceGrid(t=t, x=x, z=np.asarray(z, dtype=float))


def materialize_mortality_surface(surface: AnalyticSurface,
                                  years, ages) -> MortalitySurface:
    """Sample on an integer year/age grid and wrap as a mortality surface.

    Values must be nonnegative (mortality-surface invariant); pick catalog
    parameters accordingly.
    """
    years = np.asarray(years)
    ages = np.asarray(ages)
    z = surface.f(years.astype(float)[:, None], ages.astype(float)[None, :])
    return MortalitySurface(
        years=years,
        ages=ages,
        rates=np.asarray(z, dtype=float),
        source_label=surface.name,
    )
