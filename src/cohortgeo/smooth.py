"""Exact differential geometry on smooth synthetic surfaces z = f(t, x).

Ground truth for the discrete kernel: closed-form first and second
derivatives give the exact unit normal and the normal curvature along any
tangent direction via the standard graph-surface fundamental forms. Each
surface of the small catalog is z = h(q(t, x)) for a form q of degree at
most 2, and one chain rule gives its derivatives from h', h'' and q's
gradient and Hessian; it also converts the coordinates to float arrays
once, before any formula sees them. Construction checks no derivative; the
tests compare each with a finite difference. Sampling refuses a grid over
``surface._check_grid_size``'s budget and any value that is not finite.
Every real parameter is read once, by ``surface._real``.

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
from .surface import (MortalitySurface, SurfaceGrid, _as_contiguous_int_axis,
                      _check_grid_size, _positive_real, _real)

# smooth_cei's midpoint schedule: 16 intervals, halved until two successive
# sums agree to _REL_TOL relative, at most _MAX_HALVINGS times
_REL_TOL = 1e-8
_MAX_HALVINGS = 20

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _floats(name: str, *values: object) -> list[float]:
    """``values`` as floats by :func:`surface._real`, else a ValueError naming ``name``."""
    error = ValueError(f"{name}: parameters must be real numbers, got {values!r}")
    return [_real(value, error) for value in values]


class QuadratureError(CohortGeoError):
    """Adaptive quadrature failed to converge within the refinement budget."""


@dataclass(frozen=True)
class AnalyticSurface:
    """Smooth surface with closed-form derivatives up to second order.

    ``domain`` bounds where the surface's cohort paths may be integrated.
    Construction does not check the derivatives against ``f``; for a
    hand-built surface, ``assert_derivatives_match`` in ``tests/test_smooth.py``
    does.
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
        t0, t1, x0, x1 = _floats(f"surface {self.name!r}: domain", t0, t1, x0, x1)
        if not (0 < t1 - t0 < math.inf and 0 < x1 - x0 < math.inf):
            raise ValueError(f"surface {self.name!r}: domain {self.domain} needs "
                             f"a positive, finite extent on each axis")

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
    t, x, dt, dx = _floats("smooth_normal_curvature", point[0], point[1],
                           direction[0], direction[1])
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
    a, b, c = _floats("smooth_cei", t_range[0], t_range[1], birth_year)
    if not a < b:
        raise ValueError(f"empty integration range [{a}, {b}]")
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

def _chain(name: str, f: ScalarField, h1: ScalarField, h2: ScalarField,
           grad: Callable, hess: tuple[float, float, float],
           domain) -> AnalyticSurface:
    """The surface f = h(q(t, x)) for a form q of degree at most 2: ``h1``
    and ``h2`` give h'(q) and h''(q) at (t, x), ``grad`` gives (q_t, q_x)
    and ``hess`` is the constant (q_tt, q_tx, q_xx), so that f_a = h' q_a
    and f_ab = h'' q_a q_b + h' q_ab. ``f`` is used as given, so sampled
    values keep their bits; all six take (t, x) as float arrays from here."""
    def on_floats(g):
        return lambda t, x: g(np.asarray(t, float), np.asarray(x, float))

    def first(a):
        return on_floats(lambda t, x: h1(t, x) * grad(t, x)[a])

    def second(a, b, q_ab):
        def f_ab(t, x):
            q = grad(t, x)
            return h2(t, x) * q[a] * q[b] + h1(t, x) * q_ab
        return on_floats(f_ab)

    return AnalyticSurface(name=name, f=on_floats(f), f_t=first(0), f_x=first(1),
                           f_tt=second(0, 0, hess[0]), f_tx=second(0, 1, hess[1]),
                           f_xx=second(1, 1, hess[2]), domain=domain)


def _radial(name: str, f: ScalarField, h1: ScalarField, h2: ScalarField,
            center: tuple[float, float], domain) -> AnalyticSurface:
    """z = h(rho^2), rho the distance from ``center``."""
    t0, x0 = center
    return _chain(name, f, h1, h2, lambda t, x: (2.0 * (t - t0), 2.0 * (x - x0)),
                  (2.0, 0.0, 2.0), domain)


def _const_field(value: float) -> ScalarField:
    return lambda t, x: np.full(np.broadcast(t, x).shape, value, dtype=float)


def plane(a: float, b: float, c: float,
          domain=((0.0, 100.0), (0.0, 100.0))) -> AnalyticSurface:
    """z = a t + b x + c. Zero curvature everywhere."""
    a, b, c = _floats("plane", a, b, c)
    return _chain(f"plane({a},{b},{c})", lambda t, x: a * t + b * x + c,
                  _const_field(1.0), _const_field(0.0), lambda t, x: (a, b),
                  (0.0, 0.0, 0.0), domain)


def sphere_cap(radius: float, center=(0.0, 0.0), domain=None) -> AnalyticSurface:
    """Upper cap of a sphere: umbilic, normal curvature -1/R in every direction."""
    r = _positive_real(radius, ValueError(
        f"radius must be positive and finite, got {radius!r}"))
    t0, x0 = _floats("sphere_cap", center[0], center[1])
    if domain is None:
        half = 0.5 * r / math.sqrt(2.0)
        domain = ((t0 - half, t0 + half), (x0 - half, x0 + half))

    def zfun(t, x):
        return np.sqrt(r * r - (t - t0) ** 2 - (x - x0) ** 2)
    return _radial(f"sphere_cap(R={r},center=({t0},{x0}))", zfun,
                   lambda t, x: -0.5 / zfun(t, x),
                   lambda t, x: -0.25 / zfun(t, x) ** 3, (t0, x0), domain)


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
    amp, u0 = _floats("gaussian_ridge", amplitude, center)

    def g(t, x):
        return amp * np.exp(-((t - x - u0) ** 2) / w)

    def g1(t, x):
        return -2.0 * (t - x - u0) / w * g(t, x)

    def g2(t, x):
        return (4.0 * (t - x - u0) ** 2 / (w * w) - 2.0 / w) * g(t, x)

    return _chain(f"gaussian_ridge(width={w},amp={amp},center={u0})", g, g1, g2,
                  lambda t, x: (1.0, -1.0), (0.0, 0.0, 0.0), domain)


def gaussian_bump(sigma: float, center=(0.0, 0.0), amplitude: float = 1.0,
                  domain=None) -> AnalyticSurface:
    """Radially symmetric bump ``amp * exp(-rho^2 / (2 sigma^2))``, for a
    positive and finite ``sigma`` whose square is finite."""
    sigma = _positive_real(sigma, ValueError(
        f"sigma must be positive and finite, got {sigma!r}"))
    try:
        s2 = sigma ** 2  # not sigma * sigma, which rounds differently for some sigma
    except OverflowError:
        raise ValueError(f"sigma is too large to square, got {sigma!r}") from None
    amp, t0, x0 = _floats("gaussian_bump", amplitude, center[0], center[1])
    if domain is None:
        r = 4.0 * sigma
        domain = ((t0 - r, t0 + r), (x0 - r, x0 + r))

    def g(t, x):
        dt, dx = t - t0, x - x0
        return amp * np.exp(-(dt * dt + dx * dx) / (2.0 * s2))
    return _radial(f"gaussian_bump(sigma={sigma},amp={amp},center=({t0},{x0}))", g,
                   lambda t, x: -g(t, x) / (2.0 * s2),
                   lambda t, x: g(t, x) / (4.0 * s2 * s2), (t0, x0), domain)


def gompertz_surface(base_rate: float = 1e-4, age_slope: float = 0.09,
                     improvement: float = 0.01,
                     domain=((1900.0, 2000.0), (0.0, 100.0))) -> AnalyticSurface:
    """Separable mortality-like surface: exponential ageing times period decline.

    ``z = base_rate * exp(age_slope * x) * exp(-improvement * (t - t_start))``,
    so h = exp and h' = h'' = z.
    """
    base_rate, age_slope, improvement, t_start = _floats(
        "gompertz_surface", base_rate, age_slope, improvement, domain[0][0])

    def f(t, x):
        return np.exp(-improvement * (t - t_start)) * (base_rate * np.exp(age_slope * x))
    return _chain(
        f"gompertz(base={base_rate},age_slope={age_slope},improvement={improvement},"
        f"t_start={t_start})",
        f, f, f, lambda t, x: (-improvement, age_slope), (0.0, 0.0, 0.0), domain)


# --- materialization ---------------------------------------------------------

def _sample(surface: AnalyticSurface, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``surface.f`` on the grid ``t`` x ``x``, evaluated once; a ValueError
    for a grid over the size budget or for any value that is not finite."""
    _check_grid_size(t.size, x.size, f"surface {surface.name!r}")
    with np.errstate(all="ignore"):  # a bad value is reported below
        z = np.asarray(surface.f(t.astype(float)[:, None], x.astype(float)[None, :]),
                       dtype=float)
    bad = np.argwhere(~np.isfinite(z))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"surface {surface.name!r}: f is not finite at (t, x) = "
                         f"({t[i].item()}, {x[j].item()})")
    return z


def sample_grid(surface: AnalyticSurface,
                t_start: float, t_stop: float,
                x_start: float, x_stop: float,
                step: float = 1.0) -> SurfaceGrid:
    """Evaluate the surface on a regular grid (any positive step)."""
    t_start, t_stop, x_start, x_stop = _floats("sample_grid", t_start, t_stop, x_start, x_stop)
    step = _positive_real(step, ValueError("step must be positive"))

    def count(name: str, start: float, stop: float) -> int:
        steps = (stop - start) / step + 1e-9
        if abs(steps) == math.inf:
            raise ValueError(f"sample_grid: ({name}_stop - {name}_start) / step is infinite")
        return math.floor(steps) + 1

    n_t, n_x = count("t", t_start, t_stop), count("x", x_start, x_stop)
    _check_grid_size(n_t, n_x, "sample_grid")  # before the axes are built
    t, x = t_start + step * np.arange(n_t), x_start + step * np.arange(n_x)
    return SurfaceGrid(t=t, x=x, z=_sample(surface, t, x))


def materialize_mortality_surface(surface: AnalyticSurface,
                                  years, ages) -> MortalitySurface:
    """Sample on an integer year/age grid and wrap as a mortality surface.

    The axes are read by the integer-axis rule before sampling. Values must
    be finite (:func:`_sample`) and nonnegative (mortality-surface
    invariant); pick catalog parameters accordingly.
    """
    years = _as_contiguous_int_axis(years, "years")
    ages = _as_contiguous_int_axis(ages, "ages")
    return MortalitySurface(years=years, ages=ages, rates=_sample(surface, years, ages),
                            source_label=surface.name)
