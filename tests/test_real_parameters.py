"""Every real parameter is read by ``surface._real``: the analytic oracle and
the pipeline refuse a value that is not a real number, or that no float
holds, with their own documented error, never ``OverflowError`` or
``TypeError``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohortgeo import (CEISeries, CohortReport, ParameterError, Peak, StructuralError,
                       UndefinedAiceError, render_series_chart, smooth)

PLANE = smooth.plane(0.1, 0.1, 1.0)
SERIES = CEISeries(birth_years=np.arange(1900, 1910), values=np.linspace(1.0, 2.0, 10),
                   point_counts=np.ones(10, dtype=int))

# (site, call taking the value under test, documented error, start of its message)
SITES = [
    ("smooth_normal_curvature-point",
     lambda v: smooth.smooth_normal_curvature(PLANE, (v, 50.0), (1.0, 1.0)),
     ValueError, "smooth_normal_curvature: "),
    ("smooth_normal_curvature-direction",
     lambda v: smooth.smooth_normal_curvature(PLANE, (50.0, 50.0), (1.0, v)),
     ValueError, "smooth_normal_curvature: "),
    ("smooth_cei-t_range",
     lambda v: smooth.smooth_cei(PLANE, 0.0, (v, 90.0)), ValueError, "smooth_cei: "),
    ("smooth_cei-birth_year",
     lambda v: smooth.smooth_cei(PLANE, v, (10.0, 90.0)), ValueError, "smooth_cei: "),
    ("plane-a", lambda v: smooth.plane(v, 1.0, 1.0), ValueError, "plane: "),
    ("plane-c", lambda v: smooth.plane(1.0, 1.0, v), ValueError, "plane: "),
    ("sphere_cap-center",
     lambda v: smooth.sphere_cap(500.0, center=(v, 0.0)), ValueError, "sphere_cap: "),
    ("gaussian_ridge-amplitude",
     lambda v: smooth.gaussian_ridge(amplitude=v), ValueError, "gaussian_ridge: "),
    ("gaussian_ridge-center",
     lambda v: smooth.gaussian_ridge(center=v), ValueError, "gaussian_ridge: "),
    ("gaussian_bump-amplitude",
     lambda v: smooth.gaussian_bump(8.0, amplitude=v), ValueError, "gaussian_bump: "),
    ("gaussian_bump-center",
     lambda v: smooth.gaussian_bump(8.0, center=(0.0, v)), ValueError, "gaussian_bump: "),
    ("gompertz_surface-base_rate",
     lambda v: smooth.gompertz_surface(base_rate=v), ValueError, "gompertz_surface: "),
    ("gompertz_surface-improvement",
     lambda v: smooth.gompertz_surface(improvement=v), ValueError, "gompertz_surface: "),
    ("gompertz_surface-t_start",
     lambda v: smooth.gompertz_surface(domain=((v, 2000.0), (0.0, 100.0))),
     ValueError, "gompertz_surface: "),
    ("domain-bound",
     lambda v: smooth.plane(1.0, 1.0, 1.0, domain=((0.0, v), (0.0, 1.0))),
     ValueError, "surface 'plane(1.0,1.0,1.0)': domain: "),
    ("sample_grid-t_start",
     lambda v: smooth.sample_grid(PLANE, v, 10.0, 0.0, 10.0), ValueError, "sample_grid: "),
    ("sample_grid-x_stop",
     lambda v: smooth.sample_grid(PLANE, 0.0, 10.0, 0.0, v), ValueError, "sample_grid: "),
    ("materialize-years",
     lambda v: smooth.materialize_mortality_surface(PLANE, [v], range(3)),
     StructuralError, "years must "),
    ("materialize-ages",
     lambda v: smooth.materialize_mortality_surface(PLANE, range(3), [1, v]),
     StructuralError, "ages must "),
    ("Peak-max_cei",
     lambda v: Peak(start_year=1900, end_year=1901, max_cei=v),
     ParameterError, "peak max_cei must be a real number"),
    ("CohortReport-mean",
     lambda v: CohortReport(window=(1900, 1950), mean=v, sample_stdev=0.5),
     UndefinedAiceError, "aice undefined: mean "),
    ("CohortReport-sample_stdev",
     lambda v: CohortReport(window=(1900, 1950), mean=1.0, sample_stdev=v),
     UndefinedAiceError, "aice undefined: sample_stdev "),
    ("render_series_chart-width",
     lambda v: render_series_chart([SERIES], width=v), ValueError, "chart size "),
    ("render_series_chart-height",
     lambda v: render_series_chart([SERIES], height=v), ValueError, "chart size "),
]

VALUES = [pytest.param(10**400, id="10**400"), pytest.param(None, id="None"),
          pytest.param("1.5", id="str"), pytest.param(True, id="True")]
# A report without a measured mean or stdev holds None there.
NOT_MEASURED = {("CohortReport-mean", "None"), ("CohortReport-sample_stdev", "None")}

CELLS = [pytest.param(call, value.values[0], error, message,
                      id=f"{site}-{value.id}")
         for site, call, error, message in SITES for value in VALUES
         if (site, value.id) not in NOT_MEASURED]
# Floats whose square or span overflows inside the oracle.
CELLS += [
    pytest.param(lambda v: smooth.sample_grid(PLANE, 0.0, v, 0.0, 1.0), math.inf, ValueError,
                 "sample_grid: (t_stop - t_start) / step is infinite",
                 id="sample_grid-bound-inf"),
    pytest.param(lambda v: smooth.gaussian_bump(v), 1e300, ValueError,
                 "sigma is too large to square", id="gaussian_bump-sigma-1e300"),
    pytest.param(lambda v: smooth.sample_grid(PLANE, -v, v, 0.0, 1.0), 1e308, ValueError,
                 "sample_grid: (t_stop - t_start) / step is infinite",
                 id="sample_grid-span-1e308"),
    pytest.param(lambda v: smooth.sample_grid(PLANE, 0.0, 0.0, 0.0, 10.0, v), 1e-320,
                 ValueError, "sample_grid: (x_stop - x_start) / step is infinite",
                 id="sample_grid-step-1e-320"),
]


@pytest.mark.parametrize("call, value, error, message", CELLS)
def test_real_parameter_refused_with_its_documented_error(call, value, error, message):
    with pytest.raises(Exception) as info:
        call(value)
    assert info.type is error
    assert str(info.value).startswith(message)


def test_report_keeps_its_message_for_infinity():
    # infinity is a float, so the report's own finiteness test still names it
    with pytest.raises(UndefinedAiceError, match="windowed mean or stdev is not finite"):
        CohortReport(window=(1900, 1950), mean=math.inf, sample_stdev=0.5)


CATALOG = [
    smooth.plane(0.3, -0.7, 5.0),
    smooth.gompertz_surface(),
    smooth.gaussian_ridge(width=50.0, center=10.0),
    smooth.gaussian_bump(8.0, center=(1.0, 2.0)),
    smooth.sphere_cap(500.0, center=(3.0, 4.0)),
]
DERIVATIVES = ["f", "f_t", "f_x", "f_tt", "f_tx", "f_xx"]


@pytest.mark.parametrize("surface", CATALOG, ids=lambda s: s.name.split("(")[0])
@pytest.mark.parametrize("label", DERIVATIVES)
def test_catalog_takes_any_coordinates_as_float_arrays(surface, label):
    """Python ints, lists and 0-d arrays give the bits float arrays give."""
    g = getattr(surface, label)
    (t0, _), (x0, _) = surface.domain
    t, x = [int(t0) + 2, int(t0) + 5], [int(x0) + 3, int(x0) + 4]
    want = np.asarray(g(np.array(t, float), np.array(x, float)))
    inputs = {"ints": [(t[k], x[k]) for k in range(2)],
              "0-d": [(np.array(t[k]), np.array(x[k])) for k in range(2)],
              "lists": [(t, x)]}
    for kind, pairs in inputs.items():
        got = np.concatenate([np.atleast_1d(np.asarray(g(*pair))) for pair in pairs])
        assert got.dtype == np.float64, kind
        assert got.tobytes() == want.tobytes(), kind
