"""Byte pins for the pointwise field emitters, ``GeometryField.to_csv`` and
``GeometryField.to_json``.

Two kinds of check: sha256 digests of kernel output on seeded grids, and a
property test on hand-built fields against the straightforward emitters
(``csv.writer`` with one ``repr`` per cell, and ``json.dumps(indent=2)``),
kept here as the oracle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohortgeo as cg
from cohortgeo import geometry
from cohortgeo.geometry import DIRECTION_NAMES, GeometryField, _format_coord
from cohortgeo.surface import SurfaceGrid

from test_geometry import blocked_case
from test_surface import make_surface


def oracle_csv(field: GeometryField) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["year", "age", "valid", "normal_t", "normal_x", "normal_z"]
        + [f"nc_{name}" for name in DIRECTION_NAMES]
    )
    for i, t in enumerate(field.years):
        for j, x in enumerate(field.ages):
            writer.writerow(
                [_format_coord(t), _format_coord(x), int(field.valid[i, j])]
                + [repr(float(v)) for v in field.normals[i, j]]
                + [repr(float(v)) for v in field.normal_curvatures[i, j]]
            )
    return out.getvalue()


def oracle_json(field: GeometryField) -> str:
    obj = {
        "years": [float(t) for t in field.years],
        "ages": [float(x) for x in field.ages],
        "directions": list(DIRECTION_NAMES),
        "options": field.options.label(),
        "valid": field.valid.astype(int).tolist(),
        "normals": field.normals.tolist(),
        "normal_curvatures": field.normal_curvatures.tolist(),
    }
    return json.dumps(obj, indent=2) + "\n"


def float_axes_grid() -> SurfaceGrid:
    """Quarter-year and 0.3-age spacing: most coordinates are not integral."""
    t = 1950.0 + 0.25 * np.arange(13)
    x = 0.3 * np.arange(11)
    z = 0.002 * np.exp(0.07 * x)[None, :] * (1.0 + 0.01 * np.sin(t))[:, None]
    z = z * (1.0 + 0.2 * np.exp(-((t[:, None] - x[None, :]) - 1948.0) ** 2))
    return SurfaceGrid(t=t, x=x, z=z)


CASES = {
    "missing": lambda: cg.compute_geometry_field(make_surface(blocked_case("missing"))),
    "ridge_log": lambda: cg.compute_geometry_field(
        make_surface(blocked_case("ridge"), first_year=1900),
        cg.GeometryOptions(log_rates=True)),
    "missing_z1000": lambda: cg.compute_geometry_field(
        make_surface(blocked_case("missing"), first_age=40),
        cg.GeometryOptions(z_scale=1000.0)),
    "float_axes": lambda: cg.compute_geometry_field(float_axes_grid()),
}

DIGESTS = {
    ("missing", "csv"):
        "9b9ec46a55d44c27f0e1378cc7f2370dd48843084c02df1857efdcac9243ca88",
    ("missing", "json"):
        "c5ac3eff0dc796dbe06e60eb1f255d93f414d1f7cbde4f7e6e52ccb04f198ea0",
    ("ridge_log", "csv"):
        "5e5e48e832a9be4e34532e0effcdb25c304ae343414ed70b3110666ff9f18546",
    ("ridge_log", "json"):
        "8f00bc8e7a5d02c62b5532a4cd4d52a91ad2c338af769cd4745c47c3df4a4d42",
    ("missing_z1000", "csv"):
        "319ab17888ec0948da4874b8dbffcce8060bb2e4173b62cc1a02f6d10cbf557c",
    ("missing_z1000", "json"):
        "bbe8843333a3918f5f09c29e27ee171a1b32e6b693bdc3b70603b703e005becf",
    ("float_axes", "csv"):
        "94f2123178c57413efb7ed25ce0527929a76aa51c1980203167dba1f37df2da8",
    ("float_axes", "json"):
        "412fa9ae813bd53f4d29b6c8fc63d84e5362a76c0a456ba62e8e2056df888624",
}


@pytest.mark.parametrize("case, fmt", sorted(DIGESTS))
def test_golden_digest(case, fmt):
    field = CASES[case]()
    assert field.valid.any() and not field.valid.all()
    text = field.to_csv() if fmt == "csv" else field.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case, fmt]


def test_float_axes_case_uses_repr_coordinates():
    field = CASES["float_axes"]()
    assert "1950.25," in field.to_csv()
    assert "\n1950,0,0," in field.to_csv()


_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                     0.1, 1 / 3]),
)


@st.composite
def hand_built_fields(draw) -> GeometryField:
    ny = draw(st.integers(0, 4))
    nx = draw(st.integers(0, 4))

    def values(*shape):
        flat = draw(st.lists(_VALUES, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    options = cg.GeometryOptions(
        z_scale=draw(st.sampled_from([1.0, 1000.0, 0.1, 1e-300])),
        log_rates=draw(st.booleans()))
    return GeometryField(
        years=values(ny), ages=values(nx),
        valid=np.array(draw(st.lists(st.booleans(), min_size=ny * nx,
                                     max_size=ny * nx)), dtype=bool).reshape(ny, nx),
        normals=values(ny, nx, 3),
        normal_curvatures=values(ny, nx, 4),
        options=options,
    )


@settings(max_examples=300, deadline=None)
@given(field=hand_built_fields(), emit_points=st.sampled_from([1, 3, 5, 8192]))
def test_emitters_match_the_oracle(field, emit_points):
    with mock.patch.object(geometry, "_EMIT_POINTS", emit_points):
        assert field.to_csv() == oracle_csv(field)
        assert field.to_json() == oracle_json(field)


@pytest.mark.parametrize("emit_points", [1, 23, 100, 8192])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_fields_match_the_oracle(case, emit_points, monkeypatch):
    field = CASES[case]()
    monkeypatch.setattr(geometry, "_EMIT_POINTS", emit_points)
    assert field.to_csv() == oracle_csv(field)
    assert field.to_json() == oracle_json(field)
