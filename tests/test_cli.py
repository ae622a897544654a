"""End-to-end command tests: exit codes, schemas, determinism, atomicity."""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohortgeo import (
    CEISeries,
    GeometryOptions,
    Sex,
    aice,
    cei_series,
    compute_geometry_field,
    detect_peaks,
    parse_csv_matrix,
    render_series_chart,
    trim_series,
)
from cohortgeo.analytics import (
    DEFAULT_BASELINE_WINDOW,
    DEFAULT_THRESHOLD_RATIO,
    DEFAULT_TRIM_YEAR,
    DEFAULT_WINDOW,
)
from cohortgeo import smooth
from cohortgeo.cli import build_parser, main
from cohortgeo.svgchart import _ticks
from conftest import make_hmd_text, package_env, planted_hmd_text


def run(*argv) -> int:
    return main(list(argv))


def run_child(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so stderr shows any warning."""
    return subprocess.run([sys.executable, "-m", "cohortgeo.cli", *argv],
                          capture_output=True, text=True, env=package_env())


@pytest.fixture
def ridge_csv(tmp_path):
    """Synthetic ridge surface, written as a CSV matrix: years 1900..1959,
    ages 0..39, ridge on birth cohort 1930."""
    path = tmp_path / "ridge.csv"
    code = run("synthetic", "--shape", "ridge", "--years", "1900:1959",
               "--ages", "0:39", "--ridge-center", "1930",
               "-o", str(path))
    assert code == 0
    return path


@pytest.fixture
def series_csv(ridge_csv, tmp_path):
    out = tmp_path / "series.csv"
    assert run("cei", str(ridge_csv), "--input-format", "csv",
               "--first-year", "1900", "--first-age", "0",
               "-o", str(out)) == 0
    return out


def read_series_csv(text: str) -> dict[int, float]:
    lines = text.strip().splitlines()
    assert lines[0] == "birth_year,cei,point_count"
    out = {}
    for line in lines[1:]:
        year, value, _ = line.split(",")
        out[int(year)] = float(value)
    return out


class TestSynthetic:
    def test_plane_then_cei_all_zero(self, tmp_path, capsys):
        surface_path = tmp_path / "plane.csv"
        assert run("synthetic", "--shape", "plane", "--years", "1900:1930",
                   "--ages", "0:20", "-o", str(surface_path)) == 0
        assert run("cei", str(surface_path), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--no-trim") == 0
        series = read_series_csv(capsys.readouterr().out)
        assert max(abs(v) for v in series.values()) < 1e-12

    def test_sphere_and_bump_and_gompertz(self, tmp_path):
        for shape in ("sphere", "bump", "gompertz"):
            path = tmp_path / f"{shape}.csv"
            assert run("synthetic", "--shape", shape, "--years", "1900:1920",
                       "--ages", "0:15", "-o", str(path)) == 0
            assert path.exists()

    @pytest.mark.parametrize("argv", [
        ("--shape", "plane", "--years", "1900:2000", "--ages", "0:100", "--a", "100"),
        ("--shape", "gompertz", "--years", "1900:2000", "--ages", "0:110",
         "--base-rate", "1"),
    ], ids=["steep-plane", "gompertz-base-rate-1"])
    def test_exact_surface_with_large_values_accepted(self, argv, capsys):
        # the derivative self-check once refused these for the size of f alone
        assert run("synthetic", *argv) == 0
        assert capsys.readouterr().err == ""

    def test_json_output(self, capsys):
        assert run("synthetic", "--shape", "plane", "--years", "2000:2004",
                   "--ages", "0:3", "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["years"] == [2000, 2001, 2002, 2003, 2004]

    @pytest.mark.parametrize("argv", [
        ("synthetic", "--shape", "plane", "--years", "1950:1900", "--ages", "0:10"),
        ("synthetic", "--shape", "plane", "--years", "1900:1950", "--ages", "10:0"),
        ("cei", "{ridge}", "--input-format", "csv", "--first-year", "1900",
         "--first-age", "0", "--window", "1950:1900"),
        ("plot", "{series}", "--window", "1950:1900"),
    ], ids=["years", "ages", "cei-window", "plot-window"])
    def test_reversed_range_rejected(self, argv, ridge_csv, series_csv, capsys):
        argv = [a.format(ridge=ridge_csv, series=series_csv) for a in argv]
        assert run(*argv) == 2
        assert "is reversed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("synthetic", "--shape", "bump", "--years", "0:4", "--ages", "0:4",
         "--sigma", "1e300"),
        ("plot", "{series}", "--width", str(10**400)),
    ], ids=["bump-sigma", "plot-width"])
    def test_parameter_too_large_exit_2(self, argv, series_csv, capsys):
        assert run(*(a.format(series=series_csv) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("shape, flag, value", [
        ("ridge", "--width", "0"), ("ridge", "--width", "-1"),
        ("bump", "--sigma", "-2"), ("bump", "--sigma", "0"),
        ("sphere", "--radius", "0"), ("sphere", "--radius", "-500"),
    ])
    def test_nonpositive_width_or_sigma_exit_2(self, shape, flag, value, capsys):
        assert run("synthetic", "--shape", shape, "--years", "0:0", "--ages", "0:0",
                   flag, value) == 2
        assert capsys.readouterr().err == (
            f"error: {flag[2:]} must be positive and finite, got {float(value)!r}\n")

    def test_grid_too_large_to_allocate_exit_2(self, monkeypatch, capsys):
        # a real oversized grid would first build gigabytes of axes
        def refuse(surface, years, ages):
            raise MemoryError("Unable to allocate 71.1 PiB for an array")
        monkeypatch.setattr(smooth, "materialize_mortality_surface", refuse)
        assert run("synthetic", "--shape", "ridge", "--years", "0:4",
                   "--ages", "0:4") == 2
        assert capsys.readouterr().err == (
            "error: Unable to allocate 71.1 PiB for an array\n")


class TestCei:
    def test_ridge_series_csv(self, ridge_csv, capsys):
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0") == 0
        series = read_series_csv(capsys.readouterr().out)
        assert max(series) == 1959  # default 1970 trim is a no-op here
        assert max(series, key=series.get) == 1930  # ridge cohort wins
        assert series[1959] == 0.0  # corner cohort, border only

    def test_trim_year_flag(self, ridge_csv, capsys):
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--trim-year", "1940") == 0
        series = read_series_csv(capsys.readouterr().out)
        assert max(series) == 1940
        assert min(series) == 1900 - 39

    def test_json_schema(self, ridge_csv, capsys):
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"sex", "source_label", "options", "entries"}
        assert all(set(e) == {"birth_year", "cei", "point_count"}
                   for e in obj["entries"])

    def test_json_options_name_mean_normalization(self, ridge_csv, capsys):
        options = []
        for flags in ((), ("--normalization", "sum"), ("--normalization", "mean")):
            assert run("cei", str(ridge_csv), "--input-format", "csv",
                       "--first-year", "1900", "--first-age", "0",
                       "--format", "json", *flags) == 0
            options.append(json.loads(capsys.readouterr().out)["options"])
        assert options == ["z_scale=1.0", "z_scale=1.0",
                           "z_scale=1.0,normalization=mean"]

    def test_svg_output(self, ridge_csv, tmp_path):
        out = tmp_path / "chart.svg"
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--format", "svg", "-o", str(out)) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert run("cei", str(missing)) == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_input_below_a_file_exit_2(self, ridge_csv, capsys):
        assert run("cei", str(ridge_csv / "x"), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_without_axis_flags_exit_2(self, ridge_csv):
        assert run("cei", str(ridge_csv), "--input-format", "csv") == 2

    def test_too_small_grid_exit_3(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        assert run("cei", str(path), "--input-format", "csv",
                   "--first-year", "2000", "--first-age", "0") == 3

    def test_z_scale_overflow_exit_2_without_warning(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
        proc = run_child("cei", str(path), "--input-format", "csv",
                         "--first-year", "1900", "--first-age", "0",
                         "--z-scale", "1e308")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: z_scale=1e+308 overflows the rates to infinity\n"

    def test_overflowing_chords_rejected_silently(self, tmp_path):
        # at z-scale 1e306 some squared chord lengths overflow; those points
        # were already invalid, so the series bytes are as before
        path = tmp_path / "g.csv"
        assert run("synthetic", "--shape", "gompertz", "--years", "1900:1930",
                   "--ages", "0:20", "-o", str(path)) == 0
        proc = run_child("cei", str(path), "--input-format", "csv",
                         "--first-year", "1900", "--first-age", "0",
                         "--z-scale", "1e306")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "12ca63e19ce82daa2615de9d99499eb5e91d3f5287803fee232fcd86a79f0d10")

    @pytest.mark.parametrize("command, extra", [
        ("cei", ("--z-scale", "1e-320", "--no-trim")),
        ("aice", ("--z-scale", "1e-320", "--window", "1890:1920")),
        ("cei", ("--z-scale", "1e-306")),
    ])
    def test_z_scale_underflow_exit_2(self, tmp_path, capsys, command, extra):
        # 1e-320 used to zero every rate (a flat, all-zero series, or aice's
        # "windowed mean is not positive"), 1e-306 made them subnormal
        path = tmp_path / "g.csv"
        assert run("synthetic", "--shape", "gompertz", "--years", "1900:1930",
                   "--ages", "0:20", "-o", str(path)) == 0
        capsys.readouterr()
        assert run(command, str(path), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0", *extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: z_scale={float(extra[1])!r} underflows the rates\n"

    def test_nan_token_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("0.1,0.2,0.3\n0.3,nan,0.5\n0.5,0.6,0.7\n")
        assert run("cei", str(path), "--input-format", "csv",
                   "--first-year", "2000", "--first-age", "0") == 2
        assert "'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        [(y, a) for y in (1900, 10**12) for a in (0, 1)],
        [(y, a) for y in (1900, 1901) for a in (0, 10**12)],
        [(10**20 + y, a) for y in range(3) for a in range(3)],
    ], ids=["far-apart-years", "far-apart-ages", "years-beyond-int64"])
    def test_unrepresentable_hmd_axes_exit_2(self, rows, tmp_path, capsys):
        path = tmp_path / "far.Mx_1x1.txt"
        path.write_text(make_hmd_text([(y, a, "0.1", "0.1", "0.1") for y, a in rows]))
        assert run("cei", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("axis", ["--first-year", "--first-age"])
    def test_csv_axis_beyond_int64_exit_2(self, ridge_csv, axis, capsys):
        flags = ["--first-year", "1900", "--first-age", "0"]
        flags[flags.index(axis) + 1] = str(10**20)
        assert run("cei", str(ridge_csv), "--input-format", "csv", *flags) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("first_year", [str(2**53 - 2), str(2**60)])
    def test_csv_axis_beyond_float_precision_exit_2(self, ridge_csv, first_year,
                                                    capsys):
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", first_year, "--first-age", "0") == 2
        assert capsys.readouterr().err.startswith("error: years must not exceed 2**53")

    def test_csv_field_over_reader_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("0.1,0.2,0.3\n0.1,0.2,0.3\n0." + "1" * 140_000 + ",0.2,0.3\n")
        assert run("cei", str(path), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0") == 2
        assert capsys.readouterr().err.startswith("error: malformed CSV at line 3")

    def test_trim_before_series_exit_4(self, ridge_csv):
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--trim-year", "1700") == 4

    def test_hmd_input(self, small_hmd_text, tmp_path, capsys):
        path = tmp_path / "mini.Mx_1x1.txt"
        path.write_text(small_hmd_text)
        assert run("cei", str(path), "--sex", "female", "--no-trim") == 0
        series = read_series_csv(capsys.readouterr().out)
        assert min(series) == 1930 - 7 and max(series) == 1935


class TestAice:
    def test_csv_report(self, ridge_csv, capsys):
        assert run("aice", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--window", "1910:1950") == 0
        out = capsys.readouterr().out
        rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert float(rows["aice"]) > 0
        assert float(rows["mean"]) > 0

    def test_json_report(self, ridge_csv, capsys):
        assert run("aice", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--window", "1910:1950", "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["window"] == [1910, 1950]
        assert obj["aice"] == obj["sample_stdev"] / obj["mean"]

    def test_window_outside_data_exit_4(self, ridge_csv, capsys):
        assert run("aice", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--window", "2500:2510") == 4
        assert "analytics error" in capsys.readouterr().err

    def test_bad_window_syntax_exit(self, ridge_csv):
        with pytest.raises(SystemExit) as exc:
            run("aice", str(ridge_csv), "--input-format", "csv",
                "--first-year", "1900", "--first-age", "0",
                "--window", "oops")
        assert exc.value.code == 2


class TestGaps:
    def test_ridge_peak_found(self, ridge_csv, capsys):
        assert run("gaps", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--window", "1905:1955", "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["peaks"], "expected at least one detected peak"
        spans = [(p["start_year"], p["end_year"]) for p in obj["peaks"]]
        assert any(s <= 1930 <= e for s, e in spans)
        assert obj["min_gap"] <= obj["max_gap"]  # at least one peak, so not None

    def test_infinite_threshold_exit_4(self, ridge_csv, capsys):
        assert run("gaps", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--threshold", "inf") == 4
        err = capsys.readouterr().err
        assert err == "analytics error: threshold_ratio must be positive and finite\n"

    def test_threshold_overflowing_to_inf_finds_no_peak(self, tmp_path, capsys):
        path = tmp_path / "ridge.csv"
        assert run("synthetic", "--shape", "ridge", "--years", "1900:1999",
                   "--ages", "0:79", "--ridge-center", "1930", "--amplitude", "50",
                   "-o", str(path)) == 0
        assert run("gaps", str(path), "--input-format", "csv", "--first-year", "1900",
                   "--first-age", "0", "--threshold", "1e308", "--format", "json") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["peaks"] == []


class TestSurfaceDump:
    def test_csv_dump(self, ridge_csv, capsys):
        assert run("surface", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("year,age,valid,")
        assert len(lines) == 1 + 60 * 40


class TestPlot:
    def test_svg_structure(self, series_csv, tmp_path):
        out = tmp_path / "chart.svg"
        assert run("plot", str(series_csv), "--title", "a<b&c",
                   "--window", "1920:1945", "-o", str(out)) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 1
        assert root.get("version") == "1.1"
        texts = [el.text for el in root.findall(f".//{ns}text")]
        assert "a<b&c" in texts

    def test_title_and_legend_text_escaped(self):
        label = "C\u00f4te \"d\" & <Ivoire> 'x'"
        series = CEISeries(birth_years=np.arange(1900, 1905), values=np.ones(5),
                           point_counts=np.ones(5, dtype=int), source_label=label)
        svg = render_series_chart([series], title=label)
        escaped = "C\u00f4te \"d\" &amp; &lt;Ivoire&gt; 'x'</text>"
        assert svg.count(escaped) == 2

    def test_no_series_rejected(self):
        with pytest.raises(ValueError) as exc:
            render_series_chart([])
        assert str(exc.value) == "need at least one series to chart"

    def test_two_series_two_polylines(self, series_csv, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text(series_csv.read_text())
        out = tmp_path / "chart2.svg"
        assert run("plot", str(series_csv), str(other), "-o", str(out)) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}polyline")) == 2

    def test_series_field_over_reader_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("birth_year,cei,point_count\n1900," + "1" * 140_000 + ",3\n")
        assert run("plot", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: malformed series CSV")

    def test_birth_years_past_2_to_51_chart(self, tmp_path):
        # adding a tick step of 0.2 no longer moves a float this large
        path = tmp_path / "far.csv"
        path.write_text("birth_year,cei,point_count\n"
                        "2251799813685248,1.0,1\n2251799813685249,2.0,1\n")
        assert len(_ticks(2.0**51, 2.0**51 + 1, 8)) <= 10
        assert run("plot", str(path), "-o", str(tmp_path / "far.svg")) == 0

    @pytest.mark.parametrize("years, message", [
        ((2**63 - 1, -2**63), "birth_years must be strictly increasing with step 1"),
        ((2**53 + 1, 2**53 + 2), "birth_years must not exceed 2**53 in magnitude "
                                 "(the exact integer range of a float)"),
    ], ids=["wrapped-int64", "past-2-to-53"])
    def test_birth_years_unfit_for_a_float_axis_exit_2(self, years, message,
                                                        tmp_path, capsys):
        # the chart draws birth years as floats, like the kernel's axes
        path = tmp_path / "far.csv"
        path.write_text("birth_year,cei,point_count\n"
                        + "".join(f"{y},1.0,1\n" for y in years))
        assert run("plot", str(path), "-o", str(tmp_path / "far.svg")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "far.svg").exists()

    def test_tiny_value_ticks_stay_apart(self, ridge_csv, capsys):
        assert _ticks(0.0, 3.3e-12, 5) == [0.0, 1e-12, 2e-12, 3e-12]
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--z-scale", "1e-12", "--format", "svg") == 0
        root = ET.fromstring(capsys.readouterr().out)
        ns = "{http://www.w3.org/2000/svg}"
        y_labels = [(el.text, el.get("y")) for el in root.iter(f"{ns}text")
                    if el.get("text-anchor") == "end"]
        assert len(y_labels) >= 3
        assert len({text for text, _ in y_labels}) == len(y_labels)
        assert len({y for _, y in y_labels}) == len(y_labels)

    def test_values_near_float_max_chart(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("birth_year,cei,point_count\n1950,1e308,1\n1951,1.75e308,1\n")
        assert run("plot", str(path), "-o", str(tmp_path / "big.svg")) == 0

    @pytest.mark.parametrize("top", ["5e-324", "1e-323", "2e-323"])
    def test_subnormal_maximum_charts_with_a_zero_tick(self, top, tmp_path):
        # the tick step underflows to 0, so the value axis keeps its 0 tick only
        path = tmp_path / "tiny.csv"
        path.write_text(f"birth_year,cei,point_count\n1950,0.0,1\n1951,{top},1\n")
        assert run("plot", str(path), "-o", str(tmp_path / "tiny.svg")) == 0
        root = ET.fromstring((tmp_path / "tiny.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert [el.text for el in root.iter(f"{ns}text")
                if el.get("text-anchor") == "end"] == ["0"]

    def test_small_subnormal_maximum_chart_bytes(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("birth_year,cei,point_count\n"
                        "1900,0.0,1\n1901,1e-321,1\n1902,5e-322,1\n")
        assert run("plot", str(path), "-o", str(tmp_path / "tiny.svg")) == 0
        assert hashlib.sha256((tmp_path / "tiny.svg").read_bytes()).hexdigest() == (
            "1cecc8211eaac802afceede352595f6badfd5e7ef514dc1361ed6f015ede7989")

    @pytest.mark.parametrize("row, message", [
        pytest.param("100000000000000000000,1.0,1",
                     "error: birth_years must fit in a 64-bit integer\n",
                     id="100000000000000000000,1.0,1"),
        pytest.param("1950,1.0,100000000000000000000",
                     "error: point_counts must fit in a 64-bit integer\n",
                     id="1950,1.0,100000000000000000000"),
    ])
    def test_series_beyond_int64_exit_2(self, row, message, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("birth_year,cei,point_count\n" + row + "\n")
        assert run("plot", str(path)) == 2
        assert capsys.readouterr().err == message

    def test_series_short_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short_row.csv"
        path.write_text("birth_year,cei,point_count\n1900,1.0\n")
        assert run("plot", str(path)) == 2
        assert capsys.readouterr().err == ("error: malformed series CSV: row 2: "
                                           "expected 3 columns, got 2: ['1900', '1.0']\n")

    @pytest.mark.parametrize("last_year", [1950, 1951, 1952])
    def test_short_series_year_ticks_whole_and_distinct(self, last_year, tmp_path,
                                                         capsys):
        path = tmp_path / "short.csv"
        path.write_text("birth_year,cei,point_count\n" + "".join(
            f"{y},1.0,3\n" for y in range(1950, last_year + 1)))
        assert run("plot", str(path), "--no-peaks") == 0
        root = ET.fromstring(capsys.readouterr().out)
        ns = "{http://www.w3.org/2000/svg}"
        labels = [el.text for el in root.iter(f"{ns}text")
                  if el.get("text-anchor") == "middle" and el.get("font-size") == "11"]
        assert labels == [str(y) for y in range(1950, last_year + 1)]

    @pytest.mark.parametrize("option", [("--baseline-window", "4"),
                                        ("--threshold", "0"),
                                        ("--threshold", "nan")])
    def test_malformed_peak_option_exit_4_as_gaps(self, option, ridge_csv, series_csv,
                                                  capsys):
        assert run("gaps", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0", *option) == 4
        gaps_err = capsys.readouterr().err
        assert gaps_err.startswith("analytics error: ")
        assert run("plot", str(series_csv), *option) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", gaps_err)

    def test_series_shorter_than_baseline_charts_without_peaks(self, tmp_path,
                                                               capsys):
        path = tmp_path / "two.csv"
        path.write_text("birth_year,cei,point_count\n1950,1.0,3\n1951,2.0,3\n")
        assert run("plot", str(path), "--window", "1950:1951") == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "<polyline" in captured.out

    def test_no_peaks_flag(self, series_csv, tmp_path):
        out = tmp_path / "chart3.svg"
        assert run("plot", str(series_csv), "--no-peaks", "--no-window",
                   "-o", str(out)) == 0
        assert out.exists()


def subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


class TestArgumentShapes:
    @pytest.mark.parametrize("argv, message", [
        (("aice", "F", "--window", "oops"),
         "argument --window: expected LOW:HIGH integer range, got 'oops'"),
        (("aice", "F", "--window", "1:2:3"),
         "argument --window: expected LOW:HIGH integer range, got '1:2:3'"),
        (("synthetic", "--shape", "sphere", "--years", "0:4", "--ages", "0:4",
          "--center", "1,2,3"),
         "argument --center: expected T,X pair, got '1,2,3'"),
        (("synthetic", "--shape", "bump", "--years", "0:4", "--ages", "0:4",
          "--center", "a,b"),
         "argument --center: expected T,X pair, got 'a,b'"),
    ], ids=["window-word", "window-three-parts", "center-three-parts",
            "center-letters"])
    def test_malformed_pair_exact_stderr(self, argv, message, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        usage = subparser(argv[0]).format_usage()
        assert capsys.readouterr().err == (
            f"{usage}cohortgeo {argv[0]}: error: {message}\n")

    def test_gaps_and_plot_read_peak_options_alike(self):
        def peak_options(command):
            return {a.option_strings[0]: (a.dest, a.type, a.default)
                    for a in subparser(command)._actions
                    if a.option_strings[:1] in (["--baseline-window"], ["--threshold"])}
        gaps = peak_options("gaps")
        assert gaps == {
            "--baseline-window": ("baseline_window", int, DEFAULT_BASELINE_WINDOW),
            "--threshold": ("threshold_ratio", float, DEFAULT_THRESHOLD_RATIO),
        }
        assert peak_options("plot") == gaps


class TestOutputHandling:
    def test_reruns_byte_identical(self, ridge_csv, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            assert run("cei", str(ridge_csv), "--input-format", "csv",
                       "--first-year", "1900", "--first-age", "0",
                       "-o", str(target)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_reruns_byte_identical(self, ridge_csv, tmp_path):
        series = tmp_path / "s.csv"
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "-o", str(series)) == 0
        a = tmp_path / "p1.svg"
        b = tmp_path / "p2.svg"
        for target in (a, b):
            assert run("plot", str(series), "-o", str(target)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failed_run_leaves_no_artifact(self, ridge_csv, tmp_path):
        out = tmp_path / "never.csv"
        assert run("aice", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "--window", "2500:2510", "-o", str(out)) == 4
        assert not out.exists()
        assert not list(tmp_path.glob(".cohortgeo-*"))

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_outputs_get_umask_default_mode(self, ridge_csv, tmp_path, umask):
        args = ("--input-format", "csv", "--first-year", "1900",
                "--first-age", "0", "-o")
        previous = os.umask(umask)
        try:
            assert run("surface", str(ridge_csv), *args, str(tmp_path / "f.csv")) == 0
            assert run("cei", str(ridge_csv), *args, str(tmp_path / "s.csv")) == 0
        finally:
            os.umask(previous)
        for name in ("f.csv", "s.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask

    def test_output_dir_env_var(self, ridge_csv, tmp_path, monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("COHORTGEO_OUTPUT_DIR", str(outdir))
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "-o", "series.csv") == 0
        assert (outdir / "series.csv").exists()

    def test_output_dir_env_var_leaves_absolute_path(self, ridge_csv, tmp_path,
                                                     monkeypatch):
        outdir = tmp_path / "artifacts"
        monkeypatch.setenv("COHORTGEO_OUTPUT_DIR", str(outdir))
        out = tmp_path / "elsewhere" / "series.csv"
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "-o", str(out)) == 0
        assert out.exists() and not outdir.exists()

    def test_nested_output_dir_created(self, ridge_csv, tmp_path):
        out = tmp_path / "deep" / "nested" / "series.csv"
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "-o", str(out)) == 0
        assert out.exists()

    def test_output_onto_a_directory_cleans_up_exit_2(self, ridge_csv, tmp_path,
                                                      capsys):
        # the temp file is written and only the rename fails
        out = tmp_path / "out"
        out.mkdir()
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [Errno {errno.EISDIR}] Is a directory: "
                              f"'{tmp_path}{os.sep}.cohortgeo-")
        assert err.endswith(f".tmp' -> '{out}'\n")
        assert not list(tmp_path.glob(".cohortgeo-*"))
        assert not list(out.iterdir())

    def test_output_below_a_file_exit_2(self, ridge_csv, capsys):
        assert run("cei", str(ridge_csv), "--input-format", "csv",
                   "--first-year", "1900", "--first-age", "0",
                   "-o", str(ridge_csv / "series.csv")) == 2
        assert capsys.readouterr().err.startswith("error: ")


def library_text(path, command, fmt, z_scale=1.0, log_rates=False,
                 normalization="sum", trim=True) -> str:
    """The pipeline run in-process through the public API, for comparison."""
    surface = parse_csv_matrix(path.read_text(encoding="utf-8"), first_year=1900,
                               first_age=0, sex=Sex.TOTAL, source_label=path.name)
    field = compute_geometry_field(surface, GeometryOptions(z_scale=z_scale,
                                                            log_rates=log_rates))
    if command == "surface":
        product = field
    else:
        product = cei_series(field, surface, normalization=normalization)
        if trim:
            product = trim_series(product, DEFAULT_TRIM_YEAR)
        if command == "aice":
            product = aice(product, DEFAULT_WINDOW)
        elif command == "gaps":
            product = detect_peaks(product, DEFAULT_WINDOW)
        elif fmt == "svg":
            return render_series_chart([product], window=DEFAULT_WINDOW,
                                       title=product.source_label)
    return product.to_csv() if fmt == "csv" else product.to_json()


@pytest.mark.parametrize("command, fmt, flags, options", [
    ("cei", "csv", (), {}),
    ("cei", "json", (), {}),
    ("cei", "svg", (), {}),
    ("aice", "csv", (), {}),
    ("aice", "json", (), {}),
    ("gaps", "csv", (), {}),
    ("gaps", "json", (), {}),
    ("surface", "csv", (), {}),
    ("surface", "json", (), {}),
    ("cei", "csv", ("--log",), {"log_rates": True}),
    ("gaps", "json", ("--log",), {"log_rates": True}),
    ("surface", "csv", ("--log",), {"log_rates": True}),
    ("cei", "csv", ("--z-scale", "1000"), {"z_scale": 1000.0}),
    ("aice", "json", ("--z-scale", "1000"), {"z_scale": 1000.0}),
    ("surface", "json", ("--z-scale", "1000"), {"z_scale": 1000.0}),
    ("cei", "json", ("--normalization", "mean"), {"normalization": "mean"}),
    ("aice", "csv", ("--normalization", "mean"), {"normalization": "mean"}),
    ("cei", "csv", ("--no-trim",), {"trim": False}),
    ("gaps", "csv", ("--no-trim",), {"trim": False}),
])
def test_cli_bytes_equal_library_bytes(ridge_csv, capsys, command, fmt, flags,
                                       options):
    assert run(command, str(ridge_csv), "--input-format", "csv",
               "--first-year", "1900", "--first-age", "0",
               "--format", fmt, *flags) == 0
    assert capsys.readouterr().out == library_text(ridge_csv, command, fmt,
                                                   **options)


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        surface_path = tmp_path / "p.csv"
        assert run("synthetic", "--shape", "plane", "--years", "2000:2010",
                   "--ages", "0:8", "-o", str(surface_path)) == 0
        proc = run_child("cei", str(surface_path), "--input-format", "csv",
                         "--first-year", "2000", "--first-age", "0", "--no-trim")
        assert proc.returncode == 0
        assert proc.stdout.startswith("birth_year,cei,point_count")


# --- exit-code contract ------------------------------------------------------

_BAD_RATES = [".", "nan", "inf", "-0.5", "0", "1e308", "1e-320", "x", "",
              "100000000000000000000"]
_BIG_INTS = [0, 1900, -5, 2**51, 2**53 - 2, 2**53, 2**63, 10**20, -10**20]
_FLOATS = ["1", "1e-12", "1e-300", "1e12", "1e300", "0", "-1", "inf", "nan", "0.3"]


def _spoil(draw, rows: list[list[str]], bad: list[str], first_col: int = 0) -> None:
    """Maybe replace one cell at or right of ``first_col`` by an odd token:
    the rest of the file stays valid, so later stages get exercised too."""
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(first_col, len(row) - 1))] = draw(st.sampled_from(bad))


@st.composite
def _hmd_texts(draw) -> str:
    y0 = draw(st.sampled_from(_BIG_INTS))
    ages = [str(a) for a in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        ages[-1] += "+"
    rates = st.floats(1e-6, 1.0).map(repr)
    rows = [[str(y0 + i), a, draw(rates), draw(rates), draw(rates)]
            for i in range(draw(st.integers(1, 6))) for a in ages]
    _spoil(draw, rows, _BAD_RATES, first_col=2)
    rows = draw(st.permutations(rows))[:len(rows) - draw(st.integers(0, 1))]
    return make_hmd_text(rows)


@st.composite
def _matrix_texts(draw) -> str:
    n_cols = draw(st.integers(1, 6))
    rows = [[repr(draw(st.floats(1e-6, 1.0))) for _ in range(n_cols)]
            for _ in range(draw(st.integers(1, 6)))]
    _spoil(draw, rows, _BAD_RATES)
    return "".join(",".join(r) + "\n" for r in rows)


@st.composite
def _series_texts(draw) -> str:
    y0 = draw(st.sampled_from(_BIG_INTS))
    rows = [[str(y0 + k), repr(draw(st.floats(0.0, 1e308))), "3"]
            for k in range(draw(st.integers(0, 30)))]
    _spoil(draw, rows, ["0", "1e-320", "1.75e308", "-1", "nan", "inf", "1.5", "x",
                        "100000000000000000000"], first_col=1)
    return "".join(",".join(r) + "\n" for r in [["birth_year", "cei", "point_count"]] + rows)


def _range(draw) -> str:
    lo = draw(st.sampled_from(_BIG_INTS))
    return f"{lo}:{lo + draw(st.integers(-2, 30))}"


@st.composite
def _invocations(draw, directory) -> list[str]:
    """A random command line plus the input files it names."""
    command = draw(st.sampled_from(["cei", "aice", "gaps", "surface",
                                    "synthetic", "plot"]))
    argv = [command]

    def write(text: str) -> str:
        path = directory / f"in{draw(st.integers(0, 3))}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def maybe(*flag_and_value) -> None:
        if draw(st.booleans()):
            argv.extend(flag_and_value)

    numbers = st.sampled_from(_FLOATS)
    if command == "plot":
        for _ in range(draw(st.integers(1, 3))):
            argv.append(write(draw(_series_texts())))
        maybe("--title", draw(st.text(max_size=8)))
        maybe("--width", str(draw(st.sampled_from([0, 80, 300, 900, 10**6]))))
        maybe("--height", str(draw(st.sampled_from([0, 60, 420, 10**6]))))
        maybe("--window", _range(draw))
        maybe("--no-window")
        maybe("--no-peaks")
        maybe("--baseline-window", str(draw(st.sampled_from([-1, 1, 2, 11, 10**20]))))
        maybe("--threshold", draw(numbers))
    elif command == "synthetic":
        argv += ["--shape", draw(st.sampled_from(["plane", "sphere", "ridge",
                                                  "bump", "gompertz"])),
                 "--years", _range(draw), "--ages", _range(draw)]
        for flag in ("--a", "--radius", "--width", "--amplitude", "--sigma",
                     "--base-rate", "--age-slope", "--improvement"):
            maybe(flag, draw(numbers))
        maybe("--center", f"{draw(numbers)},{draw(numbers)}")
        maybe("--format", draw(st.sampled_from(["csv", "json"])))
    else:
        if draw(st.booleans()):
            argv.append(write(draw(_hmd_texts())))
        else:
            argv += [write(draw(_matrix_texts())), "--input-format", "csv"]
            maybe("--first-year", str(draw(st.sampled_from(_BIG_INTS))))
            maybe("--first-age", str(draw(st.sampled_from(_BIG_INTS))))
        maybe("--sex", draw(st.sampled_from(["female", "male", "total"])))
        maybe("--z-scale", draw(numbers))
        maybe("--log")
        if command != "surface":
            maybe("--trim-year", str(draw(st.sampled_from(_BIG_INTS))))
            maybe("--no-trim")
            maybe("--normalization", draw(st.sampled_from(["sum", "mean"])))
            maybe("--window", _range(draw))
        if command == "gaps":
            maybe("--baseline-window", str(draw(st.sampled_from([-1, 1, 2, 3, 11]))))
            maybe("--threshold", draw(numbers))
        formats = ["csv", "json", "svg"] if command == "cei" else ["csv", "json"]
        maybe("--format", draw(st.sampled_from(formats)))
    maybe("-o", str(directory / "out" / "result.txt"))
    maybe(draw(st.sampled_from(["--bogus", "--format=pdf", "--window=1:x",
                                "--center=1,2,3", "--years=1:2:3"])))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_exit_code_contract(fuzz_dir, data):
    """Any command line exits 0, 2, 3 or 4; nothing else escapes ``main``."""
    argv = data.draw(_invocations(fuzz_dir))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4), argv


@pytest.fixture(scope="module")
def planted_hmd(tmp_path_factory):
    """A seeded 110-year HMD file with a ridge on cohort 1930."""
    path = tmp_path_factory.mktemp("planted") / "planted.Mx_1x1.txt"
    path.write_text(planted_hmd_text(5, 0.3))
    return path


CSV_ARGS = ("{csv}", "--input-format", "csv", "--first-year", "1900", "--first-age", "0")
GOLDEN_COMMANDS = {
    "cei-csv": ("cei", "{hmd}"),
    "cei-json": ("cei", "{hmd}", "--format", "json"),
    "cei-svg": ("cei", "{hmd}", "--format", "svg", "-o", "{out}"),
    "aice-csv": ("aice", "{hmd}"),
    "aice-json": ("aice", "{hmd}", "--format", "json"),
    "gaps-csv": ("gaps", "{hmd}", "-o", "{out}"),
    "gaps-json": ("gaps", "{hmd}", "--format", "json"),
    "cei-female-mean": ("cei", "{hmd}", "--sex", "female", "--normalization", "mean",
                        "--no-trim"),
    "cei-z-scale-log": ("cei", "{hmd}", "--z-scale", "37", "--log"),
    "surface-csv": ("surface", "{hmd}", "-o", "{out}"),
    "surface-json": ("surface", "{hmd}", "--format", "json"),
    "csv-input-cei": ("cei", *CSV_ARGS),
    "csv-input-aice": ("aice", *CSV_ARGS, "--format", "json"),
    "synthetic-csv": ("synthetic", "--shape", "sphere", "--years", "1950:1980",
                      "--ages", "0:25"),
    "synthetic-json": ("synthetic", "--shape", "gompertz", "--years", "1950:1980",
                       "--ages", "0:25", "--format", "json", "-o", "{out}"),
    "synthetic-bump-csv": ("synthetic", "--shape", "bump", "--years", "1950:1980",
                           "--ages", "0:25"),
    "synthetic-plane-csv": ("synthetic", "--shape", "plane", "--years", "1950:1980",
                            "--ages", "0:25"),
    "synthetic-ridge-json": ("synthetic", "--shape", "ridge", "--years", "1950:1980",
                             "--ages", "0:25", "--format", "json"),
    "synthetic-bump-json": ("synthetic", "--shape", "bump", "--years", "1950:1980",
                            "--ages", "0:25", "--format", "json"),
    "synthetic-plane-json": ("synthetic", "--shape", "plane", "--years", "1950:1980",
                             "--ages", "0:25", "--format", "json"),
    "plot-peaks": ("plot", "{series}", "--title", "ridge", "-o", "{out}"),
    "plot-no-peaks": ("plot", "{series}", "--no-peaks"),
}
GOLDEN_OUTPUT_DIGESTS = {
    "aice-csv": "6b2d29ff1774734a7e46023e02c7efdcdb0786a8ca2cc864e0ef684c5d2249e2",
    "aice-json": "2e5c7dde08f61b07cf117f915de45882f27e9b96876bf557b0285882caf1e971",
    "cei-csv": "f6dad77179a8b247f9156e43bd873fe53646f54cfc41498dbd1d3b5fb063f0c0",
    "cei-female-mean": "fa420078b882900d841dc3e2b3eb28bda40c5a9ce43d9e1987fef1a119814dee",
    "cei-json": "cfac6cb911e4a3e99432d68593590d9f69c654a20a313cada8b7bbd7885d8ce4",
    "cei-svg": "8181422ca687ea07c61d9426130f0411b5b4e787d79f58e57745a9a4c3f7b36f",
    "cei-z-scale-log": "5c5099e81be94eb462f3c7d82272f3c60cb366278f01cecfcdb695f41b064217",
    "csv-input-aice": "5f9c0ce67832600f2fe0c5022647509f5670bbff4c25f427187d58f6a1eefbe8",
    "csv-input-cei": "bf68af2161e797d028a7edc8e6b6f610f657ba0f6b027582332b0bdaa9ae92ae",
    "gaps-csv": "ed4266c28b808c1d4a67421815146fb6380085b9f59beb4b59d5941184dbefba",
    "gaps-json": "a38656de284d13f6ee47685d67e0051ff71983ec76f7b95ae8a01b7f606863b7",
    "plot-no-peaks": "bfe54d4b268b287cf42539d6b98555ed7b2f45d63c725e9ba167431eaed820e5",
    "plot-peaks": "891a84d48db16936dc07b8f21d68bb6c8a69e9f21801abca259526b5fbfec27f",
    "surface-csv": "9db2941de9b638614863cf7451bbd8ecdfbc7ec68320df875e6e1840cd68d7c8",
    "surface-json": "ba643eadfd27550f01f8da1826ef36b8b45c5d9a75241899c8b6ef9c5101723a",
    "synthetic-csv": "bb502386f442d21fb0d4e930f79ac0d5a5421ca6fa56c198c50b363c04da878e",
    "synthetic-json": "332ab652ae48819ebce8b53e8a6607c50a118739a0fe0cdf64b916b3616c2989",
    "synthetic-bump-csv": "85303af5ca848b0d2d0cae9e2b23cc66e2f0051e29cc670f5b59fc47b0bf2ec5",
    "synthetic-bump-json": "a9354a8c1e9d50363f2e9150cf0f6721d7c55ccd77230990fe38c6a727700af8",
    "synthetic-plane-csv": "7122caba72e2647d634c61850e318f7eb2edbfb8fcd2fc6e887ae8c11392a928",
    "synthetic-plane-json": "7e29b8376be15ac43557a9eac6426e8ecf8c3dc6e0bc83d97ed125020928e58e",
    "synthetic-ridge-json": "518eb6b5667a7c4667573ad52bf423197efb7f9759ea4261357fd80ada3387ce",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(case, planted_hmd, ridge_csv, series_csv, tmp_path, capsys):
    """sha256 of each command's stdout, or of its ``-o`` file, over a fixed
    set of commands on a seeded HMD file and a synthetic CSV matrix: the
    same input must give the same bytes. Like ``TestGoldenFields`` in
    ``test_geometry.py``, the digests pin the last bits of this numpy
    build; another numpy or platform may need them recorded again."""
    out = tmp_path / "result"
    argv = [a.format(hmd=planted_hmd, csv=ridge_csv, series=series_csv, out=out)
            for a in GOLDEN_COMMANDS[case]]
    assert run(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = out.read_bytes() if "-o" in argv else captured.out.encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_OUTPUT_DIGESTS[case]


_MATRIX_ARGS = ("--input-format", "csv", "--first-year", "1900", "--first-age", "0")
_HMD_TEXT = make_hmd_text([(y, a, "0.01", "0.02", "0.03")
                           for y in (1900, 1901, 1902) for a in range(3)])
ERROR_CASES = {
    "hmd-unparsable-rate": (
        _HMD_TEXT.replace("0.02", "x", 1), ("cei",), 2,
        "error: line 4: unparsable rate 'x'"),
    "hmd-nan-rate": (
        _HMD_TEXT.replace("0.02", "nan", 1), ("cei",), 2,
        "error: line 4: rate 'nan' is not a number; write '.' for a missing cell"),
    "hmd-duplicate-row": (
        _HMD_TEXT + _HMD_TEXT.splitlines()[3] + "\n", ("cei",), 2,
        "error: line 13: duplicate row for year 1900, age 0"),
    "hmd-year-gap": (
        make_hmd_text([(y, a, "0.01", "0.02", "0.03")
                       for y in (1900, 1902) for a in range(3)]), ("cei",), 2,
        "error: non-contiguous years: 1900..1902 has gaps"),
    "hmd-bad-header": (
        _HMD_TEXT.replace("Total", "Both"), ("cei",), 2,
        "error: line 3: malformed header 'Year Age Female Male Both'; "
        "expected 'Year Age Female Male Total'"),
    "csv-non-numeric-cell": (
        "0.1,0.2,0.3\nbogus,0.2,0.3\n0.1,0.2,0.3\n", ("cei", *_MATRIX_ARGS), 2,
        "error: row 2, column 1: unparsable rate 'bogus'"),
    "csv-nan-cell": (
        "0.1,nan,0.3\n0.1,0.2,0.3\n0.1,0.2,0.3\n", ("cei", *_MATRIX_ARGS), 2,
        "error: row 1, column 2: rate 'nan' is not a number; "
        "leave the field empty for a missing cell"),
    "csv-ragged-row": (
        "0.1,0.2,0.3\n0.1,0.2\n", ("cei", *_MATRIX_ARGS), 2,
        "error: ragged row at row 2: expected 3 fields, got 2"),
    "csv-no-first-year": (
        "0.1,0.2,0.3\n", ("cei", "--input-format", "csv", "--first-age", "0"), 2,
        "error: csv input needs --first-year and --first-age"),
    "hmd-first-year": (
        _HMD_TEXT, ("cei", "--first-year", "1900"), 2,
        "error: --first-year and --first-age apply to csv input only"),
    "grid-2x5": (
        "0.1,0.2,0.3,0.4,0.5\n0.2,0.3,0.4,0.5,0.6\n", ("cei", *_MATRIX_ARGS), 3,
        "geometry error: grid 2x5 is smaller than 3x3"),
    "aice-window-outside": (
        "0.1,0.2,0.4,0.8\n0.2,0.3,0.5,0.9\n0.4,0.5,0.9,1.7\n0.8,0.9,1.6,3.3\n",
        ("aice", *_MATRIX_ARGS, "--window", "2500:2510"), 4,
        "analytics error: aice needs at least 2 cohorts in window (2500, 2510), got 0"),
    "plot-bad-series-row": (
        "birth_year,cei,point_count\n1900,1.0,3\n1901,x,3\n", ("plot",), 2,
        "error: malformed series CSV: row 3: could not convert string to float: 'x'"),
    "plot-too-narrow": (
        "birth_year,cei,point_count\n1900,1.0,3\n1901,2.0,3\n", ("plot", "--width", "60"),
        2, "error: chart dimensions too small for the fixed margins"),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_error_messages(case, tmp_path, capsys):
    """Exit code and the exact stderr line for a fixed set of bad inputs:
    the error text is output too, and must not change by accident."""
    text, (command, *flags), code, message = ERROR_CASES[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert run(command, str(path), *flags) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


BOM_INPUTS = {
    "csv-matrix": ("ridge_csv", ("cei", "{path}", *_MATRIX_ARGS)),
    "series-csv": ("series_csv", ("plot", "{path}")),
    "hmd": ("planted_hmd", ("cei", "{path}", "--format", "json")),
}


@pytest.mark.parametrize("case", list(BOM_INPUTS))
def test_byte_order_mark_is_ignored(case, request, tmp_path, capsys):
    """Excel's "CSV UTF-8" export and some editors start a file with a UTF-8
    byte-order mark; each text input gives the same bytes with or without it."""
    fixture, argv = BOM_INPUTS[case]
    source = request.getfixturevalue(fixture)
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / name / source.name
        path.parent.mkdir()
        path.write_text(prefix + source.read_text(encoding="utf-8"), encoding="utf-8")
        assert run(*(a.format(path=path) for a in argv)) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == ""
    assert outputs[1] == outputs[0]
