"""Command-line pipeline: ingest a mortality surface, run the geometry
kernel, aggregate per cohort, and export series/reports/charts.

``cei``, ``aice``, ``gaps`` and ``surface`` run one path
(:func:`_run_pipeline`) that reads the parsed arguments directly. Each
subcommand returns its product (a surface, series, report or field, or SVG
text), and :func:`main` formats it by ``--format`` and writes it once.

Exit codes: 0 success, 2 input or configuration problems (including any
``OSError`` from reading input or writing output, a reversed
``--window``/``--years``/``--ages`` range, a ``synthetic`` ridge
``--width``, bump ``--sigma`` or sphere ``--radius`` that is not positive
and finite, an ``OverflowError`` from a parameter too large to compute
with, a ``synthetic`` grid over the size rule's cell budget or with a value
that is not finite, and a ``MemoryError``), 3 geometry
failures, 4 analytics failures. Output files are written atomically (temp
file plus rename), so a failed run never leaves a partial artifact.
Relative output paths are resolved against ``COHORTGEO_OUTPUT_DIR`` when
that variable is set.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import analytics
from .analytics import CEISeries, cei_series, detect_peaks, trim_series
from .errors import AnalyticsError, GeometryError, IngestError, SampleSizeError
from .geometry import GeometryOptions, compute_geometry_field
from .hmd import load_hmd
from .surface import MortalitySurface, Sex, _check_grid_size, parse_csv_matrix
from .svgchart import render_series_chart

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_ANALYTICS = 4

_OUTPUT_DIR_ENV = "COHORTGEO_OUTPUT_DIR"


def _pair_parser(sep: str, convert: type, expected: str):
    """An argparse type that splits ``A<sep>B`` and converts both parts."""
    def parse(text: str) -> tuple:
        try:
            a, b = text.split(sep)
            return convert(a), convert(b)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return parse


_parse_year_range = _pair_parser(":", int, "LOW:HIGH integer range")
_parse_point = _pair_parser(",", float, "T,X pair")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="mortality data file")
    p.add_argument("--input-format", choices=("hmd", "csv"), default="hmd",
                   help="input layout (default: hmd)")
    p.add_argument("--sex", choices=[s.value for s in Sex], default="total")
    p.add_argument("--first-year", type=int, default=None,
                   help="year of the first CSV row (csv input only)")
    p.add_argument("--first-age", type=int, default=None,
                   help="age of the first CSV column (csv input only)")


def _add_geometry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z-scale", type=float, default=1.0,
                   help="multiply rates before geometry (default: 1)")
    p.add_argument("--log", action="store_true", dest="log_rates",
                   help="take the natural log of rates before geometry")


def _add_series_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trim-year", type=int, default=analytics.DEFAULT_TRIM_YEAR,
                   help="drop cohorts born after this year (default: %(default)s)")
    p.add_argument("--no-trim", action="store_true",
                   help="keep all cohorts including the zeroed border ones")
    p.add_argument("--normalization", choices=("sum", "mean"), default="sum",
                   help="per-cohort sum, or mean per valid point")


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=_parse_year_range,
                   default=analytics.DEFAULT_WINDOW, metavar="Y0:Y1",
                   help="analysis window of birth years (default: %d:%d)"
                   % analytics.DEFAULT_WINDOW)


def _add_peak_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--baseline-window", type=int,
                   default=analytics.DEFAULT_BASELINE_WINDOW,
                   help="rolling-median width in years (default: %(default)s)")
    p.add_argument("--threshold", type=float,
                   default=analytics.DEFAULT_THRESHOLD_RATIO, dest="threshold_ratio",
                   help="peak threshold over baseline (default: %(default)s)")


def _add_output_args(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=formats, default="csv",
                   dest="output_format", help="output format (default: csv)")
    p.add_argument("-o", "--output", default=None, dest="output_path",
                   help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortgeo",
        description="Detect and measure mortality cohort effects via "
                    "discrete surface geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, formats in (
            ("cei", "export the cohort effect index series", ("csv", "json", "svg")),
            ("aice", "aggregate index (coefficient of variation)", ("csv", "json")),
            ("gaps", "detect peaks and generation gaps", ("csv", "json"))):
        p = sub.add_parser(name, help=help_text)
        _add_input_args(p)
        _add_geometry_args(p)
        _add_series_args(p)
        _add_window_args(p)
        if name == "gaps":
            _add_peak_args(p)
        _add_output_args(p, formats)

    p_surface = sub.add_parser("surface", help="dump the pointwise geometry field")
    _add_input_args(p_surface)
    _add_geometry_args(p_surface)
    _add_output_args(p_surface, ("csv", "json"))

    p_syn = sub.add_parser("synthetic", help="materialize a synthetic surface")
    p_syn.add_argument("--shape", required=True,
                       choices=("plane", "sphere", "ridge", "bump", "gompertz"))
    p_syn.add_argument("--years", type=_parse_year_range, required=True,
                       metavar="Y0:Y1")
    p_syn.add_argument("--ages", type=_parse_year_range, required=True,
                       metavar="A0:A1")
    p_syn.add_argument("--a", type=float, default=0.001, help="plane: t coefficient")
    p_syn.add_argument("--b", type=float, default=0.001, help="plane: x coefficient")
    p_syn.add_argument("--c", type=float, default=1.0, help="plane: constant")
    p_syn.add_argument("--radius", type=float, default=500.0, help="sphere radius")
    p_syn.add_argument("--center", type=_parse_point, default=None, metavar="T,X",
                       help="sphere/bump center (default: grid center)")
    p_syn.add_argument("--width", type=float, default=50.0,
                       help="ridge profile width parameter")
    p_syn.add_argument("--amplitude", type=float, default=1.0,
                       help="ridge/bump amplitude")
    p_syn.add_argument("--ridge-center", type=float, default=None,
                       help="birth year the ridge sits on (default: grid middle)")
    p_syn.add_argument("--sigma", type=float, default=8.0, help="bump sigma")
    p_syn.add_argument("--base-rate", type=float, default=1e-4)
    p_syn.add_argument("--age-slope", type=float, default=0.09)
    p_syn.add_argument("--improvement", type=float, default=0.01)
    _add_output_args(p_syn, ("csv", "json"))

    p_plot = sub.add_parser("plot", help="render series CSV files to an SVG chart")
    p_plot.add_argument("inputs", nargs="+", help="series CSV files")
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--width", type=int, default=900)
    p_plot.add_argument("--height", type=int, default=420)
    _add_window_args(p_plot)
    p_plot.add_argument("--no-window", action="store_true",
                        help="skip the analysis-window shading")
    p_plot.add_argument("--no-peaks", action="store_true",
                        help="skip peak annotations")
    _add_peak_args(p_plot)
    p_plot.add_argument("-o", "--output", default=None, dest="output_path")

    return parser


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        return
    # join keeps an absolute path as it is and an empty base adds nothing
    target = os.path.join(os.environ.get(_OUTPUT_DIR_ENV, ""), output_path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        # a pipe or device cannot be replaced, only written into
        with os.fdopen(os.open(target, os.O_WRONLY), "w", encoding="utf-8",
                       newline="") as fh:
            fh.write(text)
        return
    # rename over the file a symlink names, so the link survives
    target = os.path.realpath(target)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cohortgeo-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the result the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_surface(args: argparse.Namespace) -> MortalitySurface:
    if args.input_format == "hmd":
        if args.first_year is not None or args.first_age is not None:
            raise ValueError("--first-year and --first-age apply to csv input only")
        return load_hmd(args.input, sex=args.sex)
    if args.first_year is None or args.first_age is None:
        raise ValueError("csv input needs --first-year and --first-age")
    text = Path(args.input).read_text(encoding="utf-8-sig")
    return parse_csv_matrix(text, first_year=args.first_year,
                            first_age=args.first_age, sex=args.sex,
                            source_label=os.path.basename(args.input))


def _run_pipeline(args: argparse.Namespace):
    """Ingest, geometry and aggregation shared by ``cei``, ``aice``, ``gaps``
    and ``surface``; returns the subcommand's product."""
    options = GeometryOptions(z_scale=args.z_scale, log_rates=args.log_rates)
    surface = _load_surface(args)
    field = compute_geometry_field(surface, options)
    if args.command == "surface":
        product = field
    else:
        series = cei_series(field, surface, normalization=args.normalization)
        if not args.no_trim:
            series = trim_series(series, args.trim_year)
        if args.command == "aice":
            product = analytics.aice(series, args.window)
        elif args.command == "gaps":
            product = detect_peaks(series, args.window,
                                   baseline_window=args.baseline_window,
                                   threshold_ratio=args.threshold_ratio)
        elif args.output_format == "svg":
            product = render_series_chart([series], window=args.window,
                                          title=series.source_label)
        else:
            product = series
    return product


def _synthetic_surface(args: argparse.Namespace) -> MortalitySurface:
    from . import smooth  # only this subcommand needs the analytic oracle

    (y0, y1) = args.years
    (a0, a1) = args.ages
    _check_grid_size(y1 - y0 + 1, a1 - a0 + 1, "synthetic")
    years = np.arange(y0, y1 + 1)
    ages = np.arange(a0, a1 + 1)
    # domain padded by one step so 3-point stencils at the edge stay inside
    domain = ((float(y0) - 1.0, float(y1) + 1.0),
              (float(a0) - 1.0, float(a1) + 1.0))
    center = args.center or ((y0 + y1) / 2.0, (a0 + a1) / 2.0)  # sphere, bump
    shape = args.shape
    if shape == "plane":
        surf = smooth.plane(args.a, args.b, args.c, domain=domain)
    elif shape == "sphere":
        surf = smooth.sphere_cap(args.radius, center=center, domain=domain)
    elif shape == "ridge":
        cohort = (args.ridge_center if args.ridge_center is not None
                  else (y0 + y1) / 2.0 - (a0 + a1) / 2.0)
        surf = smooth.gaussian_ridge(width=args.width, amplitude=args.amplitude,
                                     center=cohort, domain=domain)
    elif shape == "bump":
        surf = smooth.gaussian_bump(args.sigma, center=center,
                                    amplitude=args.amplitude, domain=domain)
    else:
        surf = smooth.gompertz_surface(base_rate=args.base_rate,
                                       age_slope=args.age_slope,
                                       improvement=args.improvement,
                                       domain=domain)
    return smooth.materialize_mortality_surface(surf, years, ages)


def cmd_plot(args: argparse.Namespace) -> str:
    series_list = [CEISeries.from_csv(Path(path).read_text(encoding="utf-8-sig"),
                                      source_label=os.path.basename(path))
                   for path in args.inputs]
    window = None if args.no_window else args.window
    peaks = None
    if not args.no_peaks:
        try:
            report = detect_peaks(series_list[0], args.window,
                                  baseline_window=args.baseline_window,
                                  threshold_ratio=args.threshold_ratio)
            peaks = report.peaks
        except SampleSizeError:
            peaks = None  # window/series too short to annotate; chart anyway
    return render_series_chart(series_list, width=args.width, height=args.height,
                               title=args.title, window=window, peaks=peaks)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("window", "years", "ages"):
            lo, hi = getattr(args, flag, (0, 0))
            if lo > hi:
                raise ValueError(f"--{flag} {lo}:{hi} is reversed")
        run = {"synthetic": _synthetic_surface, "plot": cmd_plot}.get(
            args.command, _run_pipeline)
        product = run(args)
        if not isinstance(product, str):
            product = product.to_csv() if args.output_format == "csv" else product.to_json()
        _emit(product, args.output_path)
        return EXIT_OK
    except (IngestError, MemoryError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except AnalyticsError as exc:
        print(f"analytics error: {exc}", file=sys.stderr)
        return EXIT_ANALYTICS


if __name__ == "__main__":
    sys.exit(main())
