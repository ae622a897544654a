"""In-memory spans around the public calls of each cohortgeo layer.

Nothing under ``src/`` is changed: :func:`instrument` swaps every
module-level reference to a public function (and the emit methods of the
result classes) for a wrapper that records a span, then hands back a
function that restores the originals. One :class:`Recorder` holds one
operation; its spans carry a name, start, end and the index of the
enclosing span. Counts are taken at the same boundaries, after the span
has closed.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager
from functools import wraps

# span name -> per-layer self-time metric
SELF_METRIC = {
    "cli.import": "cli.import_ms",
    "cli.main": "cli.self_ms",
    "hmd.load_hmd": "hmd.parse_ms",
    "hmd.parse_hmd": "hmd.parse_ms",
    "surface.parse_csv_matrix": "surface.parse_csv_ms",
    "geometry.prepare_grid": "geometry.prepare_ms",
    "geometry.compute_geometry_field": "geometry.kernel_ms",
    "geometry.GeometryField.to_csv": "geometry.emit_csv_ms",
    "geometry.GeometryField.to_json": "geometry.emit_json_ms",
    "analytics.cei_series": "analytics.cei_ms",
    "analytics.trim_series": "analytics.trim_ms",
    "analytics.aice": "analytics.aice_ms",
    "analytics.detect_peaks": "analytics.peaks_ms",
    "analytics.CEISeries.to_csv": "analytics.emit_ms",
    "analytics.CEISeries.to_json": "analytics.emit_ms",
    "analytics.CohortReport.to_csv": "analytics.emit_ms",
    "analytics.CohortReport.to_json": "analytics.emit_ms",
    "svgchart.render_series_chart": "svgchart.render_ms",
}

_FUNCTIONS = {
    "hmd": ("load_hmd", "parse_hmd"),
    "surface": ("parse_csv_matrix",),
    "geometry": ("prepare_grid", "compute_geometry_field"),
    "analytics": ("cei_series", "trim_series", "aice", "detect_peaks"),
    "svgchart": ("render_series_chart",),
}
_METHODS = {
    "geometry": {"GeometryField": ("to_csv", "to_json")},
    "analytics": {"CEISeries": ("to_csv", "to_json"),
                  "CohortReport": ("to_csv", "to_json")},
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans and counts of one operation, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _maxrss_mb() if name.endswith("compute_geometry_field") else 0.0
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, result, rss_before)
            return result
        return traced

    def _count(self, name: str, result, rss_before: float) -> None:
        if name == "hmd.parse_hmd":
            self.add("hmd.rows", result.data_row_count)
        elif name == "surface.parse_csv_matrix":
            self.add("surface.cells", result.rates.size)
        elif name == "geometry.compute_geometry_field":
            ny, nx = result.shape
            self.add("geometry.points", (ny - 2) * (nx - 2))
            self.add("geometry.valid_points", int(result.valid.sum()))
            self.add("geometry.grid_points", ny * nx)
            self.add("geometry.field_bytes", sum(
                a.nbytes for a in (result.valid, result.tangents,
                                   result.curvature_vectors, result.normals,
                                   result.normal_curvatures)))
            self.peak("geometry.kernel_rss_mb", _maxrss_mb() - rss_before)
        elif name.startswith("geometry.GeometryField.to_"):
            self.add("geometry.emit_bytes", len(result))


def instrument(rec: Recorder):
    """Route every loaded reference to a layer's public calls through ``rec``.

    Returns a function that puts the originals back.
    """
    import cohortgeo  # noqa: F401  (loads every layer module)

    modules = {name: sys.modules[f"cohortgeo.{name}"] for name in _FUNCTIONS}
    wrapped = {}
    for mod_name, names in _FUNCTIONS.items():
        for fn_name in names:
            fn = getattr(modules[mod_name], fn_name)
            wrapped[id(fn)] = (fn, rec.wrap(f"{mod_name}.{fn_name}", fn))
    undo = []
    holders = [m for key, m in sys.modules.items()
               if key == "cohortgeo" or key.startswith("cohortgeo.")]
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                setattr(holder, attr, wrapped[id(value)][1])
                undo.append((holder, attr, value))
    for mod_name, classes in _METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[mod_name], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, rec.wrap(f"{mod_name}.{cls_name}.{meth}", original))
                undo.append((cls, meth, original))

    def restore() -> None:
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)
    return restore


def self_times_ns(spans: list[dict]) -> dict[str, int]:
    """Per-layer self time: span duration minus what its children cover."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out: dict[str, int] = {}
    for s, inner in zip(spans, child_ns):
        metric = SELF_METRIC.get(s["name"])
        if metric is not None:
            out[metric] = out.get(metric, 0) + (s["end_ns"] - s["start_ns"] - inner)
    return out


def top_level_ns(spans: list[dict]) -> int:
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] is None)
