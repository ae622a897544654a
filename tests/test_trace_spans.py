"""The benchmark's trace spans still fit the package.

``perfbench/spans.py`` wraps each layer's public calls by name for
``--trace 1``; a change to ``src/`` that renames a call, moves an emitter
or drops an attribute the spans read breaks the trace. This runs every
layer once in process under the spans, on a small planted file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import cohortgeo
from cohortgeo import CohortReport, Sex, serialize

from conftest import planted_hmd_text

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import spans  # noqa: E402

del sys.path[0]  # perfbench's other modules must not shadow anything


def package_attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "cohortgeo" or name.startswith("cohortgeo.")
            for attr, value in vars(module).items()}


def test_every_layer_records_a_span(tmp_path):
    path = tmp_path / "planted.Mx_1x1.txt"
    path.write_text(planted_hmd_text(0, 0.3, n_years=90))
    before = package_attributes()
    report_methods = dict(CohortReport.__dict__)
    rec = spans.Recorder()
    restore = spans.instrument(rec)
    try:
        surface = cohortgeo.load_hmd(path, Sex.TOTAL)
        cohortgeo.parse_csv_matrix(serialize(surface), first_year=1900, first_age=0)
        field = cohortgeo.compute_geometry_field(surface)
        field.to_csv()
        field.to_json()
        series = cohortgeo.trim_series(cohortgeo.cei_series(field, surface))
        series.to_csv()
        series.to_json()
        for report in (cohortgeo.aice(series), cohortgeo.detect_peaks(series)):
            report.to_csv()
            report.to_json()
        cohortgeo.render_series_chart([series])
    finally:
        restore()
    recorded = {s["name"] for s in rec.spans}
    expected = {name for name in spans.SELF_METRIC if not name.startswith("cli.")}
    assert expected - recorded == set()
    assert all(s["end_ns"] is not None for s in rec.spans)
    after = package_attributes()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert CohortReport.__dict__["to_csv"] is report_methods["to_csv"]
    assert CohortReport.__dict__["to_json"] is report_methods["to_json"]
