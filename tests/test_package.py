"""The package's public name list and what importing it loads."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohortgeo
from conftest import package_env

# The pipeline, its types and its errors. The analytic oracle is reached as
# ``cohortgeo.smooth`` and the scalar reference steps as ``cohortgeo.geometry``.
PUBLIC_NAMES = {
    "__version__",
    # ingest
    "HmdParseResult", "MortalitySurface", "Sex", "SurfaceGrid",
    "load_hmd", "parse_csv_matrix", "parse_hmd", "parse_json", "serialize",
    # geometry
    "COHORT", "CROSS", "GeometryField", "GeometryOptions",
    "compute_geometry_field", "compute_point_geometry", "prepare_grid",
    # analytics and emit
    "CEISeries", "CohortReport", "Peak", "UShapeReport", "aice", "cei_series",
    "detect_peaks", "trim_series", "u_shape_diagnostic", "render_series_chart",
    # errors
    "CohortGeoError", "IngestError", "FormatError", "StructuralError",
    "GeometryError", "AmbiguousNormalError", "DegenerateStencilError",
    "DegenerateTangentError", "SurfaceSizeError", "AnalyticsError",
    "ConsistencyError", "EmptySeriesError", "ParameterError", "QuadratureError",
    "SampleSizeError", "UndefinedAiceError",
}


def test_all_names_resolve_once():
    names = cohortgeo.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(cohortgeo, name)


def test_public_names_are_exactly_the_pipeline():
    assert set(cohortgeo.__all__) == PUBLIC_NAMES
    assert len(cohortgeo.__all__) == 43


def test_oracle_imports_nothing_from_the_kernel():
    tree = ast.parse(Path(cohortgeo.__file__).with_name("smooth.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(module.rstrip(".") + "." + a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    kernel = {"geometry", "analytics", "hmd", "cli"}
    assert not {m for m in imported if kernel & set(m.split("."))}, imported


def test_package_import_leaves_the_oracle_unloaded():
    probe = ("import sys, cohortgeo; print('cohortgeo.smooth' in sys.modules); "
             "import cohortgeo.cli; print('cohortgeo.smooth' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_cli_import_loads_no_network_modules():
    probe = ("import sys, cohortgeo.cli; print(sorted(m for m in "
             "('xml.sax', 'urllib.request', 'http.client') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def threads_after(probe: str, **blas_env: str) -> tuple[int, bool]:
    """Run ``probe`` in a fresh interpreter whose environment sets only the
    given BLAS thread variables; return the process's thread count after it
    and whether ``os.environ`` is unchanged by it."""
    env = {k: v for k, v in package_env(**blas_env).items()
           if k not in BLAS_THREAD_VARS or k in blas_env}
    code = ("import os; before = dict(os.environ); " + probe
            + "; print(len(os.listdir('/proc/self/task')), before == dict(os.environ))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    count, unchanged = proc.stdout.split()
    return int(count), unchanged == "True"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc/self/task")
class TestBlasThreads:
    """Loading numpy through the package starts no idle OpenBLAS worker,
    unless the user set a thread count or loaded numpy first."""

    @pytest.mark.parametrize("probe", ["import cohortgeo",
                                       "from cohortgeo.cli import main"])
    def test_package_loads_numpy_on_one_thread(self, probe):
        assert threads_after(probe) == (1, True)

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_user_thread_count_wins(self, var):
        numpy_count, _ = threads_after("import numpy", **{var: "2"})
        assert threads_after("import cohortgeo", **{var: "2"}) == (numpy_count, True)

    def test_numpy_loaded_first_is_left_alone(self):
        numpy_count, _ = threads_after("import numpy")
        assert threads_after("import numpy; import cohortgeo") == (numpy_count, True)
