"""The package's public name list and what importing it loads."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import os
import re
import shlex
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import cohortgeo
from cohortgeo.cli import main
from conftest import package_env, planted_hmd_text

# The pipeline, its types and its errors. The analytic oracle is reached as
# ``cohortgeo.smooth`` and the scalar reference steps as ``cohortgeo.geometry``.
PUBLIC_NAMES = {
    "__version__",
    # ingest
    "HmdParseResult", "MortalitySurface", "Sex", "SurfaceGrid",
    "load_hmd", "parse_csv_matrix", "parse_hmd", "parse_json",
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
    "ConsistencyError", "EmptySeriesError", "ParameterError",
    "SampleSizeError", "UndefinedAiceError",
}


def test_all_names_resolve_once():
    names = cohortgeo.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(cohortgeo, name)


def test_public_names_are_exactly_the_pipeline():
    assert set(cohortgeo.__all__) == PUBLIC_NAMES
    assert len(cohortgeo.__all__) == 41


def test_public_names_hold_nothing_of_the_oracle():
    modules = {getattr(getattr(cohortgeo, name), "__module__", None)
               for name in cohortgeo.__all__}
    assert "cohortgeo.analytics" in modules and "cohortgeo.smooth" not in modules


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


def test_text_inputs_are_read_one_way():
    """Every text input is UTF-8 with or without a byte-order mark: each
    ``.read_text`` call passes ``encoding="utf-8-sig"``, and no module calls
    the builtin ``open`` (output is written through ``os.fdopen``)."""
    reads, offenders = 0, []
    for path in sorted(Path(cohortgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            where = f"{path.name}:{node.lineno}"
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                offenders.append(where)
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "read_text":
                reads += 1
                encoding = [ast.literal_eval(k.value) for k in node.keywords
                            if k.arg == "encoding"]
                if encoding != ["utf-8-sig"]:
                    offenders.append(where)
    assert reads and offenders == []


def test_parameter_rules_live_in_surface_only():
    """``surface.py`` alone decides what an integer and a positive real
    parameter are: it is the only module that imports ``numbers`` or
    defines ``_integer`` or ``_positive_real``; the others import them."""
    importers, definers = set(), set()
    for path in sorted(Path(cohortgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(
                    alias.name == "numbers" for alias in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                importers.add(path.name)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in ("_integer", "_positive_real")):
                definers.add((path.name, node.name))
    assert importers == {"surface.py"}
    assert definers == {("surface.py", "_integer"), ("surface.py", "_positive_real")}


def test_catalog_derives_through_one_chain_rule():
    """Every catalog surface is built by ``smooth._chain``: ``smooth.py``
    calls ``AnalyticSurface(`` once, inside ``_chain``, so no surface
    hand-derives its partials."""
    tree = ast.parse(Path(cohortgeo.__file__).with_name("smooth.py").read_text())
    callers = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            callers += [function.name for node in ast.walk(function)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "AnalyticSurface"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "AnalyticSurface"]
    assert callers == ["_chain"] and len(calls) == 1


def test_oracle_converts_coordinates_in_its_chain_rule_only():
    """``smooth.py`` converts coordinates once: every ``np.asarray(t, float)``
    and ``np.asarray(x, float)`` is inside ``_chain``, so no catalog formula
    converts its own."""
    tree = ast.parse(Path(cohortgeo.__file__).with_name("smooth.py").read_text())
    owners = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "asarray" and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in ("t", "x")):
                continue
            dtypes = node.args[1:] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes):
                owners.append(top.name)
    assert owners == ["_chain", "_chain"]


def test_real_parameters_are_not_read_with_float():
    """``smooth.py``, ``analytics.py`` and ``svgchart.py`` read real
    parameters through ``surface._real``: no ``float(`` call takes a
    parameter, a subscript of one, or, in ``__post_init__``, a field
    (``self.<field>`` or ``getattr(self, ...)``)."""
    def reads_a_parameter(arg, params, post_init):
        while isinstance(arg, ast.Subscript):
            arg = arg.value
        if isinstance(arg, ast.Name):
            return arg.id in params
        return post_init and (
            (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
             and arg.value.id == "self")
            or (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id == "getattr" and isinstance(arg.args[0], ast.Name)
                and arg.args[0].id == "self"))

    offenders = []
    for name in ("smooth.py", "analytics.py", "svgchart.py"):
        tree = ast.parse(Path(cohortgeo.__file__).with_name(name).read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = function.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None}
            offenders += [f"{name}:{node.lineno} {ast.unparse(node)}"
                          for node in ast.walk(function)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "float" and node.args
                          and reads_a_parameter(node.args[0], params,
                                                function.name == "__post_init__")]
    assert offenders == []


def test_real_rule_lives_in_surface_only():
    definers = {path.name for path in Path(cohortgeo.__file__).parent.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "_real"}
    assert definers == {"surface.py"}


# --- the benchmark's hooks into the package ----------------------------------
# perfbench wraps package functions by name and reads result attributes; these
# checks read its source and never import it.

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def spans_constant(name: str):
    for node in perfbench_tree("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"spans.py defines no {name}")


def test_perfbench_imports_from_the_package_resolve():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "cohortgeo"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert (hasattr(module, alias.name)
                            or importlib.util.find_spec(f"{node.module}.{alias.name}")
                            ), f"{path.name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked


def test_spans_functions_are_module_level_functions():
    for mod_name, names in spans_constant("_FUNCTIONS").items():
        module = importlib.import_module(f"cohortgeo.{mod_name}")
        for fn_name in names:
            assert isinstance(vars(module).get(fn_name), types.FunctionType), \
                f"{mod_name}.{fn_name}"


def test_spans_methods_are_in_the_class_dict():
    for mod_name, classes in spans_constant("_METHODS").items():
        module = importlib.import_module(f"cohortgeo.{mod_name}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for meth in methods:
                assert meth in cls.__dict__, f"{cls_name}.{meth}"


def test_span_counts_read_attributes_the_results_have():
    """Each ``name == "<module>.<function>"`` branch of ``Recorder._count``
    reads ``result.<attr>``; the function's return type must have them."""
    count = next(node for node in ast.walk(perfbench_tree("spans.py"))
                 if isinstance(node, ast.FunctionDef) and node.name == "_count")
    read: dict[str, set[str]] = {}
    for branch in ast.walk(count):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)
                and isinstance(branch.test.comparators[0], ast.Constant)):
            continue
        attrs = read.setdefault(branch.test.comparators[0].value, set())
        for node in ast.walk(ast.Module(body=branch.body, type_ignores=[])):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "result"):
                attrs.add(node.attr)
    assert set(read) == {"hmd.parse_hmd", "surface.parse_csv_matrix",
                         "geometry.compute_geometry_field"}
    for span, attrs in read.items():
        mod_name, fn_name = span.split(".")
        fn = getattr(importlib.import_module(f"cohortgeo.{mod_name}"), fn_name)
        cls = typing.get_type_hints(fn)["return"]
        fields = {f.name for f in dataclasses.fields(cls)}
        missing = {a for a in attrs if a not in fields and not hasattr(cls, a)}
        assert attrs and not missing, (span, missing)


def declared_type(cls: type, attr: str):
    """The declared type of ``cls.attr`` (a dataclass field or a property),
    None for any other member; fails if ``cls`` has no such attribute."""
    if dataclasses.is_dataclass(cls) and attr in {f.name for f in
                                                  dataclasses.fields(cls)}:
        return typing.get_type_hints(cls)[attr]
    assert hasattr(cls, attr), f"{cls.__name__}.{attr}"
    member = getattr(cls, attr)
    if isinstance(member, property):
        return typing.get_type_hints(member.fget)["return"]
    return None


def test_run_reads_attributes_the_results_have():
    """``run.py`` reads attribute chains such as ``parsed.total.rates`` off
    variables it assigns from package calls (``parsed = parse_hmd(text)``);
    each link must exist on the type the one before it has."""
    tree = perfbench_tree("run.py")
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "cohortgeo"
                for alias in node.names}
    results = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in imported):
            fn = getattr(cohortgeo, node.value.func.id)
            for target in node.targets:
                results[target.id] = typing.get_type_hints(fn)["return"]
    chains = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in results:
            chains.add((node.id, *chain))
    assert {("parsed", "data_row_count"), ("parsed", "total", "rates", "shape"),
            ("parsed", "total", "missing_mask")} <= chains
    for name, *attrs in chains:
        cls = results[name]
        for attr in attrs:
            if not isinstance(cls, type):
                break
            cls = declared_type(cls, attr)


def test_package_import_loads_every_traced_module():
    modules = sorted(f"cohortgeo.{m}" for m in spans_constant("_FUNCTIONS"))
    probe = f"import sys, cohortgeo; print([m for m in {modules!r} if m not in sys.modules])"
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


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Reporting a falsifying example imports libcst, whose deprecation
    # warning must not turn into an INTERNALERROR under the repo's settings.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, env=package_env())
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def readme_blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks under the README heading ``## section``."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, flags=re.S)


def test_readme_examples_run(tmp_path, monkeypatch):
    # The HMD examples read a seeded HMD-shaped file under the README's name.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "GBRTENW.Mx_1x1.txt").write_text(planted_hmd_text(0, 0.1))
    (commands,) = readme_blocks("Command line", "sh")
    ran = []
    for line in commands.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["cohortgeo"]:
            continue
        assert main(argv[1:]) == 0, line
        if "-o" in argv:
            assert (tmp_path / argv[argv.index("-o") + 1]).is_file(), line
        ran.append(argv[1])
    assert ran == ["synthetic", "cei", "plot", "cei", "aice", "gaps", "surface"]
    snippets = readme_blocks("Library", "python")
    assert [b.split("\n", 1)[0] for b in snippets] == [
        "from dataclasses import replace", "from cohortgeo import smooth",
        "from cohortgeo import geometry"]
    for block in snippets:
        exec(compile(block, "README.md", "exec"), {})
