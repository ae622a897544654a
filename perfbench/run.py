"""cohortgeo benchmark: seeded inputs, three workloads, a correctness gate.

    python3 perfbench/run.py --workload hmd_panel --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it runs the package from ``src/``
(``python -m cohortgeo.cli`` with ``PYTHONPATH=src``), which need not be
installed. Workloads: ``hmd_panel`` and ``field_dump`` run the CLI once per
operation, ``kernel_stress`` runs the in-process pipeline in a worker
process (``kernel_worker.py``). ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones. Every operation is checked after
the timed loop. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, failures, the digest of all outputs and every metric
with its unit. README.md in this directory describes workloads, metrics and
checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

if not (SRC / "cohortgeo" / "cli.py").is_file():
    sys.exit(f"error: no cohortgeo sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from cohortgeo import (  # noqa: E402
    aice, cei_series, compute_geometry_field, detect_peaks, load_hmd,
    parse_csv_matrix, parse_hmd, render_series_chart, trim_series,
)
from cohortgeo.analytics import DEFAULT_TRIM_YEAR, DEFAULT_WINDOW  # noqa: E402

SETUP_REPEATS = 3
POINT_SAMPLES = 32
IMPORT_PROBES = 5


@dataclass(frozen=True)
class Panel:
    """A CLI workload: files of fixed shapes and the commands run on them."""

    shapes: tuple[int, ...]
    ridge_slots: frozenset[int]
    missing_slots: frozenset[int]
    kinds: tuple[str, ...]                # run on every HMD file
    csv_slots: frozenset[int] = frozenset()   # also read as CSV input by cei
    svg_slots: frozenset[int] = frozenset()   # also run cei --format svg


PANELS = {
    "hmd_panel": Panel(shapes=(60, 75, 100, 130, 190, 270),
                       ridge_slots=frozenset({1, 3, 5}),
                       missing_slots=frozenset({0, 3, 4}),
                       kinds=("cei_csv", "aice_json", "gaps_json"),
                       csv_slots=frozenset({1, 4}),
                       svg_slots=frozenset({2, 5})),
    "field_dump": Panel(shapes=(100, 270),
                        ridge_slots=frozenset({1}),
                        missing_slots=frozenset({0}),
                        kinds=("field_csv", "field_json")),
}
WORKLOADS = (*PANELS, "kernel_stress")

_KIND_ARGS = {
    "cei_csv": ("cei",),
    "cei_svg": ("cei", "--format", "svg"),
    "aice_json": ("aice", "--format", "json"),
    "gaps_json": ("gaps", "--format", "json"),
    "field_csv": ("surface",),
    "field_json": ("surface", "--format", "json"),
}

END_TO_END_UNITS = {
    "op_ms.p50": "ms", "cpu_ms_per_op": "ms", "cells_per_s": "cells/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "cli.self_ms": "ms", "cli.bytes_out": "B",
    "hmd.parse_ms": "ms", "hmd.rows": "count", "hmd.ns_per_row": "ns",
    "surface.parse_csv_ms": "ms", "surface.cells": "count",
    "geometry.prepare_ms": "ms", "geometry.kernel_ms": "ms",
    "geometry.ns_per_point": "ns", "geometry.points": "count",
    "geometry.valid_ratio": "1", "geometry.field_bytes_per_point": "B",
    "geometry.kernel_rss_mb": "MB",
    "geometry.emit_csv_ms": "ms", "geometry.emit_json_ms": "ms",
    "geometry.emit_bytes": "B",
    "analytics.cei_ms": "ms", "analytics.trim_ms": "ms",
    "analytics.aice_ms": "ms", "analytics.peaks_ms": "ms",
    "analytics.emit_ms": "ms",
    "svgchart.render_ms": "ms",
    "trace.overhead_ratio": "1", "trace.outside_spans_ms": "ms",
}


@dataclass(frozen=True)
class Source:
    """One input file and what the gate needs to rebuild its outputs."""

    name: str
    path: Path
    spec: gen.HmdSpec
    is_csv: bool

    def cli_args(self) -> tuple[str, ...]:
        if not self.is_csv:
            return (str(self.path),)
        return (str(self.path), "--input-format", "csv",
                "--first-year", str(self.spec.first_year), "--first-age", "0")

    def load(self):
        if not self.is_csv:
            return load_hmd(self.path, sex="total")
        return parse_csv_matrix(self.path.read_text(encoding="utf-8"),
                                first_year=self.spec.first_year, first_age=0,
                                source_label=self.path.name)


@dataclass(frozen=True)
class Op:
    key: str
    source: Source
    kind: str
    output: Path | None     # -o target; None writes to stdout


@dataclass
class OpRecord:
    key: str
    traced: bool
    wall_s: float
    cpu_s: float
    rss_kb: int
    status: int
    stderr: bytes
    out_sha: str
    out_bytes: int
    cells: int
    trace: dict | None      # spans, counts and outside_ns of a traced operation


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path,
          env: dict[str, str]) -> tuple[float, float, int, int]:
    """Run a child to completion: wall s, user+sys CPU s, peak RSS KiB, status."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            os.waitstatus_to_exitcode(status))


# --- environment -------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(workload: str, seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": model,
            "l2": caches.get("L2", "?"), "l3": caches.get("L3", "?"),
            "python": platform.python_version(), "numpy": np.__version__}


# --- CLI workloads -------------------------------------------------------------

def setup_panel(panel: Panel, seed: int, workload_id: int, workdir: Path,
                env: dict[str, str]) -> list[Source]:
    """Write the panel's files, check they parse back, warm up the CLI."""
    rng = np.random.default_rng([seed, workload_id])
    specs = gen.panel_specs(rng, list(panel.shapes), panel.ridge_slots,
                            panel.missing_slots)
    sources = []
    for k, spec in enumerate(specs):
        rates = gen.hmd_rates(spec, rng)
        text = gen.hmd_text(spec, rates)
        path = workdir / f"{spec.name}.Mx_1x1.txt"
        path.write_text(text, encoding="utf-8")
        parsed = parse_hmd(text)
        if (parsed.data_row_count != spec.cells
                or parsed.total.rates.shape != (spec.n_years, gen.N_AGES)
                or not np.array_equal(parsed.total.missing_mask, np.isnan(rates[2]))):
            raise SystemExit(f"error: {path.name} does not parse back to its grid")
        sources.append(Source(spec.name, path, spec, is_csv=False))
        if k in panel.csv_slots:
            csv_path = workdir / f"{spec.name}.total.csv"
            csv_path.write_text(gen.csv_matrix_text(rates[2]), encoding="utf-8")
            sources.append(Source(f"{spec.name}.csv", csv_path, spec, is_csv=True))
    smallest = min(sources, key=lambda s: s.spec.cells)
    _, _, _, status = spawn([sys.executable, "-m", "cohortgeo.cli", "cei",
                             *smallest.cli_args()],
                            workdir / "warmup.out", workdir / "warmup.err", env)
    if status != 0:
        raise SystemExit("error: warm-up CLI run failed: "
                         + (workdir / "warmup.err").read_text(errors="replace"))
    return sources


def panel_ops(panel: Panel, sources: list[Source], workdir: Path) -> list[Op]:
    ops = []
    for k, src in enumerate(s for s in sources if not s.is_csv):
        kinds = list(panel.kinds)
        if k in panel.svg_slots:
            kinds.append("cei_svg")
        for kind in kinds:
            out = (workdir / f"{src.name}.{kind}.out"
                   if kind.startswith("field_") else None)
            ops.append(Op(f"{src.name}:{kind}", src, kind, out))
    for src in sources:
        if src.is_csv:
            ops.append(Op(f"{src.name}:cei_csv", src, "cei_csv", None))
    return ops


def run_op(op: Op, traced: bool, workdir: Path, env: dict[str, str]) -> OpRecord:
    stdout, stderr = workdir / "op.out", workdir / "op.err"
    args = [*_KIND_ARGS[op.kind][:1], *op.source.cli_args(), *_KIND_ARGS[op.kind][1:]]
    if op.output is not None:
        args += ["-o", str(op.output)]
    span_path = workdir / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "tracecli.py"), str(span_path), "--", *args]
    else:
        argv = [sys.executable, "-m", "cohortgeo.cli", *args]
    wall, cpu, rss_kb, status = spawn(argv, stdout, stderr, env)
    data = (op.output if op.output is not None else stdout).read_bytes()
    if op.output is not None:
        op.output.unlink()
    recorded = None
    if traced:
        recorded = json.loads(span_path.read_text(encoding="utf-8"))
        recorded["outside_ns"] = round(wall * 1e9) - spans.top_level_ns(recorded["spans"])
        span_path.unlink()
    return OpRecord(op.key, traced, wall, cpu, rss_kb, status, stderr.read_bytes(),
                    hashlib.sha256(data).hexdigest(), len(data),
                    op.source.spec.cells, recorded)


def expected_output(kind: str, surface, field) -> str:
    """The bytes the CLI should print, built in-process from the public API."""
    if kind == "field_csv":
        return field.to_csv()
    if kind == "field_json":
        return field.to_json()
    series = trim_series(cei_series(field, surface), DEFAULT_TRIM_YEAR)
    if kind == "cei_csv":
        return series.to_csv()
    if kind == "cei_svg":
        return render_series_chart([series], window=DEFAULT_WINDOW,
                                   title=series.source_label)
    if kind == "aice_json":
        return aice(series, DEFAULT_WINDOW).to_json()
    return detect_peaks(series, DEFAULT_WINDOW).to_json()


def gate(ops: list[Op], records: list[OpRecord], seed: int) -> tuple[int, str]:
    """Count failed operations and digest the outputs; not timed."""
    expected: dict[str, str] = {}
    problems: dict[str, list[str]] = {}
    for src in {op.source for op in ops}:
        surface = src.load()
        field = compute_geometry_field(surface)
        series = trim_series(cei_series(field, surface), DEFAULT_TRIM_YEAR)
        rng = np.random.default_rng([seed, src.spec.first_year, src.spec.n_years])
        found = checks.problems(surface, field, series, src.spec.ridge_cohort,
                                rng, POINT_SAMPLES)
        for op in ops:
            if op.source == src:
                text = expected_output(op.kind, surface, field)
                expected[op.key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
                problems[op.key] = found
    failed = 0
    first_sha: dict[str, str] = {}
    for r in records:
        why = list(problems[r.key])
        if r.status != 0:
            why.append(f"exit status {r.status}")
        if r.stderr:
            why.append("stderr: " + r.stderr.decode(errors="replace").strip()[:200])
        if r.out_sha != expected[r.key]:
            why.append("output differs from the in-process result")
        first_sha.setdefault(r.key, r.out_sha)
        if why:
            failed += 1
            print(f"FAILED {r.key}: {'; '.join(why)}")
    digest = hashlib.sha256("".join(
        f"{key}={first_sha[key]}\n" for key in sorted(first_sha)).encode()).hexdigest()
    return failed, digest


def run_panel(workload: str, seed: int, seconds: float, trace: bool,
              workdir: Path) -> dict:
    panel = PANELS[workload]
    workload_id = WORKLOADS.index(workload)
    env = child_env()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sources = setup_panel(panel, seed, workload_id, workdir, env)
        setup_s.append(time.perf_counter() - t0)
    ops = panel_ops(panel, sources, workdir)

    # Whole rounds only, so every run times the same mix of operations and
    # every output gets checked; stop at the round count closest to the
    # requested duration.
    order_rng = np.random.default_rng([seed, workload_id, 1])
    records: list[OpRecord] = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for idx in order_rng.permutation(len(ops)):
            for traced in (True, False) if trace else (False,):
                records.append(run_op(ops[idx], traced, workdir, env))
        now = time.perf_counter()
        if now - t_start + (now - t_round) / 2 >= seconds:
            break
    failed, digest = gate(ops, records, seed)
    return {"records": records, "setup_s": statistics.median(setup_s),
            "failed": failed, "digest": digest}


# --- kernel_stress -------------------------------------------------------------

def run_kernel(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run the workload in a fresh worker; its peak RSS is the workload's own."""
    result_path = workdir / "kernel.json"
    out, err = workdir / "kernel.out", workdir / "kernel.err"
    _, _, rss_kb, status = spawn(
        [sys.executable, str(HERE / "kernel_worker.py"), str(seed), str(seconds),
         "1" if trace else "0", str(result_path)], out, err, child_env())
    stderr = err.read_bytes()
    if status != 0:
        raise SystemExit(f"error: kernel worker exited with {status}: "
                         + stderr.decode(errors="replace")[-2000:])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    records, failed = [], 0
    for k, op in enumerate(result["ops"]):
        why = list(op["problems"])
        if stderr:
            why.append("stderr: " + stderr.decode(errors="replace").strip()[:200])
        if why:
            failed += 1
            print(f"FAILED kernel op {k}: {'; '.join(why)}")
        records.append(OpRecord("pipeline", op["trace"] is not None, op["wall_s"],
                                op["cpu_s"], rss_kb, 0, b"", result["digest"], 0,
                                op["cells"], op["trace"]))
    return {"records": records, "setup_s": result["setup_s"], "failed": failed,
            "digest": result["digest"]}


# --- metrics -------------------------------------------------------------------

def end_to_end(run: dict) -> dict[str, float]:
    """Metrics of one round of the workload's operations, each operation at
    its median over the run.

    Operation kinds differ several-fold in cost, so a plain median over all
    operations falls in the gap between the cheap and the dear ones and
    jumps with the noise of a few extreme samples; per-operation medians do
    not. A single slow operation, such as the first kernel call of a fresh
    process, does not set the rate either.
    """
    by_key: dict[str, list[OpRecord]] = {}
    for r in run["records"]:
        if not r.traced:
            by_key.setdefault(r.key, []).append(r)
    wall = [statistics.median(r.wall_s for r in ops) for ops in by_key.values()]
    cpu = [statistics.median(r.cpu_s for r in ops) for ops in by_key.values()]
    return {
        "op_ms.p50": statistics.median(wall) * 1e3,
        "cpu_ms_per_op": statistics.median(cpu) * 1e3,
        "cells_per_s": sum(ops[0].cells for ops in by_key.values()) / sum(wall),
        "peak_rss_mb": max(r.rss_kb for ops in by_key.values() for r in ops) / 1024.0,
        "setup_s": run["setup_s"],
    }


def import_probe_ms() -> float:
    """Mean time of ``import cohortgeo`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter_ns(); import cohortgeo; "
            "print(time.perf_counter_ns() - t)")
    env = child_env()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out, err = Path(tmp) / "probe.out", Path(tmp) / "probe.err"
        samples = []
        for _ in range(IMPORT_PROBES):
            spawn([sys.executable, "-c", code], out, err, env)
            samples.append(int(out.read_text()) / 1e6)
    return statistics.mean(samples)


def per_layer(run: dict) -> tuple[dict[str, float], str]:
    """Mean per traced operation of each layer's self time and counts.

    Also returns a line comparing the sum of the self times with the
    untraced operations.
    """
    traced = [r for r in run["records"] if r.traced]
    plain = [r for r in run["records"] if not r.traced]
    n = len(traced)
    self_ns: dict[str, int] = {}
    counts: dict[str, float] = {}
    outside_ns = 0
    for r in traced:
        for metric, ns in spans.self_times_ns(r.trace["spans"]).items():
            self_ns[metric] = self_ns.get(metric, 0) + ns
        for name, value in r.trace["counts"].items():
            if name == "geometry.kernel_rss_mb":
                counts[name] = max(counts.get(name, 0.0), value)
            else:
                counts[name] = counts.get(name, 0.0) + value
        outside_ns += r.trace["outside_ns"]
    out = {m: 0.0 for m in PER_LAYER_UNITS}
    for metric, ns in self_ns.items():
        out[metric] = ns / n / 1e6
    if "cli.import_ms" not in self_ns:
        out["cli.import_ms"] = import_probe_ms()
    out["cli.bytes_out"] = sum(r.out_bytes for r in traced) / n
    rows = counts.get("hmd.rows", 0.0)
    out["hmd.rows"] = rows / n
    if rows:
        out["hmd.ns_per_row"] = self_ns["hmd.parse_ms"] / rows
    out["surface.cells"] = counts.get("surface.cells", 0.0) / n
    points = counts.get("geometry.points", 0.0)
    out["geometry.points"] = points / n
    if points:
        out["geometry.ns_per_point"] = self_ns["geometry.kernel_ms"] / points
        out["geometry.valid_ratio"] = counts["geometry.valid_points"] / points
        out["geometry.field_bytes_per_point"] = (counts["geometry.field_bytes"]
                                                 / counts["geometry.grid_points"])
    out["geometry.kernel_rss_mb"] = counts.get("geometry.kernel_rss_mb", 0.0)
    out["geometry.emit_bytes"] = counts.get("geometry.emit_bytes", 0.0) / n
    out["trace.overhead_ratio"] = (statistics.median(r.wall_s for r in traced)
                                   / statistics.median(r.wall_s for r in plain))
    out["trace.outside_spans_ms"] = outside_ns / n / 1e6
    attributed = (sum(self_ns.values()) + outside_ns) / n / 1e6
    note = (f"layers: self times sum to {attributed:.1f} ms per traced operation "
            f"(mean of {n}); untraced op_ms.p50 "
            f"{statistics.median(r.wall_s for r in plain) * 1e3:.1f} ms, mean "
            f"{statistics.mean(r.wall_s for r in plain) * 1e3:.1f} ms")
    return out, note


def write_trace(workload: str, run: dict) -> Path:
    path = WORK / f"trace-{workload}.json"
    path.write_text(json.dumps([
        {"op": k, "key": r.key, "wall_s": r.wall_s, **r.trace}
        for k, r in enumerate(run["records"]) if r.traced]), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment(args.workload, args.seed)), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.workload == "kernel_stress":
            run = run_kernel(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            run = run_panel(args.workload, args.seed, args.seconds,
                            bool(args.trace), workdir)
        if args.trace:
            (metrics, note), units = per_layer(run), PER_LAYER_UNITS
            print(note)
            print(f"trace {write_trace(args.workload, run).relative_to(ROOT)}")
        else:
            metrics, units = end_to_end(run), END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run["records"])
    failed = run["failed"]
    print(f"operations {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g}")
    print(f"digest sha256:{run['digest']}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
