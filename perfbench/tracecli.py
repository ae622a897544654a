"""Run one cohortgeo CLI command with layer spans, then write the spans out.

    python perfbench/tracecli.py SPANS.json -- <cohortgeo arguments>

Stands in for ``python -m cohortgeo.cli`` in traced benchmark runs and
starts the CLI the same way: import the package, then run ``cohortgeo.cli``
as ``__main__``. The layer functions are wrapped in between, so the CLI
module binds the wrappers when it imports them. Stdout, stderr and the
exit code are the CLI's own.
"""

from __future__ import annotations

import json
import runpy
import sys

import spans


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS.json -- ARGS...")
    rec = spans.Recorder()
    code = 1
    try:
        with rec.span("cli.import"):
            import cohortgeo  # noqa: F401
        spans.instrument(rec)
        sys.argv = ["cohortgeo.cli", *argv]
        with rec.span("cli.main"):
            try:
                runpy.run_module("cohortgeo.cli", run_name="__main__", alter_sys=True)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        sys.stdout.flush()
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
