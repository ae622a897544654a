"""The package's public name list and what importing it loads."""

from __future__ import annotations

import subprocess
import sys

import cohortgeo
from conftest import package_env


def test_all_names_resolve_once():
    names = cohortgeo.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(cohortgeo, name)


def test_cli_import_loads_no_network_modules():
    probe = ("import sys, cohortgeo.cli; print(sorted(m for m in "
             "('xml.sax', 'urllib.request', 'http.client') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
