"""The package's public name list."""

from __future__ import annotations

import cohortgeo


def test_all_names_resolve_once():
    names = cohortgeo.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(cohortgeo, name)
