"""Parser for Human Mortality Database period death-rate files (Mx 1x1).

Expected layout::

    <title line: country, file kind, modification date>
    <blank line>
      Year          Age             Female            Male           Total
      1922            0             0.069414       0.089978         0.079975
      ...
      1922          110+            0.519479       0.306375         0.478723

Rows are whitespace separated and may come in any order, with blank lines
between them. The open age group ``110+`` is stored as a regular age-110
column (more generally, a trailing ``+`` is stripped), and the missing-value
token ``.`` becomes an explicitly flagged missing cell. One parse fills one
``(3, years, ages)`` rate array; the three surfaces, one per sex column,
are its slices.

The parser is total over valid files: every line is either consumed as
title/blank/header/data or triggers an error naming its line number, and
the returned row accounting lets callers verify nothing was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import FormatError, StructuralError
from .surface import MortalitySurface, Sex, _parse_rate

_HEADER_COLUMNS = ("Year", "Age", "Female", "Male", "Total")


@dataclass(frozen=True)
class HmdParseResult:
    """Three per-sex surfaces, in a read-only mapping, plus row accounting."""

    surfaces: Mapping[Sex, MortalitySurface]
    title: str
    line_count: int
    data_row_count: int
    skipped_blank_lines: int

    @property
    def total(self) -> MortalitySurface:
        return self.surfaces[Sex.TOTAL]


def _parse_age(token: str, lineno: int) -> int:
    raw = token[:-1] if token.endswith("+") else token
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"line {lineno}: unparsable age {token!r}") from None


def parse_hmd(text: str) -> HmdParseResult:
    """Parse HMD Mx 1x1 text into one surface per sex column.

    Raises :class:`FormatError` for malformed lines (naming the line
    number) and :class:`StructuralError` for duplicate (year, age) rows,
    gaps in years or ages, uneven age ranges, or axes beyond int64.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise FormatError("file too short: expected title, blank line, header, data")
    title = lines[0].strip()
    if not title:
        raise FormatError("line 1: expected a non-empty title line")
    if lines[1].strip():
        raise FormatError("line 2: expected a blank line after the title")
    header = tuple(lines[2].split())
    if header != _HEADER_COLUMNS:
        raise FormatError(
            f"line 3: malformed header {' '.join(header)!r}; "
            f"expected {' '.join(_HEADER_COLUMNS)!r}"
        )

    rows: dict[tuple[int, int], tuple[float, float, float]] = {}
    skipped_blank = 0
    for lineno, line in enumerate(lines[3:], start=4):
        tokens = line.split()
        if not tokens:
            skipped_blank += 1
            continue
        if len(tokens) != 5:
            raise FormatError(
                f"line {lineno}: expected 5 fields (Year Age Female Male Total), "
                f"got {len(tokens)}"
            )
        try:
            year = int(tokens[0])
        except ValueError:
            raise FormatError(f"line {lineno}: unparsable year {tokens[0]!r}") from None
        key = (year, _parse_age(tokens[1], lineno))
        values = tuple(np.nan if token == "." else
                       _parse_rate(token, "write '.'", "line {}", lineno)
                       for token in tokens[2:])
        if key in rows:
            raise StructuralError(
                f"line {lineno}: duplicate row for year {year}, age {key[1]}")
        rows[key] = values
    if not rows:
        raise FormatError("no data rows found")

    try:
        year_col, age_col = np.array(list(rows), dtype=np.int64).T
    except OverflowError:
        raise StructuralError("years and ages must fit in a 64-bit integer") from None
    y0, y1 = year_col.min(), year_col.max()
    n_years = int(y1) - int(y0) + 1
    # A span longer than the row count has gaps; ruling that out first
    # keeps the offsets small. Within it, a year without rows counts zero.
    if n_years > len(rows) or not (
            counts := np.bincount(year_col - y0, minlength=n_years)).all():
        raise StructuralError(f"non-contiguous years: {y0}..{y1} has gaps")
    first_ages = age_col[year_col == y0]
    a0, a1 = first_ages.min(), first_ages.max()
    n_ages = int(a1) - int(a0) + 1
    if n_ages != first_ages.size:
        raise StructuralError(f"non-contiguous ages {a0}..{a1} for year {y0}")
    # Rows are unique, so a year covers the first year's ages exactly when
    # it has as many rows and none outside their span.
    uneven = counts != n_ages
    uneven[year_col[(age_col < a0) | (age_col > a1)] - y0] = True
    if uneven.any():
        raise StructuralError(
            f"year {y0 + uneven.argmax()} covers different ages than year {y0}")

    # Every cell is written: the checks above make rows a bijection onto the grid.
    cube = np.empty((3, n_years, n_ages))
    cube[:, year_col - y0, age_col - a0] = np.array(list(rows.values())).T
    surfaces = MappingProxyType({
        sex: MortalitySurface(
            years=y0 + np.arange(n_years),
            ages=a0 + np.arange(n_ages),
            rates=cube[k],
            sex=sex,
            source_label=title,
        )
        for k, sex in enumerate(Sex)
    })
    return HmdParseResult(
        surfaces=surfaces,
        title=title,
        line_count=len(lines),
        data_row_count=len(rows),
        skipped_blank_lines=skipped_blank,
    )


def load_hmd(path: str | Path, sex: Sex | str) -> MortalitySurface:
    """Read an Mx 1x1 file from disk and return the surface of one sex."""
    return parse_hmd(Path(path).read_text(encoding="utf-8")).surfaces[Sex(sex)]
