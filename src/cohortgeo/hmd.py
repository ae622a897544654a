"""Parser for Human Mortality Database period death-rate files (Mx 1x1).

Expected layout::

    <title line: country, file kind, modification date>
    <blank line>
      Year          Age             Female            Male           Total
      1922            0             0.069414       0.089978         0.079975
      ...
      1922          110+            0.519479       0.306375         0.478723

Rows are whitespace separated. The open age group ``110+`` is stored as a
regular age-110 column (more generally, a trailing ``+`` is stripped), and
the missing-value token ``.`` becomes an explicitly flagged missing cell.
One parse yields three surfaces, one per sex column.

The parser is total over valid files: every line is either consumed as
title/blank/header/data or triggers an error naming its line number, and
the returned row accounting lets callers verify nothing was dropped.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .errors import FormatError, StructuralError
from .surface import MortalitySurface, Sex

_HEADER_COLUMNS = ("Year", "Age", "Female", "Male", "Total")


@dataclass(frozen=True)
class HmdParseResult:
    """Three per-sex surfaces plus row accounting for audit."""

    surfaces: Mapping[Sex, MortalitySurface]
    title: str
    line_count: int
    data_row_count: int
    skipped_blank_lines: int

    @property
    def female(self) -> MortalitySurface:
        return self.surfaces[Sex.FEMALE]

    @property
    def male(self) -> MortalitySurface:
        return self.surfaces[Sex.MALE]

    @property
    def total(self) -> MortalitySurface:
        return self.surfaces[Sex.TOTAL]


def _parse_age(token: str, lineno: int) -> int:
    raw = token[:-1] if token.endswith("+") else token
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"line {lineno}: unparsable age {token!r}") from None


def _parse_value(token: str, lineno: int) -> float:
    if token == ".":
        return np.nan
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: unparsable rate {token!r}") from None
    if math.isnan(value):
        raise FormatError(f"line {lineno}: rate {token!r} is not a number; "
                          "write '.' for a missing cell")
    return value


def parse_hmd(source: str | IO[str]) -> HmdParseResult:
    """Parse an HMD Mx 1x1 text stream into one surface per sex column.

    Raises :class:`FormatError` for malformed lines (naming the line
    number) and :class:`StructuralError` for duplicate (year, age) rows,
    non-contiguous year blocks, or years covering different age ranges.
    """
    text = source if isinstance(source, str) else source.read()
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

    cells: dict[tuple[int, int], tuple[float, float, float]] = {}
    ages_by_year: dict[int, set[int]] = {}
    year_order: list[int] = []
    data_rows = 0
    skipped_blank = 0
    for offset, line in enumerate(lines[3:], start=4):
        tokens = line.split()
        if not tokens:
            skipped_blank += 1
            continue
        if len(tokens) != 5:
            raise FormatError(
                f"line {offset}: expected 5 fields (Year Age Female Male Total), "
                f"got {len(tokens)}"
            )
        try:
            year = int(tokens[0])
        except ValueError:
            raise FormatError(f"line {offset}: unparsable year {tokens[0]!r}") from None
        age = _parse_age(tokens[1], offset)
        values = tuple(_parse_value(tok, offset) for tok in tokens[2:5])
        key = (year, age)
        if key in cells:
            raise StructuralError(f"line {offset}: duplicate row for year {year}, age {age}")
        cells[key] = values
        if year not in ages_by_year:
            ages_by_year[year] = set()
            year_order.append(year)
        ages_by_year[year].add(age)
        data_rows += 1
    if not cells:
        raise FormatError("no data rows found")

    years = sorted(ages_by_year)
    if years != list(range(years[0], years[-1] + 1)):
        raise StructuralError(f"non-contiguous years: {years[0]}..{years[-1]} has gaps")
    age_sets = [ages_by_year[y] for y in years]
    first_ages = sorted(age_sets[0])
    if first_ages != list(range(first_ages[0], first_ages[-1] + 1)):
        raise StructuralError(
            f"non-contiguous ages {first_ages[0]}..{first_ages[-1]} for year {years[0]}"
        )
    for y, ages in zip(years, age_sets):
        if ages != age_sets[0]:
            raise StructuralError(
                f"year {y} covers different ages than year {years[0]}"
            )

    year_arr = np.arange(years[0], years[-1] + 1)
    age_arr = np.arange(first_ages[0], first_ages[-1] + 1)
    matrices = {sex: np.full((year_arr.size, age_arr.size), np.nan) for sex in Sex}
    for (year, age), (f, m, t) in cells.items():
        i = year - years[0]
        j = age - first_ages[0]
        matrices[Sex.FEMALE][i, j] = f
        matrices[Sex.MALE][i, j] = m
        matrices[Sex.TOTAL][i, j] = t

    surfaces = {
        sex: MortalitySurface(
            years=year_arr,
            ages=age_arr,
            rates=matrices[sex],
            sex=sex,
            source_label=title,
        )
        for sex in Sex
    }
    return HmdParseResult(
        surfaces=surfaces,
        title=title,
        line_count=len(lines),
        data_row_count=data_rows,
        skipped_blank_lines=skipped_blank,
    )


def load_hmd(path: str | Path, sex: Sex | str | None = None):
    """Read an Mx 1x1 file from disk.

    With ``sex`` given, returns that single surface; otherwise the full
    :class:`HmdParseResult`.
    """
    text = Path(path).read_text(encoding="utf-8")
    result = parse_hmd(io.StringIO(text))
    if sex is None:
        return result
    return result.surfaces[Sex(sex)]
