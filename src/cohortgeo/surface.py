"""Death-rate surfaces: the grid data model and its text serializations.

A mortality surface is a dense rectangular grid of death rates indexed by
consecutive calendar years (rows) and consecutive integer ages (columns).
Cell values are nonnegative reals; HMD rates can exceed 1 at extreme ages,
so no upper bound is enforced. Missing cells are carried explicitly (NaN in
the rate matrix plus a derived boolean mask) and are never silently zero.

Two text formats are supported:

* bare CSV matrix -- rows are years, columns are ages, empty fields are
  missing cells; year/age origins travel out of band.
* JSON object -- ``{years, ages, sex, source_label, rates, missing_mask}``
  with ``null`` for missing rates; fully self-describing.

Both round-trip exactly: floats are written with :func:`repr`, which emits
the shortest decimal string that parses back to the identical double.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import FormatError, StructuralError


class Sex(str, Enum):
    FEMALE = "female"
    MALE = "male"
    TOTAL = "total"


def _as_contiguous_int_axis(values: Iterable[int], what: str) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{what} must be a nonempty 1-D sequence")
    if arr.dtype.kind != "i":
        # Floats, unsigned ints and Python ints beyond 64 bits (object arrays).
        items = arr.tolist()
        if not all(isinstance(v, numbers.Integral)
                   or (isinstance(v, float) and v.is_integer()) for v in items):
            raise StructuralError(f"{what} must be integers")
        if not all(-2**63 <= v < 2**63 for v in items):
            raise StructuralError(f"{what} must fit in a 64-bit integer")
    arr = arr.astype(np.int64)
    # The last test catches steps of 1 that wrapped around the int64 range.
    if arr.size > 1 and not (np.all(np.diff(arr) == 1) and arr[-1] > arr[0]):
        raise StructuralError(f"{what} must be strictly increasing with step 1")
    # to_grid converts axes to float64, which holds every integer up to 2**53.
    if arr[0] < -2**53 or arr[-1] > 2**53:
        raise StructuralError(f"{what} must not exceed 2**53 in magnitude "
                              "(the exact integer range of a float)")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that refuses writes; ``arr`` keeps its own flag."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Plain geometric grid: real coordinate axes plus a value matrix.

    This is the structure the curvature kernel actually consumes. Mortality
    surfaces convert to it via :meth:`MortalitySurface.to_grid`; synthetic
    test surfaces may build it directly with non-integer spacing. NaN cells
    are missing.
    """

    t: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if t.ndim != 1 or x.ndim != 1 or t.size == 0 or x.size == 0:
            raise StructuralError("grid axes must be nonempty 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise StructuralError("grid coordinates must be finite")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(x) <= 0):
            raise StructuralError("grid axes must be strictly increasing")
        if z.shape != (t.size, x.size):
            raise StructuralError(
                f"value matrix shape {z.shape} does not match axes "
                f"({t.size}, {x.size})"
            )
        if np.any(np.isinf(z)):
            raise StructuralError("grid values must be finite or NaN (missing)")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.z.shape

    def to_grid(self) -> "SurfaceGrid":
        return self


@dataclass(frozen=True, eq=False)
class MortalitySurface:
    """Rectangular grid of death rates over consecutive years and ages.

    ``rates`` is a ``(len(years), len(ages))`` float matrix with NaN at
    missing cells. The open age group ("110+" in HMD files) is stored as a
    regular age-110 column. Construction validates all invariants and
    stores read-only views of the axes and rates, so a write through the
    surface raises ``ValueError`` and :meth:`to_grid` shares the rates
    instead of copying them. The views are not copies: a caller who keeps
    a writeable reference to the ``rates`` passed in must not change it.
    """

    years: np.ndarray
    ages: np.ndarray
    rates: np.ndarray
    sex: Sex = Sex.TOTAL
    source_label: str = ""

    def __post_init__(self) -> None:
        years = _as_contiguous_int_axis(self.years, "years")
        ages = _as_contiguous_int_axis(self.ages, "ages")
        rates = np.asarray(self.rates, dtype=float)
        if rates.shape != (years.size, ages.size):
            raise StructuralError(
                f"rates shape {rates.shape} does not match "
                f"({years.size} years, {ages.size} ages)"
            )
        present = ~np.isnan(rates)
        vals = rates[present]
        if np.any(~np.isfinite(vals)):
            raise StructuralError("present rates must be finite")
        if np.any(vals < 0):
            bad = np.argwhere(present & (rates < 0))[0]
            raise StructuralError(
                f"negative rate at year {years[bad[0]]}, age {ages[bad[1]]}"
            )
        if not isinstance(self.sex, Sex):
            object.__setattr__(self, "sex", Sex(self.sex))
        object.__setattr__(self, "years", _read_only(years))
        object.__setattr__(self, "ages", _read_only(ages))
        object.__setattr__(self, "rates", _read_only(rates))

    # NumPy fields break the generated __eq__; compare content explicitly.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MortalitySurface):
            return NotImplemented
        if self.sex != other.sex or self.source_label != other.source_label:
            return False
        if not (np.array_equal(self.years, other.years)
                and np.array_equal(self.ages, other.ages)):
            return False
        if not np.array_equal(self.missing_mask, other.missing_mask):
            return False
        mask = ~self.missing_mask
        return bool(np.array_equal(self.rates[mask], other.rates[mask]))

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.rates)

    @property
    def n_years(self) -> int:
        return int(self.years.size)

    @property
    def n_ages(self) -> int:
        return int(self.ages.size)

    def rate(self, year: int, age: int) -> float:
        """Rate at (year, age); NaN if the cell is missing."""
        i = int(year) - int(self.years[0])
        j = int(age) - int(self.ages[0])
        if not (0 <= i < self.n_years and 0 <= j < self.n_ages):
            raise KeyError(f"({year}, {age}) outside grid")
        return float(self.rates[i, j])

    def to_grid(self) -> SurfaceGrid:
        return SurfaceGrid(
            t=self.years.astype(float),
            x=self.ages.astype(float),
            z=self.rates,
        )


# --- parsing ----------------------------------------------------------------

def _parse_rate_token(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"non-numeric value {token!r} at {where}") from None
    if math.isnan(value):
        raise FormatError(f"value {token!r} at {where} is not a number; "
                          "leave the field empty for a missing cell")
    return value


def parse_csv_matrix(
    text: str,
    first_year: int,
    first_age: int,
    sex: Sex | str = Sex.TOTAL,
    source_label: str = "",
) -> MortalitySurface:
    """Parse a bare numeric CSV matrix (rows = years, columns = ages).

    Empty fields become missing cells. Scientific notation is accepted.
    Raises :class:`FormatError` on ragged rows and on non-numeric non-empty
    fields, naming the offending row or cell, and on text the ``csv`` module
    rejects (a field over its size limit, a bare carriage return).
    """
    rows: list[list[float]] = []
    width: int | None = None
    reader = csv.reader(io.StringIO(text))
    try:
        for r, row in enumerate(reader):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(
                    f"ragged row at row {r + 1}: expected {width} fields, got {len(row)}"
                )
            parsed = []
            for c, tok in enumerate(row):
                tok = tok.strip()
                if tok == "":
                    parsed.append(np.nan)
                else:
                    parsed.append(_parse_rate_token(tok, f"row {r + 1}, column {c + 1}"))
            rows.append(parsed)
    except csv.Error as exc:
        raise FormatError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError("empty CSV input")
    n_years = len(rows)
    n_ages = len(rows[0])
    return MortalitySurface(
        years=np.arange(first_year, first_year + n_years),
        ages=np.arange(first_age, first_age + n_ages),
        rates=np.asarray(rows, dtype=float),
        sex=Sex(sex),
        source_label=source_label,
    )


def parse_json(text: str) -> MortalitySurface:
    """Parse the JSON serialization produced by :func:`serialize`.

    Any other text raises an :class:`IngestError`: :class:`FormatError` for
    invalid JSON, missing keys and values of the wrong type or shape.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"surface JSON must be an object, not {type(obj).__name__}")
    try:
        years = obj["years"]
        ages = obj["ages"]
        sex = obj["sex"]
        source_label = obj["source_label"]
        rates = obj["rates"]
        mask = obj["missing_mask"]
    except KeyError as exc:
        raise FormatError(f"missing key {exc} in surface JSON") from None
    # Wrong value types, ragged lists and ints beyond float range fail here.
    try:
        sex = Sex(sex)
        years, ages = np.asarray(years), np.asarray(ages)
        matrix = np.asarray(
            [[np.nan if v is None else float(v) for v in row] for row in rates],
            dtype=float,
        )
        mask_arr = np.asarray(mask, dtype=bool)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed surface JSON: {exc}") from None
    if mask_arr.shape != matrix.shape:
        raise StructuralError("missing_mask shape does not match rates")
    if not np.array_equal(mask_arr, np.isnan(matrix)):
        raise StructuralError("missing_mask inconsistent with null rates")
    return MortalitySurface(
        years=years,
        ages=ages,
        rates=matrix,
        sex=sex,
        source_label=str(source_label),
    )


# --- serialization ----------------------------------------------------------

def serialize(surface: MortalitySurface, fmt: str = "csv") -> str:
    """Serialize a surface to ``csv`` or ``json`` text.

    CSV is a bare matrix (metadata travels out of band); JSON is
    self-describing. Both restore present values bit-exactly and preserve
    the missing mask on re-parse.
    """
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        mask = surface.missing_mask
        for i in range(surface.n_years):
            writer.writerow(
                ""
                if mask[i, j]
                else repr(float(surface.rates[i, j]))
                for j in range(surface.n_ages)
            )
        return out.getvalue()
    if fmt == "json":
        mask = surface.missing_mask
        obj = {
            "years": [int(y) for y in surface.years],
            "ages": [int(a) for a in surface.ages],
            "sex": surface.sex.value,
            "source_label": surface.source_label,
            "rates": [
                [None if mask[i, j] else surface.rates[i, j]
                 for j in range(surface.n_ages)]
                for i in range(surface.n_years)
            ],
            "missing_mask": [
                [bool(mask[i, j]) for j in range(surface.n_ages)]
                for i in range(surface.n_years)
            ],
        }
        return json.dumps(obj, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
