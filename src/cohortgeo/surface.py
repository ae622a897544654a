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
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import FormatError, StructuralError


class Sex(str, Enum):
    FEMALE = "female"
    MALE = "male"
    TOTAL = "total"


def _integer(value: object, error: Exception) -> int:
    """``value`` as an int if it is a ``numbers.Integral`` but not a bool, else
    ``error``: a float is refused, not truncated."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error
    return int(value)


def _real(value: object, error: Exception) -> float:
    """A non-bool ``numbers.Real`` as a float, else raise ``error``; an int
    beyond the float range is refused, while NaN and the infinities pass."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error
    try:
        return float(value)
    except OverflowError:
        raise error from None


def _positive_real(value: object, error: Exception) -> float:
    """A :func:`_real` in (0, inf), else raise ``error``."""
    value = _real(value, error)
    if not 0 < value < math.inf:
        raise error
    return value


# Four times the 1000 x 1000 stress grid. `cohortgeo synthetic` writes about
# 260 bytes per cell as JSON, so a grid at the budget peaks near 1.1 GB.
_MAX_GRID_CELLS = 4_000_000


def _check_grid_size(rows: int, cols: int, what: str) -> None:
    """The one size rule for a grid about to be built: a ValueError naming
    ``what`` if ``rows`` x ``cols`` exceeds ``_MAX_GRID_CELLS``."""
    cells = max(rows, 0) * max(cols, 0)
    if cells > _MAX_GRID_CELLS:
        raise ValueError(f"{what}: a {rows} x {cols} grid has {cells:,} cells, "
                         f"over the budget of {_MAX_GRID_CELLS:,}")


def _as_int64_array(values: Iterable[int], what: str) -> np.ndarray:
    """``values`` as a nonempty 1-D int64 array, or :class:`StructuralError`."""
    if isinstance(values, Iterable) and not isinstance(values, np.ndarray):
        values = list(values)  # generators and other one-pass iterables
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{what} must be a nonempty 1-D sequence")
    if isinstance(values, list) or arr.dtype.kind != "i":
        # Floats, bools, unsigned ints and Python ints beyond 64 bits (object
        # arrays). A list's items are always checked: numpy rounds a list mixing
        # an int above 2**53 with a float, and reads ints mixed with bools as int64.
        error = StructuralError(f"{what} must be integers")
        items = [int(v) if isinstance(v, float) and v.is_integer() else _integer(v, error)
                 for v in (values if isinstance(values, list) else arr.tolist())]
        if not all(-2**63 <= v < 2**63 for v in items):
            raise StructuralError(f"{what} must fit in a 64-bit integer")
        return np.array(items, dtype=np.int64)
    return arr.astype(np.int64)


def _as_contiguous_int_axis(values: Iterable[int], what: str) -> np.ndarray:
    """The one integer-axis rule: int64, step 1, within +-2**53."""
    arr = _as_int64_array(values, what)
    # The last test catches steps of 1 that wrapped around the int64 range.
    if arr.size > 1 and not (np.all(np.diff(arr) == 1) and arr[-1] > arr[0]):
        raise StructuralError(f"{what} must be strictly increasing with step 1")
    # Axes become float64 (prepare_grid, charts), which holds every integer up to 2**53.
    if arr[0] < -2**53 or arr[-1] > 2**53:
        raise StructuralError(f"{what} must not exceed 2**53 in magnitude "
                              "(the exact integer range of a float)")
    return arr


def _store_read_only(value: object, **arrays: np.ndarray) -> None:
    """Store each array on the frozen ``value`` as a view that refuses
    writes. The views share memory with the arrays passed in, which keep
    their own flags."""
    for name, arr in arrays.items():
        view = arr.view()
        view.flags.writeable = False
        object.__setattr__(value, name, view)


def _store_sex(value: object) -> None:
    """Store ``value.sex`` as a :class:`Sex`: the one place a sex name, as
    the CLI passes it, becomes the member that the emitters write."""
    object.__setattr__(value, "sex", Sex(value.sex))


def _content_eq(self, other: object) -> bool:
    """Equality by content for frozen values holding arrays: arrays by
    :func:`numpy.array_equal` with NaN equal to NaN, other fields by ``==``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray)
               else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Plain geometric grid: real coordinate axes plus a value matrix.

    This is the structure the curvature kernel actually consumes. Mortality
    surfaces convert to it via ``geometry.prepare_grid``; synthetic test
    surfaces may build it directly with non-integer spacing. NaN cells
    are missing. Like :class:`MortalitySurface`, it stores read-only views
    of float input, not copies.
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
        _store_read_only(self, t=t, x=x, z=z)

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.z.shape


@dataclass(frozen=True, eq=False)
class MortalitySurface:
    """Rectangular grid of death rates over consecutive years and ages.

    ``rates`` is a ``(len(years), len(ages))`` float matrix with NaN at
    missing cells. The open age group ("110+" in HMD files) is stored as a
    regular age-110 column. Construction validates all invariants and
    stores read-only views of the axes and rates, so a write through the
    surface raises ``ValueError`` and ``prepare_grid`` shares the rates
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
        # NaN (a missing cell) is neither infinite nor negative.
        if np.isinf(rates).any():
            raise StructuralError("present rates must be finite")
        negative = rates < 0
        if negative.any():
            i, j = np.argwhere(negative)[0]
            raise StructuralError(f"negative rate at year {years[i]}, age {ages[j]}")
        _store_sex(self)
        _store_read_only(self, years=years, ages=ages, rates=rates)

    __eq__ = _content_eq

    @property
    def missing_mask(self) -> np.ndarray:
        return np.isnan(self.rates)

    def to_csv(self) -> str:
        """The bare rate matrix; axes, sex and label travel out of band."""
        return _csv_text(np.where(self.missing_mask, None, self.rates).tolist())

    def to_json(self) -> str:
        """The self-describing object that :func:`parse_json` reads."""
        return _json_text({
            "years": self.years.tolist(),
            "ages": self.ages.tolist(),
            "sex": self.sex.value,
            "source_label": self.source_label,
            "rates": np.where(self.missing_mask, None, self.rates).tolist(),
            "missing_mask": self.missing_mask.tolist(),
        })


# --- parsing ----------------------------------------------------------------

def _parse_rate(token: str, hint: str, where: str, *at: int) -> float:
    """A rate is what :func:`float` reads, but not a NaN spelling: each text
    format has its own missing-cell marker, which ``hint`` names. The error
    location ``where.format(*at)`` is built only when the token is rejected."""
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{where.format(*at)}: unparsable rate {token!r}") from None
    if math.isnan(value):
        raise FormatError(f"{where.format(*at)}: rate {token!r} is not a number; "
                          f"{hint} for a missing cell")
    return value


def _read_rates(tokens: list[str], missing: str) -> np.ndarray | None:
    """Bulk form of :func:`_parse_rate`: the tokens as one float array, each
    read by :func:`float` and each ``missing`` token as NaN. None when some
    token is not a rate (:func:`float` rejects it or reads a NaN spelling),
    so that the caller can name it with :func:`_parse_rate`."""
    n_missing = tokens.count(missing)
    # dict.get(token, token) turns only the missing marker into "nan".
    spelled = map({missing: "nan"}.get, tokens, tokens) if n_missing else tokens
    try:
        values = np.fromiter(map(float, spelled), dtype=float, count=len(tokens))
    except ValueError:
        return None
    return values if np.count_nonzero(np.isnan(values)) == n_missing else None


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
            rows.append([np.nan if tok == "" else
                         _parse_rate(tok, "leave the field empty", "row {}, column {}",
                                     r + 1, c + 1)
                         for c, tok in enumerate(map(str.strip, row))])
    except csv.Error as exc:
        raise FormatError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError("empty CSV input")
    year, age = (_integer(v, StructuralError(f"{name} must be an integer, not {v!r}"))
                 for name, v in (("first_year", first_year), ("first_age", first_age)))
    return MortalitySurface(
        years=np.arange(year, year + len(rows)),
        ages=np.arange(age, age + len(rows[0])),
        rates=np.asarray(rows, dtype=float),
        sex=sex,
        source_label=source_label,
    )


def parse_json(text: str) -> MortalitySurface:
    """Parse the JSON text that :meth:`MortalitySurface.to_json` writes.

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
        # type(), not isinstance(): json reads true and false as bools,
        # which isinstance counts as ints.
        for key, items, types, kind in (
                ("source_label", [source_label], (str,), "a string"),
                ("years", years, (int, float), "integers"),
                ("ages", ages, (int, float), "integers"),
                ("rates", (v for row in rates for v in row), (int, float, type(None)),
                 "numbers or null"),
                ("missing_mask", (v for row in mask for v in row), (bool,), "booleans")):
            for value in items:
                if type(value) not in types:
                    raise TypeError(f"{key} must be {kind}, not {type(value).__name__}")
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
        source_label=source_label,
    )


# --- the one text dialect of every product but the field's bulk writer ----

def _csv_text(rows: Iterable[Iterable]) -> str:
    """CSV with ``\\n`` line ends, floats by :func:`repr`, None as an empty field."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _json_text(obj: object) -> str:
    """JSON indented by two spaces, with a final newline."""
    return json.dumps(obj, indent=2) + "\n"
