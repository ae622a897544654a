"""Surface construction, CSV/JSON parsing, and round-trip serialization."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortgeo import (
    CEISeries,
    FormatError,
    IngestError,
    MortalitySurface,
    Sex,
    StructuralError,
    parse_csv_matrix,
    parse_json,
    prepare_grid,
)
from cohortgeo.surface import SurfaceGrid


def make_surface(rates, first_year=2000, first_age=0, sex=Sex.TOTAL, label="test"):
    rates = np.asarray(rates, dtype=float)
    return MortalitySurface(
        years=np.arange(first_year, first_year + rates.shape[0]),
        ages=np.arange(first_age, first_age + rates.shape[1]),
        rates=rates,
        sex=sex,
        source_label=label,
    )


class TestConstruction:
    def test_basic_fields(self):
        s = make_surface([[0.1, 0.2], [0.3, 0.4]])
        assert s.rates.shape == (2, 2)
        assert s.rates[0, 0] == 0.1
        assert s.rates[1, 1] == 0.4
        assert not s.missing_mask.any()

    def test_missing_cells_flagged_not_zero(self):
        s = make_surface([[0.1, np.nan], [0.3, 0.4]])
        assert s.missing_mask[0, 1]
        assert np.isnan(s.rates[0, 1])
        assert s.rates[0, 0] == 0.1

    def test_negative_rate_rejected(self):
        with pytest.raises(StructuralError, match="negative rate"):
            make_surface([[0.1, -0.2], [0.3, 0.4]])

    def test_rates_above_one_allowed(self):
        s = make_surface([[1.5, 0.2], [0.3, 2.4]])
        assert s.rates[0, 0] == 1.5

    def test_non_contiguous_years_rejected(self):
        with pytest.raises(StructuralError):
            MortalitySurface(
                years=np.array([2000, 2002]),
                ages=np.array([0, 1]),
                rates=np.array([[0.1, 0.2], [0.3, 0.4]]),
                sex=Sex.TOTAL,
                source_label="",
            )

    def test_non_integer_years_rejected(self):
        with pytest.raises(StructuralError):
            MortalitySurface(
                years=np.array([2000.5, 2001.5]),
                ages=np.array([0, 1]),
                rates=np.array([[0.1, 0.2], [0.3, 0.4]]),
                sex=Sex.TOTAL,
                source_label="",
            )

    @pytest.mark.parametrize("years", [
        [10**20, 10**20 + 1],                           # Python ints, object dtype
        np.array([2**63, 2**63 + 1], dtype=np.uint64),
        [1e20, 1e20 + 2**17],
        [2**63 - 1, 2**63],                             # numpy falls back to float
    ], ids=["python-int", "uint64", "float", "int64-edge"])
    def test_years_beyond_int64_rejected(self, years):
        with pytest.raises(StructuralError, match="years must fit in a 64-bit integer"):
            MortalitySurface(years=years, ages=[0, 1],
                             rates=[[0.1, 0.2], [0.3, 0.4]], sex=Sex.TOTAL,
                             source_label="")

    def test_years_wrapping_around_int64_rejected(self):
        with pytest.raises(StructuralError, match="strictly increasing with step 1"):
            MortalitySurface(years=[2**63 - 1, -2**63], ages=[0, 1],
                             rates=[[0.1, 0.2], [0.3, 0.4]], sex=Sex.TOTAL,
                             source_label="")

    @pytest.mark.parametrize("years", [
        [2**53 - 1, 2**53, 2**53 + 1],
        [-2**53 - 1, -2**53],
        [2**60, 2**60 + 1],
    ], ids=["above", "below", "2**60"])
    def test_years_beyond_float_precision_rejected(self, years):
        with pytest.raises(StructuralError, match=r"years must not exceed 2\*\*53"):
            MortalitySurface(years=years, ages=[0, 1],
                             rates=np.full((len(years), 2), 0.1), sex=Sex.TOTAL,
                             source_label="")

    @pytest.mark.parametrize("years", [[2**53 - 1, 2**53], [-2**53, 1 - 2**53]],
                             ids=["top", "bottom"])
    def test_years_at_float_precision_edge_accepted(self, years):
        s = MortalitySurface(years=years, ages=[0, 1],
                             rates=[[0.1, 0.2], [0.3, 0.4]], sex=Sex.TOTAL,
                             source_label="")
        assert list(prepare_grid(s).t) == [float(y) for y in years]

    @pytest.mark.parametrize("ages", [["0", "1"], [0, None]])
    def test_non_numeric_ages_rejected(self, ages):
        with pytest.raises(StructuralError, match="ages must be integers"):
            MortalitySurface(years=[2000, 2001], ages=ages,
                             rates=[[0.1, 0.2], [0.3, 0.4]], sex=Sex.TOTAL,
                             source_label="")

    @pytest.mark.parametrize("build, what", [
        (lambda: MortalitySurface(years=[False, True], ages=[0, 1],
                                  rates=[[0.1, 0.2], [0.3, 0.4]]), "years"),
        (lambda: MortalitySurface(years=[2000, True], ages=[0, 1],
                                  rates=[[0.1, 0.2], [0.3, 0.4]]), "years"),
        (lambda: CEISeries(birth_years=[1950, 1951], values=[1.0, 1.0],
                           point_counts=[True, True]), "point_counts"),
        (lambda: CEISeries(birth_years=[1950, 1951], values=[1.0, 1.0],
                           point_counts=np.array([True, True])), "point_counts"),
    ], ids=["years-bool-list", "years-int-and-bool-list", "counts-bool-list",
            "counts-bool-array"])
    def test_booleans_are_not_integers(self, build, what):
        with pytest.raises(StructuralError, match=f"^{what} must be integers$"):
            build()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            MortalitySurface(
                years=np.array([2000, 2001, 2002]),
                ages=np.array([0, 1]),
                rates=np.array([[0.1, 0.2], [0.3, 0.4]]),
                sex=Sex.TOTAL,
                source_label="",
            )

    def test_infinite_rate_rejected(self):
        for rates in ([[np.inf, 0.2], [0.3, 0.4]], [[np.nan, 0.2], [0.3, -np.inf]]):
            with pytest.raises(StructuralError, match="present rates must be finite"):
                make_surface(rates)

    def test_negative_rate_error_names_first_cell_in_c_order(self):
        rates = [[0.1, np.nan, -0.0], [0.2, 0.3, -1e-300], [-5.0, np.nan, 0.4]]
        with pytest.raises(StructuralError,
                           match=r"^negative rate at year 2001, age 2$"):
            make_surface(rates)

    def test_equality_needs_matching_nan_positions(self):
        s = make_surface([[0.0, np.nan], [0.3, 0.4]])
        assert s == make_surface([[-0.0, np.nan], [0.3, 0.4]])
        assert s != make_surface([[0.0, 0.5], [0.3, 0.4]])
        assert s != make_surface([[np.nan, 0.0], [0.3, 0.4]])
        assert s != make_surface([[0.0, np.nan], [0.3, 0.4]], label="other")
        assert s != make_surface([[0.0, np.nan], [0.3, 0.4]], first_age=1)
        assert s != make_surface([[0.0, np.nan]])
        assert s != "surface"

    def test_years_or_sex_alone_break_equality(self):
        s = make_surface([[0.1, 0.2], [0.3, 0.4]])
        assert s == make_surface(s.rates)
        assert s != make_surface(s.rates, first_year=2001)
        assert s != make_surface(s.rates, sex=Sex.MALE)
        assert s != prepare_grid(s)

    def test_to_grid_float_axes(self):
        s = make_surface([[0.1, np.nan], [0.3, 0.4]])
        g = prepare_grid(s)
        assert isinstance(g, SurfaceGrid)
        assert g.t.dtype.kind == "f"
        assert np.isnan(g.z[0, 1])
        assert g.present[0, 0] and not g.present[0, 1]

    def test_arrays_are_read_only_views(self):
        rates = np.array([[0.1, 0.2], [0.3, 0.4]])
        s = make_surface(rates)
        for arr in (s.years, s.ages, s.rates):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        assert np.shares_memory(s.rates, rates)
        assert rates.flags.writeable


class TestCsvMatrix:
    def test_two_by_two_layout(self):
        s = parse_csv_matrix("0.1,0.2\n0.3,0.4", first_year=2000, first_age=0)
        assert s.rates[0, 0] == 0.1
        assert s.rates[1, 1] == 0.4
        assert list(s.years) == [2000, 2001]
        assert list(s.ages) == [0, 1]

    def test_ragged_row_error_names_row(self):
        with pytest.raises(FormatError, match="row 2"):
            parse_csv_matrix("1,2\n3", first_year=2000, first_age=0)

    def test_empty_field_is_missing(self):
        s = parse_csv_matrix("0.1,,0.3", first_year=2000, first_age=0)
        assert not s.missing_mask[0, 0]
        assert s.missing_mask[0, 1]
        assert s.rates[0, 2] == 0.3

    def test_non_numeric_cell_names_coordinates(self):
        with pytest.raises(FormatError, match="row 2, column 1"):
            parse_csv_matrix("0.1,0.2\nbogus,0.4", first_year=2000, first_age=0)

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "+NAN"])
    def test_nan_token_rejected(self, token):
        with pytest.raises(FormatError, match=f"row 1, column 2.*empty"):
            parse_csv_matrix(f"0.1,{token},0.3", first_year=2000, first_age=0)

    def test_scientific_notation(self):
        s = parse_csv_matrix("1e-4,2.5E-3", first_year=2000, first_age=0)
        assert s.rates[0, 0] == 1e-4
        assert s.rates[0, 1] == 2.5e-3

    def test_empty_input(self):
        with pytest.raises(FormatError):
            parse_csv_matrix("", first_year=2000, first_age=0)

    @pytest.mark.parametrize("origin", [True, "1900", None, 1900.0],
                             ids=["bool", "str", "none", "float"])
    @pytest.mark.parametrize("name", ["first_year", "first_age"])
    def test_origin_must_be_an_integer(self, name, origin):
        origins = {"first_year": 2000, "first_age": 0, name: origin}
        with pytest.raises(StructuralError) as exc:
            parse_csv_matrix("0.1,0.2\n0.3,0.4", **origins)
        assert str(exc.value) == f"{name} must be an integer, not {origin!r}"
        s = parse_csv_matrix("0.1,0.2", first_year=np.int64(2000), first_age=np.int32(5))
        assert (s.years.tolist(), s.ages.tolist()) == ([2000], [5, 6])

    @pytest.mark.parametrize("text", [
        "0.1,0.2\n0.3,0.4\r0.5,0.6\n",
        "0.1,0.2\n0.3,0." + "1" * 140_000 + "\n",
    ], ids=["bare-cr", "field-over-reader-limit"])
    def test_csv_reader_errors_are_format_errors(self, text):
        with pytest.raises(FormatError, match="malformed CSV at line 2"):
            parse_csv_matrix(text, first_year=2000, first_age=0)


class TestSerialization:
    def test_csv_round_trip_identity(self):
        s = make_surface([[0.1, 0.2], [0.3, 0.4]])
        text = s.to_csv()
        again = parse_csv_matrix(text, first_year=2000, first_age=0,
                                 sex=s.sex, source_label=s.source_label)
        assert again == s

    def test_csv_round_trip_awkward_floats(self):
        vals = [[0.1 + 0.2, 1e-17], [1234567.89012345678, 2.0 / 3.0]]
        s = make_surface(vals)
        again = parse_csv_matrix(s.to_csv(), first_year=2000,
                                 first_age=0, sex=s.sex, source_label=s.source_label)
        assert np.array_equal(again.rates, s.rates)

    def test_csv_missing_cell_round_trip(self):
        s = make_surface([[0.1, np.nan], [0.3, 0.4]])
        text = s.to_csv()
        assert text.splitlines()[0] == "0.1,"  # missing cell is an empty field
        again = parse_csv_matrix(text, first_year=2000, first_age=0,
                                 sex=s.sex, source_label=s.source_label)
        assert again == s
        assert again.missing_mask[0, 1]

    def test_json_round_trip_identity(self):
        s = make_surface([[0.1, np.nan], [0.3, 0.4]], sex=Sex.FEMALE, label="lbl")
        again = parse_json(s.to_json())
        assert again == s

    def test_json_schema_keys(self):
        s = make_surface([[0.1, 0.2], [0.3, 0.4]])
        obj = json.loads(s.to_json())
        for key in ("years", "ages", "sex", "source_label", "rates", "missing_mask"):
            assert key in obj
        assert obj["sex"] == "total"

    def test_json_missing_cell_is_null(self):
        s = make_surface([[0.1, np.nan]])
        obj = json.loads(s.to_json())
        assert obj["rates"][0][1] is None
        assert obj["missing_mask"][0][1] is True

    def test_json_inconsistent_mask_rejected(self):
        s = make_surface([[0.1, 0.2]])
        obj = json.loads(s.to_json())
        obj["missing_mask"][0][0] = True
        with pytest.raises(StructuralError):
            parse_json(json.dumps(obj))

    @pytest.mark.parametrize("edit", [
        {"sex": "other"},
        {"sex": None},
        {"rates": 5},
        {"rates": [["a", 0.2], [0.3, 0.4]]},
        {"rates": [[0.1, 0.2], [0.3]]},
        {"rates": [[10**400, 0.2], [0.3, 0.4]]},
    ], ids=["sex-other", "sex-null", "rates-number", "rate-string", "rates-ragged",
            "rate-beyond-float"])
    def test_json_wrong_value_types_are_format_errors(self, edit):
        obj = json.loads(make_surface([[0.1, 0.2], [0.3, 0.4]]).to_json())
        obj.update(edit)
        with pytest.raises(FormatError, match="malformed surface JSON"):
            parse_json(json.dumps(obj))

    @pytest.mark.parametrize("edit", [
        {"rates": [["0.1", 0.2], [0.3, 0.4]]},
        {"rates": [[True, 0.2], [0.3, 0.4]]},
        {"years": [False, True]},
        {"ages": [0, True]},
        {"missing_mask": [[0, 0], [0, 0]]},
        {"source_label": 5},
    ], ids=["rate-numeric-string", "rate-true", "years-booleans", "age-true",
            "mask-zeros", "label-number"])
    def test_json_wrong_item_types_name_their_key(self, edit):
        # each of these used to be read as a number, a mask or a label
        obj = json.loads(make_surface([[0.1, 0.2], [0.3, 0.4]]).to_json())
        obj.update(edit)
        (key,) = edit
        with pytest.raises(FormatError, match=f"^malformed surface JSON: {key} must be "):
            parse_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null"])
    def test_json_top_level_non_object_rejected(self, text):
        with pytest.raises(FormatError, match="surface JSON must be an object"):
            parse_json(text)

    def test_json_nested_beyond_recursion_limit_rejected(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_json("[" * 100_000 + "]" * 100_000)

    @settings(max_examples=50, deadline=None)
    @given(
        n_years=st.integers(2, 5),
        n_ages=st.integers(2, 5),
        seed=st.integers(0, 2**31 - 1),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_round_trip_property(self, n_years, n_ages, seed, fmt):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0, 2, size=(n_years, n_ages))
        rates[rng.uniform(size=rates.shape) < 0.2] = np.nan
        if np.isnan(rates).all():
            rates[0, 0] = 0.5
        s = make_surface(rates, first_year=1900, sex=Sex.MALE, label="prop")
        text = getattr(s, f"to_{fmt}")()
        if fmt == "csv":
            again = parse_csv_matrix(text, first_year=1900, first_age=0,
                                     sex=Sex.MALE, source_label="prop")
        else:
            again = parse_json(text)
        assert again == s


class TestSerializeGoldenBytes:
    """sha256 digests of ``MortalitySurface.to_csv``/``to_json`` output. They pin every byte:
    float repr, empty and quoted missing cells, key order and escaping."""

    DIGESTS = {
        ("mixed", "csv"): "035bf5f45c201cfcafe76f60e66d2d56c79531732deeaa0ceddcdc776e593e8c",
        ("mixed", "json"): "efb1a765233c5e9376c1c2287bd484269c34c0e218852cc472f61515b495b3a8",
        ("column", "csv"): "f2c2942d8a6f2a037c488b8cf9b2a22d6ed9255cd3e0fda58b968d5046c4c9e2",
        ("column", "json"): "25d89f705b6008ab18cc602b47bd2fe21841264fce12c61859ad9d93b4963737",
    }

    @staticmethod
    def surface(name: str) -> MortalitySurface:
        if name == "mixed":
            rates = [[0.1, np.nan, -0.0, 5e-324],
                     [1e308, 0.1 + 0.2, np.nan, 2.0 / 3.0],
                     [0.0, 1e-17, 1234567.8901234567, np.nan]]
            return make_surface(rates, first_year=1950, sex=Sex.FEMALE,
                                label='x, "y"')
        # one column: the csv module quotes a row holding one empty field
        return make_surface([[0.5], [np.nan], [1e-3]], first_age=7, label="")

    @pytest.mark.parametrize("name, fmt", sorted(DIGESTS))
    def test_digest(self, name, fmt):
        text = getattr(self.surface(name), f"to_{fmt}")()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name, fmt]


class TestSurfaceGrid:
    def test_validation(self):
        with pytest.raises(StructuralError):
            SurfaceGrid(t=np.array([1.0, 1.0]), x=np.array([0.0, 1.0]),
                        z=np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            SurfaceGrid(t=np.array([0.0, 1.0]), x=np.array([0.0, 1.0]),
                        z=np.zeros((3, 2)))

    @pytest.mark.parametrize("t, x, z, message", [
        ([], [0.0, 1.0], np.zeros((0, 2)), "grid axes must be nonempty 1-D arrays"),
        ([0.0, 1.0], [0.0, np.nan], np.zeros((2, 2)), "grid coordinates must be finite"),
        ([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [np.inf, np.nan]],
         "grid values must be finite or NaN (missing)"),
    ], ids=["empty-axis", "nan-coordinate", "infinite-value"])
    def test_check_messages(self, t, x, z, message):
        with pytest.raises(StructuralError) as exc:
            SurfaceGrid(t=np.array(t), x=np.array(x), z=np.array(z))
        assert str(exc.value) == message

    def test_non_unit_spacing_allowed(self):
        g = SurfaceGrid(t=np.array([0.0, 0.5, 1.0]), x=np.array([0.0, 0.5]),
                        z=np.zeros((3, 2)))
        assert g.shape == (3, 2)

    def test_arrays_are_read_only_views(self):
        t, x = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5])
        z = np.array([[0.1, 0.2], [0.3, np.nan], [0.5, 0.6]])
        g = SurfaceGrid(t=t, x=x, z=z)
        for arr in (g.t, g.x, g.z):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        for arr in (t, x, z):
            assert arr.flags.writeable
        for mine, theirs in ((g.t, t), (g.x, x), (g.z, z)):
            assert np.shares_memory(mine, theirs)


# --- parser totality --------------------------------------------------------

_CSV_TOKENS = st.sampled_from([
    "0.1", "2.5E-3", "-0.5", "", " ", "0", "nan", "inf", "1e999", ".", "x",
    '"', '"0.2"', '"1,2"', "0x1", "1_0", "\x00",
])
_CSV_LIKE_TEXT = st.one_of(
    st.tuples(
        st.lists(st.lists(_CSV_TOKENS, max_size=5).map(",".join), max_size=6),
        st.sampled_from(["\n", "\r\n", "\r"]),
    ).map(lambda rows_sep: rows_sep[1].join(rows_sep[0])),
    st.text(alphabet='0123456789.,e-+ "\n\rnaifx\x00', max_size=60),
)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_surface_json(draw) -> str:
    """A valid surface's JSON with keys dropped or values replaced at the top,
    row or cell level, then optionally spliced as text."""
    surface = make_surface([[0.1, np.nan, 0.3], [0.4, 0.5, 0.6]], label="m")
    obj = json.loads(surface.to_json())
    for _ in range(draw(st.integers(1, 3))):
        if not obj:
            break
        key = draw(st.sampled_from(sorted(obj)))
        how = draw(st.sampled_from(["drop", "value", "row", "cell"]))
        target = obj[key]
        if how == "drop":
            del obj[key]
        elif how == "value" or not isinstance(target, list) or not target:
            obj[key] = draw(_JSON_VALUES)
        elif how == "row" or not isinstance(target[0], list) or not target[0]:
            target[draw(st.integers(0, len(target) - 1))] = draw(_JSON_VALUES)
        else:
            target[0][draw(st.integers(0, len(target[0]) - 1))] = draw(_JSON_VALUES)
    text = json.dumps(obj)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, len(text)))
        text = text[:i] + draw(st.text(alphabet='[]{},:"0123456789.-en', max_size=4)) + text[j:]
    return text


class TestParserTotality:
    """Any text gives a surface or an IngestError, never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(_CSV_LIKE_TEXT)
    def test_parse_csv_matrix_is_total(self, text):
        try:
            surface = parse_csv_matrix(text, first_year=1900, first_age=0)
        except IngestError:
            return
        assert isinstance(surface, MortalitySurface)

    @settings(max_examples=300, deadline=None)
    @given(_mutated_surface_json())
    def test_parse_json_is_total(self, text):
        try:
            surface = parse_json(text)
        except IngestError:
            return
        assert isinstance(surface, MortalitySurface)
