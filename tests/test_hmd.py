"""HMD Mx 1x1 parsing: column mapping, tokens, structure checks, accounting."""

from __future__ import annotations

import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortgeo import (
    FormatError,
    HmdParseResult,
    IngestError,
    Sex,
    StructuralError,
    load_hmd,
    parse_hmd,
    parse_json,
    serialize,
)
from conftest import make_hmd_text, package_env


class TestColumnMapping:
    def test_sex_columns(self):
        text = make_hmd_text([
            (1933, 26, "0.002800", "0.003500", "0.003100"),
            (1933, 27, "0.002935", "0.003633", "0.003281"),
            (1933, 28, "0.003000", "0.003700", "0.003400"),
        ])
        result = parse_hmd(text)
        assert result.total.rate(1933, 27) == 0.003281
        assert result.female.rate(1933, 27) == 0.002935
        assert result.male.rate(1933, 27) == 0.003633
        assert result.total.sex is Sex.TOTAL

    def test_open_age_group_stored_as_110(self):
        text = make_hmd_text([
            (1950, 109, "0.45", "0.41", "0.43"),
            (1950, "110+", "0.551786", "0.476215", "0.538332"),
        ])
        result = parse_hmd(text)
        assert list(result.female.ages) == [109, 110]
        assert result.female.rate(1950, 110) == 0.551786

    def test_dot_token_is_missing_in_all_sexes(self):
        text = make_hmd_text([
            (1915, 102, "0.4", "0.38", "0.39"),
            (1915, 103, ".", ".", "."),
            (1915, 104, "0.5", "0.47", "0.48"),
        ])
        result = parse_hmd(text)
        for surface in (result.female, result.male, result.total):
            assert surface.missing_mask[0, 1]
            assert np.isnan(surface.rate(1915, 103))
            assert not surface.missing_mask[0, 0]

    def test_title_becomes_source_label(self):
        text = make_hmd_text([(2000, 0, "0.1", "0.1", "0.1")],
                             title="Atlantis, Death rates (period 1x1)")
        result = parse_hmd(text)
        assert result.title == "Atlantis, Death rates (period 1x1)"
        assert result.total.source_label == result.title


class TestFormatErrors:
    def test_missing_blank_line(self):
        lines = ["Title", "  Year Age Female Male Total",
                 "2000 0 0.1 0.1 0.1", "2000 1 0.1 0.1 0.1"]
        with pytest.raises(FormatError, match="line 2"):
            parse_hmd("\n".join(lines) + "\n")

    def test_too_short_file(self):
        with pytest.raises(FormatError, match="too short"):
            parse_hmd("Title\n\nYear Age Female Male Total\n")

    def test_malformed_header_names_line(self):
        lines = ["Title", "", "Year Age Male Female Total", "2000 0 0.1 0.1 0.1"]
        with pytest.raises(FormatError, match="line 3"):
            parse_hmd("\n".join(lines) + "\n")

    def test_bad_field_count_names_line(self):
        text = make_hmd_text([(2000, 0, "0.1", "0.1", "0.1")])
        text += "2001 0 0.1 0.1\n"
        with pytest.raises(FormatError, match="line 5"):
            parse_hmd(text)

    def test_unparsable_rate_names_line(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 1, "0.1", "oops", "0.1"),
        ])
        with pytest.raises(FormatError, match="line 5.*oops"):
            parse_hmd(text)

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan"])
    def test_nan_token_rejected(self, token):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 1, "0.1", token, "."),
        ])
        with pytest.raises(FormatError, match="line 5.*'\\.'"):
            parse_hmd(text)

    def test_unparsable_age(self):
        text = make_hmd_text([(2000, "abc", "0.1", "0.1", "0.1")])
        with pytest.raises(FormatError, match="age"):
            parse_hmd(text)

    def test_unparsable_year(self):
        text = make_hmd_text([("MMXX", 0, "0.1", "0.1", "0.1")])
        with pytest.raises(FormatError, match="year"):
            parse_hmd(text)

    def test_too_short_file(self):
        with pytest.raises(FormatError):
            parse_hmd("Title\n\n")

    def test_data_required(self):
        with pytest.raises(FormatError):
            parse_hmd("Title\n\n  Year Age Female Male Total\n\n")


class TestStructuralErrors:
    def test_duplicate_year_age(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 0, "0.2", "0.2", "0.2"),
        ])
        with pytest.raises(StructuralError, match="duplicate"):
            parse_hmd(text)

    def test_non_contiguous_years(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2002, 0, "0.1", "0.1", "0.1"),
        ])
        with pytest.raises(StructuralError, match="non-contiguous years"):
            parse_hmd(text)

    def test_differing_age_sets(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 1, "0.1", "0.1", "0.1"),
            (2001, 0, "0.1", "0.1", "0.1"),
        ])
        with pytest.raises(StructuralError, match="different ages"):
            parse_hmd(text)

    def test_shifted_age_range(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 1, "0.1", "0.1", "0.1"),
            (2001, 1, "0.1", "0.1", "0.1"),
            (2001, 2, "0.1", "0.1", "0.1"),
        ])
        with pytest.raises(StructuralError, match="year 2001 covers different ages"):
            parse_hmd(text)

    def test_non_contiguous_ages(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 2, "0.1", "0.1", "0.1"),
        ])
        with pytest.raises(StructuralError, match="non-contiguous ages"):
            parse_hmd(text)

    @pytest.mark.parametrize("rows, message", [
        ([(y, a) for y in (1900, 10**12) for a in (0, 1)],
         "non-contiguous years: 1900..1000000000000 has gaps"),
        ([(y, a) for y in (1900, 1901) for a in (0, 10**12)],
         "non-contiguous ages 0..1000000000000 for year 1900"),
        ([(y, a) for y in (-2**63, 2**63 - 1) for a in (0, 1)],
         "non-contiguous years: -9223372036854775808..9223372036854775807"),
        ([(10**20 + y, a) for y in range(3) for a in range(3)],
         "years and ages must fit in a 64-bit integer"),
        ([(1900, 10**19)], "years and ages must fit in a 64-bit integer"),
    ], ids=["far-years", "far-ages", "int64-span", "years-beyond-int64",
            "age-beyond-int64"])
    def test_axes_too_far_apart_or_too_large(self, rows, message):
        text = make_hmd_text([(y, a, "0.1", "0.1", "0.1") for y, a in rows])
        with pytest.raises(StructuralError, match=re.escape(message)):
            parse_hmd(text)

    def test_malformed_duplicate_is_a_format_error(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 0, "0.1", "oops", "0.1"),
        ])
        with pytest.raises(FormatError, match="line 5.*oops"):
            parse_hmd(text)


# --- properties ---------------------------------------------------------------

@st.composite
def _valid_rows(draw, min_years=1, min_ages=1):
    """Rows of a complete grid: (year, age, age_token, female, male, total)."""
    y0 = draw(st.integers(-3000, 3000))
    a0 = draw(st.integers(-5, 120))
    n_years = draw(st.integers(min_years, 4))
    n_ages = draw(st.integers(min_ages, 4))
    open_age = draw(st.booleans())
    rate = st.one_of(st.just("."), st.floats(0, 3).map(lambda v: f"{v:.6f}"))
    rows = []
    for year in range(y0, y0 + n_years):
        for age in range(a0, a0 + n_ages):
            token = f"{age}+" if open_age and age == a0 + n_ages - 1 else str(age)
            rows.append((year, age, token, draw(rate), draw(rate), draw(rate)))
    return rows


def _hmd_text(rows, blank_after=None):
    lines = make_hmd_text([(y, token, f, m, t) for y, _, token, f, m, t in rows]
                          ).splitlines()
    body = []
    for k, line in enumerate(lines[3:]):
        body.append(line)
        if blank_after and blank_after[k]:
            body.append("")
    return "\n".join(lines[:3] + body) + "\n"


# Far-apart values are sampled, not drawn from a range, so that shrinking
# never walks through spans of a few billion years.
_INT_TOKENS = st.one_of(
    st.integers(1900, 1902), st.integers(-2, 2),
    st.sampled_from([10**12, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**20, -2**70]),
).map(str)
_JUNK_TOKENS = st.sampled_from(
    ["110+", "+", ".", "nan", "-NaN", "inf", "1e400", "1e3", "0x1F", "abc", "1_0", "-"])
_RATE_TOKENS = st.one_of(
    st.sampled_from([".", "0.1", "0.000054", "2.5", "-0.1", "0"]), _JUNK_TOKENS)
_DATA_LINES = st.one_of(
    st.tuples(st.one_of(_INT_TOKENS, _JUNK_TOKENS), st.one_of(_INT_TOKENS, _JUNK_TOKENS),
              _RATE_TOKENS, _RATE_TOKENS, _RATE_TOKENS).map("  ".join),
    st.lists(st.one_of(_INT_TOKENS, _RATE_TOKENS), max_size=7).map(" ".join),
    st.sampled_from(["", "   ", "\t"]),
)
_PREFIX_LINES = st.tuples(
    st.sampled_from(["Testland", "", " "]), st.sampled_from(["", "x"]),
    st.sampled_from(["Year Age Female Male Total", "Year Age Male Female Total",
                     "", "Year Age Female Male"]))


@st.composite
def _mutated_grid(draw):
    """A valid file with one token of one line replaced, or one line added."""
    lines = _hmd_text(draw(_valid_rows())).splitlines()
    k = draw(st.integers(0, len(lines)))
    token = draw(st.one_of(_INT_TOKENS, _RATE_TOKENS))
    if k < len(lines) and draw(st.booleans()):
        tokens = lines[k].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = token
        lines[k] = " ".join(tokens)
    else:
        lines.insert(k, draw(_DATA_LINES))
    return "\n".join(lines) + "\n"


_HMD_LIKE_TEXT = st.one_of(
    st.lists(_DATA_LINES, max_size=30).map(
        lambda body: make_hmd_text([]) + "\n".join(body) + "\n"),
    st.tuples(_PREFIX_LINES, st.lists(_DATA_LINES, max_size=10)).map(
        lambda parts: "\n".join([*parts[0], *parts[1]]) + "\n"),
    _mutated_grid(),
    st.text(max_size=200),
)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(_HMD_LIKE_TEXT)
    def test_any_text_parses_or_raises_ingest_error(self, text):
        try:
            result = parse_hmd(text)
        except IngestError:
            return
        assert isinstance(result, HmdParseResult)
        assert result.data_row_count == result.total.rates.size
        assert result.line_count == len(text.splitlines())

    @settings(max_examples=60, deadline=None)
    @given(_valid_rows(), st.data())
    def test_row_order_and_blank_lines_are_free(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        blanks = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                    max_size=len(rows)))
        ordered = parse_hmd(_hmd_text(rows))
        mixed = parse_hmd(_hmd_text(shuffled, blanks))
        assert mixed.surfaces == ordered.surfaces
        assert mixed.data_row_count == ordered.data_row_count == len(rows)
        assert mixed.skipped_blank_lines == sum(blanks)
        assert mixed.line_count == ordered.line_count + sum(blanks)
        for year, age, _, *tokens in rows:
            for surface, token in zip((mixed.female, mixed.male, mixed.total), tokens):
                expected = np.nan if token == "." else float(token)
                np.testing.assert_equal(surface.rate(year, age), expected)

    @settings(max_examples=60, deadline=None)
    @given(_valid_rows(min_years=2, min_ages=2), st.data())
    def test_dropped_row_names_its_year(self, rows, data):
        k = data.draw(st.integers(0, len(rows) - 1))
        year = rows[k][0]
        shuffled = data.draw(st.permutations(rows[:k] + rows[k + 1:]))
        with pytest.raises(StructuralError, match=rf"year {year}\b"):
            parse_hmd(_hmd_text(shuffled))

    @settings(max_examples=60, deadline=None)
    @given(_valid_rows(), st.data())
    def test_duplicated_row_names_its_line(self, rows, data):
        rows = data.draw(st.permutations(rows))
        k = data.draw(st.integers(0, len(rows) - 1))
        at = data.draw(st.integers(0, len(rows)))
        with_copy = rows[:at] + [rows[k]] + rows[at:]
        lineno = 4 + max(at, k + (at <= k))
        year, age = rows[k][:2]
        with pytest.raises(StructuralError,
                           match=f"line {lineno}: duplicate row for year {year}, age {age}$"):
            parse_hmd(_hmd_text(with_copy))


class TestAccounting:
    def test_row_and_line_counts(self, small_hmd_text):
        result = parse_hmd(small_hmd_text)
        # 6 years x 8 ages of data after 3 header lines
        assert result.data_row_count == 48
        assert result.line_count == 3 + 48
        assert result.skipped_blank_lines == 0
        assert result.total.n_years == 6
        assert result.total.n_ages == 8

    def test_trailing_blank_lines_counted(self):
        text = make_hmd_text([(2000, 0, "0.1", "0.1", "0.1")],
                             trailing_blank_lines=2)
        result = parse_hmd(text)
        assert result.skipped_blank_lines == 2
        assert result.data_row_count == 1

    def test_every_cell_captured(self, small_hmd_text):
        result = parse_hmd(small_hmd_text)
        for surface in result.surfaces.values():
            assert not surface.missing_mask.any()
            assert surface.rates.size == result.data_row_count


class TestRoundTrip:
    def test_parsed_surface_survives_serialization(self, small_hmd_text):
        total = parse_hmd(small_hmd_text).total
        assert parse_json(serialize(total, "json")) == total


class TestLoadHmd:
    def test_load_single_sex(self, small_hmd_text, tmp_path):
        path = tmp_path / "mini.Mx_1x1.txt"
        path.write_text(small_hmd_text)
        surface = load_hmd(path, sex="female")
        assert surface.sex is Sex.FEMALE

    def test_reads_utf8_under_ascii_locale(self, small_hmd_text, tmp_path):
        lines = small_hmd_text.splitlines(keepends=True)
        lines[0] = "Österreich, Sterberaten (Periode 1x1)\n"
        path = tmp_path / "AUT.Mx_1x1.txt"
        path.write_bytes("".join(lines).encode("utf-8"))
        env = package_env(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from cohortgeo import load_hmd; "
             "print(ascii(load_hmd(sys.argv[1], 'total').source_label))", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ascii("Österreich, Sterberaten (Periode 1x1)")
