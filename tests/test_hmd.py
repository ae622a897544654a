"""HMD Mx 1x1 parsing: column mapping, tokens, structure checks, accounting."""

from __future__ import annotations

import io
import os
import subprocess
import sys

import numpy as np
import pytest

import cohortgeo
from cohortgeo import (
    FormatError,
    Sex,
    StructuralError,
    load_hmd,
    parse_hmd,
    parse_json,
    serialize,
)
from conftest import make_hmd_text


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

    def test_accepts_stream_input(self):
        text = make_hmd_text([(2000, 0, "0.1", "0.1", "0.1")])
        result = parse_hmd(io.StringIO(text))
        assert result.total.rate(2000, 0) == 0.1


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

    def test_non_contiguous_ages(self):
        text = make_hmd_text([
            (2000, 0, "0.1", "0.1", "0.1"),
            (2000, 2, "0.1", "0.1", "0.1"),
        ])
        with pytest.raises(StructuralError, match="non-contiguous ages"):
            parse_hmd(text)


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

    def test_load_all(self, small_hmd_text, tmp_path):
        path = tmp_path / "mini.Mx_1x1.txt"
        path.write_text(small_hmd_text)
        result = load_hmd(path)
        assert set(result.surfaces) == {Sex.FEMALE, Sex.MALE, Sex.TOTAL}

    def test_reads_utf8_under_ascii_locale(self, small_hmd_text, tmp_path):
        lines = small_hmd_text.splitlines(keepends=True)
        lines[0] = "Österreich, Sterberaten (Periode 1x1)\n"
        path = tmp_path / "AUT.Mx_1x1.txt"
        path.write_bytes("".join(lines).encode("utf-8"))
        src = os.path.dirname(os.path.dirname(cohortgeo.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0", LC_ALL="C")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from cohortgeo import load_hmd; "
             "print(ascii(load_hmd(sys.argv[1]).title))", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ascii("Österreich, Sterberaten (Periode 1x1)")
