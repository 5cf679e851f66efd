"""Tests for engineering-unit parsing and formatting."""


import re

import pytest

from repro.errors import UnitError
from repro.units import (
    cm2_to_um2,
    format_value,
    parse_value,
    thermal_voltage,
    um_to_cm2,
)


class TestParseValue:
    def test_plain_integer(self):
        assert parse_value("42") == 42.0

    def test_plain_float(self):
        assert parse_value("3.14") == pytest.approx(3.14)

    def test_scientific_notation(self):
        assert parse_value("1e-9") == pytest.approx(1e-9)

    def test_negative_scientific(self):
        assert parse_value("-2.5e3") == pytest.approx(-2500.0)

    def test_kilo_suffix(self):
        assert parse_value("10k") == pytest.approx(10e3)

    def test_meg_suffix(self):
        assert parse_value("100MEG") == pytest.approx(100e6)

    def test_meg_is_not_milli(self):
        assert parse_value("1meg") == pytest.approx(1e6)
        assert parse_value("1m") == pytest.approx(1e-3)

    def test_micro_suffix(self):
        assert parse_value("2.2u") == pytest.approx(2.2e-6)

    def test_nano_pico_femto(self):
        assert parse_value("5n") == pytest.approx(5e-9)
        assert parse_value("5p") == pytest.approx(5e-12)
        assert parse_value("5f") == pytest.approx(5e-15)

    def test_giga_tera(self):
        assert parse_value("2g") == pytest.approx(2e9)
        assert parse_value("1t") == pytest.approx(1e12)

    def test_mil_suffix(self):
        assert parse_value("1mil") == pytest.approx(25.4e-6)

    def test_unit_letters_after_suffix_ignored(self):
        assert parse_value("10kohm") == pytest.approx(10e3)
        assert parse_value("5pF") == pytest.approx(5e-12)
        assert parse_value("2.5v") == pytest.approx(2.5)

    def test_numeric_passthrough(self):
        assert parse_value(7) == 7.0
        assert parse_value(1.5e-6) == 1.5e-6

    def test_whitespace_tolerated(self):
        assert parse_value("  4.7k ") == pytest.approx(4700.0)

    def test_invalid_raises(self):
        with pytest.raises(UnitError):
            parse_value("ten")

    def test_empty_raises(self):
        with pytest.raises(UnitError):
            parse_value("")

    def test_positive_sign(self):
        assert parse_value("+3u") == pytest.approx(3e-6)

    @pytest.mark.parametrize("text", ["1e999", "1e308meg", "-1e308k"])
    def test_overflowing_literal_raises(self, text):
        with pytest.raises(UnitError, match=re.escape(repr(text))):
            parse_value(text)


class TestFormatValue:
    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_micro(self):
        assert format_value(2.2e-6) == "2.2u"

    def test_kilo_with_unit(self):
        assert format_value(4700.0, "Ohm") == "4.7kOhm"

    def test_mega(self):
        assert "MEG" in format_value(1.5e8)

    def test_roundtrip(self):
        for value in (1e-12, 3.3e-9, 4.7e-6, 1e-3, 2.0, 150.0, 10e3, 1e6):
            assert parse_value(format_value(value)) == pytest.approx(value, rel=1e-3)

    def test_nan_and_inf(self):
        assert "nan" in format_value(float("nan"))
        assert "inf" in format_value(float("inf"))


class TestConstants:
    def test_thermal_voltage_room_temperature(self):
        assert thermal_voltage(27.0) == pytest.approx(0.02585, rel=1e-3)

    def test_thermal_voltage_increases_with_temperature(self):
        assert thermal_voltage(100.0) > thermal_voltage(27.0)

    def test_area_conversions_roundtrip(self):
        assert cm2_to_um2(um_to_cm2(123.0)) == pytest.approx(123.0)

    def test_um_to_cm2(self):
        assert um_to_cm2(1e8) == pytest.approx(1.0)
