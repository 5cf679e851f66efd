"""Engineering-unit handling and physical constants.

SPICE netlists express values with engineering suffixes (``10k``, ``2.2u``,
``100MEG``).  This module converts between such strings and floats and
provides the handful of physical constants used by the device models.
"""

from __future__ import annotations

import math
import re

from .errors import UnitError

# ---------------------------------------------------------------------------
# Physical constants
# ---------------------------------------------------------------------------

#: Boltzmann constant [J/K]
BOLTZMANN = 1.380649e-23
#: Elementary charge [C]
CHARGE = 1.602176634e-19
#: Absolute zero offset for Celsius → Kelvin conversion
CELSIUS_TO_KELVIN = 273.15
#: Default simulation temperature [°C]
DEFAULT_TEMPERATURE_C = 27.0
#: Permittivity of free space [F/m]
EPS0 = 8.8541878128e-12
#: Relative permittivity of SiO2
EPS_SIO2 = 3.9
#: Relative permittivity of silicon
EPS_SI = 11.7


def thermal_voltage(temperature_c: float = DEFAULT_TEMPERATURE_C) -> float:
    """Return kT/q in volts at the given temperature in Celsius."""
    return BOLTZMANN * (temperature_c + CELSIUS_TO_KELVIN) / CHARGE


# ---------------------------------------------------------------------------
# Engineering suffixes
# ---------------------------------------------------------------------------

#: SPICE engineering suffixes.  Order matters only for formatting; parsing is
#: case-insensitive and "meg" must be matched before "m".
_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "µ": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
    "mil": 25.4e-6,
}

_NUMBER_RE = re.compile(
    r"""^\s*
        (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
        (?P<suffix>[a-zA-Zµ]*)
        \s*$""",
    re.VERBOSE,
)


def parse_value(text: str | float | int) -> float:
    """Parse a SPICE numeric literal into a float.

    Accepts plain numbers, scientific notation and engineering suffixes
    (``k``, ``meg``, ``m``, ``u``, ``n``, ``p``, ``f`` ...).  Trailing unit
    letters after the suffix (``10kohm``, ``5pF``) are ignored, as in SPICE.

    >>> parse_value("2.2u")
    2.2e-06
    >>> parse_value("100MEG")
    100000000.0
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_RE.match(str(text))
    if not match:
        raise UnitError(f"cannot parse numeric value {text!r}")
    value = float(match.group("number"))
    suffix = match.group("suffix").lower()
    if suffix.startswith("meg"):
        value *= 1e6
    elif suffix.startswith("mil"):
        value *= 25.4e-6
    elif suffix and suffix[0] in _SUFFIXES:
        value *= _SUFFIXES[suffix[0]]
    # Any other suffix letters are unit names (e.g. "ohm", "v", "hz").
    if not math.isfinite(value):
        raise UnitError(f"numeric value {text!r} overflows a float")
    return value


def format_value(value: float, unit: str = "", digits: int = 4) -> str:
    """Format a float with an engineering suffix.

    >>> format_value(2.2e-6)
    '2.2u'
    >>> format_value(4700.0, "Ohm")
    '4.7kOhm'
    """
    if value == 0.0:
        return f"0{unit}"
    if math.isnan(value) or math.isinf(value):
        return f"{value}{unit}"
    magnitude = abs(value)
    for suffix, factor in (
        ("T", 1e12), ("G", 1e9), ("MEG", 1e6), ("k", 1e3), ("", 1.0),
        ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12), ("f", 1e-15),
    ):
        if magnitude >= factor:
            scaled = value / factor
            text = f"{scaled:.{digits}g}"
            return f"{text}{suffix}{unit}"
    return f"{value:.{digits}g}{unit}"


# ---------------------------------------------------------------------------
# Length conversions used by the layout package (internal unit: micrometres)
# ---------------------------------------------------------------------------

MICRON = 1.0
NANOMETRE = 1e-3
MILLIMETRE = 1e3
CENTIMETRE = 1e4


def um_to_cm2(area_um2: float) -> float:
    """Convert an area in square micrometres to square centimetres."""
    return area_um2 * 1e-8


def cm2_to_um2(area_cm2: float) -> float:
    """Convert an area in square centimetres to square micrometres."""
    return area_cm2 * 1e8
