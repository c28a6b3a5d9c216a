"""Exact parsing of angle tokens ("pi", "a/b pi", decimals)."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

_PI_FORMS = re.compile(
    r"""^(?P<sign>[+-]?)\s*
        (?:
            (?P<num>\d+)\s*/\s*(?P<den>\d+)\s*pi   # a/b pi
          | (?P<mult>\d+)\s*pi                     # a pi
          | pi\s*/\s*(?P<div>\d+)                  # pi/b
          | pi
        )$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Angle:
    """An angle in radians, remembering an exact multiple of pi when known."""

    radians: float
    pi_fraction: Fraction | None = None

    @property
    def is_rational_pi(self) -> bool:
        return self.pi_fraction is not None


def parse_angle(token) -> Angle:
    """Parse "pi", "a/b pi", "a pi", "pi/b" or a decimal-radians token.

    Numeric input passes through as plain radians.  Rational-pi forms keep the
    exact fraction so callers can do period arithmetic without float error.
    Zero denominators, overflow, infinities, NaN and booleans raise ValueError.
    """
    if isinstance(token, Angle):
        return token
    if isinstance(token, bool):
        raise ValueError(f"angle {token!r} is not a number")
    try:
        angle = _parse(token)
    except (ZeroDivisionError, OverflowError):
        angle = None
    if angle is None or not math.isfinite(angle.radians):
        raise ValueError(f"angle {token!r:.40} is not a finite number")
    return angle


def _parse(token) -> Angle:
    if isinstance(token, (int, float)):
        return Angle(float(token), None)
    text = str(token).strip().lower()
    m = _PI_FORMS.match(text)
    if m:
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("num") is not None:
            frac = Fraction(int(m.group("num")), int(m.group("den")))
        elif m.group("mult") is not None:
            frac = Fraction(int(m.group("mult")), 1)
        elif m.group("div") is not None:
            frac = Fraction(1, int(m.group("div")))
        else:
            frac = Fraction(1, 1)
        frac *= sign
        return Angle(float(frac) * math.pi, frac)
    try:
        return Angle(float(text), None)
    except ValueError:
        raise ValueError(f"cannot parse angle token {token!r}") from None
