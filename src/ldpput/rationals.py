"""Helpers for exact rational scalars and their text form."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "3/2", and Fractions to Fraction.

    A string with a zero denominator ("1/0") raises ValueError.

    Bools are rejected (TypeError), so a JSON true is not read as 1.
    Floats are rejected: exact call sites must not smuggle in binary
    rounding by accident.  Use Fraction(float) explicitly when a float
    really is the intended exact value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as "p/q", or just "p" for integers."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def integer_matrix(rows: Iterable[Sequence]) -> tuple[list[list[int]], int]:
    """Integer rows n and one positive denominator d with rows == n / d.

    d is the lcm of every entry's denominator (ints and Fractions alike),
    so exact matrix kernels can run on the integers and build a Fraction
    once per result.
    """
    rows = list(rows)
    d = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d
