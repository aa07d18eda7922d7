"""Phases e^{2*pi*i*q} represented by the exact rational q reduced mod 1."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from limfuse.exact.poly import Rat


class Phase:
    """An element of Q/Z, stored as the representative in [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, Rat]):
        v = Fraction(value)
        object.__setattr__(self, "value", v - (v.numerator // v.denominator))

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Phase(other)
        if not isinstance(other, Phase):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("Phase", self.value))

    def __str__(self) -> str:
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def __repr__(self) -> str:
        return f"Phase({self.value})"
