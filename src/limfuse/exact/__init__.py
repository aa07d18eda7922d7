"""Exact rational, polynomial, and rational-function arithmetic, and the text
form of rationals and rational functions."""

from limfuse.exact.poly import Poly, Rat
from limfuse.exact.ratfunc import (
    DegenerateSubstitution,
    DivisionByZero,
    RatFunc,
    format_rat,
    format_ratfunc,
    parse_rat,
)

__all__ = [
    "Rat",
    "Poly",
    "RatFunc",
    "DivisionByZero",
    "DegenerateSubstitution",
    "format_rat",
    "format_ratfunc",
    "parse_rat",
]
