"""Exact rational, polynomial, and rational-function arithmetic, the text
form of rationals and rational functions, and phases in Q/Z."""

from limfuse.exact.poly import Poly, Rat
from limfuse.exact.ratfunc import (
    DegenerateSubstitution,
    DivisionByZero,
    RatFunc,
    format_rat,
    format_ratfunc,
    parse_rat,
)
from limfuse.exact.phase import Phase

__all__ = [
    "Rat",
    "Poly",
    "RatFunc",
    "Phase",
    "DivisionByZero",
    "DegenerateSubstitution",
    "format_rat",
    "format_ratfunc",
    "parse_rat",
]
