"""Exact rational, polynomial, and rational-function arithmetic."""

from limfuse.exact.poly import (
    Poly,
    Rat,
    first_non_integer_positive,
    integer_valued_on_positives,
    interpolate,
)
from limfuse.exact.ratfunc import (
    DegenerateSubstitution,
    DivisionByZero,
    RatFunc,
    format_rat,
    format_ratfunc,
    parse_rat,
    parse_ratfunc,
)
from limfuse.exact.phase import Phase

__all__ = [
    "Rat",
    "Poly",
    "RatFunc",
    "Phase",
    "DivisionByZero",
    "DegenerateSubstitution",
    "integer_valued_on_positives",
    "first_non_integer_positive",
    "interpolate",
    "format_rat",
    "format_ratfunc",
    "parse_rat",
    "parse_ratfunc",
]
