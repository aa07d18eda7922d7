"""Exact computational engine for direct limits of graded vector spaces and
fusion-ring data of generic Virasoro-type ribbon categories.

Everything is computed over arbitrary-precision rationals; no floating point
enters any result.  The minimum-weight slice of an induced module is the
exact argmin of each slice weight, a quadratic in the summand index; a
rational sample point only orders weights that no parameter-free
coefficient orders already.
"""

from limfuse.exact import Rat, RatFunc, Poly

__all__ = ["Rat", "RatFunc", "Poly"]
__version__ = "0.1.0"
