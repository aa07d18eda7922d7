"""Exact computational engine for direct limits of graded vector spaces and
fusion-ring data of generic Virasoro-type ribbon categories.

Everything is computed over arbitrary-precision rationals; no floating point
enters any result.  The minimum-weight slice of an induced module is the
exact argmin of each slice weight, a quadratic in the summand index; a
rational sample point only orders weights that no parameter-free
coefficient orders already.

`Rat`, `RatFunc` and `Poly` are read from `limfuse.exact` on first access,
so importing `limfuse.dirlim` alone does not load the exact layer.
"""

__all__ = ["Rat", "RatFunc", "Poly"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from limfuse import exact

    value = globals()[name] = getattr(exact, name)
    return value
