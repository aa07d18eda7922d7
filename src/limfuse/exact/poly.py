"""Dense univariate polynomials over arbitrary-precision rationals.

Coefficients are stored ascending by degree with no trailing zeros; the zero
polynomial is the empty coefficient tuple.  Polynomials are the parts of a
`RatFunc` and double as the exponent family of a locality certificate, where
the variable is an integer index r >= 1 rather than a formal parameter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Fraction

Coeffs = Union[int, Rat, "Poly", Sequence[Union[int, Rat]]]


def _trim(coeffs: Iterable[Rat]) -> tuple[Rat, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Poly:
    """Immutable univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Coeffs = ()):
        if isinstance(coeffs, Poly):
            object.__setattr__(self, "coeffs", coeffs.coeffs)
            return
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (Fraction(coeffs),)
        object.__setattr__(self, "coeffs", _trim(Fraction(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def x() -> "Poly":
        """The monomial of degree one."""
        return Poly((0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rat:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Coeffs) -> "Poly":
        other = Poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Coeffs) -> "Poly":
        return self + (-Poly(other))

    def __rsub__(self, other: Coeffs) -> "Poly":
        return Poly(other) + (-self)

    def __mul__(self, other: Coeffs) -> "Poly":
        other = Poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial long division: self = q*other + r, deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for k in range(len(rem) - d - 1, -1, -1):
            c = rem[k + d] / lead
            if c == 0:
                continue
            q[k] = c
            for j, oc in enumerate(other.coeffs):
                rem[k + j] -= c * oc
        return Poly(q), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading == 1:
            return self
        inv = 1 / self.leading
        return Poly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval(self, x: Union[int, Rat]) -> Rat:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

