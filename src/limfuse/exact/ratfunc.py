"""Normalized univariate rational functions over exact rationals.

The canonical internal form has coprime numerator/denominator and a monic
denominator; zero is 0/1.  Equality is therefore structural.  The formal
variable is treated as transcendental: a RatFunc "is" a number only when both
parts have degree zero (see :func:`RatFunc.as_constant`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence, Union

from limfuse.exact.poly import Poly, Rat

Scalar = Union[int, Rat, Poly, "RatFunc"]


class DivisionByZero(ZeroDivisionError):
    """Division by the zero rational function."""


class DegenerateSubstitution(ValueError):
    """Substitution that annihilates the denominator identically."""


class RatFunc:
    """Quotient of two polynomials in one formal variable, kept normalized."""

    __slots__ = ("num", "den")

    def __init__(self, num: Scalar = 0, den: Scalar = 1):
        if isinstance(num, RatFunc) or isinstance(den, RatFunc):
            f = _coerce(num) / _coerce(den)
            object.__setattr__(self, "num", f.num)
            object.__setattr__(self, "den", f.den)
            return
        num = Poly(num)
        den = Poly(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly(1)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def coprime(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den taken as it stands, without a gcd: the caller guarantees
        coprime parts and a monic den (zero as Poly() over Poly(1))."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @staticmethod
    def var() -> "RatFunc":
        """The formal variable as a rational function."""
        return RatFunc(Poly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: Scalar) -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: Scalar) -> "RatFunc":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "RatFunc":
        return _coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "RatFunc":
        other = _coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "RatFunc":
        other = _coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Scalar) -> "RatFunc":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def substitute(self, g: "RatFunc") -> "RatFunc":
        """Composition self(g).

        Raises DegenerateSubstitution when the composed denominator vanishes
        identically (g hits a pole of self as a function of the variable).
        """
        g = _coerce(g)
        # f = sum a_k x^k / sum b_k x^k  ->  clear g.den powers of both parts.
        n = max(self.num.degree, self.den.degree, 0)
        num_acc = Poly()
        den_acc = Poly()
        gn_pows = [Poly(1)]
        gd_pows = [Poly(1)]
        for _ in range(n):
            gn_pows.append(gn_pows[-1] * g.num)
            gd_pows.append(gd_pows[-1] * g.den)
        for k, c in enumerate(self.num.coeffs):
            num_acc = num_acc + gn_pows[k] * gd_pows[n - k] * c
        for k, c in enumerate(self.den.coeffs):
            den_acc = den_acc + gn_pows[k] * gd_pows[n - k] * c
        if den_acc.is_zero():
            raise DegenerateSubstitution("substitution lands in a pole")
        return RatFunc(num_acc, den_acc)

    def as_constant(self) -> Optional[Rat]:
        """The constant value, or None when the variable genuinely occurs."""
        if self.num.is_zero():
            return Fraction(0)
        if self.num.degree == 0 and self.den.degree == 0:
            return self.num.coeffs[0] / self.den.coeffs[0]
        return None

    def eval(self, x: Union[int, Rat]) -> Rat:
        """Evaluate at a rational point; the point must avoid the poles."""
        d = self.den.eval(x)
        if d == 0:
            raise DivisionByZero(f"evaluation at a pole: {x}")
        return self.num.eval(x) / d

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self)!r})"


def _coerce(v: Scalar) -> RatFunc:
    return v if isinstance(v, RatFunc) else RatFunc(v)


# ---------------------------------------------------------------------------
# canonical text form: integer-coefficient fraction with descending powers and
# explicit '*', e.g. "(3*t^2-6*t+3)/(4*t)"; a denominator of one is omitted.
# ---------------------------------------------------------------------------


def _int_scaled(f: RatFunc) -> tuple[list[int], list[int]]:
    """Scale num/den jointly to coprime integer coefficient lists (ascending)."""
    scale = math.lcm(*(c.denominator for c in f.num.coeffs + f.den.coeffs))
    num = [int(c * scale) for c in f.num.coeffs]
    den = [int(c * scale) for c in f.den.coeffs]
    content = math.gcd(*num, *den)
    if content > 1:
        num = [c // content for c in num]
        den = [c // content for c in den]
    return num, den


def format_intpoly(coeffs: Sequence[int], var: str) -> str:
    if not coeffs:
        return "0"
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{k}" if mag == 1 else f"{mag}*{var}^{k}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


def format_intfrac(num: Sequence[int], den: Sequence[int], var: str) -> str:
    """The canonical text of num/den, coprime integer coefficient lists
    (ascending) with a positive leading denominator: p or p/q for a constant,
    else the numerator alone over a denominator of one, else (num)/(den)."""
    num_s = format_intpoly(num, var)
    if len(den) == 1 and (den[0] == 1 or not any(num[1:])):
        return num_s if den[0] == 1 else f"{num_s}/{den[0]}"
    return f"({num_s})/({format_intpoly(den, var)})"


def format_ratfunc(f: RatFunc, var: str = "t") -> str:
    return format_intfrac(*_int_scaled(f), var)


def format_rat(q: Rat) -> str:
    return format_intfrac((q.numerator,), (q.denominator,), "")


_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rat(text: str) -> Rat:
    text = text.strip().replace("−", "-")
    m = _RAT_RE.match(text)
    if not m:
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))

