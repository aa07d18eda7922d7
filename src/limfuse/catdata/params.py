"""The level/central-charge parameter chain of the coset construction.

One formal variable threads through everything: t parametrizes the base
Virasoro family, k = (2-3t)/(2t-1) is the affine level, s = 2k+3 the
super-Virasoro parameter (so 2t-1 = 1/s), and k+2 = (s+1)/2 the shifted
level.  All conversions are exact rational functions and the defining
identities are verified once at construction.

Through k+2 = (s+1)/2 and t = (s+1)/(2s) every built-in weight lies in
span_Q{x, 1, 1/x, 1/(x+1)}, x the category's formal variable, with
denominators dividing 8.  The engine computes with `WeightVec`, a weight's
integer numerators in that basis over one denominator; the builders and the
two reparametrizations are integer formulas, and `Fraction` and `RatFunc`
appear only when a value leaves the engine: `to_ratfunc` builds a weight's
`RatFunc` view once and keeps it on the vector, and `format` prints the
integers through `format_intfrac`.
Builders and maps send their five integers to `vec`, `_vec` or the hooks' `_ints`.
The `RatFunc` formulas below are the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from limfuse.exact import Poly, RatFunc
from limfuse.exact.ratfunc import format_intfrac

_F = Fraction


class WeightVec:
    """(a x + b + c/x + d/(x+1)) / den as five integers `ints` in lowest
    terms: den > 0 and gcd(a, b, c, d, den) = 1.

    The basis is linearly independent and the form reduced, so two weights
    are equal, and hash alike, exactly when their integers are; an exponent is
    constant exactly when a, c and d vanish.  The constructor takes four
    rational coordinates, the builders call `_vec`; iteration yields the four
    coordinates as Fractions.
    """

    __slots__ = ("ints", "_ratfunc")

    def __new__(cls, a=0, b=0, c=0, d=0):
        coords = [_F(v) for v in (a, b, c, d)]
        den = lcm(*(q.denominator for q in coords))
        return _vec(*(q.numerator * (den // q.denominator) for q in coords), den)

    def __eq__(self, other) -> bool:
        return self.ints == other.ints if isinstance(other, WeightVec) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.ints)

    def __iter__(self):
        return (_F(v, self.ints[4]) for v in self.ints[:4])

    def __len__(self) -> int:
        return 4

    def __add__(self, other: "WeightVec") -> "WeightVec":
        (a, b, c, d, n), (e, f, g, h, m) = self.ints, other.ints
        return _vec(a * m + e * n, b * m + f * n, c * m + g * n, d * m + h * n, n * m)

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        (a, b, c, d, n), (e, f, g, h, m) = self.ints, other.ints
        return _vec(a * m - e * n, b * m - f * n, c * m - g * n, d * m - h * n, n * m)

    def as_constant(self) -> Fraction | None:
        """The constant value, or None when the variable genuinely occurs."""
        a, b, c, d, n = self.ints
        return None if a or c or d else _F(b, n)

    def eval(self, q: Fraction) -> Fraction:
        """Value at a rational point; only a genuine pole raises."""
        a, b, c, d, n = self.ints
        p, r = q.numerator, q.denominator
        num, den = a * p + b * r, r
        if c:
            num, den = num * p + c * r * r, den * p
        if d:
            num, den = num * (p + r) + d * r * den, den * (p + r)
        return _F(num, den * n)

    def _numerator(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coprime integer coefficient lists N, den*D, ascending, of the function.

        D = x^[c!=0] (x+1)^[d!=0] is monic, N(0) = c and N(-1) = -d, so N has
        no root of D; (a, b, c, d) -> N is unimodular, so gcd(N, den) = 1.
        """
        a, b, c, d, n = self.ints
        if c:
            if d:
                return (c, b + c + d, a + b, a), (0, n, n)
            return (c, b, a), (0, n)
        if d:
            return (b + d, a + b, a), (n, n)
        return (b, a), (n,)

    def to_ratfunc(self) -> RatFunc:
        """The same function as a normalized RatFunc, built once without a gcd and kept."""
        try:
            return self._ratfunc
        except AttributeError:
            num, den = self._numerator()
            n = den[-1]
            self._ratfunc = RatFunc.coprime(Poly([_F(v, n) for v in num]), Poly([v // n for v in den]))
            return self._ratfunc

    def format(self, var: str) -> str:
        """`format_ratfunc(self.to_ratfunc(), var)`, written from the integers."""
        return format_intfrac(*self._numerator(), var)

    def __repr__(self) -> str:
        return f"WeightVec{tuple(str(v) for v in self)}"


def _vec(a: int, b: int, c: int, d: int, den: int) -> WeightVec:
    """The vector (a, b, c, d)/den of integers, den > 0, divided once by their gcd."""
    g = gcd(a, b, c, d, den)
    v = object.__new__(WeightVec)
    v.ints = (a, b, c, d, den) if g == 1 else (a // g, b // g, c // g, d // g, den // g)
    return v


def _ints(*ints: int) -> tuple[int, ...]:
    """The five integers unreduced: the `vec` of a category's weight hook."""
    return ints


def via_t_of_s(v, vec=_vec):
    """The t-parameter weight v pushed through t = (s+1)/(2s):
    (a, b, c, 0)/den -> (0, a + 2b + 4c, a, -4c)/(2 den); v a WeightVec or its integers."""
    a, b, c, d, n = v.ints if isinstance(v, WeightVec) else v
    if d:
        raise ValueError(f"{v!r} has a 1/(t+1) term; t = (s+1)/(2s) leaves the basis")
    return vec(0, a + 2 * b + 4 * c, a, -4 * c, 2 * n)


def via_kp2_of_s(v, vec=_vec):
    """The t-parameter weight v pushed through t = k+2 = (s+1)/2:
    (a, b, c, 0)/den -> (a, a + 2b, 0, 4c)/(2 den), read like `via_t_of_s`."""
    a, b, c, d, n = v.ints if isinstance(v, WeightVec) else v
    if d:
        raise ValueError(f"{v!r} has a 1/(t+1) term; t = (s+1)/2 leaves the basis")
    return vec(a, a + 2 * b, 0, 4 * c, 2 * n)


@dataclass(frozen=True)
class ParamChain:
    k_of_t: RatFunc
    s_of_k: RatFunc
    t_of_s: RatFunc
    kp2_of_s: RatFunc

    @property
    def s_of_t(self) -> RatFunc:
        return self.s_of_k.substitute(self.k_of_t)


def param_chain() -> ParamChain:
    x = RatFunc.var()
    chain = ParamChain(
        k_of_t=(2 - 3 * x) / (2 * x - 1),
        s_of_k=2 * x + 3,
        t_of_s=(x + 1) / (2 * x),
        kp2_of_s=(x + 1) / 2,
    )
    s_of_t = chain.s_of_t
    assert s_of_t == 1 / (2 * x - 1), "s as a function of t must be 1/(2t-1)"
    assert chain.t_of_s.substitute(s_of_t) == x, "t(s(t)) must be the identity"
    assert chain.kp2_of_s.substitute(chain.s_of_k) == x + 2, "(k+2)(s(k)) must be k+2"
    return chain


def virasoro_weight(r: int, s_idx: int) -> RatFunc:
    """Lowest conformal weight of the (r, s) simple module, in the formal
    variable of its own Virasoro parameter."""
    t = RatFunc.var()
    return _F(r * r - 1, 4) * t - _F(r * s_idx - 1, 2) + _F(s_idx * s_idx - 1, 4) / t


def super_weight(n: int, m: int) -> RatFunc:
    """Lowest conformal weight of the (n, m) super-Virasoro simple, in s."""
    s = RatFunc.var()
    return _F(n * n - 1, 8) * s + _F(m * m - 1, 8) / s - _F(m * n - 1, 4)


def verma_weight(r: int) -> RatFunc:
    """Lowest conformal weight of the affine sl2 Verma module with highest
    weight (r-1) times the fundamental weight, expressed in s.

    This is the quadratic-Casimir value over twice the shifted level:
    (r^2-1)/(4(k+2)) with k+2 = (s+1)/2.
    """
    s = RatFunc.var()
    return _F(r * r - 1, 2) / (s + 1)


def osp_weight(n: int) -> RatFunc:
    """Lowest conformal weight of the n-th affine osp(1|2) module, in s."""
    s = RatFunc.var()
    return _F(n * n - 1, 8) / s


def virasoro_vec(r: int, s_idx: int, vec=_vec) -> WeightVec:
    """`virasoro_weight(r, s_idx)` as a basis vector in t, its integers sent to `vec`."""
    return vec(r * r - 1, 2 * (1 - r * s_idx), s_idx * s_idx - 1, 0, 4)


def super_vec(n: int, m: int, vec=_vec) -> WeightVec:
    """`super_weight(n, m)` as a basis vector in s, read like `virasoro_vec`."""
    return vec(n * n - 1, 2 * (1 - m * n), m * m - 1, 0, 8)


def verma_vec(r: int, vec=_vec) -> WeightVec:
    """`verma_weight(r)` as a basis vector in s, read like `virasoro_vec`."""
    return vec(0, 0, 0, r * r - 1, 2)


def osp_vec(n: int, vec=_vec) -> WeightVec:
    """`osp_weight(n)` as a basis vector in s, read like `virasoro_vec`."""
    return vec(0, 0, n * n - 1, 0, 8)
