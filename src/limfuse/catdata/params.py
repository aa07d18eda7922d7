"""The level/central-charge parameter chain of the coset construction.

One formal variable threads through everything: t parametrizes the base
Virasoro family, k = (2-3t)/(2t-1) is the affine level, s = 2k+3 the
super-Virasoro parameter (so 2t-1 = 1/s), and k+2 = (s+1)/2 the shifted
level.  All conversions are exact rational functions and the defining
identities are verified once at construction.

Through k+2 = (s+1)/2 and t = (s+1)/(2s) every built-in weight lies in
span_Q{x, 1, 1/x, 1/(x+1)}, x the category's formal variable.  The engine
computes with `WeightVec`, a weight's coordinates in that basis; the two
reparametrizations act on it as constant linear maps, and `RatFunc` appears
only when a value leaves the engine.  The `RatFunc` formulas below are kept
as the independent reference for those vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from limfuse.exact import Poly, RatFunc

_F = Fraction
_ZERO = Fraction(0)
_ONE, _X, _X1, _X_X1 = Poly(1), Poly((0, 1)), Poly((1, 1)), Poly((0, 1, 1))


class WeightVec(tuple):
    """Coordinates (a, b, c, d) of a x + b + c/x + d/(x+1), all Fractions.

    The basis functions are linearly independent, so two weights are equal
    exactly when their vectors are, and an exponent is a constant exactly
    when its a, c and d vanish.  The public constructor converts every
    coordinate; the builders below, which already hold Fractions, use the
    trusted `_of`.
    """

    __slots__ = ()

    def __new__(cls, a=0, b=0, c=0, d=0):
        return tuple.__new__(cls, (_F(a), _F(b), _F(c), _F(d)))

    @staticmethod
    def _of(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> "WeightVec":
        """The vector of four coordinates that are already Fractions."""
        return tuple.__new__(WeightVec, (a, b, c, d))

    def __add__(self, other: "WeightVec") -> "WeightVec":
        a, b, c, d = self
        e, f, g, h = other
        return tuple.__new__(WeightVec, (a + e, b + f, c + g, d + h))

    def __sub__(self, other: "WeightVec") -> "WeightVec":
        a, b, c, d = self
        e, f, g, h = other
        return tuple.__new__(WeightVec, (a - e, b - f, c - g, d - h))

    def as_constant(self) -> Fraction | None:
        """The constant value, or None when the variable genuinely occurs."""
        a, b, c, d = self
        return b if not (a or c or d) else None

    def eval(self, q: Fraction) -> Fraction:
        """Value at a rational point; only a genuine pole raises."""
        a, b, c, d = self
        out = a * q + b
        if c:
            out += c / q
        if d:
            out += d / (q + 1)
        return out

    def to_ratfunc(self) -> RatFunc:
        """The same function as a normalized RatFunc, built without a gcd.

        Over the common denominator D = x^[c!=0] (x+1)^[d!=0], which is monic,
        the numerator N satisfies N(0) = c and N(-1) = -d.  A factor x of D is
        present only when c != 0 and a factor x+1 only when d != 0, so N shares
        no root with D and N/D is already in lowest terms.
        """
        a, b, c, d = self
        if c:
            if d:
                return RatFunc.coprime(Poly((c, b + c + d, a + b, a)), _X_X1)
            return RatFunc.coprime(Poly((c, b, a)), _X)
        if d:
            return RatFunc.coprime(Poly((b + d, a + b, a)), _X1)
        return RatFunc.coprime(Poly((b, a)), _ONE)

    def __repr__(self) -> str:
        return f"WeightVec{tuple(str(v) for v in self)}"


def via_t_of_s(v: WeightVec) -> WeightVec:
    """The t-parameter weight v pushed through t = (s+1)/(2s):
    (a, b, c, 0) -> (0, a/2 + b + 2c, a/2, -2c)."""
    a, b, c, d = v
    if d:
        raise ValueError(f"{v!r} has a 1/(t+1) term; t = (s+1)/(2s) leaves the basis")
    return WeightVec._of(_ZERO, a / 2 + b + 2 * c, a / 2, -2 * c)


def via_kp2_of_s(v: WeightVec) -> WeightVec:
    """The t-parameter weight v pushed through t = k+2 = (s+1)/2:
    (a, b, c, 0) -> (a/2, a/2 + b, 0, 2c)."""
    a, b, c, d = v
    if d:
        raise ValueError(f"{v!r} has a 1/(t+1) term; t = (s+1)/2 leaves the basis")
    return WeightVec._of(a / 2, a / 2 + b, _ZERO, 2 * c)


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


def central_charge_t() -> RatFunc:
    """13 - 6t - 6/t, the Virasoro central charge in the t-parameter."""
    t = RatFunc.var()
    return 13 - 6 * t - 6 / t


def central_charge_super() -> RatFunc:
    """15/2 - 3s - 3/s, the N=1 central charge in the s-parameter."""
    s = RatFunc.var()
    return _F(15, 2) - 3 * s - 3 / s


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


def virasoro_vec(r: int, s_idx: int) -> WeightVec:
    """`virasoro_weight(r, s_idx)` as a basis vector in t."""
    return WeightVec._of(_F(r * r - 1, 4), _F(1 - r * s_idx, 2), _F(s_idx * s_idx - 1, 4), _ZERO)


def super_vec(n: int, m: int) -> WeightVec:
    """`super_weight(n, m)` as a basis vector in s."""
    return WeightVec._of(_F(n * n - 1, 8), _F(1 - m * n, 4), _F(m * m - 1, 8), _ZERO)


def verma_vec(r: int) -> WeightVec:
    """`verma_weight(r)` as a basis vector in s."""
    return WeightVec._of(_ZERO, _ZERO, _ZERO, _F(r * r - 1, 2))


def osp_vec(n: int) -> WeightVec:
    """`osp_weight(n)` as a basis vector in s."""
    return WeightVec._of(_ZERO, _ZERO, _F(n * n - 1, 8), _ZERO)
