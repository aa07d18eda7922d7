"""Locality certificates: monodromy of a base object against the whole
algebra, decided for every summand at once.

The module induced from a base is local when the monodromy exponent
h_z - h_summand(r) - h_base of every summand z of every slice r is an
integer.  Slices below r0 (see `induced`) are checked directly.  From r0 on,
the k-th exponent is the k-th weight minus two weights quadratic in r, so
e(r0 + u) = e0 + u*e1 + u(u-1)/2 * e2, an integer for every u >= 0 exactly
when e0, e1, e2 are integer constants, that is, when the exponents at u = 0,
1, 2 are.  So the slices r <= r0+2 decide every r, and the first of them
with an exponent that is not an integer constant is the smallest witness.
Each exponent is one integer difference of the weight hook `_weight_ints` on
flat index tuples: no label, fusion element, monodromy report or slice family.
The exponent family stays in integers too: the coefficients of 1, r and r^2
over one positive denominator, in lowest terms, which `format_intfrac` prints.

Certificates are memoized per base in the algebra's `_locality_cache`; every
induction entry point that needs local modules (induced fusion, the
restriction oracle) reads its verdicts from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from limfuse.catdata.labels import SimpleLabel
from limfuse.induction.algebra import AlgebraObject

LOCAL = "local"
NON_LOCAL = "non-local"


@dataclass(frozen=True)
class LocalityCertificate:
    """The verdict with its smallest witness r, if any, and, when every slice
    has one summand with a parameter-free exponent, that exponent as
    (c0, c1, c2, den): (c0 + c1 r + c2 r^2)/den in lowest terms, den > 0."""

    base: SimpleLabel
    verdict: str
    witness: Optional[int] = None
    exponent_family: Optional[tuple[int, int, int, int]] = None

    @property
    def is_local(self) -> bool:
        return self.verdict == LOCAL


def locality(alg: AlgebraObject, base: SimpleLabel) -> LocalityCertificate:
    """Decide whether the module induced from `base` is local.

    Local means every monodromy exponent against every algebra summand is an
    integer.  Non-local verdicts carry the smallest witness index.
    Certificates are cached on the algebra per base; a base that is not a
    label is refused on every call, even when it equals a cached one.
    """
    hit = alg._locality_cache.get(base)
    if hit is None or not isinstance(base, SimpleLabel):
        alg.base_category._require(base)
        hit = alg._locality_cache[base] = _decide(alg, base)
    return hit


def _decide(alg: AlgebraObject, base: SimpleLabel) -> LocalityCertificate:
    cat, x = alg.base_category, base.indices
    r0, (e, f, g, h, m) = alg.r0(x), cat._weight_ints(x)
    witness, constants = None, []
    for r in range(1, r0 + 3):
        # h(summand(r)) + h(base) = (A, B, C, D)/M, so h(z) minus it is (a*M - A*n, ...)/(n*M)
        a, b, c, d, n = cat._weight_ints([slot.at(r) for slot in alg.slots])
        A, B, C, D, M = a * m + e * n, b * m + f * n, c * m + g * n, d * m + h * n, n * m
        for a, b, c, d, n in map(cat._weight_ints, alg.slice_indices(r, x)):
            ez = (b * M - B * n, n * M) if a * M == A * n and c * M == C * n and d * M == D * n else None
            constants.append(ez)
            if witness is None and (ez is None or ez[0] % ez[1]):
                witness = r
        if witness and r0 > 1:
            break
    family = None
    # every slot is 1 at r = 1 (summand(1) is the unit), so each slice has one
    # summand exactly when r0 = 1, and then e(1), e(2), e(3) fix the family
    if r0 == 1 and None not in constants:
        # e1 + (r-1)*d1 + (r-1)(r-2)/2 * d2, d1 = e2 - e1, d2 = e3 - 2*e2 + e1, over one 2q
        (p1, q1), (p2, q2), (p3, q3) = constants
        q, e1, e2, e3 = q1 * q2 * q3, p1 * q2 * q3, p2 * q1 * q3, p3 * q1 * q2
        family = (6 * e1 - 6 * e2 + 2 * e3, 8 * e2 - 5 * e1 - 3 * e3, e1 - 2 * e2 + e3, 2 * q)
        g = gcd(*family)
        family = tuple(v // g for v in family)
    return LocalityCertificate(base, NON_LOCAL if witness else LOCAL, witness, family)
