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

Certificates are memoized per base in the algebra's `_locality_cache`; every
induction entry point that needs local modules (induced fusion, the
restriction oracle) reads its verdicts from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from limfuse.catdata.labels import SimpleLabel
from limfuse.exact import Poly
from limfuse.fusion.monodromy import monodromy
from limfuse.induction.algebra import AlgebraObject
from limfuse.induction.induced import slice_family

LOCAL = "local"
NON_LOCAL = "non-local"


@dataclass(frozen=True)
class LocalityCertificate:
    """The verdict with its smallest witness r, if any, and, when every slice
    has one summand with a parameter-free exponent, that exponent as a
    polynomial in r."""

    base: SimpleLabel
    verdict: str
    witness: Optional[int] = None
    exponent_family: Optional[Poly] = None

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
    fam = slice_family(alg, base)
    reports = (monodromy(alg.base_category, alg.summand(r), base) for r in range(1, fam.r0 + 3))
    if len(fam.steps) == 1:
        # one summand per slice: r0 = 1, and e(1), e(2), e(3) also fix the family
        reports = list(reports)
    witness = next((r for r, rep in enumerate(reports, start=1) if not rep.is_trivial()), None)
    family = None
    if len(fam.steps) == 1:
        e0, e1, e2 = (rep.entries[0].exponent_vec.as_constant() for rep in reports)
        if None not in (e0, e1, e2):
            d1, d2 = e1 - e0, e2 - 2 * e1 + e0
            # e0 + (r-1)*d1 + (r-1)(r-2)/2 * d2 in monomials
            family = Poly((e0 - d1 + d2, d1 - 3 * d2 / 2, d2 / 2))
    return LocalityCertificate(base, NON_LOCAL if witness else LOCAL, witness, family)
