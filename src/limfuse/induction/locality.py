"""Locality certificates: monodromy of a base object against the whole
algebra, decided in closed form.

For the built-in families the monodromy exponent of a base against the r-th
algebra summand is a single parameter-free polynomial in r; fitting it from
a few slices and validating on extra ones turns locality into an
integer-valuedness question decided exactly.  When no single polynomial
family exists the check falls back to a truncated scan and says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from limfuse.catdata.labels import SimpleLabel
from limfuse.exact import (
    Poly,
    first_non_integer_positive,
    integer_valued_on_positives,
    interpolate,
)
from limfuse.fusion.monodromy import exponent_status, INTEGER
from limfuse.induction.algebra import AlgebraObject

LOCAL = "local"
NON_LOCAL = "non-local"
UNDECIDABLE = "undecidable"

_MAX_FAMILY_DEGREE = 4
_FIT_POINTS = _MAX_FAMILY_DEGREE + 1
_SAMPLE_POINTS = _FIT_POINTS + 2


class NonPolynomialFamily(Exception):
    """The per-summand exponents do not form one polynomial family in r."""


@dataclass(frozen=True)
class LocalityCertificate:
    base: SimpleLabel
    verdict: str
    witness: Optional[int] = None
    exponent_family: Optional[Poly] = None
    truncated_to: Optional[int] = None

    @property
    def is_local(self) -> bool:
        return self.verdict == LOCAL


def _monodromy_exponents(alg: AlgebraObject, base: SimpleLabel, r: int):
    cat = alg.base_category
    a = alg.summand(r)
    hab = cat.weight_vec(a) + cat.weight_vec(base)
    return [(z, cat.weight_vec(z) - hab) for z, _ in cat.fusion_of(a, base)]


def _fit_family(alg: AlgebraObject, base: SimpleLabel) -> Poly:
    """Single polynomial e(r) through the sampled exponents, or raise."""
    values: list[Fraction] = []
    for r in range(1, _SAMPLE_POINTS + 1):
        exps = _monodromy_exponents(alg, base, r)
        if len(exps) != 1:
            raise NonPolynomialFamily(f"{len(exps)} summands at r={r}")
        c = exps[0][1].as_constant()
        if c is None:
            raise NonPolynomialFamily(f"parameter-dependent exponent at r={r}")
        values.append(c)
    family = interpolate(list(enumerate(values[:_FIT_POINTS], start=1)))
    if family.degree > _MAX_FAMILY_DEGREE:
        raise NonPolynomialFamily("fitted degree exceeds the family cap")
    for r in range(_FIT_POINTS + 1, _SAMPLE_POINTS + 1):
        if family.eval(r) != values[r - 1]:
            raise NonPolynomialFamily(f"polynomial fit fails validation at r={r}")
    return family


def locality(alg: AlgebraObject, base: SimpleLabel, truncate: int = 40) -> LocalityCertificate:
    """Decide whether the module induced from `base` is local.

    Local means every monodromy exponent against every algebra summand is an
    integer; with the closed-form family this is decided for all r at once.
    Non-local verdicts carry the smallest witness index.  Certificates are
    cached on the algebra per (base, truncate).
    """
    cache = alg.__dict__.setdefault("_locality_cache", {})
    hit = cache.get((base, truncate))
    if hit is None:
        alg.base_category._require(base)
        hit = cache[(base, truncate)] = _decide(alg, base, truncate)
    return hit


def _decide(alg: AlgebraObject, base: SimpleLabel, truncate: int) -> LocalityCertificate:
    try:
        family = _fit_family(alg, base)
    except NonPolynomialFamily:
        # truncated fallback: still decisive for non-locality
        for r in range(1, truncate + 1):
            for _, e in _monodromy_exponents(alg, base, r):
                if exponent_status(e) != INTEGER:
                    return LocalityCertificate(base, NON_LOCAL, witness=r)
        return LocalityCertificate(base, UNDECIDABLE, truncated_to=truncate)
    if integer_valued_on_positives(family):
        return LocalityCertificate(base, LOCAL, exponent_family=family)
    return LocalityCertificate(
        base,
        NON_LOCAL,
        witness=first_non_integer_positive(family),
        exponent_family=family,
    )
