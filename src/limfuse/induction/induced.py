"""Induced modules at multiplicity level and minimum-weight identification."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from limfuse.catdata.labels import SimpleLabel
from limfuse.exact import RatFunc
from limfuse.fusion.element import FusionElement
from limfuse.induction.algebra import AlgebraObject


class TruncationTooSmall(ValueError):
    """The sampled minimum sits at the truncation edge; it may lie beyond."""


@dataclass(frozen=True)
class InducedModule:
    """Module induced from a base-category simple; its restriction back to
    the base category is computed lazily, one algebra summand at a time."""

    algebra: AlgebraObject
    base: SimpleLabel

    def restriction(self, r: int) -> FusionElement:
        """Multiplicities of the r-th slice: fusion of summand(r) with the base."""
        return self.algebra.base_category.fusion_of(self.algebra.summand(r), self.base)


def induce(alg: AlgebraObject, base: SimpleLabel) -> InducedModule:
    alg.base_category._require(base)
    return InducedModule(alg, base)


def min_weight_summand(
    mod: InducedModule,
    sample: Fraction = Fraction(355, 113),
    truncate: int = 20,
) -> tuple[int, RatFunc]:
    """Index of the restriction slice of minimum conformal weight, with the
    exact weight at that slice.

    The rational sample only selects the argmin, evaluating the weight
    vectors; the returned weight is the exact symbolic value of the winner.
    Ties go to the smallest index; an argmin at the truncation edge raises
    TruncationTooSmall since the true minimum may lie beyond it.
    """
    if sample <= 0:
        raise ValueError("sample point must be positive")
    if truncate < 1:
        raise ValueError("truncate must be >= 1")
    cat = mod.algebra.base_category
    best: tuple[Fraction, int, SimpleLabel] | None = None
    for r in range(1, truncate + 1):
        for z, _ in mod.restriction(r):
            v = cat.weight_vec(z).eval(sample)
            if best is None or v < best[0]:
                best = (v, r, z)
    if best is None:
        raise ValueError("restriction is identically zero")
    _, r_star, z_star = best
    if r_star == truncate:
        raise TruncationTooSmall(
            f"minimum at the truncation edge r={truncate}; increase truncate"
        )
    return r_star, cat.weight_of(z_star)
