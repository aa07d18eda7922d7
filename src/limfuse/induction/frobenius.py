"""Hom-space dimensions between induced modules via restriction.

The dimension of Hom between modules induced from two base simples equals
the multiplicity pairing of the first base with the fusion of the algebra
against the second.  The sum over algebra summands has finite support: the
fusion range of an affinely growing index can reach a fixed target index
only within an explicit window, computed from the slots `pair_slots` reads
off both bases, so the sum is exact, not truncated.
"""

from __future__ import annotations

from limfuse.catdata.labels import SimpleLabel
from limfuse.fusion.element import FusionElement
from limfuse.fusion.ring import hom_dim
from limfuse.induction.algebra import AlgebraObject, pair_slots


def support_bound(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel) -> int:
    """Largest r for which fusion of summand(r) with base2 can contain base1."""
    idx1 = pair_slots(base1)
    idx2 = pair_slots(base2)

    def limit(fi: int, si: int) -> int:
        # fusing index e(r) with x produces indices >= |e(r)-x|+1, so the
        # target x' is reachable only while e(r) <= x + x' - 1
        return idx2[fi][si] + idx1[fi][si] - 1

    return alg.summand_window(limit)


def frobenius_dim(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel) -> int:
    """dim Hom of the induced modules of base1 and base2."""
    cat = alg.base_category
    cat._require(base1)
    cat._require(base2)
    total = 0
    one = FusionElement.of(base1)
    for r in range(1, support_bound(alg, base1, base2) + 1):
        total += hom_dim(cat, one, cat.fusion_of(alg.summand(r), base2))
    return total
