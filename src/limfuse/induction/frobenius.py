"""Hom-space dimensions between induced modules via restriction.

The dimension of Hom between modules induced from two base simples equals
the multiplicity of the first base in the fusion of the algebra with the
second.  The sum over algebra summands has finite support: fusing a slot
index e(r) with x gives indices >= e(r) - x + 1, so the target index x' is
reachable only while e(r) <= x + x' - 1.  `AlgebraObject.last_summand` turns
those per-slot tops into the last summand that can contribute, so the sum is
exact, not truncated.
"""

from __future__ import annotations

from limfuse.catdata.labels import SimpleLabel
from limfuse.induction.algebra import AlgebraObject


def frobenius_dim(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel) -> int:
    """dim Hom of the induced modules of base1 and base2."""
    cat = alg.base_category
    cat._require(base1)
    cat._require(base2)
    r_max = alg.last_summand([a + b - 1 for a, b in zip(base1.indices, base2.indices)])
    return sum(cat.fusion_of(alg.summand(r), base2).mult(base1) for r in range(1, r_max + 1))
