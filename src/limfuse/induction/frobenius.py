"""Hom-space dimensions between induced modules, counted on the index box.

The dimension of Hom between modules induced from two base simples equals
the multiplicity of the first base in the fusion of the algebra with the
second: the number of summands r >= 1 whose slice from the second base
holds the first.  Slot by slot, with u and v the two bases' indices and
e = a*r + b the slot, u lies in the parity range of e and v exactly when
|u-v| < e < u+v and e+u+v is odd.  A constant slot passes or fails that
test for every r; a growing slot passes on an interval of r, and for odd a
on one parity of r.  The dimension is the count of r in the intersection,
in closed form: no summand label, fusion product or window is read.
"""

from __future__ import annotations

from math import inf

from limfuse.catdata.labels import SimpleLabel
from limfuse.induction.algebra import AlgebraObject


def frobenius_dim(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel) -> int:
    """dim Hom of the induced modules of base1 and base2."""
    cat = alg.base_category
    cat._require(base1)
    cat._require(base2)
    lo, hi, parity = 1, inf, None  # the r in [lo, hi] with r % 2 == parity pass every slot
    for (a, b), u, v in zip(alg._affine, base1.indices, base2.indices):
        low, top = abs(u - v) - b, u + v - 1 - b  # a*r must lie in (low, top]
        if a % 2:
            if parity not in (None, p := (b + u + v + 1) % 2):
                return 0
            parity = p
        elif (b + u + v) % 2 == 0:
            return 0
        if a:
            lo, hi = max(lo, low // a + 1), min(hi, top // a)
        elif not low < 0 <= top:
            return 0
    if parity is not None:
        lo += (lo - parity) % 2
    return 0 if hi < lo else (hi - lo) // (1 if parity is None else 2) + 1
