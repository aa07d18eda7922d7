"""Fusion of induced modules and the independent restriction oracle.

Induction is monoidal, so fusing two induced modules amounts to fusing their
bases and inducing the result; `induced_fusion` computes exactly that and
relabels every summand as a simple of the induced category.

`restriction_oracle_check` verifies the induced category's own fusion rule
against that identity through two independent routes: the rule instantiated
directly on induced labels followed by restriction, versus the algebra fused
against the base-category product.  The two sides share only the base
fusion primitive, so a wrong range or parity in the induced rule shows up as
a multiplicity mismatch.

`restrict_truncated` reads its summand window from
`AlgebraObject.last_summand` and is memoized per (base, truncate) on the
algebra, so a session restricts each base once and both routes read the same
memo.  That keeps the routes independent: the memo caches a pure function of
its key, computed from the base fusion, while the routes still differ in
which bases they ask for and with which multiplicities, the induced-category
rule on one side and `ring_mul` on the other.
"""

from __future__ import annotations

from limfuse.catdata.labels import SimpleLabel
from limfuse.fusion.element import FusionElement
from limfuse.fusion.ring import ring_mul
from limfuse.induction.algebra import AlgebraObject
from limfuse.induction.locality import locality


class NotLocal(ValueError):
    """Operation requires local modules and a base failed the check."""


def _require_local(alg: AlgebraObject, base: SimpleLabel) -> None:
    cert = locality(alg, base)
    if not cert.is_local:
        raise NotLocal(f"{base} induces a non-local module ({cert.verdict})")


def induced_fusion(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel) -> FusionElement:
    """Fusion of the two induced modules, expressed in induced labels."""
    _require_local(alg, base1)
    _require_local(alg, base2)
    product = alg.base_category.fusion_of(base1, base2)
    return FusionElement([(alg.to_induced(z), m) for z, m in product])


def restrict_truncated(alg: AlgebraObject, base: SimpleLabel, truncate: int) -> FusionElement:
    """Restriction of the module induced from `base`, complete on every label
    with all indices <= truncate, for truncate >= 1.

    A slot index e(r) fused with x gives indices >= e(r) - x + 1, so no
    summand beyond the window with tops truncate + x - 1 reaches the
    truncation, and the loop bound loses nothing.  The result is memoized
    per (base, truncate) on the algebra; the first call validates `base`.
    """
    if truncate < 1:
        raise ValueError("truncate must be >= 1")
    cache = alg.__dict__.setdefault("_restrict_cache", {})
    hit = cache.get((base, truncate))
    if hit is None:
        hit = cache[(base, truncate)] = _restrict(alg, base, truncate)
    return hit


def _restrict(alg: AlgebraObject, base: SimpleLabel, truncate: int) -> FusionElement:
    cat = alg.base_category
    cat._require(base)
    acc: dict[SimpleLabel, int] = {}
    for r in range(1, alg.last_summand([truncate + x - 1 for x in base.indices]) + 1):
        for z, m in cat.fusion_of(alg.summand(r), base):
            if max(z.indices) <= truncate:
                acc[z] = acc.get(z, 0) + m
    return FusionElement(acc)


def _add_scaled(acc: dict[SimpleLabel, int], elem: FusionElement, k: int) -> None:
    for z, m in elem:
        acc[z] = acc.get(z, 0) + k * m


def restriction_oracle_check(
    alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel, truncate: int
) -> bool:
    """Compare two computations of the restriction of the fused induced
    modules, multiplicity by multiplicity up to the index truncation.

    Route one instantiates the induced category's fusion rule on the induced
    labels and restricts each resulting simple; route two restricts the
    induction of the base-category product directly.  Monoidality of
    induction says they must agree.  Both routes accumulate into plain
    multiplicity maps, which compare equal exactly when the elements would.
    """
    _require_local(alg, base1)
    _require_local(alg, base2)
    if alg.induced_category is None:
        raise ValueError(f"{alg.name} has no induced category to check against")

    # route one: induced-label rule, then restriction
    rule_side: dict[SimpleLabel, int] = {}
    prod_ind = alg.induced_category.fusion_of(alg.to_induced(base1), alg.to_induced(base2))
    for s_label, mult in prod_ind:
        _add_scaled(rule_side, restrict_truncated(alg, alg.from_induced(s_label), truncate), mult)

    # route two: restriction of the induced base-category product
    base_prod = ring_mul(alg.base_category, FusionElement.of(base1), FusionElement.of(base2))
    monoidal_side: dict[SimpleLabel, int] = {}
    for z, mult in base_prod:
        _add_scaled(monoidal_side, restrict_truncated(alg, z, truncate), mult)

    return rule_side == monoidal_side
