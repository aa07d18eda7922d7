"""Fusion of induced modules and the independent restriction oracle.

Induction is monoidal, so fusing two induced modules amounts to fusing their
bases and inducing the result; `induced_fusion` computes exactly that and
relabels every summand as a simple of the induced category through the
algebra's memoized label dictionary.  Its answer is memoized per
(base1, base2) on the algebra, the key `CategorySpec.fusion_of` uses for base
fusion; an entry is stored only after both bases pass the locality check, so
a non-local or foreign base is refused on every call.

`restriction_oracle_check` verifies the induced category's own fusion rule
against that identity through two independent routes: the rule instantiated
directly on induced labels followed by restriction, versus the restriction
of the base fusion of the two bases.  The two sides share only the base
fusion primitive, so a wrong range, parity or multiplicity in the induced
rule shows up as a mismatch.

`restrict_truncated` reads its summand window from
`AlgebraObject.last_summand` and is memoized per (base, truncate) on the
algebra, so a session restricts each base once and both routes read the same
memo.  That keeps the routes independent: the memo caches a pure function of
its key, computed from the base fusion, while the routes still differ in
which bases they ask for and with which multiplicities, the induced-category
rule on one side and the base fusion on the other.

The oracle compares packed integers, not multiplicity maps.  Each
restriction is packed when it is computed, into one int holding the
multiplicity of label z at bit offset _WIDTH * slot(z), slots numbered per
algebra on first sight, and the one memo keeps it next to the element and
its total multiplicity; a side is then sum(mult * packed).  Every
slot of a side holds at most the side's total, so while both totals are
below 2**_WIDTH no slot carries into the next, each side is the base-2**_WIDTH
expansion of its multiplicities, and one int comparison decides equality.
A side at or above that bound is refused with ValueError, never compared.
Route one reads the algebra's memoized label dictionary in both directions,
so a warm check builds no label.  The verdict itself is never memoized: a
cached verdict would make a warm check verify nothing.
"""

from __future__ import annotations

from limfuse.catdata.labels import SimpleLabel
from limfuse.fusion.element import FusionElement
from limfuse.induction.algebra import AlgebraObject
from limfuse.induction.induced import _check_truncate
from limfuse.induction.locality import locality


class NotLocal(ValueError):
    """Operation requires local modules and a base failed the check."""


def _require_local(alg: AlgebraObject, base: SimpleLabel) -> None:
    cert = locality(alg, base)
    if not cert.is_local:
        raise NotLocal(f"{base} induces a non-local module ({cert.verdict})")


def induced_fusion(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel) -> FusionElement:
    """Fusion of the two induced modules, expressed in induced labels;
    memoized per (base1, base2) on the algebra once both bases are local."""
    hit = alg._induced_fusion_cache.get((base1, base2))
    if hit is None or not (isinstance(base1, SimpleLabel) and isinstance(base2, SimpleLabel)):
        _require_local(alg, base1)
        _require_local(alg, base2)
        product = alg.base_category.fusion_of(base1, base2)
        hit = FusionElement([(alg.to_induced(z), m) for z, m in product])
        alg._induced_fusion_cache[(base1, base2)] = hit
    return hit


def restrict_truncated(alg: AlgebraObject, base: SimpleLabel, truncate: int) -> FusionElement:
    """Restriction of the module induced from `base`, complete on every label
    with all indices <= truncate, for an int truncate >= 1.

    A slot index e(r) fused with x gives indices >= e(r) - x + 1, so no
    summand beyond the window with tops truncate + x - 1 reaches the
    truncation, and the loop bound loses nothing.  The result is memoized
    per (base, truncate) on the algebra; the first call validates `base`,
    and a base that is not a label is validated, and refused, on every call.
    """
    _check_truncate(truncate)
    hit = alg._restrict_cache.get((base, truncate))
    if hit is None or not isinstance(base, SimpleLabel):
        hit = alg._restrict_cache[(base, truncate)] = _restrict(alg, base, truncate)
    return hit[0]


# bits per label slot of a packed restriction
_WIDTH = 32


def _restrict(alg: AlgebraObject, base: SimpleLabel, truncate: int) -> tuple[FusionElement, int, int]:
    """The restriction as an element, the same packed at the algebra's label
    slots, and its total multiplicity."""
    cat = alg.base_category
    cat._require(base)
    acc: dict[SimpleLabel, int] = {}
    for r in range(1, alg.last_summand([truncate + x - 1 for x in base.indices]) + 1):
        for z, m in cat.fusion_of(alg.summand(r), base):
            if max(z.indices) <= truncate:
                acc[z] = acc.get(z, 0) + m
    slots = alg._label_slots
    packed = sum(m << _WIDTH * slots.setdefault(z, len(slots)) for z, m in acc.items())
    return FusionElement(acc), packed, sum(acc.values())


def _packed_side(alg: AlgebraObject, terms, truncate: int) -> int:
    """sum(mult * packed restriction of base) over the (base, mult) terms,
    read from the memo of `restrict_truncated`; ValueError when the side's
    total multiplicity reaches 2**_WIDTH."""
    cache = alg._restrict_cache
    packed = total = 0
    for base, mult in terms:
        hit = cache.get((base, truncate))
        if hit is None:
            restrict_truncated(alg, base, truncate)
            hit = cache[(base, truncate)]
        packed += mult * hit[1]
        total += mult * hit[2]
    if total >> _WIDTH:
        raise ValueError(f"restriction total {total} does not fit {_WIDTH}-bit label slots")
    return packed


def _packed_sides(alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel, truncate: int) -> tuple[int, int]:
    """The two routes of `restriction_oracle_check`, each side packed."""
    _require_local(alg, base1)
    _require_local(alg, base2)
    if alg.induced_category is None:
        raise ValueError(f"{alg.name} has no induced category to check against")
    _check_truncate(truncate)
    # route one: induced-label rule, then restriction
    prod_ind = alg.induced_category.fusion_of(alg.to_induced(base1), alg.to_induced(base2))
    rule_side = _packed_side(alg, [(alg.from_induced(s), m) for s, m in prod_ind], truncate)
    # route two: restriction of the base fusion of the two bases
    monoidal_side = _packed_side(alg, alg.base_category.fusion_of(base1, base2), truncate)
    return rule_side, monoidal_side


def restriction_oracle_check(
    alg: AlgebraObject, base1: SimpleLabel, base2: SimpleLabel, truncate: int
) -> bool:
    """Compare two computations of the restriction of the fused induced
    modules, multiplicity by multiplicity up to the index truncation.

    Route one instantiates the induced category's fusion rule on the induced
    labels and restricts each resulting simple; route two restricts the
    induction of the base-category product, `fusion_of(base1, base2)`, the
    ring product of two simples.  Monoidality of induction says they must
    agree.  Each side is one packed int (see the module docstring): while
    both side totals are below 2**_WIDTH the packing is injective, so the
    ints are equal exactly when the multiplicity maps are; a larger side
    raises ValueError.
    """
    rule_side, monoidal_side = _packed_sides(alg, base1, base2, truncate)
    return rule_side == monoidal_side
