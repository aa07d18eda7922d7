"""Category specifications: weights and fusion rules of the built-in generic
families and their Deligne products.

Fusion throughout is the two-sided parity range: indices a and b fuse to
every index from |a-b|+1 to a+b-1 of the opposite parity of a+b, always with
multiplicity one.  The five generic families share one implementation,
`_IndexedCategory`, which reads a label's `indices` and applies the range
slot by slot.  Product categories fuse factor-wise with multiplicities
multiplying, and their weights live in a single aligned parameter.
Labels reject indices below 1, so a family is its label type: `contains` is
a type test, and the unit, every index 1, is always an object.

Every memo here is keyed by labels, and a raw tuple equals the label with
the same entries; a key argument that is not a `SimpleLabel` therefore never
reads a memo and is refused on the miss path, warm or cold.

Inside the engine a weight is a `WeightVec`, integer numerators over
(x, 1, 1/x, 1/(x+1)) in the category's formal variable x and one
denominator.  Each category has one weight formula over a label's flat
`indices`, `_weight_ints`, reduced once (a Deligne product adds its factors'
integers, aligned by the integer form of `via_t_of_s`); `weight_vec` reads
it on a memo miss, the induction layer on index tuples.  `WeightVec.format`
prints a weight.  `weight_of` returns it as a `RatFunc`, for callers outside
the engine: the view the memoized `WeightVec` builds once and keeps.
"""

from __future__ import annotations

from itertools import product, starmap

from limfuse._doc import expect, field, refuse
from limfuse.catdata.labels import (
    AffineVerma,
    ForeignLabel,
    OspMod,
    Pair,
    SimpleLabel,
    SuperVir,
    VirasoroKp2,
    VirasoroT,
)
from limfuse.catdata.params import (
    WeightVec,
    _ints,
    _vec,
    osp_vec,
    super_vec,
    verma_vec,
    via_kp2_of_s,
    via_t_of_s,
    virasoro_vec,
)
from limfuse.exact import RatFunc
from limfuse.fusion.element import FusionElement


def parity_range(a: int, b: int) -> range:
    """Indices reachable by fusing a with b: |a-b|+1 .. a+b-1, step 2."""
    return range(abs(a - b) + 1, a + b, 2)


class CategorySpec:
    """Common interface of the built-in category specifications: labels,
    memoized weights and memoized fusion."""

    name: str
    base_parameter: str  # formal-variable letter of the weights
    unit: SimpleLabel

    def __init__(self):
        # the memos of weight_vec and fusion_of, keyed by label and by label pair
        self._vec_cache: dict = {}
        self._fusion_cache: dict = {}

    def contains(self, x: SimpleLabel) -> bool:
        raise NotImplementedError

    def _weight_ints(self, indices: tuple[int, ...], vec=_ints):
        """The category's one weight formula at flat `indices`: its five
        integers (a, b, c, d, den) handed to `vec`, by default as they are."""
        raise NotImplementedError

    def _fusion_raw(self, x: SimpleLabel, y: SimpleLabel) -> FusionElement:
        raise NotImplementedError

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        """All labels with indices <= bound, in canonical order."""
        raise NotImplementedError

    def _require(self, x: SimpleLabel) -> None:
        if not self.contains(x):
            raise ForeignLabel(f"{x} is not an object of {self.name}")

    def weight_vec(self, x: SimpleLabel) -> WeightVec:
        cache = self._vec_cache
        hit = cache.get(x)
        if hit is None or not isinstance(x, SimpleLabel):
            self._require(x)
            hit = cache[x] = self._weight_ints(x.indices, _vec)
        return hit

    def weight_of(self, x: SimpleLabel) -> RatFunc:
        return self.weight_vec(x).to_ratfunc()

    def fusion_of(self, x: SimpleLabel, y: SimpleLabel) -> FusionElement:
        cache = self._fusion_cache
        hit = cache.get((x, y))
        if hit is None or not (isinstance(x, SimpleLabel) and isinstance(y, SimpleLabel)):
            self._require(x)
            self._require(y)
            hit = cache[(x, y)] = self._fusion_raw(x, y)
        return hit


class _IndexedCategory(CategorySpec):
    """Shared machinery of the families whose labels are tuples of indices:
    fusion applies the parity range slot by slot."""

    label_type: type

    def contains(self, x: SimpleLabel) -> bool:
        return isinstance(x, self.label_type)

    def _fusion_raw(self, x, y) -> FusionElement:
        # ascending ranges give ascending index tuples, which is label order
        slots = [parity_range(a, b) for a, b in zip(x.indices, y.indices)]
        return FusionElement._canonical(dict.fromkeys(starmap(self.label_type, product(*slots)), 1))

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        out = []
        span = range(1, bound + 1)
        for c in product(span, repeat=len(self.unit.indices)):
            try:
                out.append(self.label_type(*c))
            except ValueError:
                continue
        return out


class VirasoroTCategory(_IndexedCategory):
    """Simple modules of the generic Virasoro algebra, parametrized by t."""

    name = "virasoro-t"
    base_parameter = "t"
    unit = VirasoroT(1, 1)
    label_type = VirasoroT

    def _weight_ints(self, indices, vec=_ints):
        return virasoro_vec(*indices, vec)


class VirasoroKp2Category(_IndexedCategory):
    """Same family at the shifted affine level; weights are pushed through
    k+2 = (s+1)/2 so they live in the s-parameter directly."""

    name = "virasoro-kp2"
    base_parameter = "s"
    unit = VirasoroKp2(1, 1)
    label_type = VirasoroKp2

    def _weight_ints(self, indices, vec=_ints):
        return via_kp2_of_s(virasoro_vec(*indices, _ints), vec)


class SuperVirCategory(_IndexedCategory):
    """Simple modules of the N=1 super Virasoro algebra at generic parameter."""

    name = "supervir"
    base_parameter = "s"
    unit = SuperVir(1, 1)
    label_type = SuperVir

    def _weight_ints(self, indices, vec=_ints):
        return super_vec(*indices, vec)


class KLCategory(_IndexedCategory):
    """Generalized Verma modules of affine sl2 at generic level, fused by the
    same parity-range rule as the first Virasoro index."""

    name = "kl-sl2"
    base_parameter = "s"
    unit = AffineVerma(1)
    label_type = AffineVerma

    def _weight_ints(self, indices, vec=_ints):
        return verma_vec(*indices, vec)


class OspCategory(_IndexedCategory):
    """Simple local modules of affine osp(1|2) at generic level."""

    name = "osp"
    base_parameter = "s"
    unit = OspMod(1)
    label_type = OspMod

    def _weight_ints(self, indices, vec=_ints):
        return osp_vec(*indices, vec)


class DeligneCategory(CategorySpec):
    """Product of two specifications; simples are pairs of factor simples.

    Weights add after alignment into a single formal parameter: a t-parameter
    factor is reparametrized through t = (s+1)/(2s) when paired with an
    s-parameter factor.
    """

    def __init__(self, left: CategorySpec, right: CategorySpec):
        super().__init__()
        self.left = left
        self.right = right
        self.name = f"deligne({left.name},{right.name})"
        params = {left.base_parameter, right.base_parameter}
        if params <= {"s"} or params <= {"t"}:
            self.base_parameter = left.base_parameter
            self._convert = {}
        elif params == {"s", "t"}:
            self.base_parameter = "s"
            self._convert = {"t": via_t_of_s}
        else:
            raise ValueError(f"cannot align parameters {params}")
        self.unit = Pair(left.unit, right.unit)
        self._cut = len(left.unit.indices)  # the left factor's share of the flat indices

    def contains(self, x: SimpleLabel) -> bool:
        return isinstance(x, Pair) and self.left.contains(x.left) and self.right.contains(x.right)

    def _aligned(self, factor: CategorySpec, indices: tuple[int, ...]) -> tuple[int, ...]:
        w = factor._weight_ints(indices)
        conv = self._convert.get(factor.base_parameter)
        return conv(w, _ints) if conv is not None else w

    def _weight_ints(self, indices, vec=_ints):
        cut = self._cut
        a, b, c, d, n = self._aligned(self.left, indices[:cut])
        e, f, g, h, m = self._aligned(self.right, indices[cut:])
        return vec(a * m + e * n, b * m + f * n, c * m + g * n, d * m + h * n, n * m)

    def _fusion_raw(self, x: Pair, y: Pair) -> FusionElement:
        lf = self.left.fusion_of(x.left, y.left)
        rf = self.right.fusion_of(x.right, y.right)
        # a pair sorts as (5, left, right), so sorted factors give sorted pairs
        return FusionElement._canonical({Pair(a, b): ma * mb for a, ma in lf for b, mb in rf})

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        return [
            Pair(a, b)
            for a in self.left.labels_up_to(bound)
            for b in self.right.labels_up_to(bound)
        ]


_BUILTINS = {
    "virasoro-t": VirasoroTCategory,
    "virasoro-kp2": VirasoroKp2Category,
    "kl-sl2": KLCategory,
    "supervir": SuperVirCategory,
    "osp": OspCategory,
}


def category_by_name(name: str) -> CategorySpec:
    """Resolve a built-in name, including nested deligne(a,b) forms."""
    name = name.strip()
    if name.startswith("deligne(") and name.endswith(")"):
        inner = name[len("deligne(") : -1]
        depth = 0
        for k, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                return DeligneCategory(category_by_name(inner[:k]), category_by_name(inner[k + 1 :]))
        raise ValueError(f"deligne needs two factor names: {name!r}")
    if name not in _BUILTINS:
        raise ValueError(f"unknown category {name!r}")
    return _BUILTINS[name]()


def named_category(name: str, where: str) -> CategorySpec:
    """`category_by_name(name)`, refused at `where` when it names no category."""
    try:
        return category_by_name(name)
    except ValueError:
        refuse(where, "a built-in category name", name)


def load_category(doc: dict) -> CategorySpec:
    """Build a specification from {"name"?, "base_parameter"?, "families":
    [...]}, each family a built-in name or {"kind": name, "min_index"?: 1};
    two families combine as their Deligne product.  A malformed document is
    refused by the reader in `limfuse._doc`, with the path of the node at
    fault: `category.families[0].kind: expected a category name, got 5`."""
    return _load_category(doc, "category")


def _load_category(doc: dict, where: str) -> CategorySpec:
    """`load_category` of the document at `where`, so an algebra document's
    inline category reports its paths under `algebra.base_category`."""
    families = field(doc, "families", where, (list, tuple), "a list of category names or objects")
    if not families:
        refuse(f"{where}.families", "at least one family", families)
    parts = []
    for k, fam in enumerate(families):
        at = f"{where}.families[{k}]"
        if not isinstance(fam, str):
            kind = field(expect(fam, at, dict, "a category name or an object"), "kind", at, str, "a category name")
            start = "1, where labels and the unit start"
            if expect(first := fam.get("min_index", 1), f"{at}.min_index", int, start) != 1:
                refuse(f"{at}.min_index", start, first)
            fam, at = kind, f"{at}.kind"
        parts.append(named_category(fam, at))
    cat = parts[0]
    for nxt in parts[1:]:
        cat = DeligneCategory(cat, nxt)
    declared = doc.get("base_parameter")
    if declared is not None and declared != cat.base_parameter:
        refuse(f"{where}.base_parameter", repr(cat.base_parameter), declared)
    cat.name = expect(doc.get("name", cat.name), f"{where}.name", str, "a string")
    return cat
