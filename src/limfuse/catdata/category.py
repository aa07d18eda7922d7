"""Category specifications: weights, parities, fusion rules, and the
extension-setup checklist for the built-in generic families.

Fusion throughout is the two-sided parity range: indices a and b fuse to
every index from |a-b|+1 to a+b-1 of the opposite parity of a+b, always with
multiplicity one.  Product categories fuse factor-wise with multiplicities
multiplying, and their weights live in a single aligned parameter.

Inside the engine a weight is a `WeightVec`, its coordinates over
(x, 1, 1/x, 1/(x+1)) in the category's formal variable x; `weight_vec`
computes and caches it.  `weight_of` returns the same weight as a `RatFunc`,
converted once per label and cached, for output and for callers outside the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    osp_vec,
    super_vec,
    verma_vec,
    via_kp2_of_s,
    via_t_of_s,
    virasoro_vec,
)
from limfuse.exact import RatFunc
from limfuse.fusion.element import FusionElement

EVEN, ODD = 0, 1


def parity_range(a: int, b: int) -> range:
    """Indices reachable by fusing a with b: |a-b|+1 .. a+b-1, step 2."""
    return range(abs(a - b) + 1, a + b, 2)


@dataclass(frozen=True)
class ChecklistItem:
    key: str
    description: str
    satisfied: bool
    justification: str


_CHECKLIST_TEXT = {
    "unit-object": "the base algebra is a simple object of the category with weight zero",
    "closed-sub-quot-sum": "the category is closed under submodules, quotients, and finite direct sums",
    "finitely-generated": "every object of the category is finitely generated",
    "braided-tensor": "the category carries braided tensor structure with a weight twist",
    "fusion-image": "fusion images of category objects inside completed objects stay in the category",
}


class CategorySpec:
    """Common interface of the built-in ribbon category specifications."""

    name: str
    base_parameter: str  # formal-variable letter of the weights
    unit: SimpleLabel

    def contains(self, x: SimpleLabel) -> bool:
        raise NotImplementedError

    def _weight_raw(self, x: SimpleLabel) -> WeightVec:
        raise NotImplementedError

    def _fusion_raw(self, x: SimpleLabel, y: SimpleLabel) -> FusionElement:
        raise NotImplementedError

    def parity_of(self, x: SimpleLabel) -> int:
        self._require(x)
        return self._parity_raw(x)

    def _parity_raw(self, x: SimpleLabel) -> int:
        return EVEN

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        """All labels with indices <= bound, in canonical order."""
        raise NotImplementedError

    # metadata for the extension-setup checklist; built-ins satisfy all of it
    closed_under_subquotients = True
    finitely_generated = True
    braided_tensor = True
    fusion_image_condition = True
    checklist_note = "generic-parameter semisimple family"

    def _require(self, x: SimpleLabel) -> None:
        if not self.contains(x):
            raise ForeignLabel(f"{x} is not an object of {self.name}")

    def weight_vec(self, x: SimpleLabel) -> WeightVec:
        cache = self.__dict__.setdefault("_vec_cache", {})
        hit = cache.get(x)
        if hit is None:
            self._require(x)
            hit = cache[x] = self._weight_raw(x)
        return hit

    def weight_of(self, x: SimpleLabel) -> RatFunc:
        cache = self.__dict__.setdefault("_weight_cache", {})
        hit = cache.get(x)
        if hit is None:
            hit = cache[x] = self.weight_vec(x).to_ratfunc()
        return hit

    def fusion_of(self, x: SimpleLabel, y: SimpleLabel) -> FusionElement:
        cache = self.__dict__.setdefault("_fusion_cache", {})
        hit = cache.get((x, y))
        if hit is None:
            self._require(x)
            self._require(y)
            hit = cache[(x, y)] = self._fusion_raw(x, y)
        return hit

    def twist_exponent(self, x: SimpleLabel) -> tuple[RatFunc, int]:
        """Exponent of the ribbon twist on x (its weight) plus the parity flag."""
        return self.weight_of(x), self._parity_raw(x)

    def checklist(self) -> tuple[ChecklistItem, ...]:
        try:
            unit_ok = (
                self.contains(self.unit)
                and self._weight_raw(self.unit).as_constant() == 0
                and self._fusion_raw(self.unit, self.unit) == FusionElement.of(self.unit)
            )
        except ForeignLabel:
            unit_ok = False
        note = self.checklist_note
        return (
            ChecklistItem("unit-object", _CHECKLIST_TEXT["unit-object"], unit_ok,
                          note if unit_ok else "unit missing or of nonzero weight"),
            ChecklistItem("closed-sub-quot-sum", _CHECKLIST_TEXT["closed-sub-quot-sum"],
                          self.closed_under_subquotients, note),
            ChecklistItem("finitely-generated", _CHECKLIST_TEXT["finitely-generated"],
                          self.finitely_generated, note),
            ChecklistItem("braided-tensor", _CHECKLIST_TEXT["braided-tensor"],
                          self.braided_tensor, note),
            ChecklistItem("fusion-image", _CHECKLIST_TEXT["fusion-image"],
                          self.fusion_image_condition, note),
        )


class _DoubleIndexCategory(CategorySpec):
    """Shared machinery of the two-index families."""

    label_type: type
    min_index: int = 1

    def __init__(self, min_index: int = 1):
        self.min_index = min_index

    def contains(self, x: SimpleLabel) -> bool:
        return isinstance(x, self.label_type) and min(self._indices(x)) >= self.min_index

    @staticmethod
    def _indices(x: SimpleLabel) -> tuple[int, int]:
        raise NotImplementedError

    def _fusion_raw(self, x, y) -> FusionElement:
        a1, a2 = self._indices(x)
        b1, b2 = self._indices(y)
        return FusionElement(
            [(self._make(c1, c2), 1) for c1 in parity_range(a1, b1) for c2 in parity_range(a2, b2)]
        )

    def _make(self, i1: int, i2: int) -> SimpleLabel:
        return self.label_type(i1, i2)

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        out = []
        for i1 in range(self.min_index, bound + 1):
            for i2 in range(self.min_index, bound + 1):
                try:
                    out.append(self._make(i1, i2))
                except ValueError:
                    continue
        return out


class VirasoroTCategory(_DoubleIndexCategory):
    """Simple modules of the generic Virasoro algebra, parametrized by t."""

    name = "virasoro-t"
    base_parameter = "t"
    unit = VirasoroT(1, 1)
    label_type = VirasoroT

    @staticmethod
    def _indices(x: VirasoroT) -> tuple[int, int]:
        return (x.r, x.s)

    def _weight_raw(self, x: VirasoroT) -> WeightVec:
        return virasoro_vec(x.r, x.s)


class VirasoroKp2Category(_DoubleIndexCategory):
    """Same family at the shifted affine level; weights are pushed through
    k+2 = (s+1)/2 so they live in the s-parameter directly."""

    name = "virasoro-kp2"
    base_parameter = "s"
    unit = VirasoroKp2(1, 1)
    label_type = VirasoroKp2

    @staticmethod
    def _indices(x: VirasoroKp2) -> tuple[int, int]:
        return (x.r, x.s)

    def _weight_raw(self, x: VirasoroKp2) -> WeightVec:
        return via_kp2_of_s(virasoro_vec(x.r, x.s))


class SuperVirCategory(_DoubleIndexCategory):
    """Simple modules of the N=1 super Virasoro algebra at generic parameter."""

    name = "supervir"
    base_parameter = "s"
    unit = SuperVir(1, 1)
    label_type = SuperVir
    checklist_note = "semisimple image of induction from the even-sum Deligne pairs"

    @staticmethod
    def _indices(x: SuperVir) -> tuple[int, int]:
        return (x.n, x.m)

    def _weight_raw(self, x: SuperVir) -> WeightVec:
        return super_vec(x.n, x.m)

    def _parity_raw(self, x: SuperVir) -> int:
        return ((x.n + x.m) // 2 - 1) % 2


class _SingleIndexCategory(CategorySpec):
    label_type: type
    min_index: int = 1

    def __init__(self, min_index: int = 1):
        self.min_index = min_index

    def contains(self, x: SimpleLabel) -> bool:
        return isinstance(x, self.label_type) and self._index(x) >= self.min_index

    @staticmethod
    def _index(x: SimpleLabel) -> int:
        raise NotImplementedError

    def _fusion_raw(self, x, y) -> FusionElement:
        a, b = self._index(x), self._index(y)
        out = []
        for c in parity_range(a, b):
            try:
                out.append((self.label_type(c), 1))
            except ValueError:
                continue
        return FusionElement(out)

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        out = []
        for k in range(self.min_index, bound + 1):
            try:
                out.append(self.label_type(k))
            except ValueError:
                continue
        return out


class KLCategory(_SingleIndexCategory):
    """Generalized Verma modules of affine sl2 at generic level, fused by the
    same parity-range rule as the first Virasoro index."""

    name = "kl-sl2"
    base_parameter = "s"
    unit = AffineVerma(1)
    label_type = AffineVerma

    @staticmethod
    def _index(x: AffineVerma) -> int:
        return x.r

    def _weight_raw(self, x: AffineVerma) -> WeightVec:
        return verma_vec(x.r)


class OspCategory(_SingleIndexCategory):
    """Simple local modules of affine osp(1|2) at generic level."""

    name = "osp"
    base_parameter = "s"
    unit = OspMod(1)
    label_type = OspMod
    checklist_note = "semisimple image of induction from the odd-index chain"

    @staticmethod
    def _index(x: OspMod) -> int:
        return x.n

    def _weight_raw(self, x: OspMod) -> WeightVec:
        return osp_vec(x.n)

    def _parity_raw(self, x: OspMod) -> int:
        return ((x.n - 1) // 2) % 2


class DeligneCategory(CategorySpec):
    """Product of two specifications; simples are pairs of factor simples.

    Weights add after alignment into a single formal parameter: a t-parameter
    factor is reparametrized through t = (s+1)/(2s) when paired with an
    s-parameter factor.
    """

    def __init__(self, left: CategorySpec, right: CategorySpec):
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
        self.checklist_note = f"product of {left.name} and {right.name}"
        self.closed_under_subquotients = left.closed_under_subquotients and right.closed_under_subquotients
        self.finitely_generated = left.finitely_generated and right.finitely_generated
        self.braided_tensor = left.braided_tensor and right.braided_tensor
        self.fusion_image_condition = left.fusion_image_condition and right.fusion_image_condition

    def contains(self, x: SimpleLabel) -> bool:
        return isinstance(x, Pair) and self.left.contains(x.left) and self.right.contains(x.right)

    def _aligned(self, factor: CategorySpec, w: WeightVec) -> WeightVec:
        conv = self._convert.get(factor.base_parameter)
        return conv(w) if conv is not None else w

    def _weight_raw(self, x: Pair) -> WeightVec:
        return self._aligned(self.left, self.left.weight_vec(x.left)) + self._aligned(
            self.right, self.right.weight_vec(x.right)
        )

    def _parity_raw(self, x: Pair) -> int:
        return (self.left._parity_raw(x.left) + self.right._parity_raw(x.right)) % 2

    def _fusion_raw(self, x: Pair, y: Pair) -> FusionElement:
        lf = self.left.fusion_of(x.left, y.left)
        rf = self.right.fusion_of(x.right, y.right)
        return FusionElement(
            [(Pair(a, b), ma * mb) for a, ma in lf for b, mb in rf]
        )

    def labels_up_to(self, bound: int) -> list[SimpleLabel]:
        return [
            Pair(a, b)
            for a in self.left.labels_up_to(bound)
            for b in self.right.labels_up_to(bound)
        ]


def checklist_report(cat: CategorySpec) -> tuple[ChecklistItem, ...]:
    """The five extension-setup conditions of a specification, annotated."""
    return cat.checklist()


_BUILTINS = {
    "virasoro-t": VirasoroTCategory,
    "virasoro-kp2": VirasoroKp2Category,
    "kl-sl2": KLCategory,
    "supervir": SuperVirCategory,
    "osp": OspCategory,
}


def category_by_name(name: str, min_index: int = 1) -> CategorySpec:
    """Resolve a built-in name, including nested deligne(a,b) forms."""
    name = name.strip()
    if name.startswith("deligne(") and name.endswith(")"):
        inner = name[len("deligne(") : -1]
        depth = 0
        for k, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                return DeligneCategory(
                    category_by_name(inner[:k], min_index),
                    category_by_name(inner[k + 1 :], min_index),
                )
        raise ValueError(f"deligne needs two factor names: {name!r}")
    if name not in _BUILTINS:
        raise ValueError(f"unknown category {name!r}")
    return _BUILTINS[name](min_index=min_index)


def load_category(doc: dict) -> CategorySpec:
    """Build a specification from {"name", "base_parameter"?, "families": [...]}.

    Each family entry is a built-in name or {"kind": name, "min_index": k};
    two families combine as their Deligne product.
    """
    families = doc.get("families", [])
    if not families:
        raise ValueError("category document needs at least one family")
    parts = []
    for fam in families:
        if isinstance(fam, str):
            parts.append(category_by_name(fam))
        else:
            parts.append(category_by_name(fam["kind"], min_index=fam.get("min_index", 1)))
    cat = parts[0]
    for nxt in parts[1:]:
        cat = DeligneCategory(cat, nxt)
    declared = doc.get("base_parameter")
    if declared is not None and declared != cat.base_parameter:
        raise ValueError(
            f"declared base parameter {declared!r} disagrees with {cat.base_parameter!r}"
        )
    if "name" in doc:
        cat.name = doc["name"]
    return cat
