"""Lazy infinite algebra objects in Deligne-pair completions.

An algebra object here is a rule r -> simple label (r = 1, 2, ...) whose
summands are pairs with affinely growing indices; it is never materialized.
`slots` lists one affine expression a*r + b (a >= 0) per index of a summand,
in the flat layout of `Pair.indices`, so slot i of summand r is index i of
the label.  The affine slots are what make every downstream sum provably
finite: a slot that grows past a fixed bound stays past it, so only the
summands up to `last_summand(tops)` can keep every slot within `tops`.
Restriction and Frobenius both read their windows from it.

The slots also give the label dictionary: the canonical base of selectors
v_1 .. v_k holds them in the constant slots and e(1) in each growing slot e;
it stands for the induced simple with indices v_1 .. v_k, as S(n,m) <-> Lk(n,1)%Lt(m,1).

An algebra also owns every per-algebra memo of the induction layer, all
declared in `AlgebraObject.__init__`: summands, both directions of the
induced-label dictionary, induced fusion, locality certificates, slice
families and truncated restrictions, each restriction held once with its
packed form, packed when it is computed.  Each memo caches a pure function
of its key and stores only a successful answer, so a refused argument
raises on every call.  A key argument that is not a `SimpleLabel`
never reads a memo, although a raw tuple equals the label with the same
entries: it takes the miss path, which refuses it.

`algebra_from_json` reads a summand rule from a document and checks each
factor's kind and index count against the label kinds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from limfuse._doc import expect, field, refuse
from limfuse.catdata.category import CategorySpec, category_by_name, named_category, parity_range, _load_category
from limfuse.catdata.labels import AffineVerma, Pair, SimpleLabel, VirasoroKp2, VirasoroT

_LABEL_KINDS = {
    "virasoro-t": VirasoroT,
    "virasoro-kp2": VirasoroKp2,
    "kl-sl2": AffineVerma,
}


@dataclass(frozen=True)
class AffineExpr:
    """a*r + b with a >= 0; the index of one label slot at summand r."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"index expression {self} decreases with r; expected a >= 0")

    def at(self, r: int) -> int:
        return self.a * r + self.b

    def __str__(self) -> str:
        if self.a == 0:
            return str(self.b)
        head = "r" if self.a == 1 else f"{self.a}*r"
        if self.b == 0:
            return head
        return f"{head}{'+' if self.b > 0 else ''}{self.b}"


_AFFINE_RE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?(r)?\s*([+-]\s*\d+)?\s*$")


def parse_affine(text: str) -> AffineExpr:
    text = str(text).strip()
    try:
        return AffineExpr(0, int(text))
    except ValueError:
        pass
    m = _AFFINE_RE.match(text)
    if not m or m.group(2) is None:
        raise ValueError(f"bad affine index expression: {text!r}")
    a = int(m.group(1)) if m.group(1) else 1
    b = int(m.group(3).replace(" ", "")) if m.group(3) else 0
    return AffineExpr(a, b)


@dataclass(frozen=True)
class FactorTemplate:
    """One tensor factor of the summand family: a label kind plus one affine
    expression per index slot."""

    kind: str
    indices: tuple[AffineExpr, ...]


class AlgebraObject:
    """Commutative-algebra datum: base category, summand rule, and (for the
    built-ins) the category of its local modules, with the label dictionary
    between canonical bases and induced simples read from the rule's slots."""

    def __init__(
        self,
        name: str,
        base_category: CategorySpec,
        factors: tuple[FactorTemplate, FactorTemplate],
        induced_category: Optional[CategorySpec] = None,
    ):
        self.name = name
        self.base_category = base_category
        self.factors = factors
        self.slots = factors[0].indices + factors[1].indices
        self._affine = tuple((e.a, e.b) for e in self.slots)  # (a, b) of each slot a*r + b
        # (position, a, b) of each growing slot a*r + b, for `last_summand`
        self._growing = tuple((k, e.a, e.b) for k, e in enumerate(self.slots) if e.a)
        # positions of the constant slots, which hold a canonical base's selectors
        self._constant = tuple(k for k, e in enumerate(self.slots) if not e.a)
        self.induced_category = induced_category
        # the per-algebra memos (see the module docstring)
        self._summands: dict[int, SimpleLabel] = {}
        self._induced_of: dict[SimpleLabel, SimpleLabel] = {}  # to_induced
        self._base_of: dict[SimpleLabel, SimpleLabel] = {}  # from_induced
        self._induced_fusion_cache: dict = {}  # fused.induced_fusion, per (base1, base2)
        self._locality_cache: dict = {}  # locality.locality, per base
        self._slice_cache: dict = {}  # induced.slice_family, per base
        self._restrict_cache: dict = {}  # fused.restrict_truncated, (element, packed, total) per (base, truncate)
        self._label_slots: dict[SimpleLabel, int] = {}  # the packing slot of each label
        if not self._growing:
            raise ValueError("summand rule must grow with r")
        if self.summand(1) != base_category.unit:
            raise ValueError(f"summand(1) = {self.summand(1)} is not the unit of {base_category.name}")
        if induced_category is not None and len(induced_category.unit.indices) != len(self._constant):
            raise ValueError(f"{induced_category.name} labels do not have one index per constant slot of {name}")

    def _label(self, flat: Sequence[int]) -> Pair:
        """The pair of the rule's factor kinds with flat indices `flat`."""
        (left, right), cut = self.factors, len(self.factors[0].indices)
        return Pair(_LABEL_KINDS[left.kind](*flat[:cut]), _LABEL_KINDS[right.kind](*flat[cut:]))

    def summand(self, r: int) -> SimpleLabel:
        """The r-th simple summand of the algebra, r >= 1.

        Memoized per r on the algebra, so each summand label is built and
        validated once; restriction, induction and Frobenius read the memo,
        while locality and slice families read the slots.
        """
        if r < 1:
            raise ValueError("summand index must be >= 1")
        hit = self._summands.get(r)
        if hit is None:
            hit = self._summands[r] = self._label([e.at(r) for e in self.slots])
        return hit

    def canonical_base(self, values: Sequence[int]) -> Pair:
        """The base with `values` in the constant slots, in slot order, and each growing slot at e(1)."""
        if len(values) != len(self._constant):
            raise ValueError(f"algebra {self.name} needs {len(self._constant)} index selector(s)")
        given = iter(values)
        return self._label([e.at(1) if e.a else next(given) for e in self.slots])

    def to_induced(self, base: SimpleLabel) -> SimpleLabel:
        """The induced simple of a canonical base, memoized per base."""
        hit = self._induced_of.get(base)
        if hit is None or not isinstance(base, SimpleLabel):
            label_type = self._induced_type()
            flat = base.indices if self.base_category.contains(base) else None
            if flat is None or any(flat[k] != a + b for k, a, b in self._growing):
                raise ValueError(f"{base} is not a canonical base of {self.name}")
            hit = self._induced_of[base] = label_type(*[flat[k] for k in self._constant])
        return hit

    def from_induced(self, label: SimpleLabel) -> SimpleLabel:
        """The canonical base of an induced simple, memoized per label."""
        hit = self._base_of.get(label)
        if hit is None or not isinstance(label, SimpleLabel):
            if not isinstance(label, self._induced_type()):
                raise ValueError(f"{label} is not a label of {self.induced_category.name}")
            hit = self._base_of[label] = self.canonical_base(label.indices)
        return hit

    def _induced_type(self) -> type:
        if self.induced_category is None:
            raise ValueError(f"{self.name} has no induced-label dictionary")
        return self.induced_category.label_type

    def r0(self, indices: Sequence[int]) -> int:
        """The first r >= 1 at which each growing slot a*r + b reaches its base index x."""
        return max(1, *(-((b - indices[k]) // a) for k, a, b in self._growing))

    def slice_indices(self, r: int, indices: Sequence[int]) -> list[tuple[int, ...]]:
        """The flat indices of slice r, summand(r) fused with the base of flat
        `indices`, in canonical label order: `fusion_of`'s parity range per slot."""
        return list(product(*[parity_range(a * r + b, x) for (a, b), x in zip(self._affine, indices)]))

    def last_summand(self, tops: Sequence[int]) -> int:
        """Largest r >= 0 at which every growing slot a*r + b is at most its
        entry t of `tops`, one entry per slot: min((t - b) // a), as a slot
        never shrinks."""
        if len(tops) != len(self.slots):
            raise ValueError(f"expected {len(self.slots)} slot tops, got {len(tops)}")
        return max(min([(tops[k] - b) // a for k, a, b in self._growing]), 0)


def svir_extension() -> AlgebraObject:
    """The super-Virasoro-times-fermion algebra: summand r is the pair of
    first-column simples (1, r) x (1, r)."""
    return AlgebraObject(
        name="svir-ext",
        base_category=category_by_name("deligne(virasoro-kp2,virasoro-t)"),
        factors=(
            FactorTemplate("virasoro-kp2", (AffineExpr(0, 1), AffineExpr(1, 0))),
            FactorTemplate("virasoro-t", (AffineExpr(0, 1), AffineExpr(1, 0))),
        ),
        induced_category=category_by_name("supervir"),
    )


def osp_extension() -> AlgebraObject:
    """The affine osp(1|2) algebra: summand r pairs the r-th Verma module
    with the (1, r) Virasoro simple."""
    return AlgebraObject(
        name="osp-ext",
        base_category=category_by_name("deligne(kl-sl2,virasoro-t)"),
        factors=(
            FactorTemplate("kl-sl2", (AffineExpr(1, 0),)),
            FactorTemplate("virasoro-t", (AffineExpr(0, 1), AffineExpr(1, 0))),
        ),
        induced_category=category_by_name("osp"),
    )


def _factor(f: dict, where: str) -> FactorTemplate:
    """The factor at `where` of a JSON summand rule, checked against the label kinds."""
    kinds = f"one of {', '.join(_LABEL_KINDS)}"
    if (kind := field(f, "kind", where, str, kinds)) not in _LABEL_KINDS:
        refuse(f"{where}.kind", kinds, kind)
    indices = field(f, "indices", where, list, "a list of index expressions")
    if len(indices) != (arity := len(category_by_name(kind).unit.indices)):
        refuse(f"{where}.indices", f"{arity} index expressions for {kind}", indices)
    return FactorTemplate(kind, tuple(_index(e, f"{where}.indices[{j}]") for j, e in enumerate(indices)))


def _index(text: object, where: str) -> AffineExpr:
    """The index expression at `where`, 1 at r = 1 so that summand(1) is the unit."""
    try:
        if (e := parse_affine(text)).at(1) == 1:
            return e
    except ValueError:  # no string or int of the form a*r+b
        pass
    refuse(where, "an index expression a*r+b with value 1 at r = 1", text)


_BUILTIN_ALGEBRAS = {"svir-ext": svir_extension, "osp-ext": osp_extension}


def algebra_by_name(name: str) -> AlgebraObject:
    if name not in _BUILTIN_ALGEBRAS:
        raise ValueError(f"unknown algebra {name!r}")
    return _BUILTIN_ALGEBRAS[name]()


def algebra_from_json(doc: dict) -> AlgebraObject:
    """Build an algebra from a builtin name or from {"name"?, "base_category":
    name or category document, "summand_rule": [{"kind": ..., "indices":
    [...]}, {"kind": ..., "indices": [...]}]}.  A malformed document is
    refused by the reader in `limfuse._doc`, with the path of the node at
    fault: `algebra.summand_rule[1]: expected an object, got 3`."""
    if isinstance(doc, str) and doc in _BUILTIN_ALGEBRAS:
        return algebra_by_name(doc)
    rule = field(expect(doc, "algebra", dict, "a name or an object"), "summand_rule", "algebra",
                 (list, tuple), "a list of two factors")
    if len(rule) != 2:
        refuse("algebra.summand_rule", "a list of two factors", rule)
    factors = tuple(_factor(f, f"algebra.summand_rule[{k}]") for k, f in enumerate(rule))
    if not any(e.a for f in factors for e in f.indices):
        refuse("algebra.summand_rule", "a rule with an index that grows with r", rule)
    base = field(doc, "base_category", "algebra", (str, dict), "a category name or an object")
    at = "algebra.base_category"
    cat = named_category(base, at) if isinstance(base, str) else _load_category(base, at)
    if cat.unit != (unit := Pair(*(category_by_name(f.kind).unit for f in factors))):
        refuse(at, f"a category with unit {unit}", base)
    name = expect(doc.get("name", "custom"), "algebra.name", str, "a string")
    return AlgebraObject(name, cat, factors)
