"""Formal non-negative-integer combinations of simple labels."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from limfuse.catdata.labels import SimpleLabel


class FusionElement:
    """Finite multiplicity map from labels to positive integers.

    Zero multiplicities are never stored; iteration order is the canonical
    label order, so equal elements print identically.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[SimpleLabel, int] | Iterable[tuple[SimpleLabel, int]] = ()):
        if isinstance(terms, (dict, Mapping)):
            terms = terms.items()
        acc: dict[SimpleLabel, int] = {}
        for label, mult in terms:
            if not isinstance(mult, int) or mult < 0:
                raise ValueError(f"multiplicity must be a non-negative integer, got {mult!r}")
            if mult:
                acc[label] = acc.get(label, 0) + mult
        object.__setattr__(self, "_terms", dict(sorted(acc.items())))

    @classmethod
    def _canonical(cls, terms: dict[SimpleLabel, int]) -> "FusionElement":
        """An element over `terms`, trusted to be sorted with positive int values."""
        element = object.__new__(cls)
        object.__setattr__(element, "_terms", terms)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("FusionElement is immutable")

    @staticmethod
    def of(label: SimpleLabel, mult: int = 1) -> "FusionElement":
        return FusionElement([(label, mult)])

    @staticmethod
    def zero() -> "FusionElement":
        return FusionElement()

    def terms(self) -> list[tuple[SimpleLabel, int]]:
        return list(self._terms.items())

    def support(self) -> list[SimpleLabel]:
        return list(self._terms)

    def mult(self, label: SimpleLabel) -> int:
        return self._terms.get(label, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FusionElement") -> "FusionElement":
        acc = dict(self._terms)
        for label, mult in other._terms.items():
            acc[label] = acc.get(label, 0) + mult
        return FusionElement(acc)

    def scale(self, k: int) -> "FusionElement":
        if k < 0:
            raise ValueError("fusion multiplicities cannot go negative")
        return FusionElement({label: k * m for label, m in self._terms.items()})

    def filtered(self, keep) -> "FusionElement":
        return FusionElement({label: m for label, m in self._terms.items() if keep(label)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            str(label) if m == 1 else f"{m}*{label}" for label, m in self._terms.items()
        )

    def __repr__(self) -> str:
        return f"FusionElement({self!s})"
