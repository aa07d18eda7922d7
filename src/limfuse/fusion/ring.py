"""Bilinear fusion-ring arithmetic."""

from __future__ import annotations

from typing import TYPE_CHECKING

from limfuse.fusion.element import FusionElement

if TYPE_CHECKING:
    from limfuse.catdata.category import CategorySpec


class CategoryMismatch(ValueError):
    """Operands carry labels from outside the category in use."""


def _require_element(cat: CategorySpec, a: FusionElement) -> None:
    for label in a.support():
        if not cat.contains(label):
            raise CategoryMismatch(f"{label} is not an object of {cat.name}")


def ring_mul(cat: CategorySpec, a: FusionElement, b: FusionElement) -> FusionElement:
    """Product in the fusion ring: bilinear extension of the simple fusion."""
    _require_element(cat, a)
    _require_element(cat, b)
    acc: dict = {}
    for x, mx in a:
        for y, my in b:
            m = mx * my
            for z, mz in cat.fusion_of(x, y):
                acc[z] = acc.get(z, 0) + m * mz
    return FusionElement(acc)
