"""Induced modules, their restriction slices as quadratics in the summand
index, and the minimum-weight slice.

Slice r of the module induced from a base is summand(r) fused with the base:
its index box, the parity range of each slot against the base index at the
same position (`AlgebraObject.slice_indices`), each label once.
`InducedModule.restriction` builds the slice from that box, with no fusion
product and no summand label.
A growing slot e(r) = a*r + b of `AlgebraObject.slots` fuses with the base
index x at the same position of `indices` to e(r)-x+1 .. e(r)+x-1 once
e(r) >= x.  So from r0 (`AlgebraObject.r0`), the first r at which every
growing slot reaches its base index, each slice has the same size, the k-th
summand (in canonical order) has indices affine in r, and its weight, every
built-in weight being quadratic in the indices, is quadratic in r:
w(r0 + u) = w(r0) + u*d1 + u(u-1)/2 * d2, with `WeightVec` steps d1, d2 fixed
by the slices r0, r0+1, r0+2.  The slices below r0 are read directly.
The family and the min-weight candidates weigh flat index tuples
(`AlgebraObject.slice_indices`) by the weight hook `_weight_ints`; only the
winner's label is read, from its memoized slice, for its `weight_of`: the
`RatFunc` view that its memoized `WeightVec` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from limfuse.catdata.labels import SimpleLabel
from limfuse.catdata.params import WeightVec, _vec
from limfuse.exact import RatFunc
from limfuse.fusion.element import FusionElement
from limfuse.induction.algebra import AlgebraObject


class TruncationTooSmall(ValueError):
    """The minimum over the truncated slices sits at the truncation edge; it
    may lie beyond."""


@dataclass(frozen=True)
class InducedModule:
    """Module induced from a base-category simple; its restriction back to
    the base category is read lazily, one slice at a time, off each slice's
    index box."""

    algebra: AlgebraObject
    base: SimpleLabel

    def restriction(self, r: int) -> FusionElement:
        """Multiplicities of the r-th slice, summand(r) fused with the base:
        each label of the slice's index box once."""
        if r < 1:
            raise ValueError("summand index must be >= 1")
        alg = self.algebra
        return FusionElement._canonical(dict.fromkeys(map(alg._label, alg.slice_indices(r, self.base.indices)), 1))


def induce(alg: AlgebraObject, base: SimpleLabel) -> InducedModule:
    alg.base_category._require(base)
    return InducedModule(alg, base)


@dataclass(frozen=True)
class SliceFamily:
    """The slices of one base from r0 on: `steps[k]` = (d1, d2, lowest) for
    the k-th summand, where `lowest` is `_lowest(d1, d2)` when both steps are
    parameter-free and None otherwise."""

    r0: int
    steps: tuple[tuple[WeightVec, WeightVec, Optional[tuple[Optional[int], ...]]], ...]


def slice_family(alg: AlgebraObject, base: SimpleLabel) -> SliceFamily:
    """The family of `base`, derived once and memoized per base on the algebra."""
    hit = alg._slice_cache.get(base)
    if hit is None or not isinstance(base, SimpleLabel):
        hit = alg._slice_cache[base] = _derive(alg, base)
    return hit


def _derive(alg: AlgebraObject, base: SimpleLabel) -> SliceFamily:
    cat = alg.base_category
    cat._require(base)
    r0 = alg.r0(x := base.indices)
    top = [[cat._weight_ints(z, _vec) for z in alg.slice_indices(r, x)] for r in range(r0, r0 + 3)]
    steps = []
    for w0, w1, w2 in zip(*top):
        d1, d2 = w1 - w0, w2 - w1 - w1 + w0
        c1, c2 = d1.as_constant(), d2.as_constant()
        steps.append((d1, d2, None if c1 is None or c2 is None else _lowest(c1, c2)))
    return SliceFamily(r0, tuple(steps))


def _lowest(d1: Fraction, d2: Fraction) -> tuple[Optional[int], ...]:
    """The u >= 0 among which the first argmin of u*d1 + u(u-1)/2 * d2 on
    [0, h] lies, for every h >= 0; None stands for h.

    The step from u to u+1 is d1 + u*d2.  With d2 > 0 the value falls
    strictly until the first u whose step is >= 0, ceil(-d1/d2), and never
    again, so min(that u, h) is the argmin; with d2 = 0 it is 0 or h by the
    sign of d1; with d2 < 0 the steps fall, so an end wins.
    """
    if d2 > 0:
        return (max(-(d1 // d2), 0),)
    if d2 == 0:
        return (0,) if d1 >= 0 else (None,)
    return (0, None)


def _check_truncate(truncate: int) -> None:
    if isinstance(truncate, bool) or not isinstance(truncate, int):
        raise ValueError(f"truncate must be an int, got {truncate!r}")
    if truncate < 1:
        raise ValueError("truncate must be >= 1")


def min_weight_summand(
    mod: InducedModule,
    sample: Fraction = Fraction(355, 113),
    truncate: int = 20,
) -> tuple[int, RatFunc]:
    """Index of the restriction slice of minimum conformal weight among r =
    1 .. truncate, with the exact weight at that slice.

    The candidates are every summand below r0 and, from r0 on, each
    quadratic's argmin: exact for all s > 0 when its steps are
    parameter-free, taken at `sample` otherwise.  Several candidates are
    compared at `sample`.  Ties go to the smallest index, then to the first
    summand in canonical order; an argmin at the truncation edge raises
    TruncationTooSmall since the true minimum may lie beyond it.
    """
    if sample <= 0:
        raise ValueError("sample point must be positive")
    _check_truncate(truncate)
    alg, base = mod.algebra, mod.base
    fam = slice_family(alg, base)
    below = range(1, min(fam.r0, truncate + 1))
    cands = {(r, k) for r in below for k in range(len(alg.slice_indices(r, base.indices)))}
    h = truncate - fam.r0
    if h >= 0:
        for k, (d1, d2, lowest) in enumerate(fam.steps):
            points = lowest or _lowest(d1.eval(sample), d2.eval(sample))
            cands.update((fam.r0 + (h if u is None else min(u, h)), k) for u in points)

    cat = alg.base_category
    if len(cands) == 1:
        (r_star, k_star), = cands
    else:
        x = base.indices
        r_star, k_star = min(cands, key=lambda c: (
            cat._weight_ints(alg.slice_indices(c[0], x)[c[1]], _vec).eval(sample), *c))
    if r_star == truncate:
        raise TruncationTooSmall(
            f"minimum at the truncation edge r={truncate}; increase truncate"
        )
    return r_star, cat.weight_of(cat.fusion_of(alg.summand(r_star), base).terms()[k_star][0])
