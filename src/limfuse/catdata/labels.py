"""Tagged labels for the simple objects of the built-in categories.

Index conventions follow the generic-parameter setting: Virasoro-type labels
carry a pair of positive integers, affine Verma labels a single one.  The
super-Virasoro family only admits index pairs of even sum and the affine
osp family only odd indices; both constraints come from the locality of the
corresponding extensions and are enforced at construction.

Every label exposes its indices as one flat tuple, `indices`: an index
label's integer fields in declaration order, a pair's left indices then its
right ones.  Categories, the CLI and the induction layer read indices only
through it.  `sort_key()` of an index label is its tag followed by them.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_INDEX = 10**6


class ForeignLabel(ValueError):
    """A label that does not belong to the category in use."""


class SimpleLabel:
    """Base class for simple-object labels; concrete variants below."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        """(tag, *indices) for index labels; the canonical label order."""
        raise NotImplementedError

    def __lt__(self, other: "SimpleLabel") -> bool:
        return self.sort_key() < other.sort_key()


def _check_index(*values: int) -> None:
    for v in values:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"label indices must be positive integers, got {v!r}")
        if v > MAX_INDEX:
            raise ValueError(f"label index {v} exceeds the accepted bound {MAX_INDEX}")


@dataclass(frozen=True)
class VirasoroT(SimpleLabel):
    """Simple module of the generic Virasoro algebra in the t-parameter."""

    r: int
    s: int

    def __post_init__(self):
        _check_index(self.r, self.s)

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.r, self.s)

    def sort_key(self):
        return (0, self.r, self.s)

    def __str__(self):
        return f"Lt({self.r},{self.s})"


@dataclass(frozen=True)
class VirasoroKp2(SimpleLabel):
    """Simple module of the generic Virasoro algebra at the shifted level,
    with weights expressed in the s-parameter."""

    r: int
    s: int

    def __post_init__(self):
        _check_index(self.r, self.s)

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.r, self.s)

    def sort_key(self):
        return (1, self.r, self.s)

    def __str__(self):
        return f"Lk({self.r},{self.s})"


@dataclass(frozen=True)
class AffineVerma(SimpleLabel):
    """Generalized Verma module of affine sl2 at generic level."""

    r: int

    def __post_init__(self):
        _check_index(self.r)

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.r,)

    def sort_key(self):
        return (2, self.r)

    def __str__(self):
        return f"V({self.r})"


@dataclass(frozen=True)
class SuperVir(SimpleLabel):
    """Simple module of the N=1 super Virasoro algebra; n+m must be even."""

    n: int
    m: int

    def __post_init__(self):
        _check_index(self.n, self.m)
        if (self.n + self.m) % 2 != 0:
            raise ValueError(f"super-Virasoro label needs n+m even, got ({self.n},{self.m})")

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.n, self.m)

    def sort_key(self):
        return (3, self.n, self.m)

    def __str__(self):
        return f"S({self.n},{self.m})"


@dataclass(frozen=True)
class OspMod(SimpleLabel):
    """Simple module of affine osp(1|2) at generic level; n must be odd."""

    n: int

    def __post_init__(self):
        _check_index(self.n)
        if self.n % 2 == 0:
            raise ValueError(f"osp label needs n odd, got {self.n}")

    @property
    def indices(self) -> tuple[int, ...]:
        return (self.n,)

    def sort_key(self):
        return (4, self.n)

    def __str__(self):
        return f"M({self.n})"


@dataclass(frozen=True)
class Pair(SimpleLabel):
    """Simple object of a product category: a pair of factor simples.

    Pairs key every engine cache, so the hash is computed once, at
    construction, as the hash of (left, right) that equality implies, and
    `__hash__` returns it.  Copies and pickles rebuild the pair through the
    constructor, so they carry the same hash.
    """

    left: SimpleLabel
    right: SimpleLabel

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Pair, (self.left, self.right)

    @property
    def indices(self) -> tuple[int, ...]:
        return self.left.indices + self.right.indices

    def sort_key(self):
        return (5, self.left.sort_key(), self.right.sort_key())

    def __str__(self):
        return f"{self.left}%{self.right}"


def parse_label(text: str) -> SimpleLabel:
    """Inverse of str() for all label variants."""
    text = text.strip()
    if "%" in text:
        left, right = text.split("%", 1)
        return Pair(parse_label(left), parse_label(right))
    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"bad label syntax: {text!r}")
    nums = [int(v) for v in rest[:-1].split(",")]
    kinds = {"Lt": VirasoroT, "Lk": VirasoroKp2, "V": AffineVerma, "S": SuperVir, "M": OspMod}
    if head not in kinds:
        raise ValueError(f"unknown label kind: {head!r}")
    return kinds[head](*nums)
