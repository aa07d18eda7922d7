"""Tagged labels for the simple objects of the built-in categories.

Index conventions follow the generic-parameter setting: Virasoro-type labels
carry a pair of positive integers, affine Verma labels a single one.  The
super-Virasoro family only admits index pairs of even sum and the affine
osp family only odd indices; both constraints come from the locality of the
corresponding extensions and are enforced at construction.

A label is its canonical tuple.  An index label is (tag, *indices) with tag
0-4 for Lt, Lk, V, S, M, and a pair is (5, left, right).  So equality,
hashing and the canonical label order are the tuple's own, computed in C;
a label class adds only the construction checks, named fields and printing.
A raw tuple is not a label, although it equals the label with the same
entries: `contains` tests the label type, and a memo refuses to answer
for a key argument that is not a label, since the raw tuple would find the
label's entry.

Every label exposes its indices as one flat tuple, `indices`: an index
label's entries after the tag, a pair's left indices then its right ones.
Categories, the CLI and the induction layer read indices only through it.
"""

from __future__ import annotations

from operator import itemgetter

MAX_INDEX = 10**6


class ForeignLabel(ValueError):
    """A label that does not belong to the category in use."""


def _check_index(*values: int) -> None:
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"label indices must be positive integers, got {v!r}")
        if v > MAX_INDEX:
            raise ValueError(f"label index {v} exceeds the accepted bound {MAX_INDEX}")


class SimpleLabel(tuple):
    """Base class for simple-object labels; concrete variants below.

    Each variant's `__new__` takes an early exit past `_check_index` when
    every index is an int within range; anything else goes through it.
    """

    __slots__ = ()
    head: str  # the name `str` prints before the indices

    indices = property(itemgetter(slice(1, None)), doc="The entries after the tag.")

    def __reduce__(self):
        return type(self), self[1:]

    def __str__(self):
        return f"{self.head}({','.join(map(str, self[1:]))})"

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self[1:]))})"


class VirasoroT(SimpleLabel):
    """Simple module of the generic Virasoro algebra in the t-parameter."""

    __slots__ = ()
    head = "Lt"
    r = property(itemgetter(1))
    s = property(itemgetter(2))

    def __new__(cls, r: int, s: int):
        if not (type(r) is int and type(s) is int and 0 < r <= MAX_INDEX and 0 < s <= MAX_INDEX):
            _check_index(r, s)
        return tuple.__new__(cls, (0, r, s))


class VirasoroKp2(SimpleLabel):
    """Simple module of the generic Virasoro algebra at the shifted level,
    with weights expressed in the s-parameter."""

    __slots__ = ()
    head = "Lk"
    r = property(itemgetter(1))
    s = property(itemgetter(2))

    def __new__(cls, r: int, s: int):
        if not (type(r) is int and type(s) is int and 0 < r <= MAX_INDEX and 0 < s <= MAX_INDEX):
            _check_index(r, s)
        return tuple.__new__(cls, (1, r, s))


class AffineVerma(SimpleLabel):
    """Generalized Verma module of affine sl2 at generic level."""

    __slots__ = ()
    head = "V"
    r = property(itemgetter(1))

    def __new__(cls, r: int):
        if not (type(r) is int and 0 < r <= MAX_INDEX):
            _check_index(r)
        return tuple.__new__(cls, (2, r))


class SuperVir(SimpleLabel):
    """Simple module of the N=1 super Virasoro algebra; n+m must be even."""

    __slots__ = ()
    head = "S"
    n = property(itemgetter(1))
    m = property(itemgetter(2))

    def __new__(cls, n: int, m: int):
        if not (type(n) is int and type(m) is int and 0 < n <= MAX_INDEX and 0 < m <= MAX_INDEX):
            _check_index(n, m)
        if (n + m) % 2:
            raise ValueError(f"super-Virasoro label needs n+m even, got ({n},{m})")
        return tuple.__new__(cls, (3, n, m))


class OspMod(SimpleLabel):
    """Simple module of affine osp(1|2) at generic level; n must be odd."""

    __slots__ = ()
    head = "M"
    n = property(itemgetter(1))

    def __new__(cls, n: int):
        if not (type(n) is int and 0 < n <= MAX_INDEX):
            _check_index(n)
        if not n % 2:
            raise ValueError(f"osp label needs n odd, got {n}")
        return tuple.__new__(cls, (4, n))


class Pair(SimpleLabel):
    """Simple object of a product category: a pair of factor simples."""

    __slots__ = ()
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: SimpleLabel, right: SimpleLabel):
        if not isinstance(left, SimpleLabel) or not isinstance(right, SimpleLabel):
            side, bad = ("right", right) if isinstance(left, SimpleLabel) else ("left", left)
            raise ValueError(f"pair {side} factor must be a label, got {bad!r}")
        return tuple.__new__(cls, (5, left, right))

    @property
    def indices(self) -> tuple[int, ...]:
        return self[1].indices + self[2].indices

    def __str__(self):
        return f"{self[1]}%{self[2]}"


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
