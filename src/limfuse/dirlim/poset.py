"""Finite directed posets given by an explicit reflexive-transitive relation.

Posets are read-only and their derived data (covers, strict pairs, the
greatest element, the violations) is computed once per poset.  Chains and
products are shared per shape: `DirectedPoset.chain(n, prefix)` returns one
poset per (n, prefix) from a bounded cache, and `product` is memoized on its
left factor, keyed by the right one, so every system over the same shape
reads the same derived data.  `from_covers` builds a new poset each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Iterable, Sequence


def _once(method):
    """A method of a frozen poset whose value is computed once and kept on it."""
    key = f"_{method.__name__}_memo"

    @wraps(method)
    def memoized(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]
    return memoized


@dataclass(frozen=True)
class DirectedPoset:
    """A finite set with a binary relation, intended to be a directed order.

    The constructor does not force validity; :meth:`violations` reports every
    failure of reflexivity, transitivity, and directedness, and an empty
    poset, so that defective inputs can be diagnosed rather than rejected
    opaquely.  A poset without violations has a greatest element.
    """

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate poset elements")
        known = set(self.elements)
        for i, j in self.leq:
            if i not in known or j not in known:
                raise ValueError(f"relation pair ({i!r}, {j!r}) uses unknown elements")

    @staticmethod
    def chain(n: int, prefix: str = "") -> "DirectedPoset":
        """The n-stage truncation 1 <= 2 <= ... <= n of the infinite chain,
        one shared poset per (n, prefix)."""
        return _chain(n, prefix)

    @staticmethod
    def from_covers(elements: Sequence[str], covers: Iterable[tuple[str, str]]) -> "DirectedPoset":
        """Reflexive-transitive closure of the given cover relations."""
        elements = tuple(elements)
        succ: dict[str, list[str]] = {e: [] for e in elements}
        for i, j in covers:
            succ[i].append(j)
        leq: set[tuple[str, str]] = set()
        for e in elements:
            stack = [e]
            while stack:
                x = stack.pop()
                if (e, x) not in leq:
                    leq.add((e, x))
                    stack.extend(succ[x])
        return DirectedPoset(elements, frozenset(leq))

    def le(self, i: str, j: str) -> bool:
        return (i, j) in self.leq

    @_once
    def _up(self) -> dict[str, set[str]]:
        """Up-set of every element under the relation as given."""
        up: dict[str, set[str]] = {e: set() for e in self.elements}
        for i, j in self.leq:
            up[i].add(j)
        return up

    @_once
    def strict_pairs(self) -> tuple[tuple[str, str], ...]:
        up = self._up()
        return tuple((i, j) for i in self.elements for j in self.elements if i != j and j in up[i])

    @_once
    def covers(self) -> tuple[tuple[str, str], ...]:
        """Pairs i < j with no element strictly between, from the strict
        up-sets; elements of a preorder cycle are never strictly related."""
        up = self._up()
        above = {e: {j for j in up[e] if e not in up[j]} for e in self.elements}
        beyond = {e: set().union(*(above[k] for k in above[e])) for e in self.elements}
        return tuple((i, j) for i, j in self.strict_pairs() if j in above[i] and j not in beyond[i])

    @_once
    def upper_covers(self) -> dict[str, tuple[str, ...]]:
        """Upper covers of each element that has any, in `covers()` order."""
        out: dict[str, tuple[str, ...]] = {}
        for i, j in self.covers():
            out[i] = out.get(i, ()) + (j,)
        return out

    @_once
    def greatest(self) -> str | None:
        up = self._up()
        return next((k for k in self.elements if all(k in up[i] for i in self.elements)), None)

    def product(self, other: "DirectedPoset") -> "DirectedPoset":
        """Componentwise order on pairs "(a,b)"; kept per right factor, so
        products of the same factors are one poset."""
        if (memo := self.__dict__.get("_product")) is None:
            memo = self.__dict__["_product"] = {}
        hit = memo.get(id(other))
        if hit is None or hit[0] is not other:
            elements = tuple(f"({a},{b})" for a in self.elements for b in other.elements)
            leq = frozenset(
                (f"({a},{b})", f"({c},{d})")
                for (a, c) in self.leq
                for (b, d) in other.leq
            )
            hit = memo[id(other)] = (other, DirectedPoset(elements, leq))
        return hit[1]

    @_once
    def violations(self) -> tuple[str, ...]:
        if not self.elements:
            return ("empty poset",)
        up = self._up()
        out = [f"not reflexive at {e}" for e in self.elements if e not in up[e]]
        for i, j in self.leq:
            if i != j and i in up[j]:
                out.append(f"not antisymmetric: {i} <= {j} <= {i}")
            if not up[j] <= up[i]:
                out.extend(
                    f"not transitive: {i} <= {j} <= {k} but not {i} <= {k}"
                    for k in self.elements if k in up[j] and k not in up[i]
                )
        for a in range(len(self.elements)):
            for b in range(a + 1, len(self.elements)):
                i, j = self.elements[a], self.elements[b]
                if up[i].isdisjoint(up[j]):
                    out.append(f"no upper bound for {{{i}, {j}}}")
        return tuple(out)


@lru_cache(maxsize=64)
def _chain(n: int, prefix: str) -> DirectedPoset:
    elements = tuple(f"{prefix}{k}" for k in range(1, n + 1))
    leq = frozenset((elements[a], elements[b]) for a in range(n) for b in range(a, n))
    return DirectedPoset(elements, leq)
