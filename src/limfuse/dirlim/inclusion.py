"""Systems of subspaces of a fixed ambient graded space, ordered by inclusion.

The input list is closed under pairwise sums (sums are adjoined when absent),
which makes the inclusion order directed; an empty input yields the
one-element system on the zero subspace.  The order is read off the sums the
closure records: S_a is contained in S_b exactly when S_a + S_b = S_b.
Canonical bases are reduced grade by grade, on each grade's own columns, and
spread back to ambient length, so each basis row is 1 at its pivot, where
every other row of its subspace is 0; the entries of a vector of the span at
the pivots are its coordinates, which give the cover maps.  The canonical
map from the limit (the greatest subspace) into the ambient space is its
embedding, injective always and surjective exactly when the subspaces cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from limfuse.dirlim import linalg
from limfuse.dirlim.graded import GradedSpace, GradeMap, _spread
from limfuse.dirlim.linalg import Rows, Vec
from limfuse.dirlim.poset import DirectedPoset
from limfuse.dirlim.system import DirectSystem, Limit, direct_limit


class NotASubspace(ValueError):
    """Input rows do not describe a graded subspace of the ambient space."""


def canonical_subspace(ambient: GradedSpace, rows: Sequence[Sequence[Fraction]]) -> Rows:
    """Canonical homogeneous basis of the span, weights ascending.

    Raises NotASubspace when a vector has the wrong length or when the span
    is not closed under the grading (its graded components leave the span).
    """
    dim = ambient.dim
    clean: list[Vec] = []
    for v in rows:
        v = tuple(x if type(x) is Fraction else Fraction(x) for x in v)
        if len(v) != dim:
            raise NotASubspace(f"vector of length {len(v)} in ambient of dimension {dim}")
        clean.append(v)
    comp_rows: list[Vec] = []
    for cols in ambient.grades.values():
        red, pivots = linalg.rref([[v[c] for c in cols] for v in clean], len(cols))
        comp_rows += _spread([(p, cols, row) for p, row in zip(pivots, red)], dim)
    if len(comp_rows) != linalg.rank(clean, dim):
        raise NotASubspace("span is not closed under the grading")
    return tuple(comp_rows)


@dataclass(frozen=True)
class InclusionSystem:
    """An inclusion-ordered direct system together with the ambient data
    needed to map its limit back into the ambient space."""

    system: DirectSystem
    ambient: GradedSpace
    subspace_rows: Mapping[str, Rows]

    def embedding(self, element: str) -> GradeMap:
        rows = self.subspace_rows[element]
        mat = tuple(tuple(row[r] for row in rows) for r in range(self.ambient.dim))
        return GradeMap(self.system.space(element), self.ambient, mat)


def inclusion_system(ambient: GradedSpace, subspaces: Sequence[Sequence[Sequence[Fraction]]]) -> InclusionSystem:
    """Build the directed system of the given subspaces under inclusion."""
    index: dict[Rows, int] = {}
    for rows in subspaces:
        index.setdefault(canonical_subspace(ambient, rows), len(index))
    index = index or {(): 0}
    canon = list(index)
    # close under pairwise sums in one pass: each pair is spanned once, when
    # its later member is reached; new sums are appended and reached in turn.
    # sums[a, b] is the index of S_a + S_b, so S_a <= S_b exactly when it is b
    sums: dict[tuple[int, int], int] = {}
    for b, new in enumerate(canon):
        sums[b, b] = b
        for a in range(b):
            s = canonical_subspace(ambient, canon[a] + new)
            if s not in index:
                index[s] = len(canon)
                canon.append(s)
            sums[a, b] = sums[b, a] = index[s]

    order = sorted(range(len(canon)), key=lambda k: (len(canon[k]), canon[k]))
    names = {k: f"S{n}" for n, k in enumerate(order)}
    by_name = {names[k]: canon[k] for k in order}
    poset = DirectedPoset(tuple(by_name), frozenset((names[a], names[b]) for (a, b), s in sums.items() if s == b))

    # a canonical row is 1 at its pivot, its first nonzero entry, and every
    # other row of its subspace is 0 there: entries at the pivots are coordinates
    pivots = {name: [next(c for c, x in enumerate(row) if x) for row in rows] for name, rows in by_name.items()}
    spaces = {name: GradedSpace(tuple((f"v{k}", ambient.weight(p)) for k, p in enumerate(pivots[name])))
              for name in by_name}
    maps = {(i, j): GradeMap(spaces[i], spaces[j], tuple(tuple(v[p] for v in by_name[i]) for p in pivots[j]))
            for i, j in poset.covers()}
    return InclusionSystem(DirectSystem(poset, spaces, maps), ambient, by_name)


@dataclass(frozen=True)
class QMapResult:
    map: GradeMap
    injective: bool
    surjective: bool
    limit: Limit


def q_map(ambient: GradedSpace, incsys: InclusionSystem) -> QMapResult:
    """Canonical map from the limit of an inclusion system into the ambient
    space, the top stage's embedding (the stage maps make the embeddings a
    cocone), with its injectivity (always expected) and surjectivity
    (covering test) verdicts."""
    if incsys.ambient != ambient:
        raise ValueError("ambient space does not match the inclusion system")
    lim = direct_limit(incsys.system)
    q = incsys.embedding(incsys.system.poset.greatest())
    r = q.rank()
    return QMapResult(q, r == lim.space.dim, r == ambient.dim, lim)
