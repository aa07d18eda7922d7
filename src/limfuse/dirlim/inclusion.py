"""Systems of subspaces of a fixed ambient graded space, ordered by inclusion.

The input list is closed under pairwise sums (sums are adjoined when absent),
which makes the inclusion order directed; an empty input yields the
one-element system on the zero subspace.  The order is containment, already
reflexive and transitive: one rank test against each strictly larger subspace
(whose canonical rows are independent) decides it, as distinct subspaces of
one dimension never contain each other.  Canonical bases are reduced grade
by grade, on each grade's own columns, and spread back to ambient length.
The canonical map from the limit (the greatest subspace) into the ambient
space is its embedding, injective always and surjective exactly when the
subspaces cover.
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
        v = tuple(Fraction(x) for x in v)
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
    canon = []
    seen = set()
    for rows in subspaces:
        c = canonical_subspace(ambient, rows)
        if c not in seen:
            seen.add(c)
            canon.append(c)
    if not canon:
        canon = [()]
        seen = {()}
    # close under pairwise sums in one pass: each pair is spanned once, when
    # its later member is reached; new sums are appended and reached in turn
    for k, new in enumerate(canon):
        for old in canon[:k]:
            s = canonical_subspace(ambient, old + new)
            if s not in seen:
                seen.add(s)
                canon.append(s)

    canon.sort(key=lambda rows: (len(rows), rows))
    names = [f"S{k}" for k in range(len(canon))]
    by_name = dict(zip(names, canon))

    leq = frozenset((na, nb) for a, na in enumerate(names) for b, nb in enumerate(names)
                    if a == b or (len(canon[a]) < len(canon[b])
                                  and linalg.rank(canon[b] + canon[a], ambient.dim) == len(canon[b])))
    poset = DirectedPoset(tuple(names), leq)

    # every basis row is a nonzero canonical row, of the weight of its first nonzero entry
    spaces = {
        name: GradedSpace(tuple((f"v{k}", ambient.weight(next(c for c, v in enumerate(row) if v)))
                                for k, row in enumerate(rows)))
        for name, rows in by_name.items()
    }

    maps: dict[tuple[str, str], GradeMap] = {}
    for i, j in poset.covers():
        small, big = by_name[i], by_name[j]
        # coordinates of each small basis row in the big basis (unique)
        bt = tuple(tuple(row[c] for row in big) for c in range(ambient.dim))
        vt = tuple(tuple(row[c] for row in small) for c in range(ambient.dim))
        maps[(i, j)] = GradeMap(spaces[i], spaces[j], linalg.solve_matrix(bt, vt, len(big), len(small)))
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
