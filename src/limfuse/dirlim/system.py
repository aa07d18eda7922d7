"""Direct systems of graded vector spaces and their limits.

A finite directed poset has a greatest element top, so the limit of a system
over it is V_top itself, with legs f_i^top: every stage maps into V_top, and
what the limit identifies is already identified there.  `direct_limit`
returns that space, its basis sorted stably by weight, and runs no row
reduction.  `quotient_limit` keeps the explicit construction, the quotient of
the direct sum of all stage spaces by the span of the vectors
q_i(w) - q_j(f_i^j(w)) over cover pairs, computed grade by grade with exact
row reduction; the property suite uses it as the oracle.

Functoriality is checked only on the triples i < c <= k whose first step is a
cover: any i < j < k has a cover i < c <= j, and induction on the interval
[i, k] turns f_c^k o f_i^c = f_i^k and f_c^j o f_i^c = f_i^j into
f_j^k o f_i^j = f_i^k.  The same telescoping along saturated chains lets
universal maps check their cocone along covers only.  A system's report is
computed once and kept on the system, whose spaces and maps are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from limfuse.dirlim import linalg
from limfuse.dirlim.graded import GradedSpace, GradeMap, Weight
from limfuse.dirlim.linalg import Rows, Vec
from limfuse.dirlim.poset import DirectedPoset


class InvalidSystem(ValueError):
    """Raised when a construction requires a valid system and gets defects."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.problems) or "invalid system")
        self.report = report


class IncompatibleTarget(ValueError):
    """Target maps fail psi_j o f_i^j = psi_i for some pair."""


class UnknownElement(KeyError):
    """Poset element not present in the system."""


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class DirectSystem:
    """Assignment of a graded space to each poset element and a transition
    map to each related pair; reflexive maps are implicit identities."""

    poset: DirectedPoset
    spaces: Mapping[str, GradedSpace]
    maps: Mapping[tuple[str, str], GradeMap]

    def __post_init__(self):
        # read-only copies, so that the memoized validation report stays true
        object.__setattr__(self, "spaces", MappingProxyType(dict(self.spaces)))
        object.__setattr__(self, "maps", MappingProxyType(dict(self.maps)))

    def space(self, i: str) -> GradedSpace:
        try:
            return self.spaces[i]
        except KeyError:
            raise UnknownElement(i) from None

    def map(self, i: str, j: str) -> GradeMap:
        if i == j and (i, j) not in self.maps:
            return GradeMap.identity(self.space(i))
        try:
            return self.maps[(i, j)]
        except KeyError:
            raise UnknownElement((i, j)) from None

    @staticmethod
    def constant(poset: DirectedPoset, space: GradedSpace) -> "DirectSystem":
        ident = GradeMap.identity(space)
        maps = {(i, j): ident for i, j in poset.strict_pairs()}
        return DirectSystem(poset, {e: space for e in poset.elements}, maps)

    @staticmethod
    def on_chain(spaces: Sequence[GradedSpace], step_maps: Sequence[GradeMap], prefix: str = "") -> "DirectSystem":
        """System on the chain 1 <= ... <= n from consecutive maps."""
        n = len(spaces)
        if len(step_maps) != n - 1:
            raise ValueError("need one step map per consecutive pair")
        poset = DirectedPoset.chain(n, prefix)
        names = poset.elements
        maps: dict[tuple[str, str], GradeMap] = {}
        for a in range(n):
            acc: Optional[GradeMap] = None
            for b in range(a + 1, n):
                acc = step_maps[b - 1] if acc is None else step_maps[b - 1] @ acc
                maps[(names[a], names[b])] = acc
        return DirectSystem(poset, dict(zip(names, spaces)), maps)


def validate_system(sys: DirectSystem) -> ValidationReport:
    """Report every violated identity; an empty report certifies the system.

    Composition is checked on the triples whose first step is a cover, which
    implies it on every triple; the report is computed once per system.
    """
    report = sys.__dict__.get("_validation")
    if report is None:
        report = sys.__dict__.setdefault("_validation", _validate(sys))
    return report


def _validate(sys: DirectSystem) -> ValidationReport:
    problems = list(sys.poset.violations())
    for e in sys.poset.elements:
        if e not in sys.spaces:
            problems.append(f"missing space for {e}")
    if problems:
        return ValidationReport(tuple(problems))
    for i, j in sys.poset.strict_pairs():
        f = sys.maps.get((i, j))
        if f is None:
            problems.append(f"missing map for {i} <= {j}")
            continue
        if f.source != sys.spaces[i] or f.target != sys.spaces[j]:
            problems.append(f"map for {i} <= {j} has wrong source or target")
        elif not f.is_grade_preserving():
            problems.append(f"map for {i} <= {j} does not preserve the grading")
    for i, j in sys.maps:
        if i == j:
            if sys.maps[(i, i)] != GradeMap.identity(sys.spaces[i]):
                problems.append(f"reflexive map at {i} is not the identity")
        elif not sys.poset.le(i, j):
            problems.append(f"map stored for unrelated pair {i}, {j}")
    if problems:
        return ValidationReport(tuple(problems))
    for i, c in sys.poset.covers():
        f_ic = sys.maps[(i, c)]
        for k in sys.poset.elements:
            if k != c and sys.poset.le(c, k):
                if sys.maps[(c, k)] @ f_ic != sys.maps[(i, k)]:
                    problems.append(f"composition violated: f_{c}^{k} o f_{i}^{c} != f_{i}^{k}")
    return ValidationReport(tuple(problems))


def _require_valid(sys: DirectSystem) -> None:
    report = validate_system(sys)
    if not report.ok:
        raise InvalidSystem(report)


@dataclass(frozen=True)
class Target:
    """A space with compatible maps out of every stage of a system."""

    space: GradedSpace
    psis: Mapping[str, GradeMap]


@dataclass(frozen=True)
class Limit:
    """The constructed limit: its space, one leg per stage, and the system it
    came from (kept for kernel queries)."""

    space: GradedSpace
    legs: Mapping[str, GradeMap]
    system: DirectSystem = field(compare=False)

    def leg(self, i: str) -> GradeMap:
        try:
            return self.legs[i]
        except KeyError:
            raise UnknownElement(i) from None


def direct_limit(sys: DirectSystem) -> Limit:
    """The limit as the greatest stage V_top, basis ids `top:bid` sorted stably
    by weight, with legs f_i^top.  Equal to `quotient_limit` whenever top is
    listed last among the poset's elements, isomorphic to it always."""
    _require_valid(sys)
    top = sys.poset.greatest()
    basis = sys.spaces[top].basis
    order = sorted(range(len(basis)), key=lambda k: basis[k][1])
    space = GradedSpace(tuple((f"{top}:{basis[k][0]}", basis[k][1]) for k in order))
    legs = {}
    for e in sys.poset.elements:
        rows = sys.map(e, top).matrix
        legs[e] = GradeMap(sys.spaces[e], space, tuple(rows[k] for k in order))
    return Limit(space, legs, sys)


def quotient_limit(sys: DirectSystem) -> Limit:
    """Quotient-by-relations construction of the limit with its legs; the
    independent oracle for `direct_limit`."""
    _require_valid(sys)

    elements = sys.poset.elements
    offsets: dict[str, int] = {}
    total_basis: list[tuple[str, str, Weight]] = []
    for e in elements:
        offsets[e] = len(total_basis)
        for bid, w in sys.spaces[e].basis:
            total_basis.append((e, bid, w))

    weights = sorted({w for _, _, w in total_basis})
    grade_cols: dict[Weight, list[int]] = {
        w: [k for k, (_, _, wk) in enumerate(total_basis) if wk == w] for w in weights
    }

    # relation rows per grade, from cover pairs only
    rel_rows: dict[Weight, list[list[Fraction]]] = {w: [] for w in weights}
    col_pos: dict[Weight, dict[int, int]] = {
        w: {tot: loc for loc, tot in enumerate(cols)} for w, cols in grade_cols.items()
    }
    for i, j in sys.poset.covers():
        f = sys.map(i, j)
        for c in range(sys.spaces[i].dim):
            w = sys.spaces[i].weight(c)
            row = [Fraction(0)] * len(grade_cols[w])
            pos = col_pos[w]
            row[pos[offsets[i] + c]] += 1
            fcol = f.column(c)
            for r, v in enumerate(fcol):
                if v != 0:
                    row[pos[offsets[j] + r]] -= v
            rel_rows[w].append(row)

    # per-grade quotient: free columns survive, pivot columns are eliminated
    quot_basis: list[tuple[str, Weight]] = []
    proj_cols: dict[int, dict[int, Fraction]] = {}  # total col -> {quot row: coeff}
    for w in weights:
        cols = grade_cols[w]
        red, pivots = linalg.rref(rel_rows[w], len(cols))
        pivot_set = set(pivots)
        free = [c for c in range(len(cols)) if c not in pivot_set]
        base = len(quot_basis)
        free_pos = {c: base + n for n, c in enumerate(free)}
        for c in free:
            e, bid, _ = total_basis[cols[c]]
            quot_basis.append((f"{e}:{bid}", w))
        for loc, tot in enumerate(cols):
            if loc in pivot_set:
                m = pivots.index(loc)
                entries = {
                    free_pos[c]: -red[m][c] for c in free if red[m][c] != 0
                }
            else:
                entries = {free_pos[loc]: Fraction(1)}
            proj_cols[tot] = entries

    space = GradedSpace(tuple(quot_basis))
    qdim = space.dim
    legs: dict[str, GradeMap] = {}
    for e in elements:
        d = sys.spaces[e].dim
        mat = [[Fraction(0)] * d for _ in range(qdim)]
        for c in range(d):
            for r, v in proj_cols[offsets[e] + c].items():
                mat[r][c] = v
        legs[e] = GradeMap(sys.spaces[e], space, tuple(tuple(r) for r in mat))
    return Limit(space, legs, sys)


def universal_map(lim: Limit, tgt: Target) -> GradeMap:
    """The unique map F with F o phi_i = psi_i for every stage i.

    The cocone is checked along covers, and F is solved from the top stage
    alone: phi_top is onto, and phi_i = phi_top o f_i^top for every i."""
    sys = lim.system
    for i in sys.poset.elements:
        psi = tgt.psis.get(i)
        if psi is None:
            raise IncompatibleTarget(f"missing target map for {i}")
        if psi.source != sys.spaces[i] or psi.target != tgt.space:
            raise IncompatibleTarget(f"target map for {i} has wrong source or target")
    for i, c in sys.poset.covers():
        if tgt.psis[c] @ sys.map(i, c) != tgt.psis[i]:
            raise IncompatibleTarget(f"psi_{c} o f_{i}^{c} != psi_{i}")

    top = sys.poset.greatest()
    leg, psi = lim.legs[top], tgt.psis[top]
    top_blocks = sys.spaces[top].blocks()
    tgt_blocks = tgt.space.blocks()
    fmat = [[Fraction(0)] * lim.space.dim for _ in range(tgt.space.dim)]
    for w, lim_rows in lim.space.blocks().items():
        tgt_rows = tgt_blocks.get(w, [])
        cols = top_blocks.get(w, [])
        acols = [tuple(leg.matrix[r][c] for r in lim_rows) for c in cols]
        bcols = [tuple(psi.matrix[r][c] for r in tgt_rows) for c in cols]
        # F_w solves F_w A = B; transpose to A^T F^T = B^T (unique: phi_top is onto)
        x = linalg.solve_matrix(acols, bcols, len(lim_rows), len(tgt_rows))
        if x is None:
            raise IncompatibleTarget("target maps are inconsistent with the limit")
        for a, lr in enumerate(lim_rows):
            for b, tr in enumerate(tgt_rows):
                fmat[tr][lr] = x[a][b]
    return GradeMap(lim.space, tgt.space, tuple(tuple(r) for r in fmat))


def kernel_of_leg(lim: Limit, i: str) -> Rows:
    """Canonical basis of ker phi_i, as vectors in the stage-i coordinates."""
    return lim.leg(i).kernel()


def kernel_union(sys: DirectSystem, i: str) -> Rows:
    """Sum over j >= i of ker f_i^j, computed without constructing the limit."""
    if i not in sys.spaces:
        raise UnknownElement(i)
    d = sys.spaces[i].dim
    rows: list[Vec] = []
    for j in sys.poset.elements:
        if j != i and sys.poset.le(i, j):
            rows.extend(sys.map(i, j).kernel())
    return linalg.span_rows(rows, d) if d else ()
