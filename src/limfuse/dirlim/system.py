"""Direct systems of graded vector spaces and their limits.

On a finite directed poset a system is fixed by its cover maps, because
functoriality composes every other map from them.  A system keeps the maps it
is given; `maps` ranges over every strict pair as well and composes each one
not given on first use as f_i^k = f_c^k o f_i^c, c the first upper cover of i
below k (its route), keeping every composite.  A given non-cover map is a
claim: validation checks it against f_c^k o f_i^c on its route triple, so by
induction on the route length every given map equals its cover composite.

A nonempty finite directed poset has a greatest element top (validation
reports an empty one), so the limit of a system over it is V_top itself,
with legs f_i^top: every stage maps into V_top, and what the limit
identifies is already identified there.  `direct_limit` returns V_top itself
with legs f_i^top, so a universal map out of it is read at the top stage,
whose leg is the identity.  `quotient_limit` keeps the explicit
construction, the quotient of the direct sum of all stage spaces by the span
of the vectors q_i(w) - q_j(f_i^j(w)) over cover pairs, computed grade by
grade with exact row reduction; the property suite uses it as the oracle.

Functoriality needs checking only on the triples i < c <= k whose first step
is a cover: any i < j < k has a cover i < c <= j, and induction on the
interval [i, k] turns f_c^k o f_i^c = f_i^k and f_c^j o f_i^c = f_i^j into
f_j^k o f_i^j = f_i^k.  The triples through a route hold by construction
once the given non-cover maps are checked, so only those claims and the
diamonds are left; chains and trees have no diamonds.  The same telescoping
along saturated chains lets universal maps check their cocone along covers
only.  A target made of the system's own legs (the stored f_i^top, the
identity at top) is a cocone by functoriality, which validation certified,
so a cover between two such legs is not recomposed; every other cover is.
A system's report is computed once and kept on the system, whose spaces and
maps are read-only.  On a valid system the sum over j >= i of ker f_i^j is
ker f_i^top, as top is one of the j, so `kernel_union` is one kernel, that
of the leg f_i^top of `direct_limit`.

Leg kernels are computed once per valid system, in one pass up a linear
extension of the poset (stages by decreasing up-set) and kept beside the
report.  On a valid system f_i^top = f_c^top o f_i^c, c the route of i to
top.  If f_i^top is injective on a grade w and dim V_i(w) = dim V_c(w), then
f_i^c is injective on w, hence bijective, and f_c^top is injective on w, so
the pass skips that block of f_c^top: a chain of injective square grades
makes one certificate per grade.  Top's kernel is empty, with no reduction.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType

from limfuse.dirlim import linalg
from limfuse.dirlim.graded import GradedSpace, GradeMap
from limfuse.dirlim.linalg import Rows
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


class TransitionMaps(Mapping):
    """Read-only transition maps of a system: the given ones and every other
    strict pair, composed on first use.  A stored map is returned by one
    lookup; only a composite not yet kept walks its route, and one whose
    route meets a missing cover map raises ValueError naming that cover."""

    def __init__(self, poset: DirectedPoset, given: Mapping[tuple[str, str], GradeMap]):
        self._poset = poset
        self._known = dict(given)
        self.given = tuple(self._known)
        self._keys = dict.fromkeys([*poset.strict_pairs(), *self.given])

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __getitem__(self, key: tuple[str, str]) -> GradeMap:
        if (hit := self._known.get(key)) is not None:
            return hit
        if key not in self._keys:
            raise KeyError(key)
        known, (i, k) = self._known, key
        path = [i]  # walk the route up to a known map, then compose back down it
        while (path[-1], k) not in known:
            c = self.route(path[-1], k)
            if c is None or len(path) > len(self._poset.elements):
                raise KeyError(key)
            if (path[-1], c) not in known:
                raise ValueError(f"missing map for {path[-1]} <= {c}")
            path.append(c)
        for x, c in zip(path[-2::-1], path[:0:-1]):
            known[(x, k)] = known[(c, k)] @ known[(x, c)]
        return known[key]

    def __repr__(self) -> str:
        return f"TransitionMaps({self._known!r})"

    def route(self, i: str, k: str) -> str | None:
        """The first upper cover of i below k, through which f_i^k is composed."""
        return next((c for c in self._poset.upper_covers().get(i, ()) if self._poset.le(c, k)), None)


@dataclass(frozen=True)
class DirectSystem:
    """Assignment of a graded space to each poset element and a transition
    map to each cover pair, and to any other related pair as a claim;
    reflexive maps are implicit identities."""

    poset: DirectedPoset
    spaces: Mapping[str, GradedSpace]
    maps: Mapping[tuple[str, str], GradeMap]

    def __post_init__(self):
        # read-only copies, so that the memoized validation report stays true
        object.__setattr__(self, "spaces", MappingProxyType(dict(self.spaces)))
        object.__setattr__(self, "maps", TransitionMaps(self.poset, self.maps))

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
        """`space` at every element, the identity on every cover.  Every space
        and cover map is given and every composite is an identity, so the
        report is the poset's violations from the start."""
        ident = GradeMap.identity(space)
        maps = {c: ident for c in poset.covers()}
        system = DirectSystem(poset, {e: space for e in poset.elements}, maps)
        system.__dict__["_validation"] = ValidationReport(tuple(poset.violations()))
        return system

    @staticmethod
    def on_chain(spaces: Sequence[GradedSpace], step_maps: Sequence[GradeMap], prefix: str = "") -> "DirectSystem":
        """System on the chain 1 <= ... <= n from consecutive maps."""
        n = len(spaces)
        if len(step_maps) != n - 1:
            raise ValueError("need one step map per consecutive pair")
        poset = DirectedPoset.chain(n, prefix)
        names = poset.elements
        maps = dict(zip(zip(names, names[1:]), step_maps))
        return DirectSystem(poset, dict(zip(names, spaces)), maps)


def validate_system(sys: DirectSystem) -> ValidationReport:
    """Report every violated identity; an empty report certifies the system.

    Composition is checked on the given non-cover maps, each against its
    route triple, and on the diamonds; with the routes themselves this
    implies it on every triple.  The report is computed once per system.
    """
    report = sys.__dict__.get("_validation")
    if report is None:
        report = sys.__dict__.setdefault("_validation", _validate(sys))
    return report


def _validate(sys: DirectSystem) -> ValidationReport:
    poset = sys.poset
    problems = list(poset.violations())
    missing = [e for e in poset.elements if e not in sys.spaces]
    problems += [f"missing space for {e}" for e in missing]
    if len(sys.spaces) + len(missing) != len(poset.elements):  # a space names no element
        known = set(poset.elements)
        problems += [f"space stored for unknown element {e}" for e in sys.spaces if e not in known]
    if problems:
        return ValidationReport(tuple(problems))
    given = set(sys.maps.given)
    problems += [f"missing map for {i} <= {j}" for i, j in poset.covers() if (i, j) not in given]
    for i, j in sys.maps.given:
        f = sys.maps[(i, j)]
        if not poset.le(i, j):
            problems.append(f"map stored for unrelated pair {i}, {j}")
        elif i == j:
            if f != GradeMap.identity(sys.spaces[i]):
                problems.append(f"reflexive map at {i} is not the identity")
        elif f.source != sys.spaces[i] or f.target != sys.spaces[j]:
            problems.append(f"map for {i} <= {j} has wrong source or target")
    if problems:
        return ValidationReport(tuple(problems))
    # each given non-cover map on its route triple, then every triple whose
    # first step is not the route (a diamond); the rest hold by construction
    route = sys.maps.route
    triples = [(i, c, k) for i, k in sys.maps.given if i != k and (c := route(i, k)) != k]
    triples += [(i, c, k) for i, c in poset.covers() if len(poset.upper_covers()[i]) > 1
                for k in poset.elements if k != c and poset.le(c, k) and route(i, k) != c]
    for i, c, k in triples:
        if sys.maps[(c, k)] @ sys.maps[(i, c)] != sys.maps[(i, k)]:
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
    """The limit as the greatest stage V_top itself, with legs f_i^top (the top
    one the identity); isomorphic to `quotient_limit` by the canonical map."""
    _require_valid(sys)
    top = sys.poset.greatest()
    legs = {e: sys.map(e, top) for e in sys.poset.elements}
    legs[top]._kernel = ()  # an identity: the leg kernel pass's entry for top
    return Limit(sys.spaces[top], legs, sys)


def quotient_limit(sys: DirectSystem) -> Limit:
    """Quotient-by-relations construction of the limit with its legs; the
    independent oracle for `direct_limit`."""
    _require_valid(sys)
    elements = sys.poset.elements
    total = GradedSpace(tuple((f"{e}:{bid}", w) for e in elements for bid, w in sys.spaces[e].basis))
    offsets = dict(zip(elements, accumulate((sys.spaces[e].dim for e in elements), initial=0)))

    # relations q_i(v) - q_j(f_i^j(v)), from cover pairs only
    relations = []
    for i, j in sys.poset.covers():
        f = sys.map(i, j).matrix
        for c in range(sys.spaces[i].dim):
            row = [Fraction(0)] * total.dim
            row[offsets[i] + c] = Fraction(1)
            for r, frow in enumerate(f):
                row[offsets[j] + r] -= frow[c]
            relations.append(row)

    # per-grade quotient: free columns survive, pivot columns are written in them
    basis, proj = [], []  # proj: one row per quotient vector, over the total basis
    for cols in total.grades.values():
        red, pivots = linalg.rref([[rel[t] for t in cols] for rel in relations], len(cols))
        for c in range(len(cols)):
            if c not in pivots:
                row = [Fraction(0)] * total.dim
                row[cols[c]] = Fraction(1)
                for m, p in enumerate(pivots):
                    row[cols[p]] = -red[m][c]
                basis.append(total.basis[cols[c]])
                proj.append(row)
    space = GradedSpace(tuple(basis))
    legs = {
        e: GradeMap(sys.spaces[e], space, [row[offsets[e]:offsets[e] + sys.spaces[e].dim] for row in proj])
        for e in elements
    }
    return Limit(space, legs, sys)


def universal_map(lim: Limit, tgt: Target) -> GradeMap:
    """The unique map F with F o phi_i = psi_i for every stage i.

    Each psi_i is a GradeMap, so it preserves the grading, and so does F.
    The limit's system must be valid (InvalidSystem otherwise; its report
    is memoized).  The cocone is checked along covers, but not on one between
    two of the system's own legs (see the module docstring).  F is solved
    from the top stage alone: phi_top is onto, and phi_i = phi_top o f_i^top."""
    sys = lim.system
    _require_valid(sys)
    top, known = sys.poset.greatest(), sys.maps._known
    own = set()  # stages whose psi is the system's own map into top
    for i in sys.poset.elements:
        psi = tgt.psis.get(i)
        if psi is None:
            raise IncompatibleTarget(f"missing target map for {i}")
        if psi.source != sys.spaces[i] or psi.target != tgt.space:
            raise IncompatibleTarget(f"target map for {i} has wrong source or target")
        if psi is known.get((i, top)) or (i == top and psi == GradeMap.identity(tgt.space)):
            own.add(i)
    for i, c in sys.poset.covers():
        if not (i in own and c in own) and tgt.psis[c] @ sys.map(i, c) != tgt.psis[i]:
            raise IncompatibleTarget(f"psi_{c} o f_{i}^{c} != psi_{i}")

    f = tgt.psis[top].factor_through(lim.legs[top])
    if f is None:
        raise IncompatibleTarget("target maps are inconsistent with the limit")
    return f


def kernel_of_leg(lim: Limit, i: str) -> Rows:
    """Canonical basis of ker phi_i, as vectors in the stage-i coordinates.
    On a validated system the leg kernel pass runs first (see the module
    docstring), which fills the kernel memo of every leg of `direct_limit`;
    any other leg, such as one of `quotient_limit`, is reduced on its own."""
    leg, sys = lim.leg(i), lim.system
    if leg._kernel is None and sys.__dict__.get("_validation"):
        _leg_kernels(sys)
    return leg.kernel()


def kernel_union(sys: DirectSystem, i: str) -> Rows:
    """Sum over j >= i of ker f_i^j, computed without constructing the limit:
    on a valid system it is ker f_i^top, read off the leg kernel pass.
    Raises InvalidSystem on a system with defects."""
    if i not in sys.spaces:
        raise UnknownElement(i)
    _require_valid(sys)
    return _leg_kernels(sys)[i]


def _leg_kernels(sys: DirectSystem) -> dict[str, Rows]:
    """ker f_e^top for every stage e of the valid system, computed once
    bottom-up; a grade proved injective for the leg at e and of one
    dimension at e and at c, the route of e to top, is skipped for c."""
    kernels = sys.__dict__.get("_kernels")
    if kernels is None:
        poset, up = sys.poset, sys.poset._up()
        top, injective = poset.greatest(), {}
        kernels = {top: ()}
        for e in sorted(poset.elements, key=lambda e: -len(up[e]))[:-1]:
            leg, c = sys.maps[(e, top)], poset.upper_covers()[e][0]
            open_grades = leg._solve_kernel(injective.get(e, ()))
            kernels[e] = leg._kernel
            src, mid = sys.spaces[e].grades, sys.spaces[c].grades
            injective.setdefault(c, set()).update(
                key for key, ix in src.items() if key not in open_grades and len(mid.get(key, ())) == len(ix))
        sys.__dict__["_kernels"] = kernels
    return kernels
