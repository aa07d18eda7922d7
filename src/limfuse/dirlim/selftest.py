"""Property suite over seeded random systems, shared by pytest and the CLI.

Each system case constructs the limit and checks, by exact linear algebra:
agreement with the quotient construction (isomorphic through the universal
map, which carries each quotient leg onto the matching direct leg), leg
compatibility, that the top leg's image is everything (union of images),
the kernel identity ker(phi_i) = sum of ker(f_i^j) over j >= i (the sum from
`kernel_union`, phi_i from the quotient construction), existence and
uniqueness of the universal map to a concrete target, and injectivity of the
canonical map for inclusion systems.  Uniqueness is certified by the top
leg's rank: every leg phi_i factors through phi_top, so a map F out of the
limit is fixed by F o phi_top, and is unique exactly when phi_top is onto.
A universal map that does not exist (`IncompatibleTarget`) is reported as a
failure, not raised.
Each comparison case checks that the iterated and multiple limits of a
random triple are isomorphic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from limfuse.dirlim import linalg
from limfuse.dirlim.inclusion import q_map
from limfuse.dirlim.randgen import (
    random_fubini_triple,
    random_inclusion_case,
    random_system,
)
from limfuse.dirlim.system import (
    DirectSystem,
    IncompatibleTarget,
    Target,
    direct_limit,
    kernel_of_leg,
    kernel_union,
    quotient_limit,
    universal_map,
    validate_system,
)
from limfuse.dirlim.tensor import fubini_compare


def check_system_case(seed: int) -> list[str]:
    """Run every system property for one seed; returns the failures."""
    return check_system(random_system(seed))


def check_system(sys: DirectSystem) -> list[str]:
    """Run every system property on `sys`; returns the failures."""
    problems: list[str] = []
    report = validate_system(sys)
    if not report.ok:
        return [f"generated system invalid: {p}" for p in report.problems]
    lim = direct_limit(sys)
    oracle = quotient_limit(sys)
    problems.extend(_against_quotient(sys, lim, oracle))

    for i, j in sys.poset.strict_pairs():
        if lim.legs[j] @ sys.map(i, j) != lim.legs[i]:
            problems.append(f"leg compatibility fails at {i} <= {j}")

    top = sys.poset.greatest()  # a valid poset has one
    if lim.legs[top].rank() != lim.space.dim:  # the uniqueness certificate
        problems.append("top leg does not cover the limit")

    for i in sys.poset.elements:
        if kernel_of_leg(oracle, i) != kernel_union(sys, i):
            problems.append(f"kernel identity fails at {i}")

    psis = {i: sys.map(i, top) for i in sys.poset.elements}
    try:
        f = universal_map(lim, Target(sys.space(top), psis))
    except IncompatibleTarget as e:
        return problems + [f"no universal map: {e}"]
    for i in sys.poset.elements:
        if f @ lim.legs[i] != psis[i]:
            problems.append(f"universal map misses psi_{i}")
    return problems


def _against_quotient(sys: DirectSystem, lim, oracle) -> list[str]:
    if oracle.space.graded_dims() != lim.space.graded_dims():
        return ["graded dimensions differ from the quotient construction"]
    try:
        comparison = universal_map(oracle, Target(lim.space, lim.legs))
    except IncompatibleTarget as e:
        return [f"no map from the quotient construction: {e}"]
    if comparison.rank() != lim.space.dim:
        return ["map from the quotient construction is not invertible"]
    return [f"map from the quotient construction misses the leg at {e}"
            for e in sys.poset.elements if comparison @ oracle.legs[e] != lim.legs[e]]


def check_inclusion_case(seed: int) -> list[str]:
    """Q-map injectivity (and the covering criterion) for one seed."""
    rng = random.Random(seed)
    incsys = random_inclusion_case(rng)
    res = q_map(incsys.ambient, incsys)
    problems = []
    if not res.injective:
        problems.append("canonical map into the ambient space is not injective")
    all_rows = [row for rows in incsys.subspace_rows.values() for row in rows]
    covers = linalg.rank(all_rows, incsys.ambient.dim) == incsys.ambient.dim
    if res.surjective != covers:
        problems.append("surjectivity verdict disagrees with the covering test")
    return problems


def check_fubini_case(seed: int) -> list[str]:
    a, b, c = random_fubini_triple(seed)
    rep = fubini_compare(a, b, c)
    if not rep.is_isomorphism:
        return [
            f"comparison not an isomorphism: dims {rep.multiple_dims} vs {rep.iterated_dims}"
        ]
    return []


@dataclass(frozen=True)
class SelftestResult:
    cases: int
    passed: int
    failures: tuple[tuple[str, int, tuple[str, ...]], ...]

    @property
    def ok(self) -> bool:
        return self.passed == self.cases


def run_selftest(seed: int = 0, cases: int = 100) -> SelftestResult:
    """Run `cases` seeded property cases; each case bundles one system case,
    one inclusion case, and one comparison case."""
    failures = []
    passed = 0
    for k in range(cases):
        case_seed = seed * 1_000_003 + k
        problems = (
            check_system_case(case_seed)
            + check_inclusion_case(case_seed)
            + check_fubini_case(case_seed)
        )
        if problems:
            failures.append(("case", k, tuple(problems)))
        else:
            passed += 1
    return SelftestResult(cases, passed, tuple(failures))
