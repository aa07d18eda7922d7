"""Seeded random direct systems for the property suites.

Three shapes are produced, all satisfying functoriality by construction:

* tree systems, given by their cover maps: every non-top element has exactly
  one upper cover, so each composite map is the composition along a unique
  cover chain;
* product systems: the tensor product of two random chain systems, which
  yields diamond-shaped posets;
* inclusion systems: random graded subspaces of a random ambient space.
"""

from __future__ import annotations

import random
from fractions import Fraction

from limfuse.dirlim.graded import GradedSpace, GradeMap
from limfuse.dirlim.inclusion import InclusionSystem, inclusion_system
from limfuse.dirlim.poset import DirectedPoset
from limfuse.dirlim.system import DirectSystem

WEIGHT_POOL = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


def random_space(rng: random.Random, max_dim: int = 5, n_weights: int = 4, prefix: str = "e") -> GradedSpace:
    dim = rng.randint(0, max_dim)
    pool = WEIGHT_POOL[:n_weights]
    return GradedSpace(tuple((f"{prefix}{k+1}", rng.choice(pool)) for k in range(dim)))


def random_grade_map(rng: random.Random, source: GradedSpace, target: GradedSpace) -> GradeMap:
    """Random map with entries in small integers; zero across distinct weights."""
    rows = [[Fraction(0)] * source.dim for _ in range(target.dim)]
    for r in range(target.dim):
        wr = target.weight(r)
        for c in range(source.dim):
            if source.weight(c) == wr:
                rows[r][c] = Fraction(rng.choice([-2, -1, 0, 0, 1, 1, 2]))
    return GradeMap(source, target, tuple(tuple(r) for r in rows))


def random_tree_system(rng: random.Random, max_elements: int = 6, max_dim: int = 5) -> DirectSystem:
    n = rng.randint(1, max_elements)
    names = [f"e{k+1}" for k in range(n)]
    spaces = {name: random_space(rng, max_dim, prefix=f"{name}b") for name in names}
    parent = {k: rng.randint(k + 1, n - 1) for k in range(n - 1)}
    covers = [(names[k], names[p]) for k, p in parent.items()]
    poset = DirectedPoset.from_covers(names, covers)
    step = {
        (names[k], names[p]): random_grade_map(rng, spaces[names[k]], spaces[names[p]])
        for k, p in parent.items()
    }
    return DirectSystem(poset, spaces, step)


def random_chain_system(rng: random.Random, length: int, max_dim: int, prefix: str) -> DirectSystem:
    spaces = [random_space(rng, max_dim, n_weights=3, prefix=f"{prefix}{k}b") for k in range(length)]
    steps = [random_grade_map(rng, spaces[k], spaces[k + 1]) for k in range(length - 1)]
    return DirectSystem.on_chain(spaces, steps, prefix=prefix)


def random_product_system(rng: random.Random) -> DirectSystem:
    from limfuse.dirlim.tensor import tensor_system

    a = random_chain_system(rng, rng.choice([2, 3]), 2, "a")
    b = random_chain_system(rng, 2, 2, "b")
    return tensor_system(a, b)


def random_inclusion_case(rng: random.Random, max_dim: int = 5, max_subspaces: int = 5) -> InclusionSystem:
    ambient = random_space(rng, max_dim, prefix="amb")
    subspaces = []
    grades = ambient.grades
    for _ in range(rng.randint(0, max_subspaces)):
        rows = []
        for _ in range(rng.randint(1, 2)):
            if not grades:
                break
            key = rng.choice(list(grades))
            row = [Fraction(0)] * ambient.dim
            for c in grades[key]:
                row[c] = Fraction(rng.choice([-1, 0, 1, 2]))
            rows.append(tuple(row))
        if rows:
            subspaces.append(rows)
    return inclusion_system(ambient, subspaces)


def random_system(seed: int) -> DirectSystem:
    """Deterministic mixed-shape system for one property-suite case."""
    rng = random.Random(seed)
    shape = rng.random()
    if shape < 0.6:
        return random_tree_system(rng)
    if shape < 0.8:
        return random_product_system(rng)
    return random_inclusion_case(rng, max_dim=4, max_subspaces=3).system


def random_fubini_triple(seed: int) -> tuple[DirectSystem, DirectSystem, DirectSystem]:
    rng = random.Random(seed)
    lengths = [rng.choice([2, 3, 3]) for _ in range(3)]
    dims = [rng.choice([1, 2, 3]) for _ in range(3)]
    a = random_chain_system(rng, lengths[0], dims[0], "a")
    b = random_chain_system(rng, lengths[1], dims[1], "b")
    c = random_chain_system(rng, lengths[2], dims[2], "c")
    return a, b, c
