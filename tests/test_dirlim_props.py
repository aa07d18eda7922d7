"""Seeded property suites for the limit machinery."""

import random

from limfuse.dirlim import DirectedPoset, DirectSystem
from limfuse.dirlim.randgen import random_system
from limfuse.dirlim.selftest import (
    check_fubini_case,
    check_inclusion_case,
    check_system,
    check_system_case,
    run_selftest,
)


def test_selftest_hundred_cases():
    res = run_selftest(seed=0, cases=100)
    assert res.ok, res.failures


def test_alternate_seed_batch():
    res = run_selftest(seed=1, cases=25)
    assert res.ok, res.failures


def test_q_map_injective_on_200_inclusion_systems():
    problems = []
    for seed in range(200):
        problems += check_inclusion_case(seed)
    assert problems == []


def test_system_properties_individual_seeds():
    # a denser perturbation sweep on a handful of cases
    for seed in [0, 3, 17, 42, 99]:
        assert check_system_case(seed, perturb_entries=None) == []


def test_fubini_extra_seeds():
    for seed in range(100, 120):
        assert check_fubini_case(seed) == []


def test_shuffled_elements_on_200_systems():
    # with the greatest element not listed last, the quotient construction
    # picks other basis vectors; check_system demands an isomorphism that
    # carries each of its legs onto the direct leg
    problems = []
    for seed in range(200):
        sys = random_system(seed)
        elements = list(sys.poset.elements)
        random.Random(seed).shuffle(elements)
        shuffled = DirectSystem(DirectedPoset(tuple(elements), sys.poset.leq), sys.spaces, sys.maps)
        problems += [f"seed {seed}: {p}" for p in check_system(shuffled, seed)]
    assert problems == []
