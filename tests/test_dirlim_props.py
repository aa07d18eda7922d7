"""Seeded property suites for the limit machinery."""

import random

from limfuse.dirlim import DirectedPoset, DirectSystem, GradeMap, Limit, direct_limit
from limfuse.dirlim import selftest, tensor
from limfuse.dirlim.randgen import random_fubini_triple, random_system
from limfuse.dirlim.selftest import (
    check_fubini_case,
    check_inclusion_case,
    check_system,
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


def test_fubini_extra_seeds():
    for seed in range(100, 120):
        assert check_fubini_case(seed) == []


def test_fubini_verdict_sees_a_zeroed_inner_limit(monkeypatch):
    # fubini_compare takes three limits: the multiple one, then the inner
    # b (x) c, then the iterated one.  Zeroing the inner limit's legs zeroes
    # the comparison map, so wherever the multiple limit is not zero the
    # verdict must turn False; a verdict that is always True fails here
    calls = []

    def zero_second(sys):
        lim = direct_limit(sys)
        calls.append(sys)
        if len(calls) != 2:
            return lim
        legs = {i: GradeMap(leg.source, leg.target, [[0] * leg.source.dim for _ in range(leg.target.dim)])
                for i, leg in lim.legs.items()}
        return Limit(lim.space, legs, sys)

    caught = 0
    for seed in range(100):
        a, b, c = random_fubini_triple(seed)
        if not tensor.fubini_compare(a, b, c).multiple.space.dim:
            continue
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(tensor, "direct_limit", zero_second)
            assert not tensor.fubini_compare(a, b, c).is_isomorphism, seed
        assert len(calls) == 3
        caught += 1
    assert caught == 22


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
        problems += [f"seed {seed}: {p}" for p in check_system(shuffled)]
    assert problems == []


def _row_zero_dropped(sys):
    # the real limit with row 0 of every leg zeroed: still a cocone, but the
    # top leg no longer covers the limit, so no map out of it is unique and
    # the identity of V_top does not factor through it
    lim = direct_limit(sys)
    legs = {i: GradeMap(leg.source, leg.target, [[0] * leg.source.dim] + [list(r) for r in leg.matrix[1:]])
            for i, leg in lim.legs.items()}
    return Limit(lim.space, legs, sys)


def test_top_leg_not_onto_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(selftest, "direct_limit", _row_zero_dropped)
    reported = 0
    for seed in range(60):
        sys = random_system(seed)
        if not direct_limit(sys).space.dim:
            continue
        problems = check_system(sys)
        assert "top leg does not cover the limit" in problems, (seed, problems)
        reported += 1
    assert reported == 39
