"""Limit construction, universal maps, inclusion systems, tensor products."""

from fractions import Fraction as F

import hashlib
import json
import math
import random
import re

import pytest

from limfuse.dirlim import (
    DirectedPoset,
    DirectSystem,
    GradedSpace,
    GradeMap,
    IncompatibleTarget,
    InvalidSystem,
    Limit,
    NotASubspace,
    Target,
    UnknownElement,
    canonical_subspace,
    direct_limit,
    fubini_compare,
    inclusion_system,
    kernel_of_leg,
    kernel_union,
    q_map,
    system_from_json,
    system_to_json,
    tensor_system,
    universal_map,
    validate_system,
)
from limfuse.cli import main
from limfuse.dirlim import inclusion, linalg, randgen
from limfuse.dirlim.randgen import random_system
from limfuse.dirlim.system import quotient_limit

from oracles import null_space_by_rref

Q1 = GradedSpace.std(1, 0)
Q2 = GradedSpace.std(2, 0)
Q3 = GradedSpace.std(3, 0)


def inclusion_chain():
    inc12 = GradeMap.make(Q1, Q2, [[1], [0]])
    inc23 = GradeMap.make(Q2, Q3, [[1, 0], [0, 1], [0, 0]])
    return DirectSystem.on_chain([Q1, Q2, Q3], [inc12, inc23])


class TestValidate:
    def test_constant_system_valid(self):
        sys = DirectSystem.constant(DirectedPoset.chain(2), Q2)
        assert validate_system(sys).ok

    def test_planted_composition_defect(self):
        sys = inclusion_chain()
        maps = dict(sys.maps)
        maps[("1", "3")] = GradeMap.make(Q1, Q3, [[0], [1], [0]])
        report = validate_system(DirectSystem(sys.poset, sys.spaces, maps))
        assert report.problems == ("composition violated: f_2^3 o f_1^2 != f_1^3",)

    def test_non_directed_poset(self):
        poset = DirectedPoset(("a", "b"), frozenset({("a", "a"), ("b", "b")}))
        sys = DirectSystem(poset, {"a": Q1, "b": Q1}, {})
        problems = validate_system(sys).problems
        assert any("upper bound" in p for p in problems)

    def test_grade_violation_reported(self):
        # a map that joins weights is refused when it is built, so no system
        # holds one; its graded part makes a valid system
        mixed = GradedSpace.make([("e1", 0), ("e2", 1)])
        with pytest.raises(ValueError, match=r"^entry \(0, 1\) joins source weight 1 to target weight 0$"):
            GradeMap.make(mixed, mixed, [[0, 1], [0, 0]])
        graded = GradeMap.make(mixed, mixed, [[0, 0], [0, 1]])
        assert validate_system(DirectSystem.on_chain([mixed, mixed], [graded])).ok

    def test_empty_poset_reported(self):
        # every valid poset has a greatest element, the limit's stage
        empty = DirectSystem(DirectedPoset.chain(0), {}, {})
        loaded = system_from_json({"poset": {"elements": [], "leq": []}, "spaces": {}, "maps": {}})
        for sys in (empty, loaded):
            assert validate_system(sys).problems == ("empty poset",)
            for construct in (direct_limit, quotient_limit):
                with pytest.raises(InvalidSystem, match="^empty poset$"):
                    construct(sys)
        stray_space = DirectSystem(DirectedPoset.chain(0), {"a": Q1}, {})
        with pytest.raises(InvalidSystem, match="^empty poset; space stored for unknown element a$"):
            kernel_union(stray_space, "a")

    def test_missing_map_reported(self):
        sys = inclusion_chain()
        maps = dict(sys.maps)
        del maps[("2", "3")]
        problems = validate_system(DirectSystem(sys.poset, sys.spaces, maps)).problems
        assert problems == ("missing map for 2 <= 3",)

    def test_space_for_unknown_element_reported(self):
        sys = inclusion_chain()
        ghost = DirectSystem(sys.poset, {**sys.spaces, "ghost": Q1}, sys.maps)
        assert validate_system(ghost).problems == ("space stored for unknown element ghost",)
        spaces = dict(sys.spaces)
        spaces["ghost"] = spaces.pop("3")  # as many spaces as elements, one misplaced
        assert validate_system(DirectSystem(sys.poset, spaces, {})).problems == (
            "missing space for 3", "space stored for unknown element ghost")

    def test_wrong_non_cover_map_on_four_chain(self):
        # every cover map and every composite but f_1^4 is right
        sys = DirectSystem.constant(DirectedPoset.chain(4), Q2)
        maps = dict(sys.maps)
        maps[("1", "4")] = GradeMap.make(Q2, Q2, [[0, 1], [1, 0]])
        report = validate_system(DirectSystem(sys.poset, sys.spaces, maps))
        assert not report.ok
        assert report.problems == ("composition violated: f_2^4 o f_1^2 != f_1^4",)

    def test_non_commuting_square_in_tensor_diamond(self):
        a = DirectSystem.constant(DirectedPoset.chain(2, "a"), Q2)
        b = DirectSystem.constant(DirectedPoset.chain(2, "b"), Q2)
        ts = tensor_system(a, b)
        maps = dict(ts.maps)
        swap = GradeMap.make(ts.space("(a1,b1)"), ts.space("(a2,b1)"),
                             [[1 if r == (c + 1) % 4 else 0 for c in range(4)] for r in range(4)])
        maps[("(a1,b1)", "(a2,b1)")] = swap
        report = validate_system(DirectSystem(ts.poset, ts.spaces, maps))
        assert not report.ok
        assert all(p.startswith("composition violated") for p in report.problems)

    def test_every_related_pair_accepted(self):
        sys = inclusion_chain()
        maps = dict(sys.maps)
        for e in sys.poset.elements:
            maps[(e, e)] = GradeMap.identity(sys.space(e))
        assert validate_system(DirectSystem(sys.poset, sys.spaces, maps)).ok

    def test_report_memoized_and_inputs_copied(self):
        sys0 = inclusion_chain()
        maps = dict(sys0.maps)
        spaces = dict(sys0.spaces)
        sys = DirectSystem(sys0.poset, spaces, maps)
        report = validate_system(sys)
        assert report.ok
        maps[("1", "3")] = GradeMap.make(Q1, Q3, [[0], [1], [0]])
        spaces["1"] = Q2
        assert sys.maps == sys0.maps and sys.spaces == sys0.spaces
        assert validate_system(sys) is report
        assert validate_system(DirectSystem(sys.poset, sys.spaces, maps)).problems == (
            "composition violated: f_2^3 o f_1^2 != f_1^3",
        )
        with pytest.raises(TypeError):
            sys.maps[("1", "3")] = maps[("1", "3")]

    def test_stored_maps_are_returned_without_a_route_walk(self, monkeypatch):
        step = GradeMap.make(Q2, Q2, [[1, 1], [0, 1]])
        sys = DirectSystem.on_chain([Q2] * 4, [step] * 3)
        routes, route = [], type(sys.maps).route
        monkeypatch.setattr(type(sys.maps), "route", lambda self, i, k: routes.append(i) or route(self, i, k))
        assert sys.maps[("1", "2")] is step and not routes
        leg = sys.maps[("1", "4")]
        assert leg == step @ step @ step and routes == ["1", "2"]
        assert sys.maps[("1", "4")] is leg and sys.maps[("2", "4")] == step @ step and routes == ["1", "2"]
        for key in (("4", "1"), ("1", "1"), ("1", "5")):
            with pytest.raises(KeyError):
                sys.maps[key]

    def test_work_count_on_twelve_chain(self, monkeypatch):
        # a chain given by covers has no diamonds, so validation composes
        # nothing; the legs f_i^12 are composed once down the chain (10
        # compositions) and the universal map checks its cocone along the 11
        # covers only
        spaces = [GradedSpace.make([("a", 0), ("b", 0), ("c", 1)])] * 12
        step = GradeMap.make(spaces[0], spaces[0], [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        sys = DirectSystem.on_chain(spaces, [step] * 11)
        calls = []
        compose = GradeMap.__matmul__

        def counted(self, other):
            calls.append(1)
            return compose(self, other)

        monkeypatch.setattr(GradeMap, "__matmul__", counted)
        assert validate_system(sys).ok
        assert validate_system(sys).ok
        lim = direct_limit(sys)
        psis = {e: sys.map(e, "12") for e in sys.poset.elements}
        universal_map(lim, Target(sys.space("12"), psis))
        assert len(calls) <= 11 + 11

    def test_one_kernel_per_stage_on_twelve_chain(self, monkeypatch):
        # kernel_union and kernel_of_leg share ker f_i^12: one row reduction
        # per stage of a one-grade chain, none for the identity at the top
        space = GradedSpace.std(3, 0)
        step = GradeMap.make(space, space, [[1, 1, 0], [0, 1, 0], [0, 0, 0]])
        sys = DirectSystem.on_chain([space] * 12, [step] * 11)
        lim = direct_limit(sys)
        calls = []
        rref = linalg.rref

        def counted(rows, ncols):
            calls.append(1)
            return rref(rows, ncols)

        monkeypatch.setattr(linalg, "rref", counted)
        for e in sys.poset.elements:
            assert kernel_union(sys, e) == kernel_of_leg(lim, e)
        assert len(calls) <= 12
        assert kernel_union(sys, "1") == ((F(0), F(0), F(1)),)

    def test_cover_only_diamond_with_non_commuting_square(self):
        a = DirectSystem.constant(DirectedPoset.chain(2, "a"), Q2)
        b = DirectSystem.constant(DirectedPoset.chain(2, "b"), Q2)
        ts = tensor_system(a, b)
        assert validate_system(ts).ok
        covers = {c: ts.maps[c] for c in ts.poset.covers()}
        covers[("(a1,b1)", "(a2,b1)")] = GradeMap.make(
            ts.space("(a1,b1)"), ts.space("(a2,b1)"),
            [[1 if r == (c + 1) % 4 else 0 for c in range(4)] for r in range(4)])
        report = validate_system(DirectSystem(ts.poset, ts.spaces, covers))
        assert report.problems == (
            "composition violated: f_(a2,b1)^(a2,b2) o f_(a1,b1)^(a2,b1) != f_(a1,b1)^(a2,b2)",
        )

    def test_cover_only_input_defects(self):
        # a given non-cover map is a claim: one that agrees with its cover
        # composite is valid, one that disagrees breaks its route triple
        sys = inclusion_chain()
        assert len(sys.maps) == 3 and ("1", "3") in sys.maps
        covers = {("1", "2"): sys.maps[("1", "2")]}
        problems = validate_system(DirectSystem(sys.poset, sys.spaces, covers)).problems
        assert problems == ("missing map for 2 <= 3",)
        assert validate_system(DirectSystem(sys.poset, sys.spaces, dict(sys.maps))).ok
        wrong = {**sys.maps, ("1", "3"): GradeMap.make(Q1, Q3, [[0], [1], [0]])}
        problems = validate_system(DirectSystem(sys.poset, sys.spaces, wrong)).problems
        assert problems == ("composition violated: f_2^3 o f_1^2 != f_1^3",)

    def test_composites_derived_from_covers(self):
        sys = inclusion_chain()
        f13 = sys.maps[("1", "3")]
        assert f13 == sys.maps[("2", "3")] @ sys.maps[("1", "2")]
        assert sys.maps[("1", "3")] is f13
        assert dict(sys.maps) == dict(DirectSystem(sys.poset, sys.spaces, dict(sys.maps)).maps)

    def test_every_pair_given_matches_the_cover_form(self):
        for s in range(150):
            sys = random_system(s)
            full = DirectSystem(sys.poset, sys.spaces, dict(sys.maps))
            assert validate_system(full).ok, s
            assert json.dumps(system_to_json(full), sort_keys=True) == json.dumps(
                system_to_json(sys), sort_keys=True), s

    def test_wrong_claim_reported_on_its_route_triple(self):
        swap = GradeMap.make(Q2, Q2, [[0, 1], [1, 0]])
        tree = DirectSystem(DirectedPoset.from_covers("abcd", [("a", "c"), ("b", "c"), ("c", "d")]),
                            {e: Q2 for e in "abcd"}, {})
        maps = {c: GradeMap.identity(Q2) for c in tree.poset.covers()}
        maps[("a", "d")] = swap
        report = validate_system(DirectSystem(tree.poset, tree.spaces, maps))
        assert report.problems == ("composition violated: f_c^d o f_a^c != f_a^d",)
        a = DirectSystem.constant(DirectedPoset.chain(2, "a"), GradedSpace.std(1))
        b = DirectSystem.constant(DirectedPoset.chain(2, "b"), Q2)
        ts = tensor_system(a, b)
        swap = GradeMap.make(ts.space("(a1,b1)"), ts.space("(a2,b2)"), [[0, 1], [1, 0]])
        maps = {**{c: ts.maps[c] for c in ts.poset.covers()}, ("(a1,b1)", "(a2,b2)"): swap}
        report = validate_system(DirectSystem(ts.poset, ts.spaces, maps))
        assert ts.maps.route("(a1,b1)", "(a2,b2)") == "(a1,b2)"
        assert report.problems == (
            "composition violated: f_(a1,b2)^(a2,b2) o f_(a1,b1)^(a1,b2) != f_(a1,b1)^(a2,b2)",
            "composition violated: f_(a2,b1)^(a2,b2) o f_(a1,b1)^(a2,b1) != f_(a1,b1)^(a2,b2)",
        )

    def test_omitted_non_cover_map_is_composed(self):
        steps = [GradeMap.make(Q2, Q2, m) for m in ([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [1, 0]])]
        sys = DirectSystem.on_chain([Q2] * 4, steps)
        maps = dict(sys.maps)
        del maps[("1", "4")]
        full = DirectSystem(sys.poset, sys.spaces, maps)
        assert validate_system(full).ok
        assert ("1", "4") in full.maps and ("1", "4") not in full.maps.given
        assert full.map("1", "4") == steps[2] @ steps[1] @ steps[0]

    def test_every_pair_given_twelve_chain_checks_each_claim_once(self, monkeypatch):
        # one composition per non-cover pair: 66 strict pairs less 11 covers
        spaces = [GradedSpace.make([("a", 0), ("b", 0), ("c", 1)])] * 12
        step = GradeMap.make(spaces[0], spaces[0], [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        sys = DirectSystem.on_chain(spaces, [step] * 11)
        full = DirectSystem(sys.poset, sys.spaces, dict(sys.maps))
        calls = []
        compose = GradeMap.__matmul__

        def counted(self, other):
            calls.append(1)
            return compose(self, other)

        monkeypatch.setattr(GradeMap, "__matmul__", counted)
        assert validate_system(full).ok
        assert len(calls) <= 55


class TestDirectLimit:
    def test_constant_system_legs_iso(self):
        for poset in [DirectedPoset.chain(1), DirectedPoset.chain(3),
                      DirectedPoset.chain(2).product(DirectedPoset.chain(2))]:
            sys = DirectSystem.constant(poset, Q2)
            lim = direct_limit(sys)
            assert lim.space.dim == 2
            for e in poset.elements:
                assert lim.legs[e].rank() == 2

    def test_zero_maps_chain(self):
        # all lower stages die in the limit; the top stage survives, so the
        # top leg is an isomorphism and every other leg is zero
        zero = GradeMap.zero(Q1, Q1)
        sys = DirectSystem.on_chain([Q1, Q1, Q1], [zero, zero])
        lim = direct_limit(sys)
        assert lim.space.dim == 1
        assert lim.legs["3"].rank() == 1
        assert lim.legs["1"].rank() == 0
        assert kernel_of_leg(lim, "1") == ((F(1),),)

    def test_inclusion_chain_limit(self):
        lim = direct_limit(inclusion_chain())
        assert lim.space.dim == 3
        for e in ("1", "2", "3"):
            assert kernel_of_leg(lim, e) == ()

    def test_invalid_system_raises(self):
        poset = DirectedPoset(("a", "b"), frozenset({("a", "a"), ("b", "b")}))
        sys = DirectSystem(poset, {"a": Q1, "b": Q1}, {})
        with pytest.raises(InvalidSystem):
            direct_limit(sys)

    def test_leg_compatibility_holds(self):
        sys = inclusion_chain()
        lim = direct_limit(sys)
        for i, j in sys.poset.strict_pairs():
            assert lim.legs[j] @ sys.map(i, j) == lim.legs[i]

    def test_limit_is_the_greatest_stage(self):
        # V_top itself, in its own basis order, with the maps f_i^top as legs
        sp = GradedSpace.make([("x", 1), ("y", 0), ("z", 1), ("u", 0)])
        f = GradeMap.make(sp, sp, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        for sys in (DirectSystem.on_chain([sp, sp, sp], [f, f]), inclusion_chain(), *map(random_system, range(20))):
            top = sys.poset.greatest()
            lim = direct_limit(sys)
            assert lim.space is sys.spaces[top]
            assert all(lim.legs[e] == sys.map(e, top) for e in sys.poset.elements)
            assert lim.legs[top] == GradeMap.identity(lim.space)
            assert all(kernel_of_leg(lim, e) == kernel_union(sys, e) for e in sys.poset.elements)

    def test_top_not_last_is_isomorphic_to_quotient(self):
        sys = inclusion_chain()
        poset = DirectedPoset(("3", "1", "2"), sys.poset.leq)
        shuffled = DirectSystem(poset, sys.spaces, sys.maps)
        lim, oracle = direct_limit(shuffled), quotient_limit(shuffled)
        comparison = universal_map(oracle, Target(lim.space, lim.legs))
        assert comparison.rank() == 3
        for e in shuffled.poset.elements:
            assert comparison @ oracle.legs[e] == lim.legs[e]

    def test_graded_quotient(self):
        # two grades, the map kills grade 0 and keeps grade 1
        sp = GradedSpace.make([("a", 0), ("b", 1)])
        f = GradeMap.make(sp, sp, [[0, 0], [0, 1]])
        lim = direct_limit(DirectSystem.on_chain([sp, sp], [f]))
        assert lim.space.graded_dims() == {F(0): 1, F(1): 1}
        assert kernel_of_leg(lim, "1") == ((F(1), F(0)),)


class TestUniversalMap:
    def test_identity_target(self):
        sys = inclusion_chain()
        lim = direct_limit(sys)
        f = universal_map(lim, Target(lim.space, dict(lim.legs)))
        assert f == GradeMap.identity(lim.space)

    def test_greatest_element_target(self):
        sys = inclusion_chain()
        lim = direct_limit(sys)
        psis = {e: sys.map(e, "3") for e in sys.poset.elements}
        f = universal_map(lim, Target(Q3, psis))
        assert f @ lim.legs["3"] == GradeMap.identity(Q3)
        for e in sys.poset.elements:
            assert f @ lim.legs[e] == psis[e]

    @staticmethod
    def _own_leg_systems():
        """A chain, a tree and a product of two chains, with their tops."""
        step = GradeMap.make(Q2, Q2, [[1, 1], [0, 0]])
        chain = DirectSystem.on_chain([Q2] * 5, [step] * 4)
        swap = GradeMap.make(Q2, Q2, [[0, 1], [1, 0]])
        tree = DirectSystem(DirectedPoset.from_covers("abcde", [("a", "c"), ("b", "c"), ("c", "e"), ("d", "e")]),
                            {e: Q2 for e in "abcde"},
                            {("a", "c"): step, ("b", "c"): swap, ("c", "e"): step, ("d", "e"): swap})
        x = DirectSystem.on_chain([Q1, Q2], [GradeMap.make(Q1, Q2, [[1], [2]])], "x")
        y = DirectSystem.on_chain([Q2, Q2, Q1], [step, GradeMap.make(Q2, Q1, [[1, 3]])], "y")
        return [(chain, "5"), (tree, "e"), (tensor_system(x, y), "(x2,y3)")]

    def test_own_legs_are_not_recomposed(self, monkeypatch):
        # a target of the system's own maps into top is a cocone by
        # functoriality, which validation certified: no composition at all
        calls, compose = [], GradeMap.__matmul__
        monkeypatch.setattr(GradeMap, "__matmul__", lambda self, other: calls.append(1) or compose(self, other))
        for sys, top in self._own_leg_systems():
            lim = direct_limit(sys)
            psis = {e: sys.map(e, top) for e in sys.poset.elements}
            calls.clear()
            f = universal_map(lim, Target(sys.space(top), psis))
            assert calls == [] and f == GradeMap.identity(sys.space(top))

    def test_copies_of_own_legs_take_the_composed_check(self, monkeypatch):
        calls, compose = [], GradeMap.__matmul__
        monkeypatch.setattr(GradeMap, "__matmul__", lambda self, other: calls.append(1) or compose(self, other))
        for sys, top in self._own_leg_systems():
            lim = direct_limit(sys)
            psis = {e: sys.map(e, top) for e in sys.poset.elements}
            copies = {e: GradeMap(psi.source, psi.target, psi.matrix) for e, psi in psis.items()}
            assert all(copies[e] == psis[e] and copies[e] is not psis[e] for e in psis)
            calls.clear()
            f = universal_map(lim, Target(sys.space(top), copies))
            assert len(calls) == len(sys.poset.covers()) and f == GradeMap.identity(sys.space(top))

    def test_zero_target(self):
        sys = inclusion_chain()
        lim = direct_limit(sys)
        zero = GradedSpace.zero()
        psis = {e: GradeMap.zero(sys.space(e), zero) for e in sys.poset.elements}
        f = universal_map(lim, Target(zero, psis))
        assert f.matrix == ()

    def test_failure_along_a_single_cover_rejected(self):
        spaces = [Q1, Q2, Q3, Q3]
        steps = [GradeMap.make(Q1, Q2, [[1], [0]]),
                 GradeMap.make(Q2, Q3, [[1, 0], [0, 1], [0, 0]]),
                 GradeMap.identity(Q3)]
        sys = DirectSystem.on_chain(spaces, steps)
        lim = direct_limit(sys)
        psis = {e: sys.map(e, "4") for e in sys.poset.elements}
        psis["1"] = GradeMap.make(Q1, Q3, [[0], [1], [0]])  # breaks only the cover 1 < 2
        with pytest.raises(IncompatibleTarget, match=r"psi_2 o f_1\^2 != psi_1"):
            universal_map(lim, Target(Q3, psis))

    def test_target_map_mixing_weights_rejected(self):
        # a psi that sends a weight-0 vector to a weight-1 one is no GradeMap,
        # so no target holds it; its graded part factors through the limit
        a = GradedSpace.make([("a", 0)])
        sys = DirectSystem.on_chain([a, a], [GradeMap.identity(a)])
        lim = direct_limit(sys)
        tgt = GradedSpace.make([("x", 0), ("y", 1)])
        for rows in ([[1], [5]], [[1], [F(5)]]):
            with pytest.raises(ValueError, match=r"^entry \(1, 0\) joins source weight 0 to target weight 1$"):
                GradeMap.make(a, tgt, rows)
        psi = GradeMap.make(a, tgt, [[1], [0]])
        assert universal_map(lim, Target(tgt, {"1": psi, "2": psi})).matrix == ((F(1),), (F(0),))

    def test_invalid_system_rejected(self):
        # the limit's system is validated first, so a hand-built limit over
        # an invalid system is refused by name, not by a missing key
        empty = Limit(GradedSpace.zero(), {}, DirectSystem(DirectedPoset.chain(0), {}, {}))
        with pytest.raises(InvalidSystem, match="^empty poset$"):
            universal_map(empty, Target(GradedSpace.zero(), {}))
        s = GradedSpace.std(1)
        ident = GradeMap.identity(s)
        unmapped = Limit(s, {"1": ident, "2": ident}, DirectSystem(DirectedPoset.chain(2), {"1": s, "2": s}, {}))
        with pytest.raises(InvalidSystem, match="^missing map for 1 <= 2$"):
            universal_map(unmapped, Target(s, {"1": ident, "2": ident}))

    def test_incompatible_target_rejected(self):
        sys = inclusion_chain()
        lim = direct_limit(sys)
        psis = {e: sys.map(e, "3") for e in sys.poset.elements}
        psis["1"] = GradeMap.make(Q1, Q3, [[0], [0], [1]])
        with pytest.raises(IncompatibleTarget):
            universal_map(lim, Target(Q3, psis))


class TestKernels:
    def test_planted_kernel(self):
        f12 = GradeMap.make(Q2, Q2, [[0, 0], [0, 1]])  # kills e1
        f23 = GradeMap.identity(Q2)
        sys = DirectSystem.on_chain([Q2, Q2, Q2], [f12, f23])
        lim = direct_limit(sys)
        assert kernel_of_leg(lim, "1") == ((F(1), F(0)),)
        assert kernel_of_leg(lim, "1") == kernel_union(sys, "1")

    def test_injective_maps_no_kernel(self):
        sys = inclusion_chain()
        lim = direct_limit(sys)
        for e in sys.poset.elements:
            assert kernel_of_leg(lim, e) == ()
            assert kernel_union(sys, e) == ()

    def test_zero_maps_full_kernel(self):
        sys = DirectSystem.on_chain([Q2, Q2], [GradeMap.zero(Q2, Q2)])
        lim = direct_limit(sys)
        assert len(kernel_of_leg(lim, "1")) == 2

    def test_unknown_element(self):
        lim = direct_limit(inclusion_chain())
        with pytest.raises(UnknownElement):
            kernel_of_leg(lim, "9")

    def test_kernel_union_requires_a_valid_system(self):
        sys = inclusion_chain()
        maps = dict(sys.maps)
        maps[("1", "3")] = GradeMap.make(Q1, Q3, [[0], [1], [0]])
        with pytest.raises(InvalidSystem):
            kernel_union(DirectSystem(sys.poset, sys.spaces, maps), "1")

    def test_kernel_union_against_the_sum_and_the_quotient_legs(self):
        # the sum over j >= i of ker f_i^j, computed densely as before, and
        # the kernels of the quotient construction's legs, on 200 systems
        # with their elements in generated and in shuffled order
        checked = 0
        for seed in range(200):
            sys = random_system(seed)
            elements = list(sys.poset.elements)
            random.Random(seed).shuffle(elements)
            shuffled = DirectSystem(DirectedPoset(tuple(elements), sys.poset.leq), sys.spaces, sys.maps)
            for s in (sys, shuffled):
                oracle = quotient_limit(s)
                for i in s.poset.elements:
                    got = kernel_union(s, i)
                    assert got == _kernel_union_sum(s, i), (seed, i)
                    assert got == kernel_of_leg(oracle, i), (seed, i)
                    assert all(type(x) is F for row in got for x in row)
                    checked += bool(got)
        assert checked > 100


def _one_grade_chain(rng, n, d, singular):
    """n stages of a d-dimensional grade; `singular` steps kill a vector now
    and then, the others are dense and almost always invertible."""
    space = GradedSpace.std(d)
    steps = []
    for _ in range(n - 1):
        rows = [[rng.choice([-1, 1, 1, 2]) for _ in range(d)] for _ in range(d)]
        if singular and rng.random() < 0.4:
            rows = [[0] * d] + rows[1:]
        steps.append(GradeMap.make(space, space, rows))
    return DirectSystem.on_chain([space] * n, steps)


def _unitriangular_chain(rng, n):
    grades = [F(0), F(0), F(1, 2), F(1), F(1)]
    space = GradedSpace.make([(f"u{k}", w) for k, w in enumerate(grades)])
    steps = [GradeMap.make(space, space, [[1 if r == c else rng.choice([-2, -1, 0, 1, 2])
                                           if c > r and grades[r] == grades[c] else 0 for c in range(5)]
                                          for r in range(5)]) for _ in range(n - 1)]
    return DirectSystem.on_chain([space] * n, steps)


def _leg_kernel_cases():
    """Builders of fresh systems (kernels are kept on the maps, so each
    request order needs its own copy)."""
    cases = [lambda s=s: random_system(s) for s in range(200)]
    for s in range(20):
        cases.append(lambda s=s: _one_grade_chain(random.Random(s), random.Random(s).randint(2, 6), 4, s % 2))
        cases.append(lambda s=s: _unitriangular_chain(random.Random(s), 12))
        cases.append(lambda s=s: randgen.random_tree_system(random.Random(s)))
        cases.append(lambda s=s: randgen.random_product_system(random.Random(s)))
    # V_1(0) is one-dimensional and V_2(0) two-dimensional: f_1^3 is
    # injective on the grade while f_2^3 is not, so nothing may be marked
    v1, v2, v3 = GradedSpace.std(1, 0, "a"), GradedSpace.std(2, 0, "b"), GradedSpace.std(1, 0, "c")
    cases.append(lambda: DirectSystem.on_chain(
        [v1, v2, v3], [GradeMap.make(v1, v2, [[1], [0]]), GradeMap.make(v2, v3, [[1, 0]])]))
    return cases


class TestLegKernels:
    """On a valid system a grade on which the leg f_i^top is injective, and
    on which V_i and V_c (c the route of i to top) have one dimension, is
    injective for f_c^top, whose kernel then skips that block.  Neither the
    kernels nor the work done for them may depend on the order in which
    they are asked for."""

    @staticmethod
    def _orders(sys, rng):
        below = {e: sum(sys.poset.le(x, e) for x in sys.poset.elements) for e in sys.poset.elements}
        bottom_up = sorted(sys.poset.elements, key=below.get)
        shuffled = list(bottom_up)
        rng.shuffle(shuffled)
        return {"bottom-up": bottom_up, "top-down": bottom_up[::-1], "shuffled": shuffled}

    def test_kernels_do_not_depend_on_request_order(self):
        rng = random.Random(31)
        nonzero = 0
        for k, build in enumerate(_leg_kernel_cases()):
            for name in ("bottom-up", "top-down", "shuffled"):
                sys = build()
                lim = direct_limit(sys)
                top = sys.poset.greatest()
                for i in self._orders(sys, rng)[name]:
                    d = sys.spaces[i].dim
                    expected = _dense_kernel(sys.map(i, top).matrix, d) if d else ()
                    asks = [lambda: kernel_of_leg(lim, i), lambda: kernel_union(sys, i)]
                    rng.shuffle(asks)
                    for ask in asks:
                        assert ask() == expected, (k, name, i)
                    nonzero += bool(expected)
        assert nonzero > 300

    def test_one_certificate_up_a_square_one_grade_chain(self, monkeypatch):
        calls, certify = [], linalg.injective_mod_p

        def counted(rows, ncols):
            calls.append(ncols)
            return certify(rows, ncols)

        monkeypatch.setattr(linalg, "injective_mod_p", counted)
        space = GradedSpace.std(5)
        jordan = [[int(c in (r, r + 1)) for c in range(5)] for r in range(5)]

        def chain(n, top_first):
            sys = DirectSystem.on_chain([space] * n, [GradeMap.make(space, space, jordan)] * (n - 1))
            if top_first:  # the same chain, its elements listed top first
                poset = DirectedPoset(sys.poset.elements[::-1], sys.poset.leq)
                sys = DirectSystem(poset, sys.spaces, {k: sys.maps[k] for k in sys.maps.given})
            return sys

        rng = random.Random(5)
        for n in (3, 6, 12):
            for top_first in (False, True):
                for name in ("bottom-up", "top-down", "shuffled"):
                    sys = chain(n, top_first)
                    lim = direct_limit(sys)
                    calls.clear()
                    for i in self._orders(sys, rng)[name]:
                        assert kernel_of_leg(lim, i) == () and kernel_union(sys, i) == ()
                    assert calls == [5], (n, top_first, name)

    def test_each_leg_is_solved_once_and_the_top_one_never(self, monkeypatch):
        solved, solve = [], GradeMap._solve_kernel

        def counted(self, known):
            solved.append(self)
            return solve(self, known)

        monkeypatch.setattr(GradeMap, "_solve_kernel", counted)
        rng = random.Random(87)
        for k, build in enumerate(_leg_kernel_cases()[::5]):
            for name in ("bottom-up", "top-down", "shuffled"):
                sys = build()
                lim = direct_limit(sys)
                top = sys.poset.greatest()
                solved.clear()
                for i in self._orders(sys, rng)[name]:
                    kernel_union(sys, i)
                    kernel_of_leg(lim, i)
                # each f_e^top once; none for kernel_union(sys, top), nor for
                # the limit's top leg, an identity that direct_limit gives
                # the pass's empty kernel
                legs = [sys.maps[(e, top)] for e in sys.poset.elements if e != top]
                assert sorted(map(id, solved)) == sorted(map(id, legs)), (k, name)
                assert id(lim.legs[top]) not in map(id, solved) and kernel_of_leg(lim, top) == (), (k, name)

    def test_the_pass_waits_for_a_valid_system_and_spares_other_legs(self):
        # quotient_limit's legs are other maps and are reduced on their own,
        # also once the system's pass has run
        sys = _unitriangular_chain(random.Random(2), 4)
        oracle = quotient_limit(sys)
        for i in sys.poset.elements:
            kernel_union(sys, i)
        for i in sys.poset.elements:
            assert kernel_of_leg(oracle, i) == _dense_kernel(oracle.legs[i].matrix, sys.spaces[i].dim)
        # an unvalidated system whose given f_1^3 is a false claim: the rule
        # would carry its injectivity up to f_2^3, which kills V_2
        v = GradedSpace.std(1)
        one, zero = GradeMap.make(v, v, [[1]]), GradeMap.make(v, v, [[0]])
        sys = DirectSystem(DirectedPoset.chain(3), {e: v for e in "123"},
                           {("1", "2"): one, ("2", "3"): zero, ("1", "3"): one})
        lim = Limit(v, {"1": one, "2": zero, "3": GradeMap.identity(v)}, sys)
        assert kernel_of_leg(lim, "1") == () and kernel_of_leg(lim, "2") == ((F(1),),)
        assert not validate_system(sys).ok


class TestKernelIdentityBites:
    """The self-test's kernel identity compares `kernel_union` with the
    kernels of `quotient_limit`'s legs, which are reduced apart from the
    system's pass, so it still fails when either side is wrong."""

    @staticmethod
    def _planted():
        f12 = GradeMap.make(Q2, Q2, [[0, 0], [0, 1]])  # kills e1
        return DirectSystem.on_chain([Q2, Q2, Q2], [f12, GradeMap.make(Q2, Q2, [[1, 1], [0, 1]])])

    def test_a_zeroed_quotient_leg_row_is_reported(self, monkeypatch):
        from limfuse.dirlim import selftest

        assert selftest.check_system(self._planted()) == []

        def tampered(sys):
            lim = quotient_limit(sys)
            leg = lim.legs["2"]
            rows = [list(row) for row in leg.matrix]
            rows[next(r for r, row in enumerate(rows) if any(row))] = [F(0)] * leg.source.dim
            return Limit(lim.space, {**lim.legs, "2": GradeMap(leg.source, leg.target, rows)}, sys)

        monkeypatch.setattr(selftest, "quotient_limit", tampered)
        assert "kernel identity fails at 2" in selftest.check_system(self._planted())

    def test_a_wrong_system_kernel_is_reported(self):
        from limfuse.dirlim import selftest

        sys = self._planted()
        # ker f_1^3 is spanned by e1; an empty kernel planted in the memo
        # of the system's pass reaches kernel_union but not the quotient side
        sys.__dict__["_kernels"] = {e: () for e in sys.poset.elements}
        assert kernel_of_leg(quotient_limit(sys), "1") == ((F(1), F(0)),)
        assert "kernel identity fails at 1" in selftest.check_system(sys)


class TestInclusionSystems:
    def test_three_chain(self):
        subs = [
            [],
            [(F(1), F(0))],
            [(F(1), F(0)), (F(0), F(1))],
        ]
        inc = inclusion_system(Q2, [s for s in subs if s])
        assert len(inc.system.poset.elements) == 2
        res = q_map(Q2, inc)
        assert res.injective and res.surjective

    def test_two_lines_close_under_sum(self):
        inc = inclusion_system(Q2, [[(F(1), F(0))], [(F(0), F(1))]])
        dims = sorted(inc.system.space(e).dim for e in inc.system.poset.elements)
        assert dims == [1, 1, 2]  # the two lines plus their adjoined sum
        res = q_map(Q2, inc)
        assert res.injective and res.surjective

    def test_empty_list_gives_zero_system(self):
        inc = inclusion_system(Q3, [])
        assert inc.system.poset.elements == ("S0",)
        assert inc.system.space("S0").dim == 0
        res = q_map(Q3, inc)
        assert res.injective and not res.surjective

    def test_plane_in_three_space_not_surjective(self):
        inc = inclusion_system(Q3, [[(F(1), F(0), F(0))], [(F(1), F(1), F(0))]])
        res = q_map(Q3, inc)
        assert res.injective and not res.surjective
        assert res.limit.space.dim == 2

    def test_zero_ambient(self):
        zero = GradedSpace.zero()
        inc = inclusion_system(zero, [])
        res = q_map(zero, inc)
        assert res.injective and res.surjective

    def test_non_graded_subspace_rejected(self):
        mixed = GradedSpace.make([("a", 0), ("b", 1)])
        with pytest.raises(NotASubspace):
            inclusion_system(mixed, [[(F(1), F(1))]])

    def test_wrong_length_rejected(self):
        with pytest.raises(NotASubspace):
            inclusion_system(Q2, [[(F(1),)]])

    def test_q_map_is_the_universal_map(self):
        # the embeddings form a cocone by construction, so the map out of the
        # limit is the top stage's embedding, and it carries each leg onto
        # that stage's embedding
        hand = [(Q2, [[(F(1), F(0))], [(F(1), F(0)), (F(0), F(1))]]),
                (Q2, [[(F(1), F(0))], [(F(0), F(1))]]),
                (Q3, []),
                (Q3, [[(F(1), F(0), F(0))], [(F(1), F(1), F(0))]]),
                (GradedSpace.zero(), [])]
        cases = [inclusion_system(ambient, subspaces) for ambient, subspaces in hand]
        cases += [randgen.random_inclusion_case(random.Random(seed)) for seed in range(200)]
        for incsys in cases:
            res = q_map(incsys.ambient, incsys)
            elements = incsys.system.poset.elements
            assert all(res.map @ res.limit.legs[e] == incsys.embedding(e) for e in elements)
            assert res.map == incsys.embedding(incsys.system.poset.greatest())

    def test_sum_closure_against_rounds(self, monkeypatch):
        # the closed list against the round-based closure on 300 seeded
        # cases, with one span per pair of the closed list (the pairs cannot
        # be told apart by their rows: the zero subspace beside a plane
        # spans the same rows as two lines that sum to it)
        spans, inputs = [], []
        canonical, build = inclusion.canonical_subspace, randgen.inclusion_system

        def counted(ambient, rows):
            spans.append(tuple(map(tuple, rows)))
            return canonical(ambient, rows)

        def recorded(ambient, subspaces):
            inputs[:], spans[:] = [ambient, subspaces], []
            return build(ambient, subspaces)

        monkeypatch.setattr(inclusion, "canonical_subspace", counted)
        monkeypatch.setattr(randgen, "inclusion_system", recorded)
        for seed in range(300):
            inc = randgen.random_inclusion_case(random.Random(seed))
            ambient, subspaces = inputs
            closed = set(inc.subspace_rows.values())
            assert closed == _closure_in_rounds(ambient, subspaces), seed
            n = len(closed)
            assert len(spans) - len(subspaces) == n * (n - 1) // 2, seed


class TestTensorSystems:
    def test_with_zero_system(self):
        z = DirectSystem.constant(DirectedPoset.chain(2, "z"), GradedSpace.zero())
        w = DirectSystem.constant(DirectedPoset.chain(2, "w"), Q2)
        ts = tensor_system(w, z)
        assert all(ts.space(e).dim == 0 for e in ts.poset.elements)

    def test_constant_dims_multiply(self):
        a = DirectSystem.constant(DirectedPoset.chain(2, "a"), Q2)
        b = DirectSystem.constant(DirectedPoset.chain(2, "b"), Q3)
        ts = tensor_system(a, b)
        assert all(ts.space(e).dim == 6 for e in ts.poset.elements)
        assert validate_system(ts).ok

    def test_chain_dims(self):
        a = DirectSystem.on_chain([Q1, Q2], [GradeMap.make(Q1, Q2, [[1], [0]])], "x")
        b = DirectSystem.on_chain([Q1, Q3], [GradeMap.make(Q1, Q3, [[1], [0], [0]])], "y")
        ts = tensor_system(a, b)
        dims = {e: ts.space(e).dim for e in ts.poset.elements}
        assert dims == {"(x1,y1)": 1, "(x1,y2)": 3, "(x2,y1)": 2, "(x2,y2)": 6}

    def test_weights_add(self):
        u = GradedSpace.make([("u", F(1, 2))])
        v = GradedSpace.make([("v", F(3, 2))])
        a = DirectSystem.constant(DirectedPoset.chain(1, "a"), u)
        b = DirectSystem.constant(DirectedPoset.chain(1, "b"), v)
        ts = tensor_system(a, b)
        assert ts.space("(a1,b1)").basis[0][1] == F(2)


class TestFubini:
    def test_constants(self):
        p = DirectedPoset.chain(2)
        w = GradedSpace.std(2, 0, "w")
        u = GradedSpace.make([("u1", 0), ("u2", F(1, 2))])
        v = GradedSpace.std(1, 1, "v")
        rep = fubini_compare(
            DirectSystem.constant(p, w),
            DirectSystem.constant(p, u),
            DirectSystem.constant(p, v),
        )
        assert rep.is_isomorphism
        assert rep.multiple_dims == {F(1): 2, F(3, 2): 2}

    def test_zero_factor(self):
        p = DirectedPoset.chain(2)
        rep = fubini_compare(
            DirectSystem.constant(p, Q2),
            DirectSystem.constant(p, GradedSpace.zero()),
            DirectSystem.constant(p, Q3),
        )
        assert rep.is_isomorphism
        assert rep.multiple.space.dim == 0


class TestSerialization:
    def test_roundtrip(self):
        sp = GradedSpace.make([("a", F(-3, 4)), ("b", F(1, 2))])
        f = GradeMap.make(sp, sp, [[F(1, 3), 0], [0, -2]])
        sys = DirectSystem.on_chain([sp, sp], [f])
        doc = json.loads(json.dumps(system_to_json(sys)))
        assert system_from_json(doc) == sys

    def test_json_text(self):
        sp = GradedSpace.make([("a", F(1, 2))])
        sys = DirectSystem.on_chain([sp, sp], [GradeMap.make(sp, sp, [[F(-2, 3)]])])
        assert json.dumps(system_to_json(sys), sort_keys=True) == (
            '{"maps": {"1<=2": [["-2/3"]]}, "poset": {"elements": ["1", "2"], '
            '"leq": [["1", "1"], ["1", "2"], ["2", "2"]]}, '
            '"spaces": {"1": [["a", "1/2"]], "2": [["a", "1/2"]]}}'
        )

    def test_map_key_without_le_rejected(self):
        sp = GradedSpace.make([("a", 0)])
        doc = system_to_json(DirectSystem.on_chain([sp, sp], [GradeMap.identity(sp)]))
        for key in ("1-2", "1<=2<=2"):
            doc["maps"] = {key: [["1"]]}
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                system_from_json(doc)

    def test_map_key_naming_element_without_space_rejected(self):
        sp = GradedSpace.make([("a", 0)])
        doc = system_to_json(DirectSystem.on_chain([sp, sp], [GradeMap.identity(sp)]))
        for key in ("1<=c", "c<=2"):
            doc["maps"] = {key: [["1"]]}
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                system_from_json(doc)
        del doc["spaces"]["2"]
        doc["maps"] = {"1<=2": [["1"]]}
        with pytest.raises(ValueError, match="'1<=2'"):
            system_from_json(doc)

    @staticmethod
    def chain_doc():
        sp = GradedSpace.make([("a", 0), ("b", F(1, 2))])
        return json.loads(json.dumps(system_to_json(DirectSystem.on_chain([sp, sp], [GradeMap.identity(sp)]))))

    def test_document_without_poset_is_named(self):
        doc = self.chain_doc()
        del doc["poset"]
        with pytest.raises(ValueError, match="^document: missing key 'poset'$"):
            system_from_json(doc)

    def test_weight_not_a_string_is_named(self):
        doc = self.chain_doc()
        doc["spaces"]["2"][1][1] = 0
        with pytest.raises(ValueError, match=re.escape("spaces.2[1]: expected a rational string")):
            system_from_json(doc)

    @pytest.mark.parametrize("value", ["1/0", "-2/0"])
    def test_zero_denominator_is_named(self, value):
        doc = self.chain_doc()
        doc["spaces"]["2"][1][1] = value
        with pytest.raises(ValueError, match=re.escape(f"spaces.2[1]: expected a rational string like \"-3/4\", got {value!r}")):
            system_from_json(doc)
        doc = self.chain_doc()
        doc["maps"]["1<=2"][0][1] = value
        with pytest.raises(ValueError, match=re.escape(f"maps.1<=2[0]: expected a rational string like \"-3/4\", got {value!r}")):
            system_from_json(doc)

    def test_list_document_is_named(self):
        # reprlib prints the value with its dict keys sorted
        got = ("[{'maps': {'1<=2': [['1', '0'], ['0', '1']]}, 'poset': {'elements': ['1', '2'], "
               "'leq': [['1', '1'], ['1', '2'], ['2', '2']]}, 'spaces': {'1': [['a', '0'], ['b', '1/2']], "
               "'2': [['a', '0'], ['b', '1/2']]}}]")
        with pytest.raises(ValueError, match=f"^{re.escape(f'document: expected an object, got {got}')}$"):
            system_from_json([self.chain_doc()])

    def test_basis_entry_not_a_pair_is_named(self):
        doc = self.chain_doc()
        doc["spaces"]["1"][0] = ["a"]
        with pytest.raises(ValueError, match=re.escape("spaces.1[0]: expected a pair, got ['a']")):
            system_from_json(doc)

    def test_elements_not_a_list_is_named(self):
        # a string would be read one character at a time
        doc = self.chain_doc()
        doc["poset"]["elements"] = "12"
        with pytest.raises(ValueError, match="^poset.elements: expected list, got '12'$"):
            system_from_json(doc)

    def test_basis_not_a_list_is_named(self):
        doc = self.chain_doc()
        doc["spaces"]["1"] = 5
        with pytest.raises(ValueError, match="^spaces.1: expected list, got 5$"):
            system_from_json(doc)

    def test_map_rows_not_a_list_are_named(self):
        doc = self.chain_doc()
        doc["maps"]["1<=2"] = 5
        with pytest.raises(ValueError, match=re.escape("maps.1<=2: expected list, got 5")):
            system_from_json(doc)

    def test_map_row_none_is_named(self):
        doc = self.chain_doc()
        doc["maps"]["1<=2"][1] = None
        with pytest.raises(ValueError, match=re.escape("maps.1<=2[1]: expected list, got None")):
            system_from_json(doc)

    def test_map_row_string_is_named(self):
        # a string row would be read one character at a time, "10" as [1, 0]
        doc = self.chain_doc()
        doc["maps"]["1<=2"][0] = "10"
        with pytest.raises(ValueError, match=re.escape("maps.1<=2[0]: expected list, got '10'")):
            system_from_json(doc)

    def test_element_not_a_string_is_named(self):
        doc = self.chain_doc()
        doc["poset"]["elements"][1] = ["2"]
        with pytest.raises(ValueError, match=re.escape("poset.elements[1]: expected a string, got ['2']")):
            system_from_json(doc)

    def test_leq_entry_not_a_string_is_named(self):
        doc = self.chain_doc()
        doc["poset"]["leq"][2] = ["2", ["2"]]
        with pytest.raises(ValueError, match=re.escape("poset.leq[2]: expected a string, got ['2']")):
            system_from_json(doc)

    def test_basis_id_not_a_string_is_named(self):
        doc = self.chain_doc()
        doc["spaces"]["2"][0][0] = ["a"]
        with pytest.raises(ValueError, match=re.escape("spaces.2[0]: expected a string, got ['a']")):
            system_from_json(doc)

    def test_space_for_unknown_element_is_reported(self):
        doc = self.chain_doc()
        doc["spaces"]["ghost"] = [["z", "1"]]
        assert validate_system(system_from_json(doc)).problems == ("space stored for unknown element ghost",)

    def test_missing_cover_is_named_not_a_key_error(self):
        sp = GradedSpace.make([("a", 0)])
        ident = GradeMap.identity(sp)
        doc = system_to_json(DirectSystem.on_chain([sp, sp, sp], [ident, ident]))
        del doc["maps"]["2<=3"]
        sys, twin = system_from_json(doc), system_from_json(doc)
        assert validate_system(sys).problems == ("missing map for 2 <= 3",)
        for read in (system_to_json, lambda s: dict(s.maps), lambda s: s == twin):
            with pytest.raises(ValueError, match="^missing map for 2 <= 3$"):
                read(sys)
        with pytest.raises(UnknownElement):
            sys.map("1", "x")

    def test_weight_strings(self):
        sp = GradedSpace.make([("a", F(-3, 4))])
        sys = DirectSystem.constant(DirectedPoset.chain(1), sp)
        doc = system_to_json(sys)
        assert doc["spaces"]["1"] == [["a", "-3/4"]]


def _random_matrix(rng, nrows, ncols):
    pool = [F(0), F(0), F(0), F(1), F(-2), F(3), F(1, 2), F(-5, 6), F(7, 4)]
    return tuple(tuple(rng.choice(pool) for _ in range(ncols)) for _ in range(nrows))


def _reference_rref(rows, ncols):
    """Plain Gauss-Jordan elimination on Fractions."""
    mat = [list(r) for r in rows]
    pivots, prow = [], 0
    for col in range(ncols):
        sel = next((r for r in range(prow, len(mat)) if mat[r][col] != 0), None)
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        pv = mat[prow][col]
        mat[prow] = [x / pv for x in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[prow])]
        pivots.append(col)
        prow += 1
    return tuple(tuple(r) for r in mat[:prow]), tuple(pivots)


class TestLinalg:
    def test_matmul_matches_sum_of_products(self):
        rng = random.Random(5)
        for _ in range(300):
            n, m, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            a, b = _random_matrix(rng, n, m), _random_matrix(rng, m, k)
            expected = tuple(
                tuple(sum((a[r][c] * b[c][j] for c in range(m)), F(0)) for j in range(k))
                for r in range(n)
            )
            assert linalg.matmul(a, b, k) == expected

    def test_rref_matches_gauss_jordan(self):
        rng = random.Random(6)
        for _ in range(300):
            n, m = rng.randint(0, 5), rng.randint(1, 6)
            rows = _random_matrix(rng, n, m)
            assert linalg.rref(rows, m) == _reference_rref(rows, m)


class TestIntegerNullSpace:
    """`null_space` reads the kernel off the integer elimination it shares
    with `rref`; the former route through the Fraction RREF is the oracle."""

    def test_matches_the_fraction_route(self):
        rng = random.Random(41)
        p = linalg.P
        shapes = {"tall": lambda: (rng.randint(3, 6), rng.randint(1, 3)),
                  "wide": lambda: (rng.randint(1, 3), rng.randint(3, 6)),
                  "square": lambda: (rng.randint(1, 5),) * 2}
        blocks = []
        for name, shape in shapes.items():
            for _ in range(150):
                n, m = shape()
                rows = [[rng.choice([0, 0, 1, -1, 2, 3, -5]) for _ in range(m)] for _ in range(n)]
                if n > 1 and rng.random() < 0.5:  # a dependent row
                    rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
                blocks += [(rows, m), (_random_matrix(rng, n, m), m)]
        blocks += [([[0] * m for _ in range(n)], m) for n in range(4) for m in range(1, 4)]  # zero blocks
        blocks += [(rows, len(rows[0])) for rows in (  # singular mod P
            [[p]], [[p, 0], [0, 1]], [[1, 1], [1, p + 1]], [[3 * p, 1], [0, p], [p, 0]], [[p, 2 * p], [1, 2]],
            [[2, p], [4, 2 * p]])]
        for rows, m in blocks:
            got = linalg.null_space(rows, m)
            assert got == null_space_by_rref(rows, m)
            assert repr(got) == repr(null_space_by_rref(rows, m))
            assert all(type(x) is F for _, v in got for x in v)
            for _, v in got:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)

    def test_zero_entries_share_one_fraction(self):
        rng = random.Random(42)
        for _ in range(100):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            rows = _random_matrix(rng, n, m)
            for out in (linalg.rref(rows, m)[0], [v for _, v in linalg.null_space(rows, m)]):
                zeros = {id(x) for row in out for x in row if not x}
                assert len(zeros) <= 1


class TestKernelCertificate:
    """`linalg.injective_mod_p` certifies full column rank modulo the prime
    P = 2^30 - 35, below 2^30 so that every residue is a one-digit int; the
    exact reduction decides every block it does not certify."""

    def test_certificate_agrees_with_exact_rank_on_small_entries(self):
        # every minor here is far below P, so rank mod P equals rank over Q
        rng = random.Random(21)
        for _ in range(400):
            n, m = rng.randint(0, 6), rng.randint(1, 6)
            rows = [[rng.choice([0, 0, 1, -1, 2, 3, -4]) for _ in range(m)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:  # force a dependent row
                rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
            full = len(_reference_rref([[F(v) for v in r] for r in rows], m)[1]) == m
            assert linalg.injective_mod_p(rows, m) == full

    def test_blocks_singular_mod_p_fall_back_to_the_exact_kernel(self):
        p = linalg.P
        assert p < 2**30 and all(p % d for d in range(2, math.isqrt(p) + 1))
        for block in ([[p]], [[p, 0], [0, 1]], [[1, 1], [1, p + 1]], [[3 * p, 1], [0, p], [p, 0]]):
            n = len(block[0])
            assert not linalg.injective_mod_p(block, n)
            assert len(_reference_rref([[F(v) for v in r] for r in block], n)[1]) == n
            space, target = GradedSpace.std(n), GradedSpace.std(len(block))
            f = GradeMap.make(space, target, block)
            assert f.kernel() == () and f.rank() == n

    def test_fallback_still_finds_kernels_hidden_by_large_entries(self):
        p = linalg.P
        f = GradeMap.make(GradedSpace.std(2), GradedSpace.std(2), [[p, 2 * p], [1, 2]])
        assert f.kernel() == ((F(1), F(-1, 2)),)


def _old_matmul(a, b, ncols_b):
    """The dense product GradeMap used before weight blocks: b scaled by the
    lcm of its denominators, each row of a by its own, summed on integers."""
    db = 1
    for brow in b:
        for x in brow:
            db = db * x.denominator // math.gcd(db, x.denominator)
    nonzero = [[(k, x.numerator * (db // x.denominator)) for k, x in enumerate(brow) if x] for brow in b]
    out = []
    for row in a:
        da = 1
        for v in row:
            da = da * v.denominator // math.gcd(da, v.denominator)
        acc = [0] * ncols_b
        for c, v in enumerate(row):
            if v:
                vi = v.numerator * (da // v.denominator)
                for k, x in nonzero[c]:
                    acc[k] += vi * x
        out.append(tuple(F(s, da * db) for s in acc))
    return tuple(out)


def _dense_kernel(matrix, ncols):
    """Kernel basis from free columns, then its canonical RREF."""
    red, pivots = _reference_rref(matrix, ncols)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [F(0)] * ncols
            v[c] = F(1)
            for m, p in enumerate(pivots):
                v[p] = -red[m][c]
            basis.append(tuple(v))
    return _reference_rref(basis, ncols)[0]


def _dense_columns(matrix, ncols):
    return [tuple(row[c] for row in matrix) for c in range(ncols)]


def _kernel_union_sum(sys, i):
    """The former kernel_union: span of ker f_i^j over every j > i."""
    d = sys.spaces[i].dim
    rows = []
    for j in sys.poset.elements:
        if j != i and sys.poset.le(i, j):
            rows.extend(_dense_kernel(sys.map(i, j).matrix, d))
    return _reference_rref(rows, d)[0] if d else ()


def _closure_in_rounds(ambient, subspaces):
    """The former sum closure: rounds that span every pair of the grown list."""
    canon = list(dict.fromkeys(canonical_subspace(ambient, rows) for rows in subspaces)) or [()]
    seen, work = set(canon), canon
    while work:
        work = []
        for a in range(len(canon)):
            for b in range(a + 1, len(canon)):
                s = canonical_subspace(ambient, linalg.rref(canon[a] + canon[b], ambient.dim)[0])
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        canon.extend(work)
    return seen


def _random_graded_map(rng, source, target):
    pool = [F(0), F(0), F(1), F(-2), F(3), F(1, 2), F(-5, 6), F(7, 4)]
    return GradeMap.make(source, target, [
        [rng.choice(pool) if source.weight(c) == target.weight(r) else 0 for c in range(source.dim)]
        for r in range(target.dim)
    ])


def _random_space(rng, prefix):
    weights = [F(0), F(1, 2), F(1), F(-3, 2)]
    return GradedSpace.make([(f"{prefix}{k}", rng.choice(weights[:rng.randint(1, 4)]))
                             for k in range(rng.randint(0, 5))])


class TestGradeMapAgainstDense:
    """Block operations against the dense Fraction path they replaced."""

    def test_block_operations_match_dense_reference(self):
        rng = random.Random(11)
        for _ in range(300):
            u, v, w = (_random_space(rng, p) for p in "uvw")
            f, g = _random_graded_map(rng, u, v), _random_graded_map(rng, v, w)
            assert (g @ f).matrix == _old_matmul(g.matrix, f.matrix, u.dim)
            assert GradeMap(u, v, f.matrix) == f
            assert f.rank() == len(_reference_rref(_dense_columns(f.matrix, u.dim), v.dim)[1])
            assert f.kernel() == _dense_kernel(f.matrix, u.dim)
            assert f.image() == _reference_rref(_dense_columns(f.matrix, u.dim), v.dim)[0]
            kron = tuple(tuple(a * b for a in ra for b in rb) for ra in f.matrix for rb in g.matrix)
            assert f.tensor(g).matrix == kron
            for part in (f.kernel(), f.image(), (g @ f).matrix, f.tensor(g).matrix):
                assert all(type(x) is F for row in part for x in row)

    def test_composition_of_mismatched_spaces_is_refused(self):
        f = GradeMap.make(Q1, Q2, [[1], [2]])
        assert (GradeMap.identity(GradedSpace.std(2)) @ f).matrix == f.matrix  # equal, not identical
        for other in (Q3, GradedSpace.std(2, 1), GradedSpace.std(2, prefix="u"), Q1):
            with pytest.raises(ValueError, match="^composition mismatch$"):
                GradeMap.identity(other) @ f

    def test_wide_and_unitriangular_blocks_match_dense_kernel(self):
        # the block shapes of the long and wide chains, injective or not
        rng = random.Random(13)
        one = GradedSpace.std(12)
        for _ in range(30):
            dense = [[rng.choice([-3, -2, -1, 0, 1, 2, 3]) for _ in range(12)] for _ in range(12)]
            if rng.random() < 0.5:  # a dependent column
                k, a, b = rng.sample(range(12), 3)
                for row in dense:
                    row[k] = row[a] + rng.choice([-2, 1, 3]) * row[b]
            upper = [[1 if r == c else rng.choice([0, 0, 1, -1, 2]) if c > r else 0 for c in range(12)]
                     for r in range(12)]
            lower = [list(col) for col in zip(*upper)]
            for rows in (dense, upper, lower):
                f = GradeMap.make(one, one, rows)
                assert f.kernel() == _dense_kernel(f.matrix, 12)
                g = GradeMap.make(one, one, upper) @ f
                assert g.kernel() == _dense_kernel(g.matrix, 12)

    def test_computed_blocks_stay_tuples_and_match_their_dense_rebuild(self):
        # a block held as a list would compare unequal to the same tuple block
        rng = random.Random(14)
        for _ in range(200):
            u, v, w = (_random_space(rng, p) for p in "uvw")
            f, g = _random_graded_map(rng, u, v), _random_graded_map(rng, v, w)
            made = [g @ f, GradeMap.identity(v) @ f, g @ GradeMap.identity(v), f.tensor(g),
                    f.tensor(GradeMap.identity(w)), GradeMap.identity(u).tensor(g),
                    (g @ f).factor_through(f), f.factor_through(GradeMap.identity(u))]
            for h in made:
                if h is None:
                    continue
                for block, den in h._blocks.values():
                    assert type(block) is tuple and all(type(row) is tuple for row in block)
                    assert type(den) is int
                assert GradeMap(h.source, h.target, h.matrix) == h

    def test_equality_sees_every_entry(self):
        rng = random.Random(12)
        for _ in range(100):
            u, v = _random_space(rng, "u"), _random_space(rng, "v")
            f = _random_graded_map(rng, u, v)
            for r in range(v.dim):
                for c in range(u.dim):
                    rows = [list(row) for row in f.matrix]
                    rows[r][c] += F(1, 3)
                    if u.weight(c) == v.weight(r):
                        assert GradeMap(u, v, rows) != f
                    else:  # the bumped entry is the only one that joins weights
                        with pytest.raises(ValueError, match=rf"^entry \({r}, {c}\) joins "):
                            GradeMap(u, v, rows)

    def test_stray_entries_are_refused_by_block_operations(self):
        # no GradeMap holds an entry that joins weights, so no block
        # operation meets one: the first such entry, in row-major order, is
        # refused when the map is built, int and Fraction input alike
        mixed = GradedSpace.make([("a", 0), ("b", 1)])
        half = GradedSpace.make([("h", F(1, 2))])
        cases = [(mixed, mixed, [[1, 2], [5, 3]], "entry (0, 1) joins source weight 1 to target weight 0"),
                 (mixed, mixed, [[1, 0], [5, 3]], "entry (1, 0) joins source weight 0 to target weight 1"),
                 (mixed, mixed, [[F(1), F(0)], [F(-1, 2), F(3)]],
                  "entry (1, 0) joins source weight 0 to target weight 1"),
                 (half, mixed, [[0], [F(2, 3)]], "entry (1, 0) joins source weight 1/2 to target weight 1"),
                 (mixed, half, [[0, 4]], "entry (0, 1) joins source weight 1 to target weight 1/2")]
        for source, target, rows, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                GradeMap.make(source, target, rows)
        graded = GradeMap.make(mixed, mixed, [[1, 0], [0, 3]])
        assert graded.matrix == ((F(1), F(0)), (F(0), F(3)))
        assert graded != GradeMap.make(mixed, mixed, [[1, 0], [0, 4]])
        assert (graded @ graded).matrix == ((F(1), F(0)), (F(0), F(9)))
        assert graded.kernel() == () and graded.rank() == 2
        assert GradeMap.make(half, mixed, [[0], [0]]).kernel() == ((F(1),),)



class TestKernelBlockShapes:
    """Absent, all-zero, identity and nonzero one-column blocks skip both the
    certificate and elimination, wide blocks (fewer rows than columns) skip
    the certificate, and other square blocks are certified; every kernel
    matches the dense oracle."""

    @staticmethod
    def _count(monkeypatch, name):
        calls, original = [], getattr(linalg, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(linalg, name, counted)
        return calls

    @staticmethod
    def _shape_maps(rng, shape):
        """Seeded maps each of whose blocks has the given shape."""
        weights = [F(0), F(1, 2), F(-1), F(5, 3)]
        for _ in range(60):
            n = rng.randint(1, 3)
            dims = [1 if shape == "column" else rng.randint(2 if shape == "wide" else 1, 4) for _ in range(n)]
            rows = [rng.randint(1, d - 1) if shape == "wide" else rng.randint(1, 3) if shape == "column" else d
                    for d in dims]
            source = GradedSpace.make([(f"s{w}{k}", w) for w, d in zip(weights, dims) for k in range(d)])
            if shape == "no rows":  # the target shares no weight with the source
                target = GradedSpace.make([(f"t{k}", F(7, 2)) for k in range(rng.randint(0, 3))])
            else:
                target = GradedSpace.make([(f"t{w}{k}", w) for w, r in zip(weights, rows) for k in range(r)])
            if shape == "wide":
                rows = [[rng.choice([0, 1, -2, 3, F(1, 2)]) if source.weight(c) == target.weight(r) else 0
                         for c in range(source.dim)] for r in range(target.dim)]
            elif shape == "column":  # n x 1 blocks, each with a nonzero first entry
                first = {target.weight(r): r for r in reversed(range(target.dim))}
                rows = [[rng.choice([3, -1, F(2, 5)] if r == first[target.weight(r)] else [0, 1, -2, F(1, 2)])
                         if source.weight(c) == target.weight(r) else 0 for c in range(source.dim)]
                        for r in range(target.dim)]
            elif shape in ("identity", "unitriangular"):
                rows = [[int(r == c) if c <= r or shape == "identity" or source.weight(c) != target.weight(r)
                         else rng.choice([0, 2, -1]) for c in range(source.dim)] for r in range(target.dim)]
            else:
                rows = [[0] * source.dim for _ in range(target.dim)]
            yield GradeMap.make(source, target, rows)

    @pytest.mark.parametrize("shape, certified, reduced", [
        ("no rows", False, False), ("zero", False, False), ("column", False, False), ("wide", False, True),
        ("identity", False, False), ("unitriangular", True, False)])
    def test_kernel_by_block_shape_matches_dense_kernel(self, monkeypatch, shape, certified, reduced):
        rng = random.Random(17)
        certificates = self._count(monkeypatch, "injective_mod_p")
        reductions = self._count(monkeypatch, "null_space")
        for f in self._shape_maps(rng, shape):
            assert f.kernel() == _dense_kernel(f.matrix, f.source.dim)
            assert f.rank() == len(_reference_rref(_dense_columns(f.matrix, f.source.dim), f.target.dim)[1])
        assert bool(certificates) == certified and bool(reductions) == reduced


def _old_covers(poset):
    out = []
    for i, j in poset.strict_pairs():
        if poset.le(j, i):
            continue
        between = any(
            k != i and k != j and poset.le(i, k) and poset.le(k, j) and not poset.le(k, i) and not poset.le(j, k)
            for k in poset.elements
        )
        if not between:
            out.append((i, j))
    return tuple(out)


def test_poset_memos_match_direct_definitions():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        elements = tuple(f"p{k}" for k in range(n))
        if rng.random() < 0.5:
            poset = DirectedPoset.from_covers(
                elements, [(elements[k], elements[rng.randint(k + 1, n - 1)]) for k in range(n - 1)])
        else:
            poset = DirectedPoset(elements, frozenset(
                (i, j) for i in elements for j in elements if i == j or rng.random() < 0.3))
        assert poset.covers() == _old_covers(poset)
        assert poset.covers() is poset.covers()
        tops = [k for k in elements if all(poset.le(i, k) for i in elements)]
        assert poset.greatest() == (tops[0] if tops else None)
        bounds = any(not any(poset.le(i, k) and poset.le(j, k) for k in elements)
                     for i in elements for j in elements)
        assert any("upper bound" in p for p in poset.violations()) == bounds


# sha256 of the lines json.dumps(system_to_json(random_system(s)),
# sort_keys=True) + "\n" for s = 0..149, and of the stdout of
# `limfuse dirlim-selftest --seed 0 --cases 100`, recorded with dense maps
# and every related pair stored
GOLDEN_SYSTEMS_JSON = "e6f22f4a6a0bd1a9f5817a1cdbf6a912bad57c1d3671f8675f17d5ca1406ae67"
GOLDEN_SELFTEST_STDOUT = "bbb823067b72f725b726372a96b7782a2f0f73f2974b76e7cfe3ce99de728cb5"


class TestByteIdentity:
    def test_system_json_golden(self):
        h = hashlib.sha256()
        for s in range(150):
            h.update(json.dumps(system_to_json(random_system(s)), sort_keys=True).encode() + b"\n")
        assert h.hexdigest() == GOLDEN_SYSTEMS_JSON

    def test_selftest_stdout_golden(self, capsys):
        assert main(["dirlim-selftest", "--seed", "0", "--cases", "100"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SELFTEST_STDOUT
