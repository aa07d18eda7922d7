"""Construction of direct systems: shared chain and product posets, grades
computed at construction (products' from their factors' keys), one-pass
grade maps that refuse an entry joining distinct weights, constant systems
and products whose report is taken from the poset and the factors (fubini's
iterated system from its outer factor), fubini's comparison solved at the
top stage, the inclusion order and maps read off the closure's sums and the
canonical rows' pivots, and canonical subspaces reduced on each grade's own
columns, each against a reference built from scratch."""

from fractions import Fraction as F

import random
import re

import pytest

from limfuse.dirlim import (
    DirectedPoset,
    DirectSystem,
    GradedSpace,
    GradeMap,
    NotASubspace,
    canonical_subspace,
    inclusion_system,
    tensor_system,
    validate_system,
)
from limfuse.dirlim import graded, inclusion, linalg
from limfuse.dirlim import system as dirlim_system
from limfuse.dirlim.randgen import (random_chain_system, random_fubini_triple, random_grade_map, random_inclusion_case,
                                    random_space)
from limfuse.dirlim.system import _validate
from limfuse.dirlim.tensor import fubini_compare

from oracles import (canonical_subspace_by_projection, fubini_by_stages, grade_map_parts, inclusion_maps_by_solve,
                     inclusion_order, space_grades)

WEIGHTS = [F(0), F(1, 2), F(1), F(2), F(-1, 3), F(5, 6)]


def _space(rng, pool, max_dim, prefix):
    return GradedSpace(tuple((f"{prefix}{k}", rng.choice(pool)) for k in range(rng.randint(0, max_dim))))


def _matrix(rng, source, target, entries, graded):
    """Dense rows over the target basis; `graded` keeps entries that join
    distinct weights at zero."""
    return [[rng.choice(entries) if not graded or source.weight(c) == target.weight(r) else 0
             for c in range(source.dim)] for r in range(target.dim)]


def _assert_matches_reference(source, target, matrix):
    """GradeMap(source, target, matrix), holding the reference blocks, or None
    when it refuses the reference's first joining entry by (row, col) and
    weights."""
    blocks, joining = grade_map_parts(source, target, matrix)
    if joining is not None:
        r, c = joining
        message = f"entry ({r}, {c}) joins source weight {source.weight(c)} to target weight {target.weight(r)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradeMap(source, target, matrix)
        return None
    g = GradeMap(source, target, matrix)
    assert g._blocks == blocks
    assert all(type(v) is int for rows, den in g._blocks.values() for row in rows for v in row)
    assert all(type(rows) is tuple and all(type(row) is tuple for row in rows) for rows, _ in g._blocks.values())
    assert g.matrix == tuple(tuple(F(v) for v in row) for row in matrix)
    return g


# denominators 1, 2 and 3, negative weights, and pairs of grades whose sums meet
PRODUCT_WEIGHTS = [F(0), F(1), F(-2), F(1, 2), F(-1, 2), F(3, 2), F(1, 3), F(-2, 3), F(5, 3)]


def _assert_graded_as_sorted(space):
    assert list(space.grades.items()) == list(space_grades(space).items())
    for key, ix in space.grades.items():
        for p, k in enumerate(ix):
            assert space.positions[k] == (key, p)
    assert len(space.positions) == space.dim


class TestGradedSpace:
    def test_grades_and_positions_match_the_fraction_sort(self):
        rng = random.Random(3)
        for _ in range(300):
            _assert_graded_as_sorted(_space(rng, WEIGHTS[:rng.randint(1, len(WEIGHTS))], 8, "b"))
        for _ in range(300):  # products are graded from their factors' keys
            a = _space(rng, rng.sample(PRODUCT_WEIGHTS, rng.randint(1, 5)), 5, "a")
            b = _space(rng, rng.sample(PRODUCT_WEIGHTS, rng.randint(1, 5)), 5, "b")
            product = a.tensor(b)
            _assert_graded_as_sorted(product)
            assert product.basis == tuple((f"({x})*({y})", wa + wb) for x, wa in a.basis for y, wb in b.basis)
            assert all(type(w) is F for _, w in product.basis)
            fresh = GradedSpace(product.basis)
            assert product == fresh and hash(product) == hash(fresh)
            assert product.grades == fresh.grades and product.positions == fresh.positions
            assert a.tensor(b) is product

    def test_equality_and_hash_see_the_basis_only(self):
        a = GradedSpace.make([("x", F(1, 2)), ("y", 0)])
        b = GradedSpace.make([("x", F(1, 2)), ("y", 0)])
        assert a == b and hash(a) == hash(b) and a.grades == b.grades
        assert repr(a) == "GradedSpace(basis=(('x', Fraction(1, 2)), ('y', Fraction(0, 1))))"
        with pytest.raises(ValueError, match="duplicate basis ids"):
            GradedSpace.make([("x", 0), ("x", 1)])

    def test_products_stay_hashable_with_the_basis_repr(self):
        a = GradedSpace.make([("x", F(1, 2)), ("y", 0)])
        product = a.tensor(GradedSpace.make([("z", 1)]))
        assert repr(product) == "GradedSpace(basis=(('(x)*(z)', Fraction(3, 2)), ('(y)*(z)', Fraction(1, 1))))"
        assert {product: 1}[GradedSpace(product.basis)] == 1 and len({a, product, GradedSpace(a.basis)}) == 2
        assert a != a.basis and a.__eq__(a.basis) is NotImplemented
        with pytest.raises(ValueError, match="duplicate basis ids"):  # "(x)*(y)*(z)" twice
            GradedSpace.make([("x)*(y", 0), ("x", 0)]).tensor(GradedSpace.make([("z", 0), ("y)*(z", 0)]))


class TestSharedGradings:
    """A space's grades and positions depend on its weight keys alone, and a
    product's grading and weights on its factors' gradings: each is computed
    once in a bounded cache and shared."""

    def test_equal_weight_sequences_share_one_grading(self):
        a = GradedSpace.make([("x", F(1, 2)), ("y", 0), ("z", F(1, 2))])
        b = GradedSpace.make([("p", F(1, 2)), ("q", 0), ("r", F(1, 2))])
        assert a != b and a.grades is b.grades and a.positions is b.positions
        assert GradedSpace.make([("x", F(1, 2)), ("y", 1)]).grades is not a.grades
        assert GradeMap.identity(a)._blocks is GradeMap.identity(b)._blocks
        assert GradeMap.identity(a) == GradeMap.make(a, a, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        c = GradedSpace.make([("u", 1), ("v", F(-1, 3))])
        d = GradedSpace.make([("s", 1), ("t", F(-1, 3))])
        ac, bd = a.tensor(c), b.tensor(d)
        assert ac != bd and ac.grades is bd.grades and ac.positions is bd.positions
        assert [w for _, w in ac.basis] == [w for _, w in bd.basis]
        assert a.tensor(c) is ac and b.tensor(d) is bd  # the per-factor memo
        assert GradedSpace(ac.basis).grades is ac.grades

    def test_shared_gradings_are_exact_and_bounded(self):
        # denominators 1, 2 and 3, negative weights and products, from an
        # empty cache to well past its bound
        bound = graded._grading.cache_info().maxsize
        assert bound and graded._product.cache_info().maxsize
        graded._grading.cache_clear()
        graded._product.cache_clear()
        rng = random.Random(19)
        kept = []
        for k in range(2 * bound):
            a = _space(rng, rng.sample(PRODUCT_WEIGHTS, rng.randint(1, 5)), 7, "a")
            b = _space(rng, rng.sample(PRODUCT_WEIGHTS, rng.randint(1, 5)), 4, "b")
            for space in (a, b, a.tensor(b)):
                _assert_graded_as_sorted(space)
            if k % 50 == 0:
                kept.append(a.tensor(b))
        assert graded._grading.cache_info().misses > bound
        assert graded._grading.cache_info().currsize <= bound
        assert graded._product.cache_info().currsize <= graded._product.cache_info().maxsize
        for space in kept:  # spaces made before an eviction keep their grading
            _assert_graded_as_sorted(space)


class TestGradeMapAgainstReference:
    def test_randgen_maps(self):
        rng = random.Random(5)
        for _ in range(200):
            source, target = random_space(rng, prefix="s"), random_space(rng, prefix="t")
            g = random_grade_map(rng, source, target)
            assert _assert_matches_reference(source, target, g.matrix) == g

    def test_int_and_fraction_entries_with_and_without_strays(self):
        # an entry joining distinct weights (a former stray) is refused, int
        # and Fraction input alike; every other matrix gives its blocks
        rng = random.Random(7)
        ints, fractions = [-2, -1, 0, 0, 0, 1, 2, 3], [F(0), F(0), F(1), F(-1, 2), F(7, 4), 2, -3]
        seen = set()
        for _ in range(400):
            source, target = _space(rng, WEIGHTS[:4], 6, "s"), _space(rng, WEIGHTS[:4], 6, "t")
            entries = rng.choice([ints, fractions])
            matrix = _matrix(rng, source, target, entries, graded=rng.random() < 0.5)
            built = _assert_matches_reference(source, target, matrix)
            seen.add((entries is ints, built is None))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_weights_on_one_side_only(self):
        rng = random.Random(11)
        refused = 0
        for _ in range(300):
            source = _space(rng, [F(0), F(1, 2), F(1)], 5, "s")
            target = _space(rng, [F(1, 2), F(2), F(-1, 3)], 5, "t")
            for graded in (True, False):
                matrix = _matrix(rng, source, target, [0, 1, -1, F(1, 3)], graded)
                if _assert_matches_reference(source, target, matrix) is None:
                    assert not graded
                    refused += 1
        assert refused

    def test_make_converts_only_what_is_not_exact(self):
        s = GradedSpace.make([("a", 0), ("b", 0), ("c", 1)])
        rows = [[1, F(1, 2), 0], ("1/3", 0.5, 0), [0, 0, F(3)]]
        g = GradeMap.make(s, s, rows)
        dense = [[F(1), F(1, 2), F(0)], [F(1, 3), F(1, 2), F(0)], [F(0), F(0), F(3)]]
        assert g == GradeMap(s, s, dense)
        assert _assert_matches_reference(s, s, dense) == g
        assert GradeMap.make(s, s, (iter(row) for row in dense)) == g
        with pytest.raises(ValueError, match="expected 3 columns"):
            GradeMap.make(s, s, [[1, 0], [0, 1, 0], [0, 0, 1]])


class TestSharedPosets:
    @pytest.mark.parametrize("n, prefix", [(1, ""), (2, "a"), (4, ""), (12, "c")])
    def test_chain_is_shared_and_equals_a_fresh_chain(self, n, prefix):
        elements = tuple(f"{prefix}{k}" for k in range(1, n + 1))
        fresh = DirectedPoset(elements, frozenset((elements[a], elements[b]) for a in range(n) for b in range(a, n)))
        chain = DirectedPoset.chain(n, prefix)
        assert chain is DirectedPoset.chain(n, prefix)
        assert chain.elements == fresh.elements and chain.leq == fresh.leq and chain == fresh
        assert chain.covers() == fresh.covers() and chain.violations() == fresh.violations() == ()
        assert chain.greatest() == fresh.greatest()
        sp = GradedSpace.std(1)
        assert DirectSystem.on_chain([sp] * n, [GradeMap.identity(sp)] * (n - 1), prefix).poset is chain

    def test_product_is_memoized_per_right_factor(self):
        a, b = DirectedPoset.chain(3, "a"), DirectedPoset.from_covers(["x", "y", "z"], [("x", "z"), ("y", "z")])
        product = a.product(b)
        assert a.product(b) is product
        elements = tuple(f"({i},{j})" for i in a.elements for j in b.elements)
        leq = frozenset((f"({i},{j})", f"({k},{m})") for i, k in a.leq for j, m in b.leq)
        assert product == DirectedPoset(elements, leq)
        twin = DirectedPoset(b.elements, b.leq)
        assert a.product(twin) == product and a.product(twin) is a.product(twin)
        assert b.product(a) != product


def _chain(rng, length, prefix, min_dim=0):
    """A chain shaped like the benchmark's: up to two basis vectors over
    three weights, sparse integer steps."""
    spaces = [GradedSpace.make([(f"{prefix}{k}b{m}", rng.choice(WEIGHTS[:3]))
                                for m in range(rng.randint(min_dim, 2))]) for k in range(length)]
    steps = [GradeMap.make(spaces[k], spaces[k + 1], _matrix(rng, spaces[k], spaces[k + 1], [-2, -1, 0, 0, 1, 1, 2], True))
             for k in range(length - 1)]
    return DirectSystem.on_chain(spaces, steps, prefix)


def _non_directed(prefix):
    sp = GradedSpace.std(1)
    return DirectSystem(DirectedPoset.from_covers([f"{prefix}x", f"{prefix}y"], []),
                        {f"{prefix}x": sp, f"{prefix}y": sp}, {})


def _wrong_source(prefix):
    q1, q2 = GradedSpace.std(1), GradedSpace.std(2)
    return DirectSystem.on_chain([q2, q2], [GradeMap.identity(q1)], prefix)


def _wrong_claim(prefix):
    # a wrong non-cover claim: the product uses only covers, so it stays valid
    q = GradedSpace.std(1)
    ident = GradeMap.identity(q)
    chain = DirectSystem.on_chain([q] * 3, [ident] * 2, prefix)
    return DirectSystem(chain.poset, chain.spaces, {**chain.maps, (f"{prefix}1", f"{prefix}3"): GradeMap.zero(q, q)})


def _assert_report_is_the_full_check(a, b):
    product = tensor_system(a, b)
    seeded = "_validation" in product.__dict__
    assert seeded == (_validate(a).ok and _validate(b).ok)
    assert validate_system(product) == _validate(product)
    return product


class TestConstantReport:
    def test_seeded_report_is_the_full_check(self):
        chain = DirectedPoset.chain(3, "c")
        cycle = DirectedPoset(("x", "y"), frozenset({("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")}))
        posets = [(chain, True), (chain.product(DirectedPoset.chain(2, "d")), True), (DirectedPoset.chain(1), True),
                  (DirectedPoset.chain(0), False), (_non_directed("p").poset, False), (cycle, False)]
        for poset, valid in posets:
            for space in (GradedSpace.zero(), GradedSpace.std(2), GradedSpace.make([("u", F(1, 2)), ("v", 0)])):
                system = DirectSystem.constant(poset, space)
                seeded = system.__dict__["_validation"]
                assert seeded == _validate(system)
                assert seeded.ok == valid


class TestProductReport:
    def test_randgen_and_selftest_products(self):
        for seed in range(150):
            rng = random.Random(seed)
            a = random_chain_system(rng, rng.choice([2, 3]), 2, "a")
            _assert_report_is_the_full_check(a, random_chain_system(rng, 2, 2, "b"))
        for seed in range(40):
            a, b, c = random_fubini_triple(seed)
            bc = _assert_report_is_the_full_check(b, c)
            _assert_report_is_the_full_check(a, bc)
            assert fubini_compare(a, b, c).is_isomorphism

    def test_benchmark_product_and_fubini_shapes(self):
        rng = random.Random(7)
        for _ in range(40):
            _assert_report_is_the_full_check(_chain(rng, 2, "a"), _chain(rng, 2, "b"))
            a, b, c = (_chain(rng, n, p, min_dim=1) for n, p in zip(rng.sample([3, 2, 2], 3), "abc"))
            _assert_report_is_the_full_check(a, _assert_report_is_the_full_check(b, c))

    @pytest.mark.parametrize("bad", [_non_directed, _wrong_source])
    def test_invalid_factor_gets_the_full_check(self, bad):
        rng = random.Random(1)
        for a, b in ((bad("p"), _chain(rng, 2, "q")), (_chain(rng, 2, "q"), bad("p")), (bad("p"), bad("r"))):
            product = _assert_report_is_the_full_check(a, b)
            assert not validate_system(product).ok

    def test_invalid_claim_in_a_factor_leaves_a_valid_product(self):
        rng = random.Random(2)
        product = _assert_report_is_the_full_check(_wrong_claim("p"), _chain(rng, 2, "q"))
        assert validate_system(product).ok

    def test_fubini_iterated_system_is_seeded_from_a_valid_outer_factor(self, monkeypatch):
        full = []  # every system given the full check
        monkeypatch.setattr(dirlim_system, "_validate", lambda sys_: full.append(sys_) or _validate(sys_))
        rng = random.Random(7)
        triples = [random_fubini_triple(seed) for seed in range(20)]
        triples += [tuple(_chain(rng, n, p, min_dim=1) for n, p in zip(rng.sample([3, 2, 2], 3), "abc"))
                    for _ in range(20)]
        triples.append((_wrong_claim("a"), *triples[0][1:]))
        for a, b, c in triples:
            report = fubini_compare(a, b, c)
            iterated = report.iterated.system
            assert all(s is not iterated for s in full) == _validate(a).ok
            assert validate_system(iterated) == _validate(iterated)
            assert report.is_isomorphism


def _uneven_triples():
    """Chains whose stages differ in dimension: injective, collapsing and
    mixed-weight steps."""
    q1, q2, q3 = GradedSpace.std(1), GradedSpace.std(2), GradedSpace.std(3)
    mixed1, mixed3 = GradedSpace.make([("u", F(1, 2))]), GradedSpace.make([("u", F(1, 2)), ("v", 0), ("w", 1)])
    grow = DirectSystem.on_chain([q1, q2, q3], [GradeMap.make(q1, q2, [[1], [2]]),
                                                GradeMap.make(q2, q3, [[1, 0], [0, 1], [1, 1]])], "a")
    shrink = DirectSystem.on_chain([q3, q2, q1], [GradeMap.make(q3, q2, [[1, 0, 1], [0, 1, 1]]),
                                                  GradeMap.make(q2, q1, [[1, -1]])], "b")
    widen = DirectSystem.on_chain([mixed1, mixed3], [GradeMap.make(mixed1, mixed3, [[3], [0], [0]])], "c")
    kill = DirectSystem.on_chain([mixed3, mixed1], [GradeMap.zero(mixed3, mixed1)], "d")
    return [(grow, shrink, widen), (widen, grow, kill), (kill, widen, shrink), (shrink, kill, grow)]


class TestFubiniTopStage:
    def test_comparison_matches_the_solve_over_every_stage(self):
        rng = random.Random(7)
        triples = [random_fubini_triple(seed) for seed in range(200)] + _uneven_triples()
        triples += [tuple(_chain(rng, n, p, min_dim=1) for n, p in zip(rng.sample([3, 2, 2], 3), "abc"))
                    for _ in range(20)]
        for a, b, c in triples:
            report = fubini_compare(a, b, c)
            comparison, multiple, iterated = fubini_by_stages(a, b, c)
            assert report.comparison == comparison
            assert report.multiple_dims == multiple.space.graded_dims()
            assert report.iterated_dims == iterated.space.graded_dims()
            assert report.is_isomorphism == (comparison.rank() == multiple.space.dim == iterated.space.dim)
            assert report.is_isomorphism


def _inclusion_cases():
    """250 seeded cases and hand inputs: empty inputs, a single subspace,
    repeated inputs, an input equal to the sum of two earlier ones, nested
    inputs largest first, and zero and one-grade ambients."""
    q3, mixed = GradedSpace.std(3), GradedSpace.make([("a", 0), ("b", 1), ("c", 0), ("d", 1)])
    e1, e2, e3 = [(F(1), F(0), F(0))], [(F(0), F(1), F(0))], [(F(0), F(0), F(1))]
    line, plane = [(F(1), F(0), F(-2), F(0))], [(F(0), F(1), F(0), F(3)), (F(1), F(0), F(0), F(0))]
    hand = [
        (q3, []),
        (GradedSpace.zero(), []),
        (q3, [[(F(1), F(1), F(0))]]),
        (q3, [e1 + e3]),
        (mixed, [plane]),
        (q3, [e1, e1, [(F(2), F(0), F(0))], e2, e1]),
        (mixed, [line, plane, line, plane]),
        (q3, [e1, e2, e1 + e2]),
        (mixed, [line, plane, line + plane]),
        (q3, [e1 + e2 + e3, e1 + e2, e1]),
        (mixed, [line + plane, plane, [(F(1), F(0), F(0), F(0))]]),
        (GradedSpace.zero(), [[()]]),
        (GradedSpace.zero(), [[()], [(), ()]]),
        (GradedSpace.std(1, F(1, 2)), [[(F(3),)]]),
        (GradedSpace.std(4, 2), [[(F(1), F(1), F(0), F(0))], [(F(0), F(0), F(1), F(-1))],
                                 [(F(1), F(1), F(1), F(-1)), (F(0), F(0), F(1), F(-1))]]),
    ]
    return ([random_inclusion_case(random.Random(seed)) for seed in range(250)]
            + [inclusion_system(ambient, subspaces) for ambient, subspaces in hand])


class TestInclusionOrder:
    def test_order_is_the_closure_of_strict_containments(self):
        for incsys in _inclusion_cases():
            poset, reference = incsys.system.poset, inclusion_order(incsys.ambient, incsys.subspace_rows)
            assert poset.elements == reference.elements
            assert poset.leq == reference.leq
            assert poset.covers() == reference.covers()
            assert poset.violations() == ()

    def test_maps_match_the_solve_on_every_strict_pair(self):
        pairs = 0
        for incsys in _inclusion_cases():
            reference = inclusion_maps_by_solve(incsys)
            assert {(i, j) for i, j in incsys.system.maps if i != j} == set(reference)
            for (i, j), f in reference.items():
                assert incsys.system.maps[(i, j)] == f, (i, j)
            pairs += len(reference)
        assert pairs > 500

    def test_no_solve_and_one_rank_test_per_canonical_subspace(self, monkeypatch):
        # the order is read from the sums and the maps from the pivots, so
        # the only rank test is canonical_subspace's grading check
        calls = {"rank": 0, "solve_matrix": 0, "canonical": 0}
        rank, solve, canonical = linalg.rank, linalg.solve_matrix, inclusion.canonical_subspace

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(linalg, "rank", counted("rank", rank))
        monkeypatch.setattr(linalg, "solve_matrix", counted("solve_matrix", solve))
        monkeypatch.setattr(inclusion, "canonical_subspace", counted("canonical", canonical))
        cases = _inclusion_cases()
        assert sum(len(c.system.poset.covers()) for c in cases) > 300
        assert calls["solve_matrix"] == 0
        assert calls["rank"] == calls["canonical"] > 1000


class TestCanonicalSubspace:
    def test_per_grade_reduction_matches_the_dense_projection(self):
        # seeded homogeneous rows with int and Fraction entries, the first two
        # of distinct grades of the ambient space; their sum stands in for them in 3 of 5 cases, so
        # that the span is not closed under the grading unless other rows
        # restore it
        rng = random.Random(29)
        entries = [0, 0, 1, -2, 3, F(1, 3), F(-5, 2)]
        outcomes = {"closed": 0, "refused": 0}
        for _ in range(400):
            ambient = _space(rng, WEIGHTS[:4], 6, "e")
            present = sorted({w for _, w in ambient.basis})
            grades = rng.sample(present, min(2, len(present))) + rng.choices(WEIGHTS[:4], k=2)
            rows = [[rng.choice(entries) if ambient.weight(c) == w else 0 for c in range(ambient.dim)]
                    for w in grades[:rng.randint(1, 4)]]
            if len(rows) > 1 and rng.random() < 0.6:
                rows[:2] = [[x + y for x, y in zip(rows[0], rows[1])]]
            try:
                expected = canonical_subspace_by_projection(ambient, rows)
            except NotASubspace as e:
                with pytest.raises(NotASubspace, match=f"^{re.escape(str(e))}$"):
                    canonical_subspace(ambient, rows)
                outcomes["refused"] += 1
            else:
                got = canonical_subspace(ambient, rows)
                assert got == expected and {type(x) for row in got for x in row} <= {F}
                assert repr(got) == repr(expected)
                # canonical rows passed back, as the sum closure does, are kept
                again = canonical_subspace(ambient, got + tuple(tuple(F(x) for x in row) for row in rows))
                assert again == got and repr(again) == repr(got)
                outcomes["closed"] += 1
        assert min(outcomes.values()) > 40, outcomes  # both outcomes are exercised
