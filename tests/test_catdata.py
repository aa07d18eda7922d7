"""Category data: labels, weights, fusion rules, parameters, loading."""

import copy
import functools
import itertools
import math
import pickle
import random
import re
from fractions import Fraction as F

import pytest

from limfuse.catdata import (
    AffineVerma,
    DeligneCategory,
    ForeignLabel,
    KLCategory,
    OspCategory,
    OspMod,
    Pair,
    SuperVir,
    SuperVirCategory,
    VirasoroKp2,
    VirasoroKp2Category,
    VirasoroT,
    VirasoroTCategory,
    WeightVec,
    category_by_name,
    load_category,
    osp_vec,
    osp_weight,
    param_chain,
    parse_label,
    super_vec,
    super_weight,
    verma_vec,
    verma_weight,
    via_kp2_of_s,
    via_t_of_s,
    virasoro_vec,
    virasoro_weight,
)
from limfuse.catdata import params
from limfuse.exact import Poly, RatFunc, format_ratfunc
from limfuse.fusion import FusionElement, monodromy
from oracles import central_charge_super, central_charge_t, sort_key

X = RatFunc.var()
VT = VirasoroTCategory()
KP2 = VirasoroKp2Category()
KL = KLCategory()
SV = SuperVirCategory()
OSP = OspCategory()
PAIR_CAT = DeligneCategory(KP2, VT)


class TestLabels:
    def test_positive_indices_required(self):
        with pytest.raises(ValueError):
            VirasoroT(0, 1)
        with pytest.raises(ValueError):
            AffineVerma(-2)

    def test_supervir_needs_even_sum(self):
        with pytest.raises(ValueError):
            SuperVir(2, 1)
        SuperVir(2, 2)

    def test_osp_needs_odd(self):
        with pytest.raises(ValueError):
            parse_label("M(2)")
        parse_label("M(3)")

    def test_huge_index_rejected(self):
        with pytest.raises(ValueError):
            VirasoroT(10**6 + 1, 1)

    def test_pair_refuses_factors_that_are_not_labels(self):
        # a pair of ints used to build, print `1%2` and fail only on `.indices`
        lt = VirasoroT(1, 1)
        for left, right, side, bad in ((1, lt, "left", 1), (lt, 2, "right", 2),
                                       ((0, 1, 1), lt, "left", (0, 1, 1)), (lt, "Lt(1,1)", "right", "Lt(1,1)")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'pair {side} factor must be a label, got {bad!r}')}$"):
                Pair(left, right)
        assert str(Pair(Pair(VirasoroT(1, 2), AffineVerma(3)), SuperVir(1, 1))) == "Lt(1,2)%V(3)%S(1,1)"

    def test_parse_roundtrip(self):
        for text in ["Lt(2,3)", "Lk(1,4)", "V(5)", "S(3,5)", "M(7)", "V(2)%Lt(3,1)"]:
            assert str(parse_label(text)) == text

    def test_bool_and_bad_indices_refused_in_every_kind(self):
        # True == 1 and hash(True) == hash(1), so an accepted bool index
        # would alias the label with a 1 in its place in every cache
        for kind, arity in ((VirasoroT, 2), (VirasoroKp2, 2), (AffineVerma, 1), (SuperVir, 2), (OspMod, 1)):
            for slot in range(arity):
                for bad in (True, False, 0, -3, 1.0, "1", 10**6 + 1):
                    args = [1] * arity
                    args[slot] = bad
                    with pytest.raises(ValueError, match=r"^label ind"):
                        kind(*args)

    def test_ordering_lexicographic(self):
        labels = VT.labels_up_to(3)
        assert labels[:4] == [VirasoroT(1, 1), VirasoroT(1, 2), VirasoroT(1, 3), VirasoroT(2, 1)]


class TestPairHash:
    """`Pair` is the tuple (5, left, right) and hashes as that tuple."""

    PAIRS = [
        (VirasoroKp2(3, 1), VirasoroT(5, 1)),
        (AffineVerma(2), VirasoroT(1, 7)),
        (VirasoroT(2, 3), VirasoroT(3, 2)),
        (SuperVir(1, 3), OspMod(5)),
    ]

    def test_equal_pairs_hash_equal_and_find_each_other(self):
        for a, b in self.PAIRS:
            p, q = Pair(a, b), parse_label(f"{a}%{b}")
            assert p == q and p is not q and q.left is not a
            assert hash(p) == hash(q) == hash((5, a, b))
            assert {p: "hit"}[q] == "hit"
            assert q in {p} and p in {q: 1}

    def test_order_of_factors_matters(self):
        for a, b in self.PAIRS:
            assert a != b
            assert Pair(a, b) != Pair(b, a)
            assert Pair(b, a) not in {Pair(a, b)}

    def test_copies_and_pickles_keep_equality_and_hash(self):
        for a, b in self.PAIRS:
            p = Pair(a, b)
            for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert q == p and hash(q) == hash(p)
                assert {p: 1}[q] == 1

    def test_fields_stay_frozen(self):
        p = Pair(VirasoroKp2(3, 1), VirasoroT(5, 1))
        with pytest.raises(AttributeError):
            p.left = VirasoroKp2(1, 1)
        with pytest.raises(AttributeError):
            p.right = VirasoroT(1, 1)
        assert hash(p) == hash((5, VirasoroKp2(3, 1), VirasoroT(5, 1)))


BUILTINS = (VT, KP2, KL, SV, OSP)


def brute_fusion(x, y):
    """Slot-by-slot fusion read off the rule |a-b| < c < a+b with
    c = a+b+1 (mod 2), every term of multiplicity one."""
    combos = [()]
    for a, b in zip(x.indices, y.indices):
        allowed = [c for c in range(1, a + b) if abs(a - b) < c and (a + b + 1 - c) % 2 == 0]
        combos = [t + (c,) for t in combos for c in allowed]
    return FusionElement({type(x)(*c): 1 for c in combos})


def labels_up_to_6():
    """Every label with indices <= 6 of the five families and of two
    Deligne products, in the oracle's order."""
    names = ("deligne(virasoro-kp2,virasoro-t)", "deligne(kl-sl2,virasoro-t)")
    cats = (*BUILTINS, *(category_by_name(n) for n in names))
    return sorted((x for cat in cats for x in cat.labels_up_to(6)), key=sort_key)


LABEL_FIELDS = {
    VirasoroT: ("r", "s"),
    VirasoroKp2: ("r", "s"),
    AffineVerma: ("r",),
    SuperVir: ("n", "m"),
    OspMod: ("n",),
    Pair: ("left", "right"),
}


class TestLabelOrderOracle:
    """Labels are their canonical tuples; `oracles.sort_key` writes the
    order out per kind from the named fields."""

    LABELS = labels_up_to_6()

    def test_sorted_order_matches_oracle(self):
        labels = self.LABELS
        assert len(labels) == 36 + 36 + 6 + 18 + 3 + 36 * 36 + 6 * 36
        assert sorted(reversed(labels)) == labels
        assert all(x == sort_key(x) for x in labels)
        assert all(a < b and not b < a for a, b in zip(labels, labels[1:]))

    def test_distinct_labels_unequal(self):
        labels = self.LABELS
        assert len(set(labels)) == len({str(x) for x in labels}) == len(labels)
        small = [x for x in labels if max(x.indices) <= 3]
        for a in small:
            for b in small:
                assert (a == b) == (str(a) == str(b)), (a, b)
                assert (a < b) == (sort_key(a) < sort_key(b)), (a, b)
        assert VirasoroT(1, 1) != VirasoroKp2(1, 1) and AffineVerma(1) != OspMod(1)

    def test_equal_labels_hash_equal_and_find_each_other(self):
        table = {x: k for k, x in enumerate(self.LABELS)}
        for k, x in enumerate(self.LABELS):
            y = parse_label(str(x))
            assert y == x and y is not x and hash(y) == hash(x)
            assert table[y] == k

    def test_str_parse_roundtrip(self):
        for x in self.LABELS:
            y = parse_label(str(x))
            assert type(y) is type(x) and str(y) == str(x)

    def test_copy_deepcopy_pickle_roundtrip(self):
        for x in self.LABELS[::7]:
            for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(y) is type(x) and y == x and hash(y) == hash(x)
                assert str(y) == str(x) and y.indices == x.indices

    def test_fields_refuse_assignment_in_every_kind(self):
        samples = {type(x): x for x in self.LABELS}
        assert set(samples) == set(LABEL_FIELDS)
        for kind, names in LABEL_FIELDS.items():
            x = samples[kind]
            for name in (*names, "indices", "other"):
                with pytest.raises(AttributeError):
                    setattr(x, name, getattr(x, name, 1))


class TestLabelIndices:
    """`indices` is the one index accessor; categories fuse through it."""

    def test_indices_rebuild_label_and_key_up_to_12(self):
        for cat in BUILTINS:
            labels = cat.labels_up_to(12)
            assert labels == sorted(labels)
            for x in labels:
                assert type(x)(*x.indices) == x
                assert sort_key(x)[1:] == x.indices
                assert parse_label(str(x)) == x

    def test_fusion_matches_brute_force_up_to_8(self):
        for cat in BUILTINS:
            labels = cat.labels_up_to(8)
            for x in labels:
                for y in labels:
                    assert cat.fusion_of(x, y) == brute_fusion(x, y), (x, y)

    def test_product_labels_in_canonical_order(self):
        labels = PAIR_CAT.labels_up_to(4)
        assert labels == sorted(labels)

    def test_pair_indices_flatten_the_factors(self):
        nested = category_by_name("deligne(deligne(kl-sl2,virasoro-kp2),virasoro-t)")
        cats = [category_by_name("deligne(virasoro-kp2,virasoro-t)"), category_by_name("deligne(kl-sl2,virasoro-t)")]
        for cat in (*cats, nested):
            for x in cat.labels_up_to(4):
                assert x.indices == x.left.indices + x.right.indices
        x = Pair(Pair(AffineVerma(3), VirasoroKp2(2, 5)), VirasoroT(4, 1))
        assert nested.contains(x) and x.indices == (3, 2, 5, 4, 1)


class TestWeights:
    def test_unit_weight_zero(self):
        for cat in (VT, KP2, KL, SV, OSP, PAIR_CAT):
            assert cat.weight_of(cat.unit).is_zero()

    def test_virasoro_2_2(self):
        expected = F(3, 4) * X - F(3, 2) + F(3, 4) / X
        assert VT.weight_of(VirasoroT(2, 2)) == expected
        # spot value with plain fractions, independent of RatFunc
        assert VT.weight_of(VirasoroT(2, 2)).eval(F(5, 7)) == (
            F(3, 4) * F(5, 7) - F(3, 2) + F(3, 4) * F(7, 5)
        )

    def test_super_2_2(self):
        assert SV.weight_of(SuperVir(2, 2)) == F(3, 8) * X + F(3, 8) / X - F(3, 4)

    def test_super_1_3(self):
        assert format_ratfunc(SV.weight_of(SuperVir(1, 3)), "s") == "(-s+2)/(2*s)"

    def test_verma_weight(self):
        assert KL.weight_of(AffineVerma(3)) == 4 / (X + 1)

    def test_foreign_label(self):
        with pytest.raises(ForeignLabel):
            VT.weight_of(SuperVir(2, 2))

    def test_weight_of_is_the_memoized_vectors_view(self):
        # one memo: weight_of reads the RatFunc that the memoized WeightVec
        # built once and keeps, and a monodromy exponent reads its vector's
        for cat in (VT, SV, PAIR_CAT):
            for x in cat.labels_up_to(3):
                assert cat.weight_of(x) is cat.weight_vec(x).to_ratfunc() is cat.weight_of(x)
        for e in monodromy(SV, SuperVir(2, 4), SuperVir(3, 1)).entries:
            assert e.exponent is e.exponent_vec.to_ratfunc() is e.exponent

    def test_central_charge_coset_identity(self):
        # the two Virasoro central charges must add up to the super one plus
        # the free-fermion 1/2 after the parameter alignment
        chain = param_chain()
        c_kp2 = central_charge_t().substitute(chain.kp2_of_s)
        c_t_in_s = central_charge_t().substitute(chain.t_of_s)
        assert c_kp2 + c_t_in_s == central_charge_super() + F(1, 2)

    def test_weight_additivity_on_pairs(self):
        chain = param_chain()
        for r in range(1, 5):
            for s in range(1, 5):
                pair = Pair(VirasoroKp2(r, s), VirasoroT(s, r))
                expected = KP2.weight_of(VirasoroKp2(r, s)) + VT.weight_of(
                    VirasoroT(s, r)
                ).substitute(chain.t_of_s)
                assert PAIR_CAT.weight_of(pair) == expected

    def test_h_symmetry(self):
        # swapping the Kac indices inverts the parameter
        inv = 1 / X
        for r in range(1, 7):
            for s in range(1, 7):
                assert virasoro_weight(r, s) == virasoro_weight(s, r).substitute(inv)

    def test_balancing_bridge(self):
        for r in range(1, 11):
            for s in range(1, 11):
                d = virasoro_weight(r, s) - virasoro_weight(r, 1) - virasoro_weight(1, s)
                assert d.as_constant() == F(r + s - r * s - 1, 2)


class TestParamChain:
    def test_defining_identities(self):
        chain = param_chain()
        assert chain.s_of_t == 1 / (2 * X - 1)
        assert chain.t_of_s.substitute(chain.s_of_t) == X
        assert chain.kp2_of_s.eval(1) == 1

    def test_kp2_weights_are_substituted(self):
        chain = param_chain()
        for r in range(1, 4):
            for s in range(1, 4):
                assert KP2.weight_of(VirasoroKp2(r, s)) == virasoro_weight(r, s).substitute(
                    chain.kp2_of_s
                )


@functools.lru_cache(maxsize=None)
def formula_weight(x, param: str) -> RatFunc:
    """Weight of x in `param` from the RatFunc formulas and param_chain()
    substitutions alone, independent of the weight vectors."""
    chain = param_chain()
    if isinstance(x, Pair):
        return formula_weight(x.left, param) + formula_weight(x.right, param)
    if isinstance(x, VirasoroT):
        w = virasoro_weight(x.r, x.s)
        return w.substitute(chain.t_of_s) if param == "s" else w
    if isinstance(x, VirasoroKp2):
        return virasoro_weight(x.r, x.s).substitute(chain.kp2_of_s)
    if isinstance(x, AffineVerma):
        return verma_weight(x.r)
    if isinstance(x, SuperVir):
        return super_weight(x.n, x.m)
    assert isinstance(x, OspMod)
    return osp_weight(x.n)


PRODUCTS = [
    category_by_name(name)
    for name in (
        "deligne(virasoro-kp2,virasoro-t)",
        "deligne(kl-sl2,virasoro-t)",
        "deligne(virasoro-t,virasoro-t)",
    )
]


def product_labels(cat, bound, rng):
    """Every pair with both factors <= 3, plus every factor label <= bound
    paired with a seeded partner <= bound on the other side.  The full
    product at bound 12 has up to 20,736 pairs, each a slow RatFunc sum;
    pair weights are factor sums, so this covers every factor label."""
    left, right = cat.left.labels_up_to(bound), cat.right.labels_up_to(bound)
    pairs = {Pair(a, b) for a in cat.left.labels_up_to(3) for b in cat.right.labels_up_to(3)}
    pairs |= {Pair(a, rng.choice(right)) for a in left}
    pairs |= {Pair(rng.choice(left), b) for b in right}
    return sorted(pairs)


def random_vec(rng, t_only=False):
    def q():
        return F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else F(0)
    return WeightVec(q(), q(), q(), 0 if t_only else q())


class TestWeightVectors:
    """The fixed-basis vectors against the RatFunc formulas."""

    def test_builtins_match_formulas_up_to_12(self):
        for cat in (VT, KP2, KL, SV, OSP):
            for x in cat.labels_up_to(12):
                expected = formula_weight(x, cat.base_parameter)
                assert cat.weight_vec(x).to_ratfunc() == expected, x
                assert cat.weight_of(x) == expected

    def test_products_match_formulas_up_to_12(self):
        rng = random.Random(31)
        for cat in PRODUCTS:
            for x in product_labels(cat, 12, rng):
                assert cat.weight_vec(x).to_ratfunc() == formula_weight(x, cat.base_parameter), x

    def test_parameter_maps_match_substitution(self):
        chain = param_chain()
        rng = random.Random(37)
        for _ in range(200):
            v = random_vec(rng, t_only=True)
            w = v.to_ratfunc()
            assert via_t_of_s(v).to_ratfunc() == w.substitute(chain.t_of_s)
            assert via_kp2_of_s(v).to_ratfunc() == w.substitute(chain.kp2_of_s)

    def test_to_ratfunc_against_normalizing_sum(self):
        # every zero pattern of (a, b, c, d), against RatFunc's gcd normalization
        rng = random.Random(47)
        for pattern in range(16):
            for _ in range(25):
                coords = [F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
                          if pattern >> k & 1 else F(0) for k in range(4)]
                a, b, c, d = coords
                expected = a * X + b + c / X + d / (X + 1)
                got = WeightVec(*coords).to_ratfunc()
                assert got.num.coeffs == expected.num.coeffs, coords
                assert got.den.coeffs == expected.den.coeffs, coords
                assert got.num.gcd(got.den) == Poly(1)
                assert got.den.leading == 1

    def test_builders_return_exact_fraction_vectors(self):
        # the trusted constructor must hold what the converting one would
        rng = random.Random(53)
        built = []
        for r in range(1, 9):
            for s_idx in range(1, 9):
                built.append((virasoro_vec(r, s_idx),
                              WeightVec(F(r * r - 1, 4), F(1 - r * s_idx, 2), F(s_idx * s_idx - 1, 4))))
                built.append((super_vec(r, s_idx),
                              WeightVec(F(r * r - 1, 8), F(1 - r * s_idx, 4), F(s_idx * s_idx - 1, 8))))
            built.append((verma_vec(r), WeightVec(d=F(r * r - 1, 2))))
            built.append((osp_vec(r), WeightVec(c=F(r * r - 1, 8))))
        for _ in range(100):
            v = random_vec(rng, t_only=True)
            a, b, c, _ = v
            built.append((via_t_of_s(v), WeightVec(0, a / 2 + b + 2 * c, a / 2, -2 * c)))
            built.append((via_kp2_of_s(v), WeightVec(a / 2, a / 2 + b, 0, 2 * c)))
        for got, expected in built:
            assert type(got) is WeightVec and len(got) == 4
            assert all(type(coord) is F for coord in got), got
            assert got == expected and hash(got) == hash(expected)

    def test_maps_reject_shifted_pole(self):
        for conv in (via_t_of_s, via_kp2_of_s):
            with pytest.raises(ValueError):
                conv(WeightVec(d=1))

    def test_vector_operations_match_ratfunc(self):
        rng = random.Random(41)
        for _ in range(200):
            u, v = random_vec(rng), random_vec(rng)
            a, b, c, d = u
            expected = a * X + b + c / X + d / (X + 1)
            assert u.to_ratfunc() == expected
            assert (u + v).to_ratfunc() == expected + v.to_ratfunc()
            assert (u - v).to_ratfunc() == expected - v.to_ratfunc()
            assert u.as_constant() == expected.as_constant()
            q = F(rng.randint(1, 50), rng.randint(1, 50))
            assert u.eval(q) == expected.eval(q)

    def test_as_constant_on_sampled_monodromy_exponents(self):
        rng = random.Random(43)
        for cat in (VT, KP2, KL, SV, OSP, *PRODUCTS):
            param = cat.base_parameter
            labels = cat.labels_up_to(5)
            for _ in range(12):
                x, y = rng.choice(labels), rng.choice(labels)
                hxy = formula_weight(x, param) + formula_weight(y, param)
                for e in monodromy(cat, x, y).entries:
                    expected = formula_weight(e.summand, param) - hxy
                    assert e.exponent_vec.as_constant() == expected.as_constant()
                    assert e.exponent == expected


class FracVec(tuple):
    """The former `WeightVec`: four Fraction coordinates over (x, 1, 1/x,
    1/(x+1)) with Fraction arithmetic, kept as the oracle of the integer one."""

    def __new__(cls, a=0, b=0, c=0, d=0):
        return tuple.__new__(cls, (F(a), F(b), F(c), F(d)))

    def __add__(self, other):
        return FracVec(*(p + q for p, q in zip(self, other)))

    def __sub__(self, other):
        return FracVec(*(p - q for p, q in zip(self, other)))

    def as_constant(self):
        a, b, c, d = self
        return b if not (a or c or d) else None

    def eval(self, q):
        a, b, c, d = self
        return a * q + b + (c / q if c else 0) + (d / (q + 1) if d else 0)

    def to_ratfunc(self):
        a, b, c, d = self
        return a * X + b + c / X + d / (X + 1)

    def via_t_of_s(self):
        a, b, c, _ = self
        return FracVec(0, a / 2 + b + 2 * c, a / 2, -2 * c)

    def via_kp2_of_s(self):
        a, b, c, _ = self
        return FracVec(a / 2, a / 2 + b, 0, 2 * c)


def mixed_coords(rng, pattern):
    """Four coordinates, the k-th zero unless bit k of `pattern` is set, with
    denominators from 1 to 24, so sums meet unequal denominators."""
    return [F(rng.randint(-60, 60) or 1, rng.choice([1, 2, 3, 4, 6, 8, 9, 16, 24]))
            if pattern >> k & 1 else F(0) for k in range(4)]


class TestIntegerVectorsAgainstFractions:
    """The integer `WeightVec` against `FracVec` on every zero pattern."""

    def vectors(self, seed, per_pattern=20):
        rng = random.Random(seed)
        return [mixed_coords(rng, pattern) for pattern in range(16) for _ in range(per_pattern)]

    def test_coordinates_and_reduced_form(self):
        for coords in self.vectors(61):
            v = WeightVec(*coords)
            assert list(v) == coords and all(type(q) is F for q in v)
            a, b, c, d, den = v.ints
            assert den > 0 and math.gcd(a, b, c, d, den) == 1
            assert [F(k, den) for k in (a, b, c, d)] == coords

    def test_sum_difference_constant_and_eval(self):
        rng = random.Random(67)
        vecs = self.vectors(71)
        for coords in vecs:
            other = rng.choice(vecs)
            u, v, fu, fv = WeightVec(*coords), WeightVec(*other), FracVec(*coords), FracVec(*other)
            assert list(u + v) == list(fu + fv)
            assert list(u - v) == list(fu - fv)
            assert (u - u).ints == (0, 0, 0, 0, 1)
            assert u.as_constant() == fu.as_constant()
            q = F(rng.randint(1, 50), rng.randint(1, 50))
            for point in (q, -q - 1):
                assert u.eval(point) == fu.eval(point)

    def test_eval_raises_only_at_a_genuine_pole(self):
        assert WeightVec(1, 2).eval(F(0)) == 2
        assert WeightVec(1, 2, 0, 3).eval(F(0)) == 5
        assert WeightVec(1, 2, 3).eval(F(-1)) == -2
        with pytest.raises(ZeroDivisionError):
            WeightVec(0, 0, 1).eval(F(0))
        with pytest.raises(ZeroDivisionError):
            WeightVec(0, 0, 0, 1).eval(F(-1))

    def test_parameter_maps(self):
        for coords in self.vectors(73):
            coords[3] = F(0)
            v, fv = WeightVec(*coords), FracVec(*coords)
            assert list(via_t_of_s(v)) == list(fv.via_t_of_s())
            assert list(via_kp2_of_s(v)) == list(fv.via_kp2_of_s())

    def test_to_ratfunc_and_format(self):
        for coords in self.vectors(79):
            v, fv = WeightVec(*coords), FracVec(*coords)
            f = fv.to_ratfunc()
            assert v.to_ratfunc() == f
            assert (v.to_ratfunc().num, v.to_ratfunc().den) == (f.num, f.den)
            for var in ("s", "t", "x"):
                assert v.format(var) == format_ratfunc(v.to_ratfunc(), var) == format_ratfunc(f, var)

    def test_format_of_every_builtin_weight(self):
        for cat in (VT, KP2, KL, SV, OSP, *PRODUCTS):
            for x in (cat.labels_up_to(8) if cat not in PRODUCTS else cat.labels_up_to(3)):
                assert cat.weight_vec(x).format(cat.base_parameter) == format_ratfunc(
                    formula_weight(x, cat.base_parameter), cat.base_parameter), x

    def test_equal_up_to_scaling_means_equal(self):
        rng = random.Random(83)
        for coords in self.vectors(89, per_pattern=5):
            v = WeightVec(*coords)
            for k in (2, 3, 8, rng.randint(4, 10**6)):
                w = params._vec(*(k * n for n in v.ints))
                assert w == v and hash(w) == hash(v) and w.ints == v.ints
            assert WeightVec(*coords) == v and hash(WeightVec(*coords)) == hash(v)
            assert v + WeightVec(F(1, 3)) - WeightVec(F(2, 6)) == v
        assert WeightVec(F(1, 2)) != WeightVec(F(1, 4))
        assert WeightVec() != (0, 0, 0, 0)


class TestWeightHook:
    """Each category's one weight formula over flat indices, `_weight_ints`,
    reduced once, against the RatFunc formulas."""

    PRODUCTS = [*PRODUCTS, category_by_name("deligne(deligne(kl-sl2,virasoro-t),osp)")]

    @staticmethod
    def hook(cat, indices):
        return params._vec(*cat._weight_ints(indices))

    def test_products_match_formulas_up_to_6(self):
        rng = random.Random(59)
        for cat in self.PRODUCTS:
            for x in product_labels(cat, 6, rng):
                w = self.hook(cat, x.indices)
                assert w.to_ratfunc() == formula_weight(x, cat.base_parameter), (cat.name, x)
                assert cat.weight_vec(x) == w

    def test_coset_slices_give_the_super_and_osp_weights(self):
        svir, osp = (category_by_name(f"deligne({k},virasoro-t)") for k in ("virasoro-kp2", "kl-sl2"))
        for n in range(1, 7):
            for m in range(1, 7):
                if (n + m) % 2 == 0:
                    r = (n + m) // 2
                    assert self.hook(svir, (n, r, m, r)).to_ratfunc() == super_weight(n, m), (n, m)
            if n % 2:
                # Lt(n, r) with 2r = n + 1 or n - 1 cancels V(r)'s pole at s = -1
                for r in {(n + 1) // 2, max((n - 1) // 2, 1)}:
                    assert self.hook(osp, (r, n, r)).to_ratfunc() == osp_weight(n), (n, r)

    def test_a_t_factor_with_a_shifted_pole_is_refused(self):
        class PoleT(VirasoroTCategory):
            def _weight_ints(self, indices, vec=params._ints):
                return vec(0, 0, 0, 1, 1)

        for cat in (DeligneCategory(PoleT(), KL), DeligneCategory(SV, PoleT())):
            with pytest.raises(ValueError, match="1/\\(t\\+1\\) term"):
                cat.weight_vec(cat.unit)


class TestFusion:
    def test_row_column_product(self):
        assert VT.fusion_of(VirasoroT(2, 1), VirasoroT(1, 2)) == FusionElement.of(VirasoroT(2, 2))

    def test_unit_laws_up_to_ten(self):
        for cat in (VT, KP2, KL, SV, OSP):
            for x in cat.labels_up_to(10):
                assert cat.fusion_of(cat.unit, x) == FusionElement.of(x)
                assert cat.fusion_of(x, cat.unit) == FusionElement.of(x)

    def test_commutative(self):
        for cat, bound in ((VT, 4), (SV, 5), (OSP, 7), (KL, 5)):
            labels = cat.labels_up_to(bound)
            for x in labels:
                for y in labels:
                    assert cat.fusion_of(x, y) == cat.fusion_of(y, x)

    def test_super_2_2_square(self):
        assert SV.fusion_of(SuperVir(2, 2), SuperVir(2, 2)) == FusionElement(
            {SuperVir(1, 1): 1, SuperVir(1, 3): 1, SuperVir(3, 1): 1, SuperVir(3, 3): 1}
        )

    def test_four_term_rule_with_dropping(self):
        # the square-with-neighbors rule, zero-index terms dropped
        s22 = SuperVir(2, 2)
        for n in range(1, 8):
            for m in range(1, 8):
                if (n + m) % 2:
                    continue
                expected = {}
                for eps in (-1, 1):
                    for eps2 in (-1, 1):
                        if n + eps >= 1 and m + eps2 >= 1:
                            expected[SuperVir(n + eps, m + eps2)] = 1
                assert SV.fusion_of(s22, SuperVir(n, m)) == FusionElement(expected)

    def test_osp_table(self):
        assert OSP.fusion_of(parse_label("M(3)"), parse_label("M(3)")) == FusionElement(
            {parse_label("M(1)"): 1, parse_label("M(3)"): 1, parse_label("M(5)"): 1}
        )

    def test_pair_fusion_factorwise(self):
        x = Pair(VirasoroKp2(2, 1), VirasoroT(1, 2))
        prod = PAIR_CAT.fusion_of(x, x)
        assert prod == FusionElement(
            {
                Pair(VirasoroKp2(a, 1), VirasoroT(1, b)): 1
                for a in (1, 3)
                for b in (1, 3)
            }
        )

    @staticmethod
    def checked_fusion(cat, x, y):
        """The fusion rule's product through the checked, sorting constructor."""
        if isinstance(cat, DeligneCategory):
            lf, rf = cat.left.fusion_of(x.left, y.left), cat.right.fusion_of(x.right, y.right)
            return FusionElement([(Pair(a, b), ma * mb) for a, ma in lf for b, mb in rf])
        slots = [range(abs(a - b) + 1, a + b, 2) for a, b in zip(x.indices, y.indices)]
        return FusionElement([(cat.label_type(*c), 1) for c in itertools.product(*slots)])

    @pytest.mark.parametrize("name", [
        "virasoro-t", "virasoro-kp2", "kl-sl2", "supervir", "osp",
        "deligne(virasoro-kp2,virasoro-t)", "deligne(kl-sl2,virasoro-t)", "deligne(virasoro-t,virasoro-t)",
    ])
    def test_trusted_rules_match_checked_elements(self, name):
        # every pair of labels with indices <= 8 for a family; a product has
        # too many such pairs, so it takes every pair up to 3 and a seeded
        # sample up to 8
        cat = category_by_name(name)
        labels = cat.labels_up_to(8)
        if isinstance(cat, DeligneCategory):
            small = cat.labels_up_to(3)
            rng = random.Random(name)
            pairs = [*itertools.product(small, repeat=2), *(rng.sample(labels, 2) for _ in range(400))]
        else:
            pairs = itertools.product(labels, repeat=2)
        for x, y in pairs:
            got = cat._fusion_raw(x, y)
            assert got.terms() == self.checked_fusion(cat, x, y).terms(), (x, y)

    def test_associativity_small_exhaustive(self):
        from limfuse.fusion import ring_mul

        labels = VT.labels_up_to(3)
        for x in labels:
            fx = FusionElement.of(x)
            for y in labels:
                fy = FusionElement.of(y)
                xy = ring_mul(VT, fx, fy)
                for z in labels:
                    fz = FusionElement.of(z)
                    assert ring_mul(VT, xy, fz) == ring_mul(VT, fx, ring_mul(VT, fy, fz))

    def test_associativity_random(self):
        from limfuse.fusion import ring_mul

        rng = random.Random(5)
        for _ in range(100):
            x, y, z = (
                FusionElement.of(VirasoroT(rng.randint(1, 8), rng.randint(1, 8)))
                for _ in range(3)
            )
            assert ring_mul(VT, ring_mul(VT, x, y), z) == ring_mul(VT, x, ring_mul(VT, y, z))


class TestLoading:
    def test_by_name(self):
        assert isinstance(category_by_name("supervir"), SuperVirCategory)
        dl = category_by_name("deligne(kl-sl2,virasoro-t)")
        assert isinstance(dl, DeligneCategory)
        assert dl.base_parameter == "s"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            category_by_name("nope")

    def test_load_document(self):
        cat = load_category(
            {"name": "coset-pair", "families": ["virasoro-kp2", "virasoro-t"]}
        )
        assert cat.name == "coset-pair"
        assert cat.base_parameter == "s"
        assert cat.contains(Pair(VirasoroKp2(2, 1), VirasoroT(2, 1)))

    def test_load_min_index(self):
        # labels start at index 1, where the unit lies; no other start is valid
        cat = load_category({"families": [{"kind": "virasoro-t", "min_index": 1}]})
        assert cat.contains(VirasoroT(1, 1)) and cat.contains(cat.unit)
        for k in (0, 2):
            with pytest.raises(ValueError, match=rf"^category\.families\[0\]\.min_index: expected 1, where labels and the unit start, got {k}$"):
                load_category({"families": [{"kind": "virasoro-t", "min_index": k}]})

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_min_index_not_an_int_rejected(self, value):
        # True and 1.0 both compare equal to 1, yet neither is an index
        with pytest.raises(ValueError, match=f"^{re.escape(f'category.families[0].min_index: expected 1, where labels and the unit start, got {value!r}')}$"):
            load_category({"families": [{"kind": "virasoro-t", "min_index": value}]})

    def test_family_of_wrong_type_rejected(self):
        with pytest.raises(ValueError, match=r"^category\.families\[1\]: expected a category name or an object, got 3$"):
            load_category({"families": ["virasoro-kp2", 3]})

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match=r"^category: expected an object, got \['virasoro-kp2', 'virasoro-t'\]$"):
            load_category(["virasoro-kp2", "virasoro-t"])

    def test_families_not_a_list_rejected(self):
        # a string would be read one character at a time
        with pytest.raises(ValueError, match=r"^category\.families: expected a list of category names or objects, got 'virasoro-t'$"):
            load_category({"families": "virasoro-t"})

    def test_family_kind_not_a_name_rejected(self):
        with pytest.raises(ValueError, match=r"^category\.families\[0\]\.kind: expected a category name, got 5$"):
            load_category({"families": [{"kind": 5}]})

    def test_family_without_kind_rejected(self):
        with pytest.raises(ValueError, match=r"^category\.families\[1\]: missing key 'kind'$"):
            load_category({"families": ["virasoro-kp2", {"min_index": 1}]})

    def test_declared_parameter_mismatch(self):
        with pytest.raises(ValueError):
            load_category({"base_parameter": "t", "families": ["supervir"]})

    def test_empty_families(self):
        with pytest.raises(ValueError):
            load_category({"families": []})
