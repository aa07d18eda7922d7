"""Exact arithmetic: rational functions, integer-valued polynomials, and the
phase of a constant monodromy exponent (the exponent mod 1)."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from limfuse.exact import (
    DegenerateSubstitution,
    DivisionByZero,
    Poly,
    RatFunc,
    format_rat,
    format_ratfunc,
    parse_rat,
)
from limfuse.exact.ratfunc import format_intfrac
from limfuse.catdata import VirasoroTCategory, WeightVec
from limfuse.fusion import PARAMETER_DEPENDENT, MonodromyEntry, exponent_status
from oracles import first_non_integer_positive, interpolate, parse_ratfunc

T = RatFunc.var()


class TestRatFuncArith:
    def test_add_t_and_inverse(self):
        assert T + 1 / T == RatFunc(Poly((1, 0, 1)), Poly((0, 1)))
        assert format_ratfunc(T + 1 / T) == "(t^2+1)/(t)"

    def test_central_charge_at_one(self):
        c = 13 - 6 * T - 6 / T
        assert c.eval(1) == 1

    def test_mul_inverse_cancels(self):
        f = (T + 1) / (2 * T)
        g = (2 * T) / (T + 1)
        assert f * g == RatFunc(1)

    def test_division_by_zero_function(self):
        with pytest.raises(DivisionByZero):
            T / RatFunc(0)

    def test_sub_and_neg(self):
        assert T - T == RatFunc(0)
        assert -(T - 1) == 1 - T

    def test_pow(self):
        assert (T / (T + 1)) ** 2 == (T * T) / ((T + 1) * (T + 1))
        assert (2 * T) ** -1 == 1 / (2 * T)

    def test_normalization_idempotent(self):
        f = (3 * T * T - 6 * T + 3) / (4 * T)
        again = RatFunc(f.num, f.den)
        assert again.num == f.num and again.den == f.den

    def test_denominator_monic_and_coprime(self):
        f = (2 * T + 2) / (4 * T + 4)
        assert f == RatFunc(F(1, 2))
        g = (T * T - 1) / (T - 1)
        assert g == T + 1


class TestSubstitute:
    def test_parameter_chain_composition(self):
        k_of_t = (2 - 3 * T) / (2 * T - 1)
        s_of_k = 2 * T + 3
        s_of_t = s_of_k.substitute(k_of_t)
        assert s_of_t == 1 / (2 * T - 1)

    def test_identity_substitution(self):
        f = (T * T + 2) / (T - 5)
        assert f.substitute(T) == f

    def test_chain_inverts(self):
        t_of_s = (T + 1) / (2 * T)
        assert t_of_s.substitute(1 / (2 * T - 1)) == T

    def test_degenerate_substitution(self):
        with pytest.raises(DegenerateSubstitution):
            (1 / T).substitute(RatFunc(0))


class TestAsConstant:
    def test_constant(self):
        assert RatFunc(F(-1, 2)).as_constant() == F(-1, 2)

    def test_non_constant(self):
        delta = F(3, 8) * T + F(3, 8) / T - F(3, 4)
        assert delta.as_constant() is None

    def test_weight_difference_is_constant(self):
        # lowest-weight formula instantiated directly from its displayed form
        def h(r, s):
            return F(r * r - 1, 4) * T - F(r * s - 1, 2) + F(s * s - 1, 4) / T

        d = h(2, 2) - h(2, 1) - h(1, 2)
        assert d.as_constant() == F(-1, 2)


class TestIntegerValued:
    """`first_non_integer_positive`, the witness search of the fit oracle."""

    def test_affine_integer(self):
        assert first_non_integer_positive(Poly((1, -1))) is None  # -(r-1)

    def test_half_affine(self):
        p = Poly((F(1, 2), F(-1, 2)))  # -(r-1)/2
        assert first_non_integer_positive(p) == 2

    def test_binomial(self):
        assert first_non_integer_positive(Poly((0, F(-1, 2), F(1, 2)))) is None  # r(r-1)/2

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(200):
            deg = rng.randint(0, 4)
            p = Poly([F(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(deg + 1)])
            brute = next((r for r in range(1, 101) if p.eval(r).denominator != 1), None)
            assert first_non_integer_positive(p) == brute


def lagrange(points):
    """Reference interpolant: the sum of y_i times the i-th Lagrange basis polynomial."""
    xs = [F(x) for x, _ in points]
    total = Poly()
    for i, (xi, yi) in enumerate(points):
        basis, denom = Poly(1), F(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = basis * Poly((-xj, 1))
                denom *= xi - xj
        total = total + basis * (F(yi) / denom)
    return total


class TestInterpolate:
    def test_empty_is_zero(self):
        assert interpolate([]) == Poly()

    def test_one_point_is_constant(self):
        assert interpolate([(F(3, 2), F(-5, 7))]) == Poly(F(-5, 7))
        assert interpolate([(4, 0)]) == Poly()

    def test_duplicate_abscissae_raise(self):
        with pytest.raises(ValueError):
            interpolate([(1, 2), (3, 4), (F(2, 2), 5)])

    def test_fit_of_an_exponent_family(self):
        # -(r-1)/2 sampled at r = 1..5: the family of a non-local svir base
        assert interpolate([(r, F(1 - r, 2)) for r in range(1, 6)]) == Poly((F(1, 2), F(-1, 2)))

    @pytest.mark.parametrize("integer_xs", [True, False])
    def test_matches_lagrange(self, integer_xs):
        rng = random.Random(53 + integer_xs)
        for _ in range(150):
            n = rng.randint(1, 7)
            pool = [F(x) for x in range(-12, 13)] if integer_xs else sorted(
                {F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(40)})
            xs = rng.sample(pool, n)
            points = [(x, F(rng.randint(-20, 20), rng.randint(1, 8))) for x in xs]
            p = interpolate(points)
            assert p.coeffs == lagrange(points).coeffs
            assert p.degree < n
            assert all(p.eval(x) == y for x, y in points)


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def ratfuncs():
    polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Poly)
    return st.builds(
        lambda n, d: RatFunc(n, d),
        polys,
        polys.filter(lambda p: not p.is_zero()),
    )


class TestFieldLaws:
    @settings(max_examples=60, deadline=None)
    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(ratfuncs().filter(lambda a: not a.is_zero()))
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == RatFunc(1)

    @settings(max_examples=60, deadline=None)
    @given(ratfuncs(), ratfuncs(), ratfuncs())
    def test_substitute_functorial(self, f, g, h):
        try:
            lhs = f.substitute(g).substitute(h)
            rhs = f.substitute(g.substitute(h))
        except DegenerateSubstitution:
            return
        assert lhs == rhs


class TestPhase:
    """`MonodromyEntry.phase` is the constant exponent mod 1, a `Fraction` in
    [0, 1), or None when the exponent depends on the parameter."""

    @staticmethod
    def phase_of(c):
        w = WeightVec(b=c)
        return MonodromyEntry(VirasoroTCategory().unit, w, exponent_status(w))

    def test_reduction_into_unit_interval(self):
        # the built-in constant exponents are all integers or halves
        for c, phase in [(F(-3, 2), F(1, 2)), (F(-1, 4), F(3, 4)), (F(5, 4), F(1, 4)), (7, 0)]:
            e = self.phase_of(c)
            assert e.phase == phase and type(e.phase) is F, c
            assert e.trivial == (phase == 0), c
        w = WeightVec(a=1)
        assert MonodromyEntry(VirasoroTCategory().unit, w, PARAMETER_DEPENDENT).phase is None

    def test_integer_is_trivial(self):
        for c in (F(12, 4), -5, 0):
            e = self.phase_of(c)
            assert e.phase == 0 and type(e.phase) is F and e.trivial, c
        assert not self.phase_of(F(1, 2)).trivial


class TestTextForm:
    def test_canonical_example(self):
        f = parse_ratfunc("(3*t^2 - 6*t + 3)/(4*t)")
        assert f == F(3, 4) * T - F(3, 2) + F(3, 4) / T
        assert format_ratfunc(f) == "(3*t^2-6*t+3)/(4*t)"

    def test_supervir_weight_form(self):
        d13 = 1 / T - F(1, 2)
        assert format_ratfunc(d13, "s") == "(-s+2)/(2*s)"
        assert parse_ratfunc("(-s+2)/(2*s)") == d13

    def test_polynomial_without_denominator(self):
        assert format_ratfunc(RatFunc(0)) == "0"
        assert format_ratfunc(2 * T + 3) == "2*t+3"
        assert parse_ratfunc("2*t+3") == 2 * T + 3

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(150):
            num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            den = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            if den.is_zero():
                continue
            f = RatFunc(num, den)
            assert parse_ratfunc(format_ratfunc(f)) == f

    def test_integer_fractions(self):
        # the one printer of every integer fraction: p or p/q for a constant,
        # a denominator of one omitted, zero coefficients skipped
        assert format_intfrac((0, 0, 0), (1,), "r") == "0"
        assert format_intfrac((-3, 0), (4,), "t") == "-3/4"
        assert format_intfrac((5,), (1,), "t") == "5"
        assert format_intfrac((1, -1, 0), (1,), "r") == "-r+1"
        assert format_intfrac((1, -1, 0), (2,), "r") == "(-r+1)/(2)"
        assert format_intfrac((3, -6, 3), (0, 4), "t") == "(3*t^2-6*t+3)/(4*t)"

    def test_rejects_junk(self):
        for bad in ["", "t//2", "(t", "t^-1", "2t", "t+*3", "x+y"]:
            with pytest.raises((ValueError, DivisionByZero)):
                parse_ratfunc(bad)

    def test_rat_forms(self):
        assert format_rat(F(-3, 4)) == "-3/4"
        assert parse_rat("-3/4") == F(-3, 4)
        assert parse_rat("−3/4") == F(-3, 4)  # unicode minus tolerated
        assert parse_rat("5") == 5
