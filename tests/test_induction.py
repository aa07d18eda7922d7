"""Induction: restrictions, locality, minimum weights, Frobenius, oracle."""

import random
import re
from fractions import Fraction as F
from functools import partial
from itertools import product

import pytest

from limfuse import cli
from limfuse.catdata import (
    AffineVerma,
    OspMod,
    DeligneCategory,
    ForeignLabel,
    KLCategory,
    category_by_name,
    Pair,
    SuperVir,
    SuperVirCategory,
    VirasoroKp2,
    VirasoroT,
    WeightVec,
    osp_weight,
    super_weight,
)
from limfuse.catdata.params import _ints
from limfuse.exact import RatFunc
from limfuse.fusion import FusionElement
from limfuse.fusion.monodromy import INTEGER, exponent_status
from limfuse.induction import (
    LOCAL,
    NON_LOCAL,
    AffineExpr,
    AlgebraObject,
    FactorTemplate,
    NotLocal,
    TruncationTooSmall,
    algebra_by_name,
    algebra_from_json,
    frobenius_dim,
    induce,
    induced_fusion,
    locality,
    min_weight_summand,
    osp_extension,
    parse_affine,
    restrict_truncated,
    restriction_oracle_check,
    svir_extension,
)
from limfuse.induction import fused as fused_mod
from limfuse.induction.induced import slice_family
from oracles import (
    DICTIONARIES,
    cli_canonical_base,
    first_non_integer_positive,
    frobenius_by_window,
    hom_dim,
    int_family,
    interpolate,
    label_at,
    restriction_sides,
    svir_to_induced,
    to_induced_by_rebuild,
)

SVX = svir_extension()
OSPX = osp_extension()
X = RatFunc.var()


def sbase(n, m):
    return Pair(VirasoroKp2(n, 1), VirasoroT(m, 1))


def obase(n):
    return Pair(AffineVerma(1), VirasoroT(n, 1))


class TestAlgebraObjects:
    def test_summand_families(self):
        assert SVX.summand(1) == SVX.base_category.unit
        assert SVX.summand(4) == Pair(VirasoroKp2(1, 4), VirasoroT(1, 4))
        assert OSPX.summand(3) == Pair(AffineVerma(3), VirasoroT(1, 3))

    def test_bad_summand_index(self):
        with pytest.raises(ValueError):
            SVX.summand(0)

    def test_by_name(self):
        assert algebra_by_name("svir-ext").name == "svir-ext"
        with pytest.raises(ValueError):
            algebra_by_name("other-ext")

    def test_from_json_matches_builtin(self):
        alg = algebra_from_json(
            {
                "name": "svir-clone",
                "base_category": "deligne(virasoro-kp2,virasoro-t)",
                "summand_rule": [
                    {"kind": "virasoro-kp2", "indices": ["1", "r"]},
                    {"kind": "virasoro-t", "indices": ["1", "r"]},
                ],
            }
        )
        for r in range(1, 8):
            assert alg.summand(r) == SVX.summand(r)

    def test_parse_affine(self):
        assert parse_affine("r").at(5) == 5
        assert parse_affine("2*r-1").at(3) == 5
        assert parse_affine("r+2").at(1) == 3
        assert parse_affine("4").at(9) == 4
        with pytest.raises(ValueError):
            parse_affine("q")
        with pytest.raises(ValueError):
            parse_affine("2*")

    def test_constant_rule_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_json(
                {
                    "base_category": "deligne(virasoro-kp2,virasoro-t)",
                    "summand_rule": [
                        {"kind": "virasoro-kp2", "indices": ["1", "1"]},
                        {"kind": "virasoro-t", "indices": ["1", "1"]},
                    ],
                }
            )

    def test_unknown_factor_kind_rejected(self):
        doc = {
            "base_category": "deligne(virasoro-kp2,virasoro-t)",
            "summand_rule": [
                {"kind": "virasoro-kp2", "indices": ["1", "r"]},
                {"kind": "foo", "indices": ["1", "r"]},
            ],
        }
        with pytest.raises(
            ValueError,
            match=r"^algebra\.summand_rule\[1\]\.kind: expected one of virasoro-t, virasoro-kp2, kl-sl2, got 'foo'$",
        ):
            algebra_from_json(doc)

    @pytest.mark.parametrize("kind", [["virasoro-t"], {"kind": "virasoro-t"}])
    def test_unhashable_factor_kind_rejected(self, kind):
        doc = {"base_category": "deligne(virasoro-kp2,virasoro-t)",
               "summand_rule": [{"kind": "virasoro-kp2", "indices": ["1", "r"]}, {"kind": kind, "indices": ["1", "r"]}]}
        with pytest.raises(ValueError, match=f"^{re.escape(f'algebra.summand_rule[1].kind: expected one of virasoro-t, virasoro-kp2, kl-sl2, got {kind!r}')}$"):
            algebra_from_json(doc)

    @pytest.mark.parametrize("doc", [0, None, True, 2.5, ["svir-ext"]])
    def test_document_neither_name_nor_object_rejected(self, doc):
        with pytest.raises(ValueError, match=f"^{re.escape(f'algebra: expected a name or an object, got {doc!r}')}$"):
            algebra_from_json(doc)

    def test_wrong_index_count_rejected(self):
        doc = {
            "base_category": "deligne(virasoro-kp2,virasoro-t)",
            "summand_rule": [
                {"kind": "virasoro-kp2", "indices": ["r"]},
                {"kind": "virasoro-t", "indices": ["1", "r"]},
            ],
        }
        with pytest.raises(
            ValueError, match=r"^algebra\.summand_rule\[0\]\.indices: expected 2 index expressions for virasoro-kp2, got \['r'\]$"
        ):
            algebra_from_json(doc)

    def test_wrong_unit_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_json(
                {
                    "base_category": "deligne(virasoro-kp2,virasoro-t)",
                    "summand_rule": [
                        {"kind": "virasoro-kp2", "indices": ["2", "r"]},
                        {"kind": "virasoro-t", "indices": ["1", "r"]},
                    ],
                }
            )

    def test_string_indices_rejected(self):
        doc = {
            "base_category": "deligne(virasoro-kp2,virasoro-t)",
            "summand_rule": [{"kind": "virasoro-kp2", "indices": "1r"}, {"kind": "virasoro-t", "indices": ["1", "r"]}],
        }
        with pytest.raises(
            ValueError,
            match=r"^algebra\.summand_rule\[0\]\.indices: expected a list of index expressions, got '1r'$",
        ):
            algebra_from_json(doc)

    def test_factor_not_an_object_rejected(self):
        doc = {"base_category": "deligne(virasoro-kp2,virasoro-t)",
               "summand_rule": [{"kind": "virasoro-kp2", "indices": ["1", "r"]}, 3]}
        with pytest.raises(ValueError, match=r"^algebra\.summand_rule\[1\]: expected an object, got 3$"):
            algebra_from_json(doc)

    def test_summand_rule_not_a_list_rejected(self):
        doc = {"base_category": "deligne(virasoro-kp2,virasoro-t)", "summand_rule": 5}
        with pytest.raises(ValueError, match=r"^algebra\.summand_rule: expected a list of two factors, got 5$"):
            algebra_from_json(doc)

    def test_factor_without_kind_rejected(self):
        doc = {
            "base_category": "deligne(virasoro-kp2,virasoro-t)",
            "summand_rule": [{"kind": "virasoro-kp2", "indices": ["1", "r"]}, {"indices": ["1", "r"]}],
        }
        with pytest.raises(ValueError, match=r"^algebra\.summand_rule\[1\]: missing key 'kind'$"):
            algebra_from_json(doc)

    def test_factor_without_indices_rejected(self):
        doc = {
            "base_category": "deligne(virasoro-kp2,virasoro-t)",
            "summand_rule": [{"kind": "virasoro-kp2"}, {"kind": "virasoro-t", "indices": ["1", "r"]}],
        }
        with pytest.raises(ValueError, match=r"^algebra\.summand_rule\[0\]: missing key 'indices'$"):
            algebra_from_json(doc)

    def test_document_without_summand_rule_rejected(self):
        with pytest.raises(ValueError, match=r"^algebra: missing key 'summand_rule'$"):
            algebra_from_json({"base_category": "deligne(virasoro-kp2,virasoro-t)"})

    def test_document_without_base_category_rejected(self):
        doc = {
            "summand_rule": [
                {"kind": "virasoro-kp2", "indices": ["1", "r"]},
                {"kind": "virasoro-t", "indices": ["1", "r"]},
            ],
        }
        with pytest.raises(ValueError, match=r"^algebra: missing key 'base_category'$"):
            algebra_from_json(doc)

    def test_decreasing_slot_rejected(self):
        # a slot -r + 2 would leave the labels at r = 2, yet a window read
        # from it would silently come out empty
        with pytest.raises(ValueError, match="decreases with r"):
            AffineExpr(-1, 2)
        assert AffineExpr(0, 2).at(7) == 2

    def test_slots_flatten_the_factors(self):
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP):
            for r in range(1, 9):
                assert tuple(e.at(r) for e in alg.slots) == alg.summand(r).indices

    def test_last_summand_matches_brute_force(self):
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP):
            rng = random.Random(41)
            for _ in range(300):
                tops = [rng.randint(-3, 25) for _ in alg.slots]
                assert alg.last_summand(tops) == brute_last_summand(alg, tops), (alg.name, tops)

    def test_last_summand_refuses_tops_of_the_wrong_length(self):
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP):
            n = len(alg.slots)
            for tops in ([], [9] * (n - 1), [9] * (n + 1)):
                with pytest.raises(ValueError, match=f"expected {n} slot tops, got {len(tops)}"):
                    alg.last_summand(tops)


def brute_last_summand(alg, tops):
    """The largest r >= 0 at which every growing slot is within its top,
    found by stepping r up until the next summand breaks a top."""
    r = 0
    while all(e.at(r + 1) <= t for e, t in zip(alg.slots, tops) if e.a):
        r += 1
    return r


class TestInduce:
    def test_unit_reproduces_algebra(self):
        mod = induce(SVX, SVX.base_category.unit)
        for r in range(1, 8):
            assert mod.restriction(r) == FusionElement.of(SVX.summand(r))

    def test_first_row_bases_restrict_simply(self):
        mod = induce(SVX, sbase(3, 5))
        for r in range(1, 8):
            assert mod.restriction(r) == FusionElement.of(
                Pair(VirasoroKp2(3, r), VirasoroT(5, r))
            )

    def test_osp_restriction(self):
        mod = induce(OSPX, obase(3))
        for r in range(1, 8):
            assert mod.restriction(r) == FusionElement.of(
                Pair(AffineVerma(r), VirasoroT(3, r))
            )

    def test_foreign_base(self):
        with pytest.raises(ForeignLabel):
            induce(SVX, SuperVir(2, 2))

    def test_restriction_is_the_fusion_of_the_summand(self):
        # in the same canonical order, so that printed slices agree too
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP):
            cat = alg.base_category
            for base in cat.labels_up_to(5):
                mod = induce(alg, base)
                for r in range(1, 9):
                    want = cat.fusion_of(alg.summand(r), base)
                    assert mod.restriction(r).terms() == want.terms(), (alg.name, base, r)

    def test_restriction_below_one_is_refused(self):
        mod = induce(SVX, sbase(3, 5))
        for r in (0, -2):
            with pytest.raises(ValueError, match="summand index must be >= 1"):
                mod.restriction(r)

    def test_first_slice_is_the_base(self):
        for alg, base in [
            (SVX, sbase(4, 2)),
            (SVX, Pair(VirasoroKp2(2, 3), VirasoroT(1, 5))),
            (OSPX, obase(7)),
            (OSPX, Pair(AffineVerma(3), VirasoroT(2, 2))),
        ]:
            assert induce(alg, base).restriction(1) == FusionElement.of(base)


class TestLocality:
    def test_even_sum_base_family(self):
        cert = locality(SVX, sbase(2, 2))
        assert cert.verdict == LOCAL
        assert cert.exponent_family == (1, -1, 0, 1)  # 1 - r

    def test_odd_sum_base_witness(self):
        cert = locality(SVX, sbase(2, 1))
        assert cert.verdict == NON_LOCAL
        assert cert.witness == 2
        assert cert.exponent_family == (1, -1, 0, 2)  # (1 - r)/2

    def test_parity_grid(self):
        for n in range(1, 9):
            for m in range(1, 9):
                cert = locality(SVX, sbase(n, m))
                assert cert.is_local == ((n + m) % 2 == 0)

    def test_osp_parity(self):
        for n in range(1, 12):
            cert = locality(OSPX, obase(n))
            assert cert.is_local == (n % 2 == 1)
            if not cert.is_local:
                assert cert.witness == 2
            else:
                # family is -(n-1)(r-1)/2, n odd
                assert cert.exponent_family == ((n - 1) // 2, (1 - n) // 2, 0, 1)

    def test_multi_summand_falls_back(self):
        cert = locality(SVX, Pair(VirasoroKp2(1, 2), VirasoroT(1, 2)))
        assert cert.verdict == NON_LOCAL
        assert cert.exponent_family is None
        assert cert.witness == 2

    def test_certificates_cached_per_base(self, monkeypatch):
        import importlib

        induced_mod = importlib.import_module("limfuse.induction.induced")
        derived = []
        real_derive = induced_mod._derive

        def counting_derive(alg, base):
            derived.append(base)
            return real_derive(alg, base)

        monkeypatch.setattr(induced_mod, "_derive", counting_derive)
        alg = svir_extension()
        b1, b2 = sbase(2, 2), sbase(3, 1)
        cert = locality(alg, b1)
        assert locality(alg, b1) is cert
        for truncate in (4, 12, 20):
            min_weight_summand(induce(alg, b1), truncate=truncate)
        for _ in range(3):
            induced_fusion(alg, b1, b2)
            assert restriction_oracle_check(alg, b1, b2, 4)
        # locality derives no slice family; min-weight derives one per base
        assert derived == [b1]
        assert locality(svir_extension(), b1) is not cert


class TestMinWeight:
    def test_even_pair_minimum_at_half_sum(self):
        r_star, w = min_weight_summand(induce(SVX, sbase(2, 2)))
        assert r_star == 2
        assert w == super_weight(2, 2)

    def test_minimum_matches_display_for_grid(self):
        for n in range(1, 7):
            for m in range(1, 7):
                if (n + m) % 2:
                    continue
                r_star, w = min_weight_summand(induce(SVX, sbase(n, m)))
                assert r_star == (n + m) // 2
                assert w == super_weight(n, m)

    def test_osp_tie_breaks_low(self):
        r_star, w = min_weight_summand(induce(OSPX, obase(3)))
        assert r_star == 1
        assert w == osp_weight(3)

    def test_unit_minimum(self):
        r_star, w = min_weight_summand(induce(SVX, SVX.base_category.unit))
        assert r_star == 1 and w.is_zero()

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            min_weight_summand(induce(SVX, sbase(4, 4)), truncate=4)

    def test_bad_sample(self):
        for sample in (F(-1), F(0)):  # zero is the boundary
            with pytest.raises(ValueError, match="^sample point must be positive$"):
                min_weight_summand(induce(SVX, sbase(2, 2)), sample=sample)

    def test_truncate_not_an_int_is_refused(self):
        # as in restrict_truncated: 2.5 would read as a bound and True as 1
        mod = induce(svir_extension(), sbase(2, 2))
        for truncate in (2.5, True, False, 3.0, "3", None):
            with pytest.raises(ValueError, match=f"^truncate must be an int, got {re.escape(repr(truncate))}$"):
                min_weight_summand(mod, truncate=truncate)
        for truncate in (0, -4):
            with pytest.raises(ValueError, match="^truncate must be >= 1$"):
                min_weight_summand(mod, truncate=truncate)
        assert min_weight_summand(mod, truncate=3)[0] == 2

    def test_symbolic_minimum_identity(self):
        # weight of the half-sum slice equals the displayed minimum formula,
        # as an exact rational-function identity in the aligned parameter
        cat = SVX.base_category
        for n in range(1, 11):
            for m in range(1, 11):
                if (n + m) % 2:
                    continue
                r = (n + m) // 2
                slice_label = Pair(VirasoroKp2(n, r), VirasoroT(m, r))
                assert cat.weight_of(slice_label) == super_weight(n, m)

    def test_sugawara_identity(self):
        # the Verma weight choice makes both near-half slices hit the
        # displayed osp minimum exactly, for every odd n
        cat = OSPX.base_category
        for n in range(1, 16, 2):
            for r in {(n + 1) // 2, max((n - 1) // 2, 1)}:
                label = Pair(AffineVerma(r), VirasoroT(n, r))
                assert cat.weight_of(label) == osp_weight(n)


class TestFrobenius:
    def test_delta_on_first_row_bases(self):
        bases = [sbase(n, m) for n in range(1, 9) for m in range(1, 9) if (n + m) % 2 == 0]
        for b1 in bases:
            for b2 in bases:
                assert frobenius_dim(SVX, b1, b2) == (1 if b1 == b2 else 0)

    def test_delta_on_osp_bases(self):
        bases = [obase(n) for n in range(1, 9, 2)]
        for b1 in bases:
            for b2 in bases:
                assert frobenius_dim(OSPX, b1, b2) == (1 if b1 == b2 else 0)

    def test_unit_pair(self):
        assert frobenius_dim(SVX, SVX.base_category.unit, SVX.base_category.unit) == 1

    def test_window_matches_brute_force(self):
        cat = SVX.base_category
        cases = [
            (SVX.summand(3), SVX.summand(5)),
            (Pair(VirasoroKp2(2, 3), VirasoroT(1, 2)), Pair(VirasoroKp2(2, 1), VirasoroT(3, 4))),
            (sbase(2, 2), SVX.summand(4)),
        ]
        for b1, b2 in cases:
            exact = frobenius_dim(SVX, b1, b2)
            one = FusionElement.of(b1)
            brute = sum(
                hom_dim(cat, one, cat.fusion_of(SVX.summand(r), b2)) for r in range(1, 60)
            )
            assert exact == brute

    def test_matches_hom_dim_oracle_on_small_labels(self):
        # every growing slot is a*r + 1 - a, so the summands that reach base1
        # from base2 lie in r <= max(x1) + max(x2)
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP):
            labels = alg.base_category.labels_up_to(3)
            for b1 in labels:
                for b2 in labels:
                    assert frobenius_dim(alg, b1, b2) == windowed_hom_dim(alg, b1, b2), (alg.name, b1, b2)

    def test_matches_hom_dim_oracle_on_seeded_pairs(self):
        # half the pairs are drawn at random, half pick base1 from a slice
        # of base2, so that most of those have a nonzero dimension
        rng = random.Random(73)
        nonzero = 0
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP):
            cat = alg.base_category
            labels = cat.labels_up_to(10)
            for k in range(60):
                b1, b2 = rng.choice(labels), rng.choice(labels)
                if k % 2:
                    reached = [z for z, _ in cat.fusion_of(alg.summand(rng.randint(1, 6)), b2)]
                    b1 = rng.choice([z for z in reached if max(z.indices) <= 10] or [b1])
                got = frobenius_dim(alg, b1, b2)
                assert got == windowed_hom_dim(alg, b1, b2), (alg.name, b1, b2)
                nonzero += got > 0
        assert nonzero >= 100

    def test_matches_the_window_on_every_small_pair(self):
        # every base pair with indices <= 6 of the rules with three slots and
        # <= 3 of those with four (1296**2 pairs at 6); slopes 1, 2 and 3,
        # with and without a constant slot, offsets of both parities
        for alg, bound in [(OSPX, 6), (SKEW_OSP, 6), *((a, 6) for a in STEEP_OSP),
                           (SVX, 3), (SKEW_SVIR, 3), (STEEP_SVIR, 3)]:
            labels = alg.base_category.labels_up_to(bound)
            nonzero = 0
            for b1 in labels:
                for b2 in labels:
                    got = frobenius_dim(alg, b1, b2)
                    assert got == frobenius_by_window(alg, b1, b2), (alg.slots, b1, b2)
                    nonzero += got > 0
            assert nonzero > len(labels), alg.slots

    def test_builds_no_summand(self):
        # the count reads the slots alone: no summand label is built
        rng = random.Random(5)
        for make in (svir_extension, osp_extension):
            labels = make().base_category.labels_up_to(6)
            for _ in range(20):
                alg = make()
                alg._summands.clear()
                b1, b2 = rng.choice(labels), rng.choice(labels)
                frobenius_dim(alg, b1, b2)
                assert not alg._summands, (b1, b2)

    def test_foreign_bases_are_refused(self):
        for b1, b2 in [(obase(1), SVX.base_category.unit), (SVX.base_category.unit, obase(1))]:
            with pytest.raises(ForeignLabel):
                frobenius_dim(SVX, b1, b2)


def windowed_hom_dim(alg, base1, base2):
    """The Frobenius sum from the `hom_dim` oracle over r <= max(x1) + max(x2)."""
    cat = alg.base_category
    one = FusionElement.of(base1)
    reach = max(base1.indices) + max(base2.indices)
    return sum(hom_dim(cat, one, cat.fusion_of(alg.summand(r), base2)) for r in range(1, reach + 1))


class TestInducedFusion:
    def test_four_term_rule(self):
        for n in range(1, 6):
            for m in range(1, 6):
                if (n + m) % 2:
                    continue
                out = induced_fusion(SVX, sbase(2, 2), sbase(n, m))
                expected = {}
                for eps in (-1, 1):
                    for eps2 in (-1, 1):
                        if n + eps >= 1 and m + eps2 >= 1:
                            expected[SuperVir(n + eps, m + eps2)] = 1
                assert out == FusionElement(expected)

    def test_unit_law(self):
        out = induced_fusion(OSPX, obase(3), obase(1))
        assert out == FusionElement.of(OSPX.to_induced(obase(3)))

    def test_osp_table(self):
        out = induced_fusion(OSPX, obase(3), obase(3))
        assert sorted(str(z) for z, _ in out) == ["M(1)", "M(3)", "M(5)"]

    def test_not_local_rejected(self):
        with pytest.raises(NotLocal):
            induced_fusion(SVX, sbase(2, 1), sbase(2, 2))

    def test_not_local_rejected_on_every_call(self):
        alg = svir_extension()
        assert induced_fusion(alg, sbase(2, 2), sbase(2, 2))
        for b1, b2 in [(sbase(2, 1), sbase(2, 2)), (sbase(2, 2), sbase(2, 1)), (sbase(2, 1), sbase(2, 1))]:
            for _ in range(3):
                with pytest.raises(NotLocal):
                    induced_fusion(alg, b1, b2)

    def test_memo_matches_fresh_algebras_and_the_induced_rule(self):
        # every pair of grid bases, local or not, asked twice of one algebra:
        # a local pair answers what a fresh algebra and the induced
        # category's rule on the induced labels answer, a non-local pair
        # raises NotLocal every time
        for make, grid in INDUCED_GRIDS:
            alg = make()
            for _ in range(2):
                for b1, local1 in grid:
                    for b2, local2 in grid:
                        if local1 and local2:
                            rule = alg.induced_category.fusion_of(alg.to_induced(b1), alg.to_induced(b2))
                            fresh = induced_fusion(make(), b1, b2)
                            assert induced_fusion(alg, b1, b2) == fresh == rule, (alg.name, b1, b2)
                        else:
                            for target in (alg, make()):
                                with pytest.raises(NotLocal):
                                    induced_fusion(target, b1, b2)

    def test_label_dictionary_round_trips_and_refuses_every_time(self):
        # only a conversion that succeeds is memoized; a refused label
        # raises on a repeat as on the first call
        foreign = {"svir-ext": (OspMod(3), Pair(VirasoroKp2(2, 3), VirasoroT(1, 5))),
                   "osp-ext": (SuperVir(2, 2), Pair(AffineVerma(3), VirasoroT(2, 2)))}
        for make, grid in INDUCED_GRIDS:
            alg = make()
            induced_label, non_canonical = foreign[alg.name]
            for _ in range(2):
                for base, local in grid:
                    if local:
                        label = alg.to_induced(base)
                        assert alg.from_induced(label) == base and make().to_induced(base) == label
                        assert alg.to_induced(alg.from_induced(label)) == label
                    else:
                        with pytest.raises(ValueError):
                            alg.to_induced(base)
                with pytest.raises(ValueError, match="canonical"):
                    alg.to_induced(non_canonical)
                with pytest.raises(ValueError, match="is not an? "):
                    alg.from_induced(induced_label)

    def test_matches_direct_category_rule(self):
        sv = SVX.induced_category
        for n in range(1, 5):
            for m in range(1, 5):
                if (n + m) % 2:
                    continue
                out = induced_fusion(SVX, sbase(n, m), sbase(m, n))
                direct = sv.fusion_of(SuperVir(n, m), SuperVir(m, n))
                assert out == direct


class TestDictionaryAgainstReference:
    """The label dictionary and the canonical bases that `AlgebraObject`
    reads from its summand rule, against the per-algebra functions and the
    CLI base builder they replace (`oracles`)."""

    @pytest.mark.parametrize("make", [svir_extension, osp_extension])
    def test_every_base_label(self, make):
        alg = make()
        to_ref, from_ref = DICTIONARIES[alg.name]
        mapped = 0
        for _ in range(2):
            for base in alg.base_category.labels_up_to(6):
                want, got = _outcome(to_ref, base), _outcome(alg.to_induced, base)
                assert got == want, base
                if want != ValueError:
                    mapped += 1
                    assert alg.from_induced(got) == from_ref(got) == base
        assert mapped == 2 * {"svir-ext": 18, "osp-ext": 3}[alg.name]

    @pytest.mark.parametrize("make", [svir_extension, osp_extension])
    def test_every_induced_label(self, make):
        # the algebra's own induced labels map back, the other algebra's are refused
        alg = make()
        from_ref = DICTIONARIES[alg.name][1]
        for own in (svir_extension, osp_extension):
            for label in own().induced_category.labels_up_to(15):
                want, got = _outcome(from_ref, label), _outcome(alg.from_induced, label)
                assert got == want, label
                assert (want == ValueError) is (own is not make)
                if own is make:
                    assert alg.to_induced(got) == label

    @pytest.mark.parametrize("make", [svir_extension, osp_extension])
    def test_canonical_base_matches_the_cli_builder(self, make):
        # a selector count other than the rule's is refused with the count
        # before any index is read; the former builder read the first
        # factor's indices first
        alg = make()
        count = len([e for e in alg.slots if not e.a])
        need = f"algebra {alg.name} needs {count} index selector(s)"
        for size in range(4):
            for values in product((None, *range(9)), repeat=size):
                want = _outcome(cli_canonical_base, alg, list(values))
                got = _outcome(cli._canonical_base, alg, list(values))
                if len([v for v in values if v is not None]) == count:
                    assert got == want, values
                else:
                    assert want[0] is cli.ConfigError and got == (cli.ConfigError, need), values

    def test_to_induced_matches_the_rebuild_check(self):
        # reading a base's flat indices maps and refuses what rebuilding its
        # canonical base did, with the same message, on a fresh algebra and
        # once its memo holds every canonical base: non-canonical bases,
        # foreign labels, raw tuples equal to memoized bases and selectors
        # the induced label refuses (svir n+m odd, osp n even)
        foreign = [OspMod(3), SuperVir(2, 2), VirasoroT(1, 1), Pair(VirasoroT(1, 1), VirasoroKp2(1, 1)),
                   Pair(AffineVerma(1), VirasoroT(3, 1)), sbase(3, 1)]
        for make in (svir_extension, osp_extension):
            alg = make()
            bases = alg.base_category.labels_up_to(4)
            cases = bases + foreign + [raw(b) for b in bases]
            outcomes = []
            for x in cases + cases:
                want = _answer_or_message(to_induced_by_rebuild, alg, x)
                assert _answer_or_message(alg.to_induced, x) == want, (alg.name, x)
                outcomes.append(want)
            messages = [o for o in outcomes if isinstance(o, str)]
            assert len(messages) < len(outcomes)
            assert any("is not a canonical base" in m for m in messages)
            assert any(m.startswith(("super-Virasoro label needs", "osp label needs")) for m in messages)

    def test_sabotaged_rules_keep_the_dictionary_and_are_caught(self):
        for rule in SABOTAGED_RULES:
            alg = sabotaged(rule)
            for n, m in product(range(1, 7), repeat=2):
                assert _outcome(alg.to_induced, sbase(n, m)) == _outcome(svir_to_induced, sbase(n, m))
            assert not restriction_oracle_check(alg, sbase(2, 2), sbase(2, 2), truncate=10), rule


def _answer_or_message(call, *args):
    """What `call(*args)` returns, or the message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as e:
        return str(e)


def _outcome(call, *args):
    """What `call(*args)` returns, ValueError for any ValueError from a
    label or a dictionary, or (type, message) for a CLI refusal."""
    try:
        return call(*args)
    except cli.ConfigError as e:
        return type(e), str(e)
    except ValueError:
        return ValueError


class TestRestrictionOracle:
    def test_small_grid(self):
        bases = [sbase(n, m) for n in range(1, 5) for m in range(1, 5) if (n + m) % 2 == 0]
        for b1 in bases:
            for b2 in bases:
                assert restriction_oracle_check(SVX, b1, b2, truncate=10)

    def test_osp_pairs(self):
        bases = [obase(n) for n in (1, 3, 5)]
        for b1 in bases:
            for b2 in bases:
                assert restriction_oracle_check(OSPX, b1, b2, truncate=10)

    def test_with_unit(self):
        assert restriction_oracle_check(SVX, sbase(3, 3), SVX.base_category.unit, truncate=8)

    def test_not_local_rejected(self):
        with pytest.raises(NotLocal):
            restriction_oracle_check(SVX, sbase(2, 1), sbase(2, 2), truncate=6)

    def test_oracle_catches_wrong_rule(self):
        # induced categories with a sabotaged rule must fail the check: one
        # drops summands, one doubles a multiplicity, one swaps a summand
        # for its neighbour
        for rule in SABOTAGED_RULES:
            assert not restriction_oracle_check(sabotaged(rule), sbase(2, 2), sbase(2, 2), truncate=10), rule

    def test_matches_dict_sum_reference(self):
        # the packed sides unpack to the reference's per-label sums, and the
        # verdict is the reference's, on every pair of grid bases
        small = [sbase(n, m) for n in range(1, 5) for m in range(1, 5) if (n + m) % 2 == 0]
        grid = [
            (SVX, [sbase(n, m) for n in range(1, 7) for m in range(1, 7) if (n + m) % 2 == 0]),
            (OSPX, [obase(n) for n in range(1, 8, 2)]),
            *((sabotaged(rule), small) for rule in SABOTAGED_RULES),
        ]
        for alg, bases in grid:
            for truncate in (1, 4, 10, 12):
                for b1 in bases:
                    for b2 in bases:
                        rule_ref, monoidal_ref = restriction_sides(alg, b1, b2, truncate)
                        rule_side, monoidal_side = fused_mod._packed_sides(alg, b1, b2, truncate)
                        assert unpack(alg, rule_side) == rule_ref, (alg.name, b1, b2, truncate)
                        assert unpack(alg, monoidal_side) == monoidal_ref, (alg.name, b1, b2, truncate)
                        verdict = restriction_oracle_check(alg, b1, b2, truncate)
                        assert verdict is (rule_ref == monoidal_ref), (alg.name, b1, b2, truncate)
                        assert verdict or alg.name == "sabotaged"

    def test_interleaved_truncations_match_fresh_algebras(self):
        # label slots are shared by every truncation of one algebra; verdicts
        # must not depend on the order the truncations were first asked in
        rng = random.Random(23)
        bases = [sbase(n, m) for n in range(1, 6) for m in range(1, 6) if (n + m) % 2 == 0]
        for make in (svir_extension, *(partial(sabotaged, rule) for rule in SABOTAGED_RULES)):
            alg = make()
            for _ in range(40):
                b1, b2, truncate = rng.choice(bases), rng.choice(bases), rng.choice((1, 3, 4, 7, 10, 12))
                want = restriction_oracle_check(make(), b1, b2, truncate)
                assert restriction_oracle_check(alg, b1, b2, truncate) is want, (alg.name, b1, b2, truncate)

    def test_side_total_beyond_the_slot_width_is_refused(self, monkeypatch):
        # with 2-bit slots a side of total 4 could carry into the next slot
        monkeypatch.setattr(fused_mod, "_WIDTH", 2)
        alg = svir_extension()
        unit = alg.base_category.unit
        assert sum(restriction_sides(alg, unit, unit, 1)[0].values()) == 1
        assert restriction_oracle_check(alg, unit, unit, 1)
        big = sbase(3, 3)
        assert min(sum(side.values()) for side in restriction_sides(alg, big, big, 10)) >= 4
        with pytest.raises(ValueError, match="2-bit label slots"):
            restriction_oracle_check(alg, big, big, 10)

    def test_requires_induced_category(self):
        bare = AlgebraObject(
            name="bare",
            base_category=SVX.base_category,
            factors=SVX.factors,
        )
        with pytest.raises(ValueError):
            restriction_oracle_check(bare, sbase(2, 2), sbase(2, 2), truncate=6)


# (algebra maker, [(base, base is local)]): svir bases n, m <= 6, local when
# n + m is even; osp bases n <= 9, local when n is odd
INDUCED_GRIDS = (
    (svir_extension, [(sbase(n, m), (n + m) % 2 == 0) for n in range(1, 7) for m in range(1, 7)]),
    (osp_extension, [(obase(n), n % 2 == 1) for n in range(1, 10)]),
)


def raw(label):
    """The plain tuple equal to `label`, its factors plain tuples too."""
    return tuple(raw(v) if isinstance(v, tuple) else v for v in label)


# (name, object maker, label, call(object, x), refusal): each entry point
# keyed by labels, called with the label or with the raw tuple equal to it
RAW_KEY_CASES = [
    ("weight_vec", lambda: category_by_name("virasoro-t"), VirasoroT(3, 1), lambda c, x: c.weight_vec(x), ForeignLabel),
    ("weight_of", lambda: category_by_name("virasoro-t"), VirasoroT(3, 1), lambda c, x: c.weight_of(x), ForeignLabel),
    ("fusion_of left", lambda: category_by_name("virasoro-t"), VirasoroT(3, 1),
     lambda c, x: c.fusion_of(x, VirasoroT(2, 1)), ForeignLabel),
    ("fusion_of right", lambda: category_by_name("virasoro-t"), VirasoroT(3, 1),
     lambda c, x: c.fusion_of(VirasoroT(2, 1), x), ForeignLabel),
    ("pair fusion_of", lambda: category_by_name("deligne(virasoro-kp2,virasoro-t)"), sbase(3, 3),
     lambda c, x: c.fusion_of(x, x), ForeignLabel),
    ("locality", svir_extension, sbase(3, 3), locality, ForeignLabel),
    ("slice_family", svir_extension, sbase(3, 3), slice_family, ForeignLabel),
    ("restrict_truncated", svir_extension, sbase(3, 3), lambda a, x: restrict_truncated(a, x, 6), ForeignLabel),
    ("induced_fusion left", svir_extension, sbase(3, 3), lambda a, x: induced_fusion(a, x, sbase(2, 2)), ForeignLabel),
    ("induced_fusion right", svir_extension, sbase(3, 3), lambda a, x: induced_fusion(a, sbase(2, 2), x), ForeignLabel),
    ("to_induced", svir_extension, sbase(3, 3), lambda a, x: a.to_induced(x), ValueError),
    ("from_induced", svir_extension, SuperVir(3, 3), lambda a, x: a.from_induced(x), ValueError),
]


class TestRawTupleKeys:
    """A raw tuple equals the label with the same entries, so it finds the
    label's memo entry; every memoized entry point refuses it all the same,
    on a fresh object and once the label's answer is memoized."""

    @pytest.mark.parametrize("name, make, label, call, refusal", RAW_KEY_CASES, ids=[c[0] for c in RAW_KEY_CASES])
    def test_refused_cold_and_warm(self, name, make, label, call, refusal):
        key = raw(label)
        assert key == label and type(key) is tuple
        with pytest.raises(refusal):
            call(make(), key)
        warm = make()
        answer = call(warm, label)
        for _ in range(2):
            with pytest.raises(refusal):
                call(warm, key)
        assert call(warm, label) == answer


def _drop_low(x, y, full):
    return [(z, m) for z, m in full if z.n >= abs(x.n - y.n) + 3 or z == x]


def _double_first(x, y, full):
    return [(z, 2 * m if k == 0 else m) for k, (z, m) in enumerate(full)]


def _swap_last(x, y, full):
    *keep, (z, m) = full
    return keep + [(SuperVir(z.n + 2, z.m), m)]


SABOTAGED_RULES = (_drop_low, _double_first, _swap_last)


def sabotaged(rule):
    """The super-Virasoro algebra with `rule(x, y, summands)` in place of
    the induced category's fusion of x and y."""

    class BrokenSV(SuperVirCategory):
        def _fusion_raw(self, x, y):
            return FusionElement(rule(x, y, list(super()._fusion_raw(x, y))))

    return AlgebraObject(
        name="sabotaged",
        base_category=SVX.base_category,
        factors=SVX.factors,
        induced_category=BrokenSV(),
    )


def unpack(alg, packed):
    """label -> multiplicity of a packed side, read back at the algebra's
    label slots."""
    width = fused_mod._WIDTH
    slots = alg.__dict__.get("_label_slots", {})
    assert packed >> width * len(slots) == 0
    out = {z: packed >> width * slot & (1 << width) - 1 for z, slot in slots.items()}
    return {z: m for z, m in out.items() if m}


def reference_restriction(alg, base, truncate):
    """The truncated restriction from scratch: summand labels straight from
    the factor templates, fused factor by factor through a fresh category
    with no memo, filtered by the window and summed.

    A growing slot a*r + b (a >= 1) fused with index x gives indices
    >= a*r + b - x + 1, so no r above truncate + x - b can reach the window.
    """
    fresh = category_by_name(alg.base_category.name)
    f0, f1 = alg.factors
    b_min = min(e.b for f in alg.factors for e in f.indices)
    reach = truncate + max(*base.left.indices, *base.right.indices) - min(b_min, 0)
    acc = {}
    for r in range(1, reach + 1):
        left, right = label_at(f0, r), label_at(f1, r)
        for zl, ml in fresh.left._fusion_raw(left, base.left):
            for zr, mr in fresh.right._fusion_raw(right, base.right):
                if max(*zl.indices, *zr.indices) <= truncate:
                    z = Pair(zl, zr)
                    acc[z] = acc.get(z, 0) + ml * mr
    return FusionElement(acc)


SKEW_SVIR = algebra_from_json(
    {
        "name": "skew-svir",
        "base_category": "deligne(virasoro-kp2,virasoro-t)",
        "summand_rule": [
            {"kind": "virasoro-kp2", "indices": ["r", "2*r-1"]},
            {"kind": "virasoro-t", "indices": ["1", "r"]},
        ],
    }
)
SKEW_OSP = algebra_from_json(
    {
        "name": "skew-osp",
        "base_category": "deligne(kl-sl2,virasoro-t)",
        "summand_rule": [
            {"kind": "kl-sl2", "indices": ["r"]},
            {"kind": "virasoro-t", "indices": ["3*r-2", "r"]},
        ],
    }
)


# hand-built rules with slopes 2 and 3 and offsets of both parities
STEEP_OSP = [
    algebra_from_json({"base_category": "deligne(kl-sl2,virasoro-t)", "summand_rule": [
        {"kind": "kl-sl2", "indices": [left]}, {"kind": "virasoro-t", "indices": right}]})
    for left, right in [("2*r-1", ["3*r-2", "1"]), ("3*r-2", ["2*r-1", "2*r-1"])]
]
STEEP_SVIR = algebra_from_json({"base_category": "deligne(virasoro-kp2,virasoro-t)", "summand_rule": [
    {"kind": "virasoro-kp2", "indices": ["2*r-1", "3*r-2"]}, {"kind": "virasoro-t", "indices": ["1", "2*r-1"]}]})


class TestRestrictionMemo:
    """`restrict_truncated` and `summand` are memoized on the algebra."""

    def test_canonical_bases_match_reference(self):
        alg_bases = [
            (svir_extension(), [sbase(n, m) for n in range(1, 9) for m in range(1, 9)]),
            (osp_extension(), [obase(n) for n in range(1, 9)]),
        ]
        for alg, bases in alg_bases:
            for base in bases:
                for truncate in range(4, 13):
                    got = restrict_truncated(alg, base, truncate)
                    assert got == reference_restriction(alg, base, truncate), (base, truncate)

    def test_non_canonical_bases_match_reference(self):
        rng = random.Random(59)
        multi = 0
        for alg in (svir_extension(), osp_extension(), SKEW_SVIR, SKEW_OSP):
            labels = alg.base_category.labels_up_to(6)
            for base in rng.sample(labels, 10):
                for truncate in (4, 7, 12):
                    expected = reference_restriction(alg, base, truncate)
                    assert restrict_truncated(alg, base, truncate) == expected, (alg.name, base)
                # the first summands beyond the unit fuse to several labels
                multi += len(alg.base_category.fusion_of(alg.summand(3), base)) > 1
        assert multi >= 10

    def test_second_call_returns_the_memo(self):
        alg = svir_extension()
        base = sbase(3, 5)
        first = restrict_truncated(alg, base, 6)
        assert restrict_truncated(alg, base, 6) is first
        fresh = restrict_truncated(svir_extension(), base, 6)
        assert fresh == first and fresh is not first
        wider = restrict_truncated(alg, base, 9)
        assert wider != first and wider == reference_restriction(alg, base, 9)
        assert restrict_truncated(alg, base, 6) is first

    def test_oracle_restricts_each_base_once(self, monkeypatch):
        computed = []
        real = fused_mod._restrict

        def counting(alg, base, truncate):
            computed.append((base, truncate))
            return real(alg, base, truncate)

        monkeypatch.setattr(fused_mod, "_restrict", counting)
        alg = svir_extension()
        for _ in range(3):
            assert restriction_oracle_check(alg, sbase(3, 3), sbase(2, 4), 8)
        # both routes ask for the same first-row bases; each is restricted once
        assert len(computed) == len(set(computed)) > 0

    def test_foreign_base_is_validated(self):
        alg = osp_extension()
        for _ in range(2):
            with pytest.raises(ForeignLabel):
                restrict_truncated(alg, sbase(3, 3), 1)

    def test_truncate_below_one_is_refused(self):
        foreign = Pair(VirasoroT(1, 1), VirasoroT(1, 1))
        for base in (foreign, SVX.base_category.unit):
            for truncate in (0, -4):
                with pytest.raises(ValueError, match="truncate must be >= 1"):
                    restrict_truncated(svir_extension(), base, truncate)
        with pytest.raises(ForeignLabel):
            restrict_truncated(svir_extension(), foreign, 1)

    def test_truncate_not_an_int_is_refused(self):
        # True would otherwise read as 1 and share its memo entry
        alg, base = svir_extension(), sbase(3, 3)
        for truncate in (True, False, 2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="truncate must be an int"):
                restrict_truncated(alg, base, truncate)
            with pytest.raises(ValueError, match="truncate must be an int"):
                restriction_oracle_check(alg, base, base, truncate)
        assert not alg.__dict__.get("_restrict_cache")
        assert restriction_oracle_check(alg, base, base, 1)

    def test_reads_exactly_the_window(self):
        # a slot index e(r) fused with x gives indices >= e(r) - x + 1, so
        # only summands with every growing slot <= truncate + x - 1 are read
        rng = random.Random(11)
        for make in (svir_extension, osp_extension):
            labels = make().base_category.labels_up_to(6)
            for _ in range(20):
                alg = make()
                base, truncate = rng.choice(labels), rng.randint(1, 9)
                restrict_truncated(alg, base, truncate)
                tops = [truncate + x - 1 for x in base.indices]
                assert max(alg._summands) == brute_last_summand(alg, tops), (base, truncate)

    def test_summand_memo_matches_templates(self):
        for alg in (svir_extension(), osp_extension(), SKEW_SVIR, SKEW_OSP):
            f0, f1 = alg.factors
            for r in range(1, 51):
                label = alg.summand(r)
                assert label == Pair(label_at(f0, r), label_at(f1, r))
                assert alg.summand(r) is label

    def test_summand_below_one_raises_before_the_memo(self):
        alg = svir_extension()
        # a poisoned memo entry must not be returned for an invalid index
        alg._summands[0] = alg._summands[-3] = alg.summand(1)
        for r in (0, -3, -50):
            with pytest.raises(ValueError):
                alg.summand(r)


def fit_oracle(alg, base, truncate=40):
    """The former locality route, kept as an oracle: fit one polynomial
    through the exponents of slices 1..5 when each has a single summand
    with a constant exponent, validate it on slices 6 and 7, and otherwise
    scan `truncate` slices for a non-integral exponent.  The fitted family
    is returned in the certificate's integer form (`int_family`)."""
    cat = alg.base_category

    def exponents(r):
        a = alg.summand(r)
        hab = cat.weight_vec(a) + cat.weight_vec(base)
        return [cat.weight_vec(z) - hab for z, _ in cat.fusion_of(a, base)]

    values = []
    for r in range(1, 8):
        es = exponents(r)
        if len(es) != 1 or es[0].as_constant() is None:
            break
        values.append(es[0].as_constant())
    else:
        family = interpolate(list(enumerate(values[:5], start=1)))
        if family.degree <= 4 and all(family.eval(r) == values[r - 1] for r in (6, 7)):
            witness = first_non_integer_positive(family)
            return (NON_LOCAL if witness else LOCAL), witness, int_family(family)
    for r in range(1, truncate + 1):
        if any(exponent_status(e) != INTEGER for e in exponents(r)):
            return NON_LOCAL, r, None
    return "undecidable", None, None


def scan_oracle(alg, base, sample, truncates):
    """The former min-weight route, kept as an oracle: for each truncation,
    the first slice summand of least weight at `sample` among r = 1 ..
    truncate, or "edge" when it lies at the truncation.  One pass serves
    every truncation."""
    cat = alg.base_category
    best, out = None, {}
    for r in range(1, max(truncates) + 1):
        for z, _ in cat.fusion_of(alg.summand(r), base):
            v = cat.weight_vec(z).eval(sample)
            if best is None or v < best[0]:
                best = (v, r, z)
        if r in truncates:
            out[r] = "edge" if best[1] == r else (best[1], cat.weight_of(best[2]))
    return out


def assert_min_weight_agrees(alg, base):
    for sample in (F(355, 113), F(1, 7), F(9)):
        want = scan_oracle(alg, base, sample, (5, 12, 20))
        for truncate, expected in want.items():
            try:
                got = min_weight_summand(induce(alg, base), sample=sample, truncate=truncate)
            except TruncationTooSmall:
                got = "edge"
            assert got == expected, (alg.name, base, sample, truncate)


def seeded_algebras(seed, count):
    """Algebras from `algebra_from_json` with seeded kinds and growth rates;
    a rate a enters as the slot a*r-(a-1), so summand(1) is the unit."""
    rng = random.Random(seed)
    kinds = {"virasoro-kp2": 2, "virasoro-t": 2, "kl-sl2": 1}
    out = []
    while len(out) < count:
        rule = []
        for kind in rng.sample(sorted(kinds), 2):
            rates = [rng.choice([0, 1, 2, 3]) for _ in range(kinds[kind])]
            slots = ["1" if a == 0 else f"{a}*r-{a - 1}" for a in rates]
            rule.append({"kind": kind, "indices": slots})
        doc = {"base_category": f"deligne({rule[0]['kind']},{rule[1]['kind']})", "summand_rule": rule}
        try:
            out.append(algebra_from_json(doc))
        except ValueError:  # no slot grows
            continue
    return out


class TestSliceIndices:
    """The index tuples the induction layer computes on, against the labels
    of `fusion_of`: the k of a slice family's steps and of a min-weight
    candidate indexes this order."""

    def test_slices_in_fusion_order(self):
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP, *seeded_algebras(17, 6)):
            cat = alg.base_category
            for base in cat.labels_up_to(4):
                r0 = alg.r0(base.indices)
                for r in range(1, r0 + 4):
                    want = [z.indices for z, _ in cat.fusion_of(alg.summand(r), base)]
                    assert alg.slice_indices(r, base.indices) == want, (alg.name, base, r)

    def test_r0_is_the_first_r_with_every_growing_slot_at_its_base_index(self):
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP, *seeded_algebras(17, 6)):
            for base in alg.base_category.labels_up_to(4):
                x = base.indices
                first = next(r for r in range(1, 20) if all(e.at(r) >= v for e, v in zip(alg.slots, x) if e.a))
                assert alg.r0(x) == first, (alg.name, base)


class TestDerivedAgainstOracles:
    """The derived slice family against the former fit, fallback and scan."""

    def test_locality_on_canonical_bases(self):
        bases = [(SVX, sbase(n, m)) for n in range(1, 13) for m in range(1, 13)]
        bases += [(OSPX, obase(n)) for n in range(1, 13)]
        for alg, base in bases:
            cert = locality(alg, base)
            assert (cert.verdict, cert.witness, cert.exponent_family) == fit_oracle(alg, base)

    def test_locality_on_non_canonical_bases(self):
        count = 0
        for alg in (SVX, OSPX):
            for base in alg.base_category.labels_up_to(5):
                cert = locality(alg, base)
                assert (cert.verdict, cert.witness, cert.exponent_family) == fit_oracle(alg, base)
                count += 1
        assert count == 5**4 + 5**3

    def test_min_weight_on_canonical_bases(self):
        bases = [(SVX, sbase(n, m)) for n in range(1, 13) for m in range(1, 13) if (n + m) % 2 == 0]
        bases += [(OSPX, obase(n)) for n in range(1, 13, 2)]
        for alg, base in bases:
            assert_min_weight_agrees(alg, base)

    def test_min_weight_on_non_canonical_bases(self):
        rng = random.Random(23)
        for alg in (SVX, OSPX):
            for base in rng.sample(alg.base_category.labels_up_to(5), 20):
                assert_min_weight_agrees(alg, base)

    def test_seeded_algebras(self):
        rng = random.Random(31)
        late, multi = 0, 0
        for alg in seeded_algebras(17, 6):
            for base in rng.sample(alg.base_category.labels_up_to(4), 8):
                fam = slice_family(alg, base)
                late += fam.r0 > 1
                multi += len(fam.steps) > 1
                cert = locality(alg, base)
                assert (cert.verdict, cert.witness, cert.exponent_family) == fit_oracle(alg, base)
                assert_min_weight_agrees(alg, base)
        assert late >= 10 and multi >= 20

    def test_slot_reaching_the_base_late(self):
        # the slot 2*r-1 reaches the base index 5 at r0 = 3, and below r0 the
        # slices are smaller than from r0 on
        base = Pair(VirasoroKp2(2, 5), VirasoroT(3, 1))
        fam = slice_family(SKEW_SVIR, base)
        assert fam.r0 == 3
        sizes = [len(SKEW_SVIR.base_category.fusion_of(SKEW_SVIR.summand(r), base)) for r in range(1, 6)]
        assert sizes == [1, 6, 10, 10, 10] and len(fam.steps) == 10
        cert = locality(SKEW_SVIR, base)
        assert (cert.verdict, cert.witness, cert.exponent_family) == fit_oracle(SKEW_SVIR, base)
        assert_min_weight_agrees(SKEW_SVIR, base)

    def test_family_predicts_far_slices(self):
        # each weight is quadratic in r from r0 on: the binomial form fixed by
        # slices r0..r0+2 gives the weight of every later slice
        for alg in (SVX, OSPX, SKEW_SVIR, SKEW_OSP, *seeded_algebras(17, 3)):
            cat = alg.base_category
            for base in random.Random(3).sample(cat.labels_up_to(3), 3):
                fam = slice_family(alg, base)
                for u in (3, 7, 16):
                    got = [cat.weight_vec(z) for z, _ in cat.fusion_of(alg.summand(fam.r0 + u), base)]
                    first = [cat.weight_vec(z) for z, _ in cat.fusion_of(alg.summand(fam.r0), base)]
                    want = [
                        WeightVec(*(x + u * y + u * (u - 1) // 2 * z for x, y, z in zip(w0, d1, d2)))
                        for w0, (d1, d2, _) in zip(first, fam.steps)
                    ]
                    assert got == want, (alg.name, base, u)

    def test_flat_family_ties_to_the_first_slice(self):
        # at s = 1/7 the t-parameter is 4, where the weight of Lt(r, 4r-3)
        # does not depend on r: every slice ties and the first one wins
        alg = algebra_from_json(
            {
                "base_category": "deligne(kl-sl2,virasoro-t)",
                "summand_rule": [
                    {"kind": "kl-sl2", "indices": ["1"]},
                    {"kind": "virasoro-t", "indices": ["r", "4*r-3"]},
                ],
            }
        )
        base = Pair(AffineVerma(3), VirasoroT(1, 1))
        (d1, d2, _), = slice_family(alg, base).steps
        assert d1.eval(F(1, 7)) == d2.eval(F(1, 7)) == 0
        assert min_weight_summand(induce(alg, base), sample=F(1, 7))[0] == 1
        assert_min_weight_agrees(alg, base)

    def test_concave_family_takes_the_better_end(self):
        # a weight 10r - r^2 falls off after r = 5: the argmin is r = 1 while
        # the truncation keeps the fall short, and the edge once it does not
        class Concave(KLCategory):
            def _weight_ints(self, indices, vec=_ints):
                (r,) = indices
                return vec(0, r * (10 - r), 0, 0, 1)

        cat = DeligneCategory(Concave(), category_by_name("virasoro-t"))
        factors = (
            FactorTemplate("kl-sl2", (AffineExpr(1, 0),)),
            FactorTemplate("virasoro-t", (AffineExpr(0, 1), AffineExpr(0, 1))),
        )
        alg = AlgebraObject("concave", cat, factors)
        base = Pair(AffineVerma(1), VirasoroT(1, 1))
        assert min_weight_summand(induce(alg, base), truncate=5)[0] == 1
        with pytest.raises(TruncationTooSmall):
            min_weight_summand(induce(alg, base), truncate=12)
        assert_min_weight_agrees(alg, base)
