"""Fusion ring operations, monodromy reports, transparency scans."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from limfuse.catdata import (
    OspCategory,
    SuperVir,
    SuperVirCategory,
    VirasoroT,
    VirasoroTCategory,
    VirasoroKp2,
    Pair,
    DeligneCategory,
    VirasoroKp2Category,
    category_by_name,
    param_chain,
    parse_label,
)
from limfuse.exact import RatFunc, format_rat
from limfuse.fusion import (
    INTEGER,
    NON_INTEGER_CONSTANT,
    PARAMETER_DEPENDENT,
    CategoryMismatch,
    FusionElement,
    MonodromyEntry,
    is_transparent,
    monodromy,
    mueger_scan,
    ring_mul,
)
from oracles import hom_dim, is_transparent_by_reports

X = RatFunc.var()
VT = VirasoroTCategory()
SV = SuperVirCategory()
OSP = OspCategory()


def fe(*pairs):
    return FusionElement(list(pairs))


class TestRingMul:
    def test_scalar_units(self):
        x = VirasoroT(3, 2)
        out = ring_mul(VT, fe((VT.unit, 2)), fe((x, 3)))
        assert out == fe((x, 6))

    def test_square_of_row_plus_column(self):
        a = fe((VirasoroT(2, 1), 1), (VirasoroT(1, 2), 1))
        out = ring_mul(VT, a, a)
        assert out == FusionElement(
            {
                VirasoroT(1, 1): 2,
                VirasoroT(3, 1): 1,
                VirasoroT(1, 3): 1,
                VirasoroT(2, 2): 2,
            }
        )

    def test_zero_annihilates(self):
        a = fe((VirasoroT(2, 2), 5))
        assert ring_mul(VT, a, FusionElement.zero()).is_zero()

    def test_category_mismatch(self):
        with pytest.raises(CategoryMismatch):
            ring_mul(VT, fe((SuperVir(2, 2), 1)), fe((VT.unit, 1)))

    def test_ring_laws_random_elements(self):
        rng = random.Random(13)

        def rand_elem():
            return FusionElement(
                [
                    (VirasoroT(rng.randint(1, 6), rng.randint(1, 6)), rng.randint(1, 2))
                    for _ in range(rng.randint(0, 3))
                ]
            )

        unit = fe((VT.unit, 1))
        for _ in range(500):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert ring_mul(VT, a, b) == ring_mul(VT, b, a)
            assert ring_mul(VT, ring_mul(VT, a, b), c) == ring_mul(VT, a, ring_mul(VT, b, c))
            assert ring_mul(VT, unit, a) == a


class TestHomDim:
    def test_simple_self(self):
        x = fe((VirasoroT(2, 3), 1))
        assert hom_dim(VT, x, x) == 1

    def test_distinct_simples(self):
        assert hom_dim(VT, fe((VirasoroT(1, 2), 1)), fe((VirasoroT(2, 1), 1))) == 0

    def test_multiplicity_pairing(self):
        a = fe((VirasoroT(1, 1), 2), (VirasoroT(2, 2), 3))
        b = fe((VirasoroT(2, 2), 4), (VirasoroT(3, 3), 1))
        assert hom_dim(VT, a, b) == 12


class TestMonodromy:
    def test_balancing_closed_form(self):
        for r in range(1, 11):
            for s in range(1, 11):
                rep = monodromy(VT, VirasoroT(r, 1), VirasoroT(1, s))
                assert len(rep.entries) == 1
                entry = rep.entries[0]
                assert entry.summand == VirasoroT(r, s)
                assert entry.exponent.as_constant() == F(r + s - r * s - 1, 2)

    def test_statuses_and_phase(self):
        rep = monodromy(VT, VirasoroT(2, 1), VirasoroT(1, 2))
        e = rep.entries[0]
        assert e.status == NON_INTEGER_CONSTANT
        assert e.exponent.as_constant() == F(-1, 2)
        assert e.phase == F(1, 2)
        rep2 = monodromy(VT, VirasoroT(3, 1), VirasoroT(1, 3))
        assert rep2.entries[0].status == INTEGER  # (3+3-9-1)/2 = -2
        assert rep2.entries[0].phase == 0

    def test_unit_gives_zero_exponents(self):
        for y in SV.labels_up_to(5):
            rep = monodromy(SV, SV.unit, y)
            assert [e.exponent for e in rep.entries] == [RatFunc(0)]
            assert rep.is_trivial()

    def test_supervir_2233_summand(self):
        rep = monodromy(SV, SuperVir(2, 2), SuperVir(3, 3))
        by_summand = {e.summand: e for e in rep.entries}
        # the (2,2) slot carries minus the weight of (3,3): computed here from
        # the displayed weight formula with plain fractions
        d33 = F(9 - 1, 8) * X + F(9 - 1, 8) / X - F(9 - 1, 4)
        assert by_summand[SuperVir(2, 2)].exponent == -d33
        assert by_summand[SuperVir(2, 2)].status == PARAMETER_DEPENDENT

    def test_symmetry_in_arguments(self):
        for x, y in [(SuperVir(2, 2), SuperVir(3, 1)), (SuperVir(1, 3), SuperVir(3, 3))]:
            a = monodromy(SV, x, y)
            b = monodromy(SV, y, x)
            assert [(e.summand, e.exponent) for e in a.entries] == [
                (e.summand, e.exponent) for e in b.entries
            ]

    def test_nondegeneracy_witness_formula(self):
        # against the square object, the summand at shift (eps, eps') carries
        # s/4*(n*eps-1) + (1/s)/4*(m*eps'-1) - (n*eps' + m*eps - 3 + eps*eps')/4
        for n in range(1, 9):
            for m in range(1, 9):
                if (n + m) % 2 or (n, m) == (1, 1):
                    continue
                rep = monodromy(SV, SuperVir(2, 2), SuperVir(n, m))
                by_summand = {e.summand: e for e in rep.entries}
                non_trivial = 0
                for eps in (-1, 1):
                    for eps2 in (-1, 1):
                        if n + eps < 1 or m + eps2 < 1:
                            continue
                        expected = (
                            X / 4 * (n * eps - 1)
                            + (1 / X) / 4 * (m * eps2 - 1)
                            - F(n * eps2 + m * eps - 3 + eps * eps2, 4)
                        )
                        entry = by_summand[SuperVir(n + eps, m + eps2)]
                        assert entry.exponent == expected
                        non_trivial += entry.status != INTEGER
                assert non_trivial >= 1

    def test_pair_exponent_additivity(self):
        cat = DeligneCategory(VirasoroKp2Category(), VirasoroTCategory())
        chain_t = param_chain().t_of_s
        kp2, vt = cat.left, cat.right
        rng = random.Random(23)
        for _ in range(40):
            x = Pair(
                VirasoroKp2(rng.randint(1, 6), rng.randint(1, 6)),
                VirasoroT(rng.randint(1, 6), rng.randint(1, 6)),
            )
            y = Pair(
                VirasoroKp2(rng.randint(1, 6), rng.randint(1, 6)),
                VirasoroT(rng.randint(1, 6), rng.randint(1, 6)),
            )
            rep = monodromy(cat, x, y)
            for e in rep.entries:
                z = e.summand
                left = kp2.weight_of(z.left) - kp2.weight_of(x.left) - kp2.weight_of(y.left)
                right = vt.weight_of(z.right) - vt.weight_of(x.right) - vt.weight_of(y.right)
                assert e.exponent == left + right.substitute(chain_t)

    def test_json_schema(self):
        rep = monodromy(SV, SuperVir(2, 2), SuperVir(2, 2))
        doc = rep.to_json()
        assert {k for row in doc for k in row} == {"summand", "exponent", "status", "phase"}
        assert all(row["phase"] is None for row in doc)  # all parameter-dependent here
        rep2 = monodromy(VT, VirasoroT(2, 1), VirasoroT(1, 2))
        assert rep2.to_json()[0]["phase"] == "1/2"


# the five built-in categories and one Deligne product, labels <= 5
PHASE_CATEGORIES = [*map(category_by_name, ("virasoro-t", "virasoro-kp2", "kl-sl2", "supervir", "osp")),
                    category_by_name("deligne(osp,virasoro-t)")]


class TestPhases:
    """A phase is the exponent mod 1, a `Fraction` in [0, 1), or None when the
    exponent depends on the parameter."""

    def test_every_entry_up_to_five(self):
        statuses, negative = set(), 0
        for cat in PHASE_CATEGORIES:
            labels = cat.labels_up_to(5)
            for x in labels:
                for y in labels:
                    rep = monodromy(cat, x, y)
                    for e, row in zip(rep.entries, rep.to_json(), strict=True):
                        c = e.exponent.as_constant()
                        statuses.add(e.status)
                        if c is None:
                            assert e.phase is None and row["phase"] is None, (cat.name, x, y)
                            continue
                        assert type(e.phase) is F and e.phase == c % 1 and 0 <= e.phase < 1, (cat.name, x, y)
                        assert row["phase"] == format_rat(e.phase), (cat.name, x, y)
                        negative += c < 0 and c.denominator > 1
        assert statuses == {INTEGER, NON_INTEGER_CONSTANT, PARAMETER_DEPENDENT} and negative


class TestTransparency:
    def test_certificate_is_the_first_non_trivial_entry(self):
        found = 0
        for cat in PHASE_CATEGORIES:
            witnesses = cat.labels_up_to(3)
            for x in cat.labels_up_to(5):
                ok, cert = is_transparent(cat, x, witnesses)
                first = next(((w, e) for w in witnesses for e in monodromy(cat, x, w).entries if not e.trivial), None)
                assert ok == (first is None) == (cert is None), (cat.name, x)
                if first is None:
                    continue
                found += 1
                w, e = first
                assert isinstance(cert, MonodromyEntry)
                assert (cert.summand, cert.exponent_vec, cert.status, cert.witness) == (
                    e.summand, e.exponent_vec, e.status, w)
                assert cert.exponent == e.exponent and cert.phase == e.phase and not cert.trivial
        assert found

    def test_matches_the_report_scan(self):
        # every candidate of each box up to 6 against shuffled witness lists
        # of every length, so that certificates come from varied witnesses
        rng = random.Random(41)
        statuses = set()
        for cat in (SV, OSP, VT, category_by_name("kl-sl2")):
            labels = cat.labels_up_to(6)
            for x in labels:
                witnesses = rng.sample(labels, rng.randint(0, len(labels)))
                got = is_transparent(cat, x, witnesses)
                assert got == is_transparent_by_reports(cat, x, witnesses), (cat.name, x, witnesses)
                statuses.add(got[1].status if got[1] else INTEGER)
        assert statuses == {INTEGER, NON_INTEGER_CONSTANT, PARAMETER_DEPENDENT}

    def test_foreign_labels_are_refused(self):
        for x, witnesses in [(VirasoroT(1, 1), [SV.unit]), (SV.unit, [SV.unit, VirasoroT(1, 1)])]:
            with pytest.raises(CategoryMismatch):
                is_transparent(SV, x, witnesses)

    def test_unit_always_transparent(self):
        ok, cert = is_transparent(SV, SV.unit, SV.labels_up_to(6))
        assert ok and cert is None

    def test_s22_not_transparent(self):
        ok, cert = is_transparent(SV, SuperVir(2, 2), [SuperVir(2, 2)])
        assert not ok
        assert cert.witness == SuperVir(2, 2)
        assert cert.summand == SuperVir(1, 1)
        assert cert.status == PARAMETER_DEPENDENT

    def test_scan_supervir(self):
        assert mueger_scan(SV, 6, 6) == [SuperVir(1, 1)]

    def test_scan_osp(self):
        assert mueger_scan(OSP, 9, 9) == [parse_label("M(1)")]

    def test_scan_trivial_bounds(self):
        assert mueger_scan(SV, 1, 1) == [SV.unit]

    def test_scan_bad_bounds(self):
        with pytest.raises(ValueError):
            mueger_scan(SV, 0, 3)


def test_fusion_package_imports_first():
    # importing limfuse.fusion before limfuse.catdata must not hit the
    # element <-> catdata import cycle
    import limfuse

    src = os.path.dirname(os.path.dirname(limfuse.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for mod in ("limfuse.fusion", "limfuse.fusion.monodromy", "limfuse.induction"):
        subprocess.run([sys.executable, "-c", f"import {mod}"], check=True, env=env)
