"""Closed-form invariants and the two proof witnesses."""

import pytest

from mixprod import (
    AMBIENT_CAP,
    GF2,
    Ambient,
    CmCase,
    EmptyBlock,
    KoszulCycleWitness,
    MixedProductSpec,
    SqFreeMonomial,
    SyzygyWitness,
    UnsupportedIdeal,
    UnsupportedShape,
    cm_classify,
    depth_formula,
    dim_formula,
    formula_report,
    koszul_cycle_witness,
    oracle_report,
    realize_spec,
    reg_formula,
    swap_blocks,
    syzygy_witness,
    verify_koszul_cycle,
    verify_syzygy_witness,
)
from mixprod.mixed import KoszulSummand


def spec(n, m, *terms):
    return MixedProductSpec(Ambient(n, m), tuple(terms))


def all_canonical_specs(max_n, max_m):
    for n in range(max_n + 1):
        for m in range(max_m + 1):
            if n + m == 0:
                continue
            for k in range(n + 1):
                for l in range(m + 1):
                    if (k, l) != (0, 0):
                        yield spec(n, m, (k, l))
            for s in range(1, n + 1):
                for q in range(s):
                    for r in range(1, m + 1):
                        for t in range(r):
                            yield spec(n, m, (q, r), (s, t))


def canonical_specs_in(n, m):
    """Every canonical description over the one ambient (n, m)."""
    singles = [spec(n, m, (k, l)) for k in range(n + 1) for l in range(m + 1) if k or l]
    return singles + [
        spec(n, m, (q, r), (s, t))
        for s in range(1, n + 1)
        for q in range(s)
        for r in range(1, m + 1)
        for t in range(r)
    ]


class TestRegFormula:
    def test_single_block(self):
        assert reg_formula(spec(3, 0, (2, 0))) == 2
        assert reg_formula(spec(2, 3, (0, 2))) == 2

    def test_product(self):
        assert reg_formula(spec(2, 2, (1, 1))) == 2
        assert reg_formula(spec(4, 3, (2, 3))) == 5

    def test_two_terms(self):
        assert reg_formula(spec(2, 2, (1, 2), (2, 1))) == 3

    def test_disjoint_sum(self):
        assert reg_formula(spec(2, 2, (0, 2), (2, 0))) == 3

    def test_rejects_unit(self):
        with pytest.raises(UnsupportedIdeal):
            reg_formula(spec(1, 1, (0, 0)))

    def test_rejects_noncanonical(self):
        with pytest.raises(UnsupportedShape):
            reg_formula(spec(2, 2, (2, 1), (1, 2)))
        with pytest.raises(UnsupportedShape):
            reg_formula(spec(2, 2, (1, 1), (2, 2)))


class TestDimFormula:
    def test_three_way_min(self):
        assert dim_formula(spec(3, 3, (1, 3), (2, 1))) == 3

    def test_disjoint_sum(self):
        assert dim_formula(spec(2, 2, (0, 2), (2, 0))) == 2

    def test_principal(self):
        assert dim_formula(spec(1, 1, (1, 1))) == 1

    def test_single_block_cases(self):
        assert dim_formula(spec(3, 2, (2, 0))) == 2 + 2 - 1
        assert dim_formula(spec(2, 3, (0, 2))) == 2 + 2 - 1

    def test_product_plus_veronese(self):
        assert dim_formula(spec(3, 2, (1, 2), (2, 0))) == 5 - min(3, 5 - 3 + 2)


class TestDepthFormula:
    def test_two_products(self):
        assert depth_formula(spec(3, 3, (1, 3), (2, 1))) == min(4, 3) - 1

    def test_product_plus_veronese(self):
        assert depth_formula(spec(2, 3, (1, 2), (2, 0))) == 1 + 2 - 1

    def test_single_block_in_mixed_ambient(self):
        assert depth_formula(spec(3, 2, (2, 0))) == 2 + 2 - 1

    def test_product(self):
        assert depth_formula(spec(4, 4, (2, 3))) == 4

    def test_mirrored_case_via_swap(self):
        # (0,r)+(s,t) with t >= 1 must give s+t-1
        assert depth_formula(spec(3, 3, (0, 3), (2, 1))) == 2 + 1 - 1
        assert depth_formula(spec(4, 2, (0, 2), (3, 1))) == 3 + 1 - 1


class TestCmClassify:
    def test_two_products_cm(self):
        assert cm_classify(spec(2, 2, (1, 2), (2, 1))) == (True, CmCase.TWO_PRODUCTS)

    def test_full_support_product(self):
        assert cm_classify(spec(3, 2, (3, 2))) == (True, CmCase.PRODUCT)

    def test_product_plus_veronese_needs_full_y(self):
        assert cm_classify(spec(3, 2, (1, 1), (2, 0))) == (
            False,
            CmCase.PRODUCT_PLUS_VERONESE,
        )
        assert cm_classify(spec(3, 2, (1, 2), (2, 0))) == (
            True,
            CmCase.PRODUCT_PLUS_VERONESE,
        )

    def test_always_cm_cases(self):
        assert cm_classify(spec(3, 2, (2, 0))) == (True, CmCase.VERONESE)
        assert cm_classify(spec(3, 2, (0, 1))) == (True, CmCase.VERONESE)
        assert cm_classify(spec(3, 2, (0, 1), (2, 0))) == (True, CmCase.DISJOINT_SUM)

    def test_mirrored_case(self):
        # J_r + I_sJ_t: CM iff r = t+1 and s = n
        assert cm_classify(spec(2, 3, (0, 2), (2, 1))) == (
            True,
            CmCase.PRODUCT_PLUS_VERONESE,
        )
        assert cm_classify(spec(3, 3, (0, 2), (2, 1))) == (
            False,
            CmCase.PRODUCT_PLUS_VERONESE,
        )
        assert cm_classify(spec(2, 3, (0, 3), (2, 1))) == (
            False,
            CmCase.PRODUCT_PLUS_VERONESE,
        )


class TestFormulaReport:
    def test_principal(self):
        rep = formula_report(spec(1, 1, (1, 1)))
        assert (rep.dim, rep.depth, rep.reg_of_ideal, rep.cm) == (1, 1, 2, True)
        assert rep.method == "formula" and rep.field is None

    def test_cross_checked_against_oracle(self):
        s = spec(2, 2, (1, 2), (2, 1))
        rep = formula_report(s)
        assert (rep.dim, rep.depth, rep.reg_of_ideal, rep.cm) == (2, 2, 3, True)
        orc = oracle_report(realize_spec(s), GF2)
        assert (orc.dim, orc.depth, orc.reg_of_ideal, orc.cm) == (2, 2, 3, True)

    def test_unit_rejected(self):
        with pytest.raises(UnsupportedIdeal):
            formula_report(spec(1, 1, (0, 0)))

    def test_three_terms_rejected(self):
        with pytest.raises(UnsupportedShape):
            formula_report(spec(3, 3, (0, 3), (1, 2), (2, 0)))


class TestFormulaProperties:
    def test_depth_at_most_dim(self):
        for s in all_canonical_specs(4, 4):
            assert depth_formula(s) <= dim_formula(s)

    def test_cm_iff_depth_equals_dim(self):
        for s in all_canonical_specs(4, 4):
            cm, _ = cm_classify(s)
            assert cm == (depth_formula(s) == dim_formula(s))

    def test_block_swap_symmetry(self):
        for s in all_canonical_specs(3, 3):
            sw = swap_blocks(s)
            assert reg_formula(sw) == reg_formula(s)
            assert dim_formula(sw) == dim_formula(s)
            assert depth_formula(sw) == depth_formula(s)
            assert cm_classify(sw)[0] == cm_classify(s)[0]

    def test_reg_equals_witness_degree_minus_one(self):
        for s in all_canonical_specs(4, 4):
            if len(s.terms) == 2:
                assert reg_formula(s) == syzygy_witness(s).internal_degree - 1

    def test_table_properties_up_to_the_cap(self):
        specs = [
            s
            for n in range(AMBIENT_CAP + 1)
            for m in range(AMBIENT_CAP + 1 - n)
            for s in canonical_specs_in(n, m)
        ]
        assert len(specs) == 43452
        for s in specs:
            dim, depth, reg = dim_formula(s), depth_formula(s), reg_formula(s)
            cm, _ = cm_classify(s)
            assert cm == (depth == dim)
            assert depth <= dim
            sw = formula_report(swap_blocks(s))
            assert (sw.dim, sw.depth, sw.reg_of_ideal, sw.cm) == (dim, depth, reg, cm)
            if len(s.terms) == 2:
                assert reg == syzygy_witness(s).internal_degree - 1


class TestSyzygyWitness:
    def test_standard_example(self):
        w = syzygy_witness(spec(2, 2, (1, 2), (2, 1)))
        assert str(w.u) == "x1y1y2"
        assert str(w.v) == "x1x2y1"
        assert str(w.cofactor_u) == "x2"
        assert str(w.cofactor_v) == "y2"
        assert w.internal_degree == 4
        assert verify_syzygy_witness(w)

    def test_larger_example(self):
        w = syzygy_witness(spec(3, 3, (1, 3), (2, 1)))
        assert str(w.u) == "x1y1y2y3"
        assert str(w.v) == "x1x2y1"
        assert str(w.cofactor_u) == "x2"
        assert str(w.cofactor_v) == "y2y3"
        assert w.internal_degree == 5
        assert verify_syzygy_witness(w)

    def test_single_term_rejected(self):
        with pytest.raises(UnsupportedShape):
            syzygy_witness(spec(2, 2, (1, 2)))

    def test_generators_belong_to_their_terms(self):
        for s in all_canonical_specs(4, 4):
            if len(s.terms) != 2:
                continue
            (q, r), (s_, t) = s.terms
            w = syzygy_witness(s)
            assert (w.u.x_degree, w.u.y_degree) == (q, r)
            assert (w.v.x_degree, w.v.y_degree) == (s_, t)
            assert verify_syzygy_witness(w)

    def test_tampered_witness_detected(self):
        amb = Ambient(2, 2)
        w = syzygy_witness(spec(2, 2, (1, 2), (2, 1)))
        enlarged = SyzygyWitness(
            u=w.u,
            v=w.v,
            cofactor_u=SqFreeMonomial.parse(amb, "x2y1"),
            cofactor_v=w.cofactor_v,
            internal_degree=w.internal_degree,
        )
        assert not verify_syzygy_witness(enlarged)
        wrong_degree = SyzygyWitness(w.u, w.v, w.cofactor_u, w.cofactor_v, 5)
        assert not verify_syzygy_witness(wrong_degree)


class TestKoszulCycle:
    def test_single_summand(self):
        w = koszul_cycle_witness(Ambient(1, 1))
        assert len(w.summands) == 1
        assert w.summands[0] == KoszulSummand(1, SqFreeMonomial.parse(Ambient(1, 1), "y1"), 1)
        assert verify_koszul_cycle(w)

    def test_sign_pattern(self):
        w = koszul_cycle_witness(Ambient(2, 3))
        assert [s.sign for s in w.summands] == [1, -1, 1]
        assert [str(s.coefficient) for s in w.summands] == ["y1", "y2", "y3"]
        assert [s.omitted_y_index for s in w.summands] == [1, 2, 3]
        assert verify_koszul_cycle(w)

    def test_two_summands(self):
        w = koszul_cycle_witness(Ambient(1, 2))
        assert [(s.sign, str(s.coefficient)) for s in w.summands] == [(1, "y1"), (-1, "y2")]
        assert verify_koszul_cycle(w)

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlock):
            koszul_cycle_witness(Ambient(0, 2))
        with pytest.raises(EmptyBlock):
            koszul_cycle_witness(Ambient(2, 0))

    def test_sign_flip_detected(self):
        amb = Ambient(1, 2)
        w = koszul_cycle_witness(amb)
        flipped = KoszulCycleWitness(
            amb, (w.summands[0], KoszulSummand(1, w.summands[1].coefficient, 2))
        )
        assert not verify_koszul_cycle(flipped)

    def test_all_small_ambients(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert verify_koszul_cycle(koszul_cycle_witness(Ambient(n, m)))
