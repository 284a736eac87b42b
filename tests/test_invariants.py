"""Betti-table oracle and the derived invariant reports."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mixprod.core
import mixprod.harness
import mixprod.homology
import mixprod.invariants
from mixprod import (
    GF2,
    GF3,
    RATIONALS,
    Ambient,
    MixedProductSpec,
    MonomialIdeal,
    SimplicialComplex,
    SqFreeMonomial,
    UnsupportedIdeal,
    alexander_dual,
    betti_stats,
    canonicalize_spec,
    has_linear_resolution,
    hochster_betti,
    oracle_report,
    realize_spec,
    reduced_homology_ranks,
    restrict,
    veronese_ideal,
)
from test_homology import bit_by_bit, submasks, supports


def ideal(ambient, *monomials):
    return MonomialIdeal.from_monomials(
        ambient, [SqFreeMonomial.parse(ambient, m) for m in monomials]
    )


# --- independent oracle ------------------------------------------------------
# A from-scratch Hochster evaluation: plain sets for faces, fraction
# arithmetic for ranks. Used to derive the frozen tables below and to
# cross-check a sample; it shares no code with the package.


def _rank_fractions(mat, p=0):
    """Rank over Q (p = 0) by fractions, or over GF(p) by residues."""
    if not mat or not mat[0]:
        return 0
    mat = [[e % p if p else Fraction(e) for e in row] for row in mat]
    nrows, ncols, rank = len(mat), len(mat[0]), 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(nrows):
            if i != rank and mat[i][c]:
                if p:
                    f = mat[i][c] * pow(mat[rank][c], -1, p)
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
                else:
                    f = mat[i][c] / mat[rank][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def brute_hochster(nvars, gen_supports, p=0):
    """Total-degree Betti table of S/I over the rationals, or over GF(p)
    when p is given."""

    def homology(vertices):
        faces = [
            frozenset(c)
            for size in range(len(vertices) + 1)
            for c in combinations(sorted(vertices), size)
            if not any(g <= set(c) for g in gen_supports)
        ]
        by_dim = {}
        for f in faces:
            by_dim.setdefault(len(f) - 1, []).append(f)
        for d in by_dim:
            by_dim[d].sort(key=sorted)
        top = max(by_dim)
        ranks = {}
        for i in range(0, top + 1):
            lower, upper = by_dim.get(i - 1, []), by_dim.get(i, [])
            idx = {f: r for r, f in enumerate(lower)}
            mat = [[0] * len(upper) for _ in lower]
            for col, f in enumerate(upper):
                for j, v in enumerate(sorted(f)):
                    mat[idx[f - {v}]][col] = (-1) ** j
            ranks[i] = _rank_fractions(mat, p)
        return {
            i: len(by_dim.get(i, [])) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i in range(-1, top + 1)
        }

    betti = {}
    allv = range(1, nvars + 1)
    for size in range(nvars + 1):
        for w in combinations(allv, size):
            for ihom, r in homology(frozenset(w)).items():
                if r:
                    key = (len(w) - 1 - ihom, len(w))
                    betti[key] = betti.get(key, 0) + r
    return betti


def taylor_euler_consistent(gen_supports, betti):
    """Alternating sums per degree must match the Taylor complex's."""
    euler = {}
    for k in range(1, len(gen_supports) + 1):
        for subset in combinations(gen_supports, k):
            j = len(frozenset().union(*subset))
            euler[j] = euler.get(j, 0) + (-1) ** (k + 1)
    degrees = {j for _, j in betti} | set(euler)
    return all(
        sum((-1) ** i * r for (i, j2), r in betti.items() if j2 == j)
        == (1 if j == 0 else 0) - euler.get(j, 0)
        for j in degrees
    )


def supports_of(a):
    return [set(g.support) for g in a.gens]


# --- frozen tables (computed with brute_hochster, cross-checked against
#     the Taylor complex Euler characteristic) -------------------------------

FROZEN_TABLES = {
    # I_2 in (3,0)
    ((3, 0), ((2, 0),)): {(0, 0): 1, (1, 2): 3, (2, 3): 2},
    # principal x1y1 in (1,1)
    ((1, 1), ((1, 1),)): {(0, 0): 1, (1, 2): 1},
    # I_1 in (1,0)
    ((1, 0), ((1, 0),)): {(0, 0): 1, (1, 1): 1},
    # I_1J_2 + I_2J_1 in (2,2)
    ((2, 2), ((1, 2), (2, 1))): {(0, 0): 1, (1, 3): 4, (2, 4): 3},
}


class TestHochsterBetti:
    @pytest.mark.parametrize("key", sorted(FROZEN_TABLES))
    def test_frozen_tables(self, key):
        (n, m), terms = key
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        got = hochster_betti(a, RATIONALS)
        assert got.entries == FROZEN_TABLES[key]

    @pytest.mark.parametrize("key", sorted(FROZEN_TABLES))
    def test_frozen_tables_match_independent_oracle(self, key):
        (n, m), terms = key
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        brute = brute_hochster(n + m, supports_of(a))
        assert brute == FROZEN_TABLES[key]
        assert taylor_euler_consistent(supports_of(a), brute)

    def test_zero_and_unit_rejected(self):
        amb = Ambient(2, 0)
        with pytest.raises(UnsupportedIdeal):
            hochster_betti(MonomialIdeal.zero(amb), RATIONALS)
        with pytest.raises(UnsupportedIdeal):
            hochster_betti(MonomialIdeal.unit(amb), RATIONALS)

    def test_first_column_counts_generators(self):
        # beta_{0,j} = 0 for j > 0 and beta_{1,j} = #generators of degree j
        for n, m, terms in [
            (3, 0, ((2, 0),)),
            (2, 2, ((1, 2), (2, 1))),
            (3, 2, ((1, 1), (2, 0))),
            (2, 3, ((0, 2), (2, 1))),
        ]:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            b = hochster_betti(a, RATIONALS)
            assert all(i != 0 or j == 0 for i, j in b.entries)
            by_degree = {}
            for g in a.gens:
                by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
            got = {j: r for (i, j), r in b.entries.items() if i == 1}
            assert got == by_degree

    def test_multigraded_refinement_sums_to_total(self):
        a = realize_spec(MixedProductSpec(Ambient(2, 2), ((1, 2), (2, 1))))
        b = hochster_betti(a, GF2)
        recomputed = {}
        for (i, w), r in b.multigraded.items():
            key = (i, bin(w).count("1"))
            recomputed[key] = recomputed.get(key, 0) + r
        assert recomputed == b.entries

    def test_taylor_euler_on_family(self):
        for n, m, terms in [
            (2, 2, ((1, 1),)),
            (3, 1, ((2, 1),)),
            (2, 2, ((0, 1), (2, 0))),
            (3, 3, ((1, 3), (2, 1))),
        ]:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            b = hochster_betti(a, RATIONALS)
            assert taylor_euler_consistent(supports_of(a), b.entries)


class TestBettiStats:
    def test_examples(self):
        a = veronese_ideal(Ambient(3, 0), "x", 2)
        assert betti_stats(hochster_betti(a, RATIONALS)) == (2, 1)
        b = ideal(Ambient(1, 1), "x1y1")
        assert betti_stats(hochster_betti(b, RATIONALS)) == (1, 1)
        c = veronese_ideal(Ambient(1, 0), "x", 1)
        assert betti_stats(hochster_betti(c, RATIONALS)) == (1, 0)


class TestOracleReport:
    def test_principal_mixed(self):
        rep = oracle_report(realize_spec(MixedProductSpec(Ambient(1, 1), ((1, 1),))), RATIONALS)
        assert (rep.dim, rep.depth, rep.pd, rep.cm) == (1, 1, 1, True)

    def test_veronese(self):
        rep = oracle_report(veronese_ideal(Ambient(3, 0), "x", 2), RATIONALS)
        assert (rep.dim, rep.depth, rep.pd, rep.cm) == (1, 1, 2, True)
        assert rep.reg_of_ideal == 2

    def test_non_cm_example(self):
        rep = oracle_report(realize_spec(MixedProductSpec(Ambient(2, 3), ((1, 2),))), GF2)
        assert (rep.dim, rep.depth, rep.cm) == (3, 2, False)

    def test_report_internal_identities(self):
        for n, m, terms in [(2, 2, ((1, 1),)), (3, 2, ((1, 1), (2, 0))), (2, 2, ((1, 2), (2, 1)))]:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            rep = oracle_report(a, GF3)
            assert rep.depth + rep.pd == n + m
            assert rep.depth <= rep.dim
            assert rep.cm == (rep.depth == rep.dim)
            assert rep.reg_of_ideal == rep.reg_of_quotient + 1
            assert rep.height == n + m - rep.dim
            assert rep.method == "oracle" and rep.field == GF3


class TestLinearResolution:
    def test_veronese_linear(self):
        assert has_linear_resolution(veronese_ideal(Ambient(3, 0), "x", 2), RATIONALS)

    def test_mixed_degrees_not_linear(self):
        assert not has_linear_resolution(ideal(Ambient(1, 2), "x1", "y1y2"), RATIONALS)

    def test_principal_linear(self):
        assert has_linear_resolution(ideal(Ambient(1, 1), "x1y1"), RATIONALS)

    def test_equigenerated_but_not_linear(self):
        # I_1J_1 in (2,2) has reg 2... degree-2 generators with reg 2: linear.
        # A genuinely non-linear equigenerated case: the 4-cycle edge ideal
        # x1y1, x1y2, x2y1, x2y2 is linear; use two disjoint edges instead.
        a = ideal(Ambient(2, 2), "x1y1", "x2y2")
        assert not has_linear_resolution(a, RATIONALS)


class TestDualitySuite:
    SPECS = [
        (2, 2, ((1, 1),)),
        (2, 2, ((1, 2), (2, 1))),
        (3, 2, ((1, 1), (2, 0))),
        (3, 0, ((2, 0),)),
        (2, 3, ((0, 2), (1, 1))),
    ]

    def test_terai(self):
        for n, m, terms in self.SPECS:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            rep = oracle_report(a, GF2)  # raises TeraiMismatch on failure
            dual_pd, _ = betti_stats(hochster_betti(alexander_dual(a), GF2))
            assert rep.reg_of_ideal == dual_pd

    def test_eagon_reiner_both_directions(self):
        for n, m, terms in self.SPECS:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            rep = oracle_report(a, GF2)
            assert rep.cm == has_linear_resolution(alexander_dual(a), GF2)


class TestFieldIndependence:
    def test_small_family(self):
        for n, m, terms in [
            (2, 2, ((1, 2), (2, 1))),
            (3, 1, ((1, 1), (2, 0))),
            (2, 2, ((1, 1),)),
        ]:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            tables = [hochster_betti(a, f).entries for f in (RATIONALS, GF2, GF3)]
            assert tables[0] == tables[1] == tables[2]


class TestTopBetti:
    def test_nonvanishing_for_principal_products(self):
        # the depth bound's witness class: top Betti number of S/I_1J_1
        for n in (1, 2):
            for m in (1, 2):
                a = realize_spec(MixedProductSpec(Ambient(n, m), ((1, 1),)))
                b = hochster_betti(a, RATIONALS)
                assert any(i == n + m - 1 for i, _ in b.entries)


# --- orbit-compressed walk ---------------------------------------------------
# hochster_betti restricts one representative per orbit of the permutations
# inside the classes of interchangeable variables, which it reads off the
# generator set alone. Its tables are checked against the independent
# oracle above and against a full 2^N walk written here from restrict and
# reduced_homology_ranks, on a complex enumerated here face by face.


def full_walk_multigraded(a, field):
    """(i, W) -> beta_{i,W}(S/I) from every subset W of the variables."""
    amb = a.ambient
    gens = a.gen_masks()
    faces = [s for s in range(amb.full_mask + 1) if not any(g & ~s == 0 for g in gens)]
    facets = tuple(f for f in faces if not any(f != g and f & ~g == 0 for g in faces))
    delta = SimplicialComplex(amb.full_mask, facets)
    out = {}
    for w in range(amb.full_mask + 1):
        for ihom, r in reduced_homology_ranks(restrict(delta, w), field).items():
            if r:
                out[(w.bit_count() - 1 - ihom, w)] = r
    return out


@st.composite
def canonical_specs(draw):
    nvars = draw(st.integers(1, 7))
    n = draw(st.integers(0, nvars))
    m = nvars - n
    terms = draw(
        st.lists(st.tuples(st.integers(0, n), st.integers(0, m)), min_size=1, max_size=3)
    )
    spec = canonicalize_spec(MixedProductSpec(Ambient(n, m), tuple(terms)))
    assume(not spec.is_unit)
    return spec


_betti_at = mixprod.invariants._betti_at
_local_gens = mixprod.invariants._local_gens


@pytest.fixture
def subsets_walked(monkeypatch):
    """Counts the vertex subsets W at which hochster_betti evaluates: the
    representatives its walk plan reads the generators inside of, with no
    plan kept from before."""
    calls = []

    def counting(gens, w):
        calls.append(w)
        return _local_gens(gens, w)

    monkeypatch.setattr(mixprod.invariants, "_PLANS", {})
    monkeypatch.setattr(mixprod.invariants, "_local_gens", counting)
    return calls


@st.composite
def squarefree_ideals(draw):
    nvars = draw(st.integers(1, 6))
    n = draw(st.integers(0, nvars))
    full = (1 << nvars) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=6))
    return MonomialIdeal.from_masks(Ambient(n, nvars - n), masks)


def swap_classes_by_pairs(a):
    """Classes of the variables linked by a transposition that maps the
    generator set to itself, every pair tested, merged as components."""
    gens = {g.support for g in a.gens}
    owner = {v: v for v in a.ambient.variables()}
    for i, j in combinations(a.ambient.variables(), 2):
        swap = {i: j, j: i}
        if {frozenset(swap.get(v, v) for v in g) for g in gens} == gens:
            old, new = owner[j], owner[i]
            owner = {v: new if o == old else o for v, o in owner.items()}
    return [list(owner.values()).count(c) for c in set(owner.values())]


class TestOrbitWalk:
    @settings(max_examples=80, deadline=None)
    @given(canonical_specs(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_matches_independent_oracle_and_full_walk(self, spec, field):
        a = realize_spec(spec)
        got = hochster_betti(a, field)
        assert got.entries == brute_hochster(spec.ambient.nvars, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, field)

    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_any_ideal_walks_one_subset_per_orbit(self, a, field):
        walked = []

        def counting(gens, w):
            walked.append(w)
            return _local_gens(gens, w)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_PLANS", {})
            mp.setattr(mixprod.invariants, "_local_gens", counting)
            got = hochster_betti(a, field)
        assert len(walked) == prod(size + 1 for size in swap_classes_by_pairs(a))
        # No complex on at most five vertices has torsion, so there the
        # rational table is the table over every field.
        if field == RATIONALS or a.ambient.nvars <= 5:
            assert got.entries == brute_hochster(a.ambient.nvars, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, field)

    # One subset per count vector, prod(|C| + 1) over the classes C.
    @pytest.mark.parametrize(
        "n, m, gens, walked",
        [
            (2, 2, ("x1y1",), 9),  # {x1,y1} {x2,y2}: 3*3
            (2, 2, ("x1y1", "x2y1"), 12),  # {x1,x2} {y1} {y2}: 3*2*2
            (2, 2, ("x2", "y1"), 9),  # {x1,y2} {x2,y1}: 3*3
            (2, 2, ("x1", "x2", "y1y2"), 9),  # {x1,x2} {y1,y2}: 3*3
            (3, 0, ("x1x2", "x1x3", "x2x3"), 4),  # {x1,x2,x3}: 4
            (3, 0, ("x1x2",), 6),  # {x1,x2} {x3}: 3*2
            (0, 3, ("y1y2", "y1y3", "y2y3"), 4),  # {y1,y2,y3}: 4
            (0, 3, ("y1", "y2y3"), 6),  # {y1} {y2,y3}: 2*3
            (1, 2, ("x1y1", "y2"), 6),  # only x1 <-> y1 swaps: {x1,y1} {y2}: 3*2
            # the path x1-x2-y1-y2 has a reflection but no transposition:
            # four singleton classes, all 2^4 subsets
            (2, 2, ("x1x2", "x2y1", "y1y2"), 16),
        ],
    )
    def test_symmetry_gate(self, subsets_walked, n, m, gens, walked):
        a = ideal(Ambient(n, m), *gens)
        got = hochster_betti(a, GF2)
        assert len(subsets_walked) == walked
        assert got.entries == brute_hochster(n + m, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_one_alexander_dual_per_report(self, monkeypatch):
        # one dual per report, read off the classes and types of the
        # ideal's plan, and none by Berge's alexander_dual, also on ideals
        # with more grid points than generators: the path x1-x2-y1-y2 has
        # four singleton classes
        berge = []

        def counting(*args, **kwargs):
            berge.append(args[0])
            return alexander_dual(*args, **kwargs)

        for module in (mixprod.core, mixprod.homology):
            monkeypatch.setattr(module, "alexander_dual", counting)
        monkeypatch.setattr(mixprod.invariants, "_PLANS", {})
        duals = spy(monkeypatch, "_dual")
        cases = [
            realize_spec(MixedProductSpec(Ambient(n, m), terms))
            for (n, m), terms in [
                ((2, 2), ((1, 2), (2, 1))),
                ((3, 1), ((1, 1),)),
                ((2, 0), ((1, 0),)),
                ((4, 4), ((1, 2),)),
                ((4, 4), ((2, 2),)),
            ]
        ]
        cases.append(ideal(Ambient(2, 2), "x1x2", "x2y1", "y1y2"))
        for a in cases:
            duals.clear()
            oracle_report(a, GF2)
            plan = mixprod.invariants._PLANS[(a.ambient, a.gen_masks())]
            assert duals == [(a.ambient, plan.classes, plan.types)]
            assert mixprod.invariants._dual(*duals[0]) == alexander_dual(a)
        duals.clear()
        oracle_report(ideal(Ambient(2, 2), "x1y1", "x2"), GF2)
        assert len(duals) == 1
        assert berge == []


# --- the plan's Alexander dual -------------------------------------------------
# dual_by_types reads the dual off the count vectors over the classes, on
# every ideal, however its grid compares with its generator count. Berge's
# alexander_dual shares no code with it and is the reference it must equal.

_swap_classes = mixprod.invariants._swap_classes
dual_by_types = mixprod.invariants.dual_by_types


@st.composite
def stable_ideals(draw):
    """An ideal on at most 8 variables fixed by the permutations inside
    each class of a random partition, with that partition: the sets of a
    few random nonzero count vectors over the classes, minimalized."""
    nvars = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
    classes = [sum(1 << v for v, k in enumerate(labels) if k == lab) for lab in sorted(set(labels))]
    count = st.tuples(*(st.integers(0, c.bit_count()) for c in classes))
    types = set(draw(st.lists(count, min_size=1, max_size=5))) - {(0,) * len(classes)}
    assume(types)
    masks = [
        s for s in range(1 << nvars) if tuple((s & c).bit_count() for c in classes) in types
    ]
    n = draw(st.integers(0, nvars))
    return MonomialIdeal.from_masks(Ambient(n, nvars - n), masks), classes


class TestDualByTypes:
    def test_every_spec_up_to_ten_variables(self):
        # each ambient (n, m) with n + m <= 10 once
        specs = [
            s
            for n in range(11)
            for s in mixprod.harness.enumerate_specs(n, 10 - n)
            if s.ambient.n == n
        ]
        assert len(specs) == 3938
        for spec in specs:
            a = realize_spec(spec)
            assert dual_by_types(a) == alexander_dual(a), spec

    def test_cap_spec(self):
        a = realize_spec(MixedProductSpec(Ambient(8, 8), ((4, 5), (6, 3))))
        got = dual_by_types(a)
        assert len(got.gens) == 4004
        assert got == alexander_dual(a)

    # `side` says how the grid prod(|C|+1) compares with the generator
    # count: "types" when it has at most as many points, "berge" when more
    @pytest.mark.parametrize(
        "n, m, terms, side",
        [
            (4, 4, ((2, 2),), "types"),  # 25 grid points, 36 generators
            (4, 4, ((1, 2), (4, 0)), "types"),  # 25 points, 25 generators
            (4, 4, ((1, 2),), "berge"),  # 25 points, 24 generators
            (2, 2, ((1, 1),), "berge"),  # 9 points, 4 generators
            (3, 3, ((3, 0),), "berge"),  # 16 points, 1 generator
        ],
    )
    def test_each_side_of_the_rule(self, n, m, terms, side):
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        points = prod(c.bit_count() + 1 for c in _swap_classes(a))
        assert (points <= len(a.gens)) == (side == "types")
        assert dual_by_types(a) == alexander_dual(a)

    def test_singleton_classes(self):
        # the path x1-x2-y1-y2: four singleton classes, 16 grid points
        a = ideal(Ambient(2, 2), "x1x2", "x2y1", "y1y2")
        expected = ideal(Ambient(2, 2), "x1y1", "x2y1", "x2y2")
        assert dual_by_types(a) == expected == alexander_dual(a)

    @pytest.mark.parametrize("make", [MonomialIdeal.zero, MonomialIdeal.unit])
    def test_zero_and_unit_rejected(self, make):
        with pytest.raises(UnsupportedIdeal, match="Alexander dual needs a proper nonzero ideal"):
            dual_by_types(make(Ambient(2, 1)))

    @settings(max_examples=150, deadline=None)
    @given(stable_ideals())
    def test_stable_ideals_match_berge(self, case):
        a, classes = case
        expected = alexander_dual(a)
        got = dual_by_types(a, classes)
        assert got == expected
        # sorted, duplicate-free and an antichain, or the checked
        # constructor raises
        assert MonomialIdeal(a.ambient, got.gens) == got
        assert dual_by_types(a) == expected


# --- swap classes by delta-swaps ----------------------------------------------
# _swap_classes tests each transposition on a 2^N-bit indicator of the
# generator set. The scan it replaced, which checks the image of every
# generator that holds exactly one of the two variables, is the reference.


def swap_classes_by_scan(a):
    """Each variable tested against the lowest member of each class found
    so far, by scanning the generators for one whose swap image is no
    generator."""
    gens = set(a.gen_masks())
    classes = []
    for v in range(a.ambient.nvars):
        for k, cls in enumerate(classes):
            swap = (1 << v) | (cls & -cls)
            if all(g ^ swap in gens for g in gens if (g & swap).bit_count() == 1):
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


@st.composite
def wide_ideals(draw):
    """An ideal in a 16-variable ambient: random masks, which mostly leave
    every class a singleton, or a mixed product whose variables are
    renamed by a random permutation, whose classes are then mostly not
    runs of consecutive bits."""
    n = draw(st.integers(0, 16))
    amb = Ambient(n, 16 - n)
    if draw(st.booleans()):
        masks = draw(st.lists(st.integers(1, amb.full_mask), min_size=1, max_size=12))
        return MonomialIdeal.from_masks(amb, masks)
    term = st.tuples(st.integers(0, min(n, 3)), st.integers(0, min(16 - n, 3)))
    terms = tuple(draw(st.lists(term, min_size=1, max_size=2)))
    spec = canonicalize_spec(MixedProductSpec(amb, terms))
    assume(not spec.is_unit)
    perm = draw(st.permutations(range(16)))
    gens = realize_spec(spec).gen_masks()
    moved = [sum(1 << perm[b] for b in range(16) if g >> b & 1) for g in gens]
    return MonomialIdeal.from_masks(amb, moved)


class TestSwapClasses:
    @settings(max_examples=200, deadline=None)
    @given(squarefree_ideals())
    def test_small_ideals_match_the_scan(self, a):
        assert _swap_classes(a) == swap_classes_by_scan(a)

    @settings(max_examples=100, deadline=None)
    @given(wide_ideals())
    def test_sixteen_variables_match_the_scan(self, a):
        assert _swap_classes(a) == swap_classes_by_scan(a)

    @pytest.mark.parametrize(
        "n, m, gens, classes",
        [
            # the path x1-x2-y1-y2: every class a singleton
            (2, 2, ("x1x2", "x2y1", "y1y2"), [0b0001, 0b0010, 0b0100, 0b1000]),
            # I_2 on four variables: one class
            (4, 0, ("x1x2", "x1x3", "x1x4", "x2x3", "x2x4", "x3x4"), [0b1111]),
            # x2 and y1 swap, and x1 and y2: classes that are not runs
            (2, 2, ("x2", "y1"), [0b1001, 0b0110]),
            # x1 with y2 only, x2 and y1 alone
            (2, 2, ("x1y2", "x2"), [0b1001, 0b0010, 0b0100]),
        ],
    )
    def test_explicit_classes(self, n, m, gens, classes):
        a = ideal(Ambient(n, m), *gens)
        assert _swap_classes(a) == classes == swap_classes_by_scan(a)

    def test_cap_spec(self):
        a = realize_spec(MixedProductSpec(Ambient(8, 8), ((4, 5), (6, 3))))
        assert _swap_classes(a) == [0x00FF, 0xFF00] == swap_classes_by_scan(a)

    def test_bit_planes_hold_the_masks_with_each_variable(self):
        for nvars in range(11):
            has = mixprod.invariants._bit_planes(nvars)
            assert has == tuple(
                sum(1 << g for g in range(1 << nvars) if g >> j & 1) for j in range(nvars)
            )


# --- the dual's generator types ------------------------------------------------
# The dual's plan takes the minimal transversal types that _dual expands,
# and the report's dimension reads them; generator types are counted on
# the ideal alone.


def check_dual_types(a, mp):
    """One report on an empty plan cache, with the dual's plan and the
    dimension checked against a count on Berge's dual."""
    gen_types = mixprod.invariants._gen_types
    mp.setattr(mixprod.invariants, "_PLANS", {})
    counted = spy(mp, "_gen_types")
    report = oracle_report(a, GF2)
    plans = mixprod.invariants._PLANS
    classes = plans[(a.ambient, a.gen_masks())].classes
    dual = alexander_dual(a)
    dual_plan = plans[(dual.ambient, dual.gen_masks())]
    assert dual_plan.types == tuple(sorted(gen_types(dual.gen_masks(), classes)))
    assert dual_plan.classes == classes
    assert report.dim == a.ambient.nvars - min(g.degree for g in dual.gens)
    assert counted == [(a.gen_masks(), classes)]


class TestDualTypes:
    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals())
    def test_squarefree_ideals(self, a):
        with pytest.MonkeyPatch.context() as mp:
            check_dual_types(a, mp)

    def test_mixed_specs_up_to_four_by_four(self, monkeypatch):
        specs = mixprod.harness.enumerate_specs(4, 4)
        assert len(specs) == 600
        for spec in specs:
            check_dual_types(realize_spec(spec), monkeypatch)


# --- Alexander duality inside W ----------------------------------------------
# hochster_betti takes, at each W, the homology of Delta|_W, read off the
# generator types, or of its Alexander dual inside W, whichever
# _choose_side picks. Forcing each side in turn must give the same tables
# as the independent oracle and the full primal walk.


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty Betti memo and no walk plans for one test, so that every
    non-cone W it walks misses; the process-wide state is put back
    afterwards."""
    monkeypatch.setattr(mixprod.invariants, "_BETTI_AT", {})
    monkeypatch.setattr(mixprod.invariants, "_PLANS", {})


_restricted_types = mixprod.invariants._restricted_types
_restricted_facets = mixprod.invariants._restricted_facets
_types_bound = mixprod.invariants._types_bound


def _face_bound(facets):
    """sum(2^|F|) over the facets F: at least the number of faces."""
    return sum(1 << f.bit_count() for f in facets)


def primal_facets(w, classes, types):
    """The facets of Delta|_W read off the generator types, as _choose_side
    expands them when Delta|_W wins."""
    return _restricted_facets(w, classes, _restricted_types(w, classes, types)[1])


def canonical(facets):
    """Facets relabelled onto the dense bits of the vertices they use, as
    the homology memo keys them."""
    full = 0
    for f in facets:
        full |= f
    return mixprod.homology._canonical_facets(SimplicialComplex._trusted(full, tuple(facets)))


def relabelled(facets, w):
    """Facets inside w moved onto w's dense bits in order."""
    bits = [b for b in range(w.bit_length()) if w >> b & 1]
    return tuple(sorted(sum(1 << j for j, b in enumerate(bits) if f >> b & 1) for f in facets))


def representatives(classes):
    """Every W that takes the lowest k variables of each class, for each k."""
    prefixes = []
    for c in classes:
        bits = [1 << v for v in range(c.bit_length()) if c >> v & 1]
        prefixes.append([sum(bits[:k]) for k in range(len(bits) + 1)])
    return [sum(parts) for parts in product(*prefixes)]


def forced_side(monkeypatch, dual):
    """Make hochster_betti take one side at every non-cone W, on an empty
    memo; returns the list of its choices."""
    chosen = []

    def choose(local, w, classes, types):
        chosen.append(dual)
        size = w.bit_count()
        if dual:
            full = (1 << size) - 1
            return canonical(sorted(full ^ g for g in local)), (2, 1)
        return canonical(primal_facets(w, classes, types)), (size - 1, -1)

    monkeypatch.setattr(mixprod.invariants, "_BETTI_AT", {})
    monkeypatch.setattr(mixprod.invariants, "_choose_side", choose)
    return chosen


def spy(monkeypatch, name):
    """Record the calls hochster_betti makes to invariants.<name>."""
    calls = []
    fn = getattr(mixprod.invariants, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(mixprod.invariants, name, counting)
    return calls


def dual_bound(gens, w):
    """The face bound of the dual inside W, with the facets W - g over the
    generators g inside W."""
    return sum(1 << (w ^ g).bit_count() for g in gens if g & ~w == 0)


def dual_bound_is_small(gens, w):
    """Whether the dual inside W has the face bound at most 2^(|W|-1)."""
    return dual_bound(gens, w) <= 1 << (w.bit_count() - 1)


def primal_wins(delta, gens, w):
    """Whether _choose_side takes Delta|_W at a non-cone W: the dual's face
    bound is above 2^(|W|-1) and not below that of Delta|_W, the reference
    restrict(delta, w)."""
    return not dual_bound_is_small(gens, w) and _face_bound(
        restrict(delta, w).facets
    ) <= dual_bound(gens, w)


def stanley_reisner_ideal(ambient, facets):
    """The ideal of the non-faces of the complex with these facets."""
    full = ambient.full_mask
    return MonomialIdeal.from_masks(
        ambient, [s for s in range(full + 1) if not any(s & ~f == 0 for f in facets)]
    )


class TestDualityInsideW:
    @settings(max_examples=60, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_each_side_matches_independent_oracle_and_full_walk(self, a, field):
        expected = full_walk_multigraded(a, field)
        for dual in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                chosen = forced_side(mp, dual)
                got = hochster_betti(a, field)
            assert chosen and set(chosen) == {dual}
            assert got.multigraded == expected
            if field == RATIONALS or a.ambient.nvars <= 5:
                assert got.entries == brute_hochster(a.ambient.nvars, supports_of(a))

    @pytest.mark.parametrize("field", [RATIONALS, GF2])
    @pytest.mark.parametrize("dual", [False, True])
    def test_projective_plane(self, monkeypatch, field, dual):
        # RP2 itself is the restriction to all six vertices: over GF(2) it
        # has h~_1 = h~_2 = 1, so beta_{4,V} = beta_{3,V} = 1; over Q none.
        from test_homology import RP2

        amb = Ambient(6, 0)
        a = stanley_reisner_ideal(amb, RP2.facets)
        chosen = forced_side(monkeypatch, dual)
        got = hochster_betti(a, field)
        assert chosen and set(chosen) == {dual}
        assert got.multigraded == full_walk_multigraded(a, field)
        top = {i: r for (i, w), r in got.multigraded.items() if w == amb.full_mask}
        assert top == ({3: 1, 4: 1} if field == GF2 else {})
        if field == RATIONALS:
            assert got.entries == brute_hochster(6, supports_of(a))

    @pytest.mark.parametrize("dual", [False, True])
    def test_vertex_in_every_generator_inside_w(self, monkeypatch, dual):
        # At W = {1,2,3} both generators hold x1, so the dual inside W,
        # with facets {3} and {2}, does not reach x1; the shift still
        # counts |W| = 3: two points, h~_0 = 1, give beta_{2,W} = 1.
        a = ideal(Ambient(3, 0), "x1x2", "x1x3")
        chosen = forced_side(monkeypatch, dual)
        got = hochster_betti(a, GF2)
        assert chosen and set(chosen) == {dual}
        assert got.multigraded == {(0, 0): 1, (1, 0b011): 1, (1, 0b101): 1, (2, 0b111): 1}
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_smaller_face_bound_wins(self, monkeypatch):
        cases = [
            # I_1J_1 at 3x3: Delta|_W is two disjoint triangles (bound 16),
            # the dual has the nine facets W - x_i y_j (bound 144 > 2^5)
            (Ambient(3, 3), [f"x{i}y{j}" for i in (1, 2, 3) for j in (1, 2, 3)], False, True),
            # I_3 + J_3: the dual is two disjoint triangles, 16 <= 2^5, so
            # Delta|_W, the join of two triangle boundaries, is not built
            (Ambient(3, 3), ["x1x2x3", "y1y2y3"], True, False),
            # the dual's bound 8 + 2 passes 2^3, but Delta|_W is a hollow
            # triangle with the bound 12: it is counted, not expanded
            (Ambient(4, 0), ["x3", "x1x2x4"], True, True),
            # I_2 at three variables: both sides are three points, the
            # bounds tie at 6 > 2^2, and the tie goes to Delta|_W
            (Ambient(3, 0), ["x1x2", "x1x3", "x2x3"], False, True),
        ]
        counted = spy(monkeypatch, "_restricted_types")
        expanded = spy(monkeypatch, "_restricted_facets")
        for amb, gens, dual_wins, counts in cases:
            b = ideal(amb, *gens)
            w = amb.full_mask
            classes = _swap_classes(b)
            types = sorted({tuple((g & c).bit_count() for c in classes) for g in b.gen_masks()})
            dual = canonical(sorted(w ^ g for g in b.gen_masks()))
            primal = canonical(restrict(mixprod.homology.stanley_reisner(b), w).facets)
            counted.clear()
            expanded.clear()
            side, degree = mixprod.invariants._choose_side(b.gen_masks(), w, classes, types)
            assert side == (dual if dual_wins else primal)
            assert degree == ((2, 1) if dual_wins else (amb.nvars - 1, -1))
            # Delta|_W is counted only past the dual's small bound, and
            # expanded only when it wins
            assert [args[0] for args in counted] == ([w] if counts else [])
            assert [args[0] for args in expanded] == ([] if dual_wins else [w])
            assert dual_bound_is_small(b.gen_masks(), w) == (not counts)

    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals())
    def test_choice_matches_both_sides_expanded(self, a):
        # at every non-cone representative W, _choose_side, which counts the
        # bound of Delta|_W from the types, picks what a reference picks
        # that expands both sides, Delta|_W by restrict
        gens = a.gen_masks()
        delta = mixprod.homology.stanley_reisner(a)
        classes = _swap_classes(a)
        types = sorted({tuple((g & c).bit_count() for c in classes) for g in gens})
        for w in representatives(classes):
            local = _local_gens(gens, w)
            if not w or local is None:
                continue
            size = w.bit_count()
            dual = canonical(sorted(((1 << size) - 1) ^ g for g in local))
            primal = canonical(relabelled(restrict(delta, w).facets, w))
            expected = (primal, (size - 1, -1)) if primal_wins(delta, gens, w) else (dual, (2, 1))
            assert mixprod.invariants._choose_side(local, w, classes, types) == expected, (a, w)


class TestConeCheck:
    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals())
    def test_generator_cover_agrees_with_facet_intersection(self, a):
        # Delta|_W is a cone iff its facets share a vertex; the walk reads
        # that off the generators inside W instead. A cone W is neither
        # read off the types nor passed to homology. On an empty memo
        # every other W takes one homology, counts Delta|_W off the
        # types only when the dual's face bound is above 2^(|W|-1), and
        # expands it only when it wins.
        delta = mixprod.homology.stanley_reisner(a)
        gens = a.gen_masks()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_PLANS", {})
            plan = mixprod.invariants._walk_plan(a)
        for w in range(1, a.ambient.full_mask + 1):
            common = w
            for f in restrict(delta, w).facets:
                common &= f
            local = _local_gens(gens, w)
            assert (local is None) == bool(common)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mixprod.invariants, "_BETTI_AT", {})
                counted = spy(mp, "_restricted_types")
                expanded = spy(mp, "_restricted_facets")
                homologies = spy(mp, "reduced_homology_ranks")
                if local is not None:
                    _betti_at(plan, w, local, GF2)
            assert len(homologies) == (0 if common else 1)
            counts = not common and not dual_bound_is_small(gens, w)
            expands = not common and primal_wins(delta, gens, w)
            assert [args[0] for args in counted] == ([w] if counts else [])
            assert [args[0] for args in expanded] == ([w] if expands else [])


class TestLocalGens:
    @settings(max_examples=200)
    @given(supports(), st.data())
    def test_bit_by_bit(self, w, data):
        # sorted generators, some inside w, covering it or not, and some
        # sticking out of it; those inside are relabelled onto w's dense
        # bits, or the cone gives None
        inside = data.draw(st.lists(submasks(w), max_size=10))
        if data.draw(st.booleans()):
            inside.append(w & ~reduce(or_, inside, 0))
        others = st.integers(1, (1 << 21) - 1).filter(lambda g: g & ~w)
        gens = tuple(sorted(set(inside + data.draw(st.lists(others, max_size=10))) - {0}))
        expected = [g for g in gens if g & ~w == 0]
        if reduce(or_, expected, 0) == w:
            assert _local_gens(gens, w) == tuple(bit_by_bit(g, w) for g in expected)
        else:
            assert _local_gens(gens, w) is None


class TestNoComplexInTheWalk:
    # The walk reads Delta|_W off the generator types: no Stanley-Reisner
    # complex is built, none is restricted, and no dual comes from Berge.
    def test_oracle_calls_no_complex_and_no_berge(self, fresh_memo, monkeypatch):
        from test_homology import RP2

        def forbidden(*args, **kwargs):
            raise AssertionError("the walk called a complex or Berge routine")

        import mixprod as package

        for module in (package, mixprod.core, mixprod.homology, mixprod.invariants):
            for name in ("restrict", "stanley_reisner", "alexander_dual"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        cases = [
            realize_spec(MixedProductSpec(Ambient(n, m), terms))
            for (n, m), terms in [
                ((3, 3), ((1, 2), (2, 1))),
                ((4, 4), ((2, 2),)),
                ((3, 2), ((0, 1), (3, 0))),
            ]
        ]
        cases.append(ideal(Ambient(2, 2), "x1x2", "x2y1", "y1y2"))
        cases.append(stanley_reisner_ideal(Ambient(6, 0), RP2.facets))
        for a in cases:
            for field in (RATIONALS, GF2):
                report = oracle_report(a, field)
                got = hochster_betti(a, field)
                expected = brute_hochster(a.ambient.nvars, supports_of(a), field.char)
                assert got.entries == expected
                assert report.pd == max(i for i, _ in expected)

    def test_structure(self):
        import inspect

        assert not hasattr(mixprod.invariants, "restrict")
        assert not hasattr(mixprod.invariants, "stanley_reisner")
        assert not hasattr(mixprod.invariants, "alexander_dual")
        assert list(inspect.signature(hochster_betti).parameters) == ["a", "field"]
        fields = mixprod.invariants._WalkPlan.__dataclass_fields__
        assert list(fields) == ["classes", "types", "rows"]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(squarefree_ideals().map(lambda a: (a, None)), stable_ideals()))
    def test_type_read_restriction_is_restrict(self, case):
        # at every representative W, of the ideal and of its dual, the
        # facets read off the types are those of the reference restrict,
        # relabelled onto W's dense bits
        a, classes = case
        for b in (a, alexander_dual(a)):
            if classes is None:
                classes = _swap_classes(b)
            types = sorted({tuple((g & c).bit_count() for c in classes) for g in b.gen_masks()})
            delta = mixprod.homology.stanley_reisner(b)
            for w in representatives(classes):
                got = primal_facets(w, classes, types)
                assert got == relabelled(restrict(delta, w).facets, w), (b, w)
                # the bound counted from the types is that of the facets
                assert _types_bound(*_restricted_types(w, classes, types)) == _face_bound(got)


# --- a memo shared by many ideals ------------------------------------------------
# The Betti memo is keyed on the relabelled generators inside W alone, so a
# table computed after other ideals, their duals and other fields have
# filled it must equal the one computed on an empty memo.


class TestWarmMemo:
    @settings(max_examples=40, deadline=None)
    @given(
        squarefree_ideals(),
        st.lists(squarefree_ideals(), min_size=1, max_size=4),
        st.lists(st.sampled_from([RATIONALS, GF2, GF3]), min_size=2, max_size=2, unique=True),
    )
    def test_warm_table_is_the_cold_table(self, a, others, fields):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_BETTI_AT", {})
            mp.setattr(mixprod.invariants, "_PLANS", {})
            cold = {f: hochster_betti(a, f) for f in fields}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_BETTI_AT", {})
            mp.setattr(mixprod.invariants, "_PLANS", {})
            for b in others:
                for f in fields:
                    oracle_report(b, f)
                    hochster_betti(alexander_dual(b), f)
            for f in fields:
                warm = hochster_betti(a, f)
                assert warm == cold[f]
                assert warm.multigraded == cold[f].multigraded
                assert warm.entries == brute_hochster(a.ambient.nvars, supports_of(a), f.char)

    def test_after_a_foreign_dual(self, fresh_memo):
        # I_1J_2+I_2J_1 at 3x3 after I_1J_1 and its dual, over GF(2) and Q
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        b = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 1),)))
        for field in (GF2, RATIONALS):
            oracle_report(b, field)
            hochster_betti(alexander_dual(b), field)
        for field in (GF2, RATIONALS):
            got = hochster_betti(a, field)
            assert got.entries == brute_hochster(6, supports_of(a), field.char)
            assert got.multigraded == full_walk_multigraded(a, field)


# --- the Betti memo ------------------------------------------------------------
# beta_{i,W} depends only on the generators inside W, so _betti_at memoizes
# it process-wide on those generators, relabelled onto W's dense bits: one
# entry holds the side chosen once and a value per field characteristic.


class TestBettiMemo:
    def test_small_dual_bound_never_restricts(self, fresh_memo, monkeypatch):
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        gens = a.gen_masks()
        delta = mixprod.homology.stanley_reisner(a)
        counted = spy(monkeypatch, "_restricted_types")
        expanded = spy(monkeypatch, "_restricted_facets")
        walked = spy(monkeypatch, "_local_gens")
        got = hochster_betti(a, GF2)
        assert counted and expanded
        assert not any(dual_bound_is_small(gens, w) for w, _, _ in counted)
        # Delta|_W is expanded exactly at the counted W where it wins
        assert [w for w, _, _ in expanded] == [
            w for w, _, _ in counted if primal_wins(delta, gens, w)
        ]
        # the walk does meet nonempty non-cone W (_local_gens not None)
        # with a small dual bound
        assert any(
            w and _local_gens(g, w) is not None and dual_bound_is_small(gens, w)
            for g, w in walked
        )
        assert got.entries == brute_hochster(6, supports_of(a))

    def test_second_walk_is_served_by_the_memo(self, fresh_memo, monkeypatch):
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        restricted = spy(monkeypatch, "_restricted_facets")
        sides = spy(monkeypatch, "_choose_side")
        homologies = spy(monkeypatch, "reduced_homology_ranks")
        first = hochster_betti(a, GF3)
        assert restricted and homologies
        assert len(sides) == len(homologies)
        restricted.clear()
        homologies.clear()
        sides.clear()
        second = hochster_betti(a, GF3)
        assert restricted == [] and homologies == [] and sides == []
        assert second == first
        assert second.entries == brute_hochster(6, supports_of(a), 3)
        assert second.multigraded == full_walk_multigraded(a, GF3)
        # another field takes the homology of each side again, but chooses
        # no side
        third = hochster_betti(a, GF2)
        assert restricted == [] and sides == [] and homologies
        assert third.entries == brute_hochster(6, supports_of(a), 2)

    def test_projective_plane_over_gf2_then_q(self, fresh_memo):
        # The same restricted ideals come back over the second field; the
        # memo must tell the fields apart, as RP2's homology does.
        from test_homology import RP2

        amb = Ambient(6, 0)
        a = stanley_reisner_ideal(amb, RP2.facets)
        for field, top in ((GF2, {3: 1, 4: 1}), (RATIONALS, {})):
            got = hochster_betti(a, field)
            assert got.entries == brute_hochster(6, supports_of(a), field.char)
            assert {i: r for (i, w), r in got.multigraded.items() if w == amb.full_mask} == top


# --- the walk plans ----------------------------------------------------------
# What hochster_betti reads off the generators alone (classes, generator
# types, representatives, orbit sizes) is planned once per ideal, and the
# plans of the last ideal and of its dual are kept, as is realize_spec's
# ideal of the last spec. A sweep asks for one ideal over each field in
# turn.


class TestSharedWalkState:
    def test_projective_plane_over_alternating_fields(self, fresh_memo):
        # RP2's tables differ by field, so a plan or a memo entry carried
        # from one field to the next would show here.
        from test_homology import RP2

        amb = Ambient(6, 0)
        a = stanley_reisner_ideal(amb, RP2.facets)
        dual = alexander_dual(a)
        for field in (RATIONALS, GF2, RATIONALS, GF2):
            report = oracle_report(a, field)
            got, got_dual = hochster_betti(a, field), hochster_betti(dual, field)
            expected = brute_hochster(6, supports_of(a), field.char)
            assert got.entries == expected
            assert got_dual.entries == brute_hochster(6, supports_of(dual), field.char)
            assert got.multigraded == full_walk_multigraded(a, field)
            assert report.pd == max(i for i, _ in expected)
            assert report.reg_of_quotient == max(j - i for i, j in expected)
            assert report.cm == (field == RATIONALS)

    def test_state_holds_only_the_last_ideal_and_its_dual(self):
        specs = [s for s in mixprod.harness.enumerate_specs(3, 3) if s.ambient.nvars >= 2]
        assert len(specs) >= 50
        for spec in specs[:50]:
            a = realize_spec(spec)
            oracle_report(a, GF2)
        dual = alexander_dual(a)
        key, dual_key = (a.ambient, a.gen_masks()), (dual.ambient, dual.gen_masks())
        assert set(mixprod.invariants._PLANS) == {key, dual_key}
        plan = mixprod.invariants._PLANS[key]
        assert mixprod.invariants._dual(a.ambient, plan.classes, plan.types) == dual
        assert realize_spec.cache_info().currsize == 1
        assert realize_spec(specs[49]) is a

    def test_a_self_dual_ideal_pushes_out_no_plan(self, fresh_memo, monkeypatch):
        # a self-dual ideal leaves one plan; the next ideal's plan must
        # outlive the building of its dual's, or each further field
        # rebuilds it and computes the dual again
        amb = Ambient(3, 0)
        self_dual = MonomialIdeal.from_masks(amb, (0b011, 0b101, 0b110))
        assert alexander_dual(self_dual) == self_dual
        oracle_report(self_dual, RATIONALS)
        assert len(mixprod.invariants._PLANS) == 1
        found = spy(monkeypatch, "_swap_classes")
        a = MonomialIdeal.from_masks(amb, (0b011,))
        oracle_report(a, RATIONALS)
        plans = dict(mixprod.invariants._PLANS)
        dual = alexander_dual(a)
        assert set(plans) == {(amb, a.gen_masks()), (amb, dual.gen_masks())}
        for field in (GF2, GF3):
            oracle_report(a, field)
            assert mixprod.invariants._PLANS == plans
            assert all(mixprod.invariants._PLANS[k] is p for k, p in plans.items())
        assert found == [(a,)]

    @pytest.mark.parametrize(
        "n, m, terms", [(4, 4, ((2, 2),)), (3, 2, ((1, 1), (2, 0))), (2, 2, ((1, 1),))]
    )
    def test_the_dual_plan_takes_the_ideal_classes(self, fresh_memo, monkeypatch, n, m, terms):
        # a permutation fixes an ideal exactly when it fixes its dual, so
        # a report finds the classes once, for the ideal's plan
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        dual = alexander_dual(a)
        expected = tuple(_swap_classes(dual))
        assert expected == tuple(_swap_classes(a))
        found = spy(monkeypatch, "_swap_classes")
        oracle_report(a, GF2)
        assert found == [(a,)]
        plans = mixprod.invariants._PLANS
        assert plans[(dual.ambient, dual.gen_masks())].classes == expected

    @pytest.mark.parametrize(
        "ambients, masks",
        [
            ((Ambient(2, 1), Ambient(1, 2)), (0b011, 0b110)),  # one set of variables
            ((Ambient(1, 1), Ambient(2, 1)), (0b01, 0b10)),  # and a free variable
            ((Ambient(2, 2), Ambient(3, 0)), (0b011, 0b110)),
        ],
    )
    def test_one_mask_set_in_two_ambients(self, ambients, masks, monkeypatch):
        ideals = [MonomialIdeal.from_masks(amb, masks) for amb in ambients]
        fresh = {}
        for a in ideals:
            monkeypatch.setattr(mixprod.invariants, "_PLANS", {})
            fresh[a.ambient] = hochster_betti(a, GF3)
        monkeypatch.setattr(mixprod.invariants, "_PLANS", {})
        for a in ideals + ideals:
            got = hochster_betti(a, GF3)
            assert got == fresh[a.ambient]
            assert got.ambient == a.ambient
            # the classes partition this ambient's variables
            assert sum(got.classes) == a.ambient.full_mask
            assert got.entries == brute_hochster(a.ambient.nvars, supports_of(a), 3)
