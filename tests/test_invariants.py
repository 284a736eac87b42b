"""Betti-table oracle and the derived invariant reports."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb, prod
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
from test_homology import bit_by_bit


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


def record_plans(monkeypatch):
    """Record the walk plans hochster_betti builds, in order."""
    plans = []
    build = mixprod.invariants._walk_plan

    def recording(*args):
        plans.append(build(*args))
        return plans[-1]

    monkeypatch.setattr(mixprod.invariants, "_walk_plan", recording)
    return plans


def rows_by_scan(gens, classes):
    """The rows of a walk plan from a scan of the generators at every
    representative W (representatives, prod(|C| + 1) of them): each
    nonempty W that the generators inside it cover, with its key (the
    count vector of W and the distinct count vectors of those generators,
    both over the classes that meet W), |W| and its orbit size."""
    rows = []
    for w in representatives(classes):
        inside = [g for g in gens if g & ~w == 0]
        if not w or reduce(or_, inside, 0) != w:
            continue
        meets = [c for c in classes if c & w]
        types = {tuple((g & c).bit_count() for c in meets) for g in inside}
        key = (tuple((w & c).bit_count() for c in meets), tuple(sorted(types)))
        orbit = prod(comb(c.bit_count(), (w & c).bit_count()) for c in classes)
        rows.append((w, key, w.bit_count(), orbit))
    return tuple(rows)


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
        with pytest.MonkeyPatch.context() as mp:
            plans = record_plans(mp)
            got = hochster_betti(a, field)
        (plan,) = plans
        grid = prod(c.bit_count() + 1 for c in plan.classes)
        assert grid == prod(size + 1 for size in swap_classes_by_pairs(a))
        assert plan.rows == rows_by_scan(a.gen_masks(), plan.classes)
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
    def test_symmetry_gate(self, monkeypatch, n, m, gens, walked):
        a = ideal(Ambient(n, m), *gens)
        plans = record_plans(monkeypatch)
        got = hochster_betti(a, GF2)
        (plan,) = plans
        assert prod(c.bit_count() + 1 for c in plan.classes) == walked
        assert plan.rows == rows_by_scan(a.gen_masks(), plan.classes)
        assert got.entries == brute_hochster(n + m, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_one_alexander_dual_per_report(self, monkeypatch):
        # one dual per report, expanded from the dual types over the
        # ideal's classes, and none by Berge's alexander_dual, also on ideals
        # with more grid points than generators: the path x1-x2-y1-y2 has
        # four singleton classes
        berge = []

        def counting(*args, **kwargs):
            berge.append(args[0])
            return alexander_dual(*args, **kwargs)

        for module in (mixprod.core, mixprod.homology):
            monkeypatch.setattr(module, "alexander_dual", counting)
        monkeypatch.setattr(mixprod.invariants, "_SET_UP", {})
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
            plan = mixprod.invariants._SET_UP[(a.ambient, a.gen_masks())][0]
            dual_types = mixprod.invariants._dual_types(plan.classes, plan.types)
            assert duals == [(a.ambient, plan.classes, dual_types)]
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
        # over the given classes, which may split a swap class
        dual_types = mixprod.invariants._dual_types(
            classes, mixprod.invariants._gen_types(a.gen_masks(), classes)
        )
        got = mixprod.invariants._dual(a.ambient, classes, dual_types)
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
    """One report on an empty set-up, with the dual, the dual's plan and
    the dimension checked against a count on Berge's dual."""
    gen_types = mixprod.invariants._gen_types
    mp.setattr(mixprod.invariants, "_SET_UP", {})
    counted = spy(mp, "_gen_types")
    report = oracle_report(a, GF2)
    plan, dual, dual_plan, dim = mixprod.invariants._SET_UP[(a.ambient, a.gen_masks())]
    classes = plan.classes
    assert dual == alexander_dual(a)
    assert dual_plan.gens == dual.gen_masks()
    assert dual_plan.types == tuple(sorted(gen_types(dual.gen_masks(), classes)))
    assert dual_plan.classes == classes
    assert report.dim == dim == a.ambient.nvars - min(g.degree for g in dual.gens)
    assert counted == [(a.gen_masks(), classes)]


class TestDualTypes:
    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals())
    def test_squarefree_ideals(self, a):
        with pytest.MonkeyPatch.context() as mp:
            check_dual_types(a, mp)

    def test_mixed_specs_up_to_four_by_four(self):
        specs = mixprod.harness.enumerate_specs(4, 4)
        assert len(specs) == 600
        for spec in specs:
            with pytest.MonkeyPatch.context() as mp:
                check_dual_types(realize_spec(spec), mp)


# --- Betti numbers read off the type grid ------------------------------------
# At each W the walk reads beta_{.,W} off the generator types over the
# classes (_corners, _parts): a sum over the corners k of the type grid of
# the homology of small complexes Gamma_k on the classes, which with
# singleton classes is the Alexander dual of Delta|_W inside W. A walk
# builds the corners once per set of classes met, on the box of their full
# sizes, and each row keeps those below its type. Its values are checked
# against the reference restrict(stanley_reisner(b), W), against that dual
# inside W, against the independent oracle, and its parts against a
# reference corner pass on each row's own box (type_cubes_by_box).


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty Betti memo and no report set-up for one test, so that
    every non-cone W it walks misses; the process-wide state is put back
    afterwards."""
    monkeypatch.setattr(mixprod.invariants, "_BETTI_AT", {})
    monkeypatch.setattr(mixprod.invariants, "_SET_UP", {})


def key_at(w, classes, types):
    """The key a plan row at w has: the count vector of w and the sorted
    generator types d <= it, both over the classes that meet w."""
    t = [(w & c).bit_count() for c in classes]
    meets = [j for j, x in enumerate(t) if x]
    inside = [d for d in sorted(types) if all(x <= y for x, y in zip(d, t))]
    return (tuple(t[j] for j in meets), tuple(tuple(d[j] for j in meets) for d in inside))


def parts_on_own_box(key):
    """The parts read at a key off the corners of its own box [0, c]."""
    c, inside = key
    return mixprod.invariants._parts(c, mixprod.invariants._corners(c, inside))


def cubes_at(w, classes, types):
    """The parts read at w off the key a plan row at w has (key_at)."""
    return parts_on_own_box(key_at(w, classes, types))


def type_cubes_by_box(c, inside):
    """Reference: beta_{.,W} at a W of type c as parts (facets, base,
    multiplicity), read row by row off W's own box [0, c] and the types
    inside W: the up-closure of the inside types, its corners, and each
    corner's Gamma_k, its cones left out, merged on (facets, base)."""
    up, axes, nonzero = mixprod.invariants._up_set(c, inside)
    corners = up & ~up << sum(k for k, _ in axes)
    for mask in nonzero:
        corners &= mask
    base, bits = sum(c) + 2, [1 << j for j in range(len(c))]
    parts = {}
    while corners:
        low = corners & -corners
        corners ^= low
        k = [(low.bit_length() - 1) % block // stride for stride, block in axes]
        facets = set()
        for d in inside:
            if all(map(int.__le__, d, k)):
                facets.add(sum(b for b, x, y in zip(bits, d, k) if x < y))
        kept = []
        common = -1
        for u in sorted(facets, key=int.bit_count, reverse=True):
            if all(u & ~v for v in kept):
                kept.append(u)
                common &= u
        if common:
            continue
        key = (mixprod.homology._canonical_facets(tuple(sorted(kept))), base - sum(k))
        parts[key] = parts.get(key, 0) + prod(comb(x - 1, y - 1) for x, y in zip(c, k))
    return tuple((*key, mult) for key, mult in parts.items())


def meets_of(w, classes):
    """The union of the classes that meet w."""
    return sum(c for c in classes if c & w)


def tables_on_a_cold_walk(plan):
    """The sets of classes, each as the union of its classes, that a walk
    of the plan on an empty memo builds a corner table for: those met by a
    row whose key no earlier row has."""
    seen, out = set(), set()
    for w, key, _, _ in plan.rows:
        if key not in seen:
            seen.add(key)
            out.add(meets_of(w, plan.classes))
    return out


def by_types(w, classes, types, field):
    """{i: beta_{i,W}} summed, zeros left out, from the parts read off the
    types (cubes_at); each part's complex is built with the checks of
    SimplicialComplex, so its facets must be a sorted antichain."""
    out = {}
    for facets, base, mult in cubes_at(w, classes, types):
        gamma = SimplicialComplex(reduce(or_, facets, 0), facets)
        for j, h in reduced_homology_ranks(gamma, field).items():
            if h:
                out[base + j] = out.get(base + j, 0) + mult * h
    return out


def by_restrict(delta, w, field):
    """{i: beta_{i,W}} from the reference restrict(delta, w), by Hochster:
    beta_{i,W} = h~_{|W|-i-1}(Delta|_W)."""
    size = w.bit_count()
    ranks = reduced_homology_ranks(restrict(delta, w), field)
    return {size - 1 - k: r for k, r in ranks.items() if r}


def by_dual_inside(gens, w, field):
    """{i: beta_{i,W}} from the Alexander dual of Delta|_W inside W, whose
    facets are W - g over the generators g inside W, by combinatorial
    Alexander duality: beta_{i,W} = h~_{i-2} of the dual."""
    facets = tuple(sorted(w ^ g for g in gens if g & ~w == 0))
    ranks = reduced_homology_ranks(SimplicialComplex(w, facets), field)
    return {k + 2: r for k, r in ranks.items() if r}


def gen_types(gens, classes):
    return sorted({tuple((g & c).bit_count() for c in classes) for g in gens})


def representatives(classes):
    """Every W that takes the lowest k variables of each class, for each k."""
    prefixes = []
    for c in classes:
        bits = [1 << v for v in range(c.bit_length()) if c >> v & 1]
        prefixes.append([sum(bits[:k]) for k in range(len(bits) + 1)])
    return [sum(parts) for parts in product(*prefixes)]


def spy(monkeypatch, name):
    """Record the calls hochster_betti makes to invariants.<name>."""
    calls = []
    fn = getattr(mixprod.invariants, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(mixprod.invariants, name, counting)
    return calls


def stanley_reisner_ideal(ambient, facets):
    """The ideal of the non-faces of the complex with these facets."""
    full = ambient.full_mask
    return MonomialIdeal.from_masks(
        ambient, [s for s in range(full + 1) if not any(s & ~f == 0 for f in facets)]
    )


@st.composite
def many_class_ideals(draw):
    """An ideal on 3 to 9 variables fixed by the permutations inside each
    of 3 to 5 classes, some of them singletons, with those classes: the
    sets of a few random nonzero count vectors, minimalized."""
    k = draw(st.integers(3, 5))
    nvars = draw(st.integers(k, 9))
    extra = st.lists(st.integers(0, k - 1), min_size=nvars - k, max_size=nvars - k)
    labels = draw(st.permutations(list(range(k)) + draw(extra)))
    classes = [sum(1 << v for v, lab in enumerate(labels) if lab == c) for c in range(k)]
    count = st.tuples(*(st.integers(0, c.bit_count()) for c in classes))
    types = set(draw(st.lists(count, min_size=1, max_size=6))) - {(0,) * k}
    assume(types)
    masks = [
        s for s in range(1 << nvars) if tuple((s & c).bit_count() for c in classes) in types
    ]
    n = draw(st.integers(0, nvars))
    return MonomialIdeal.from_masks(Ambient(n, nvars - n), masks), classes


class TestDualityInsideW:
    @settings(max_examples=60, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_each_side_matches_independent_oracle_and_full_walk(self, a, field):
        # both walks of a report, on the ideal and on its Alexander dual,
        # read every W off the types on an empty memo, and a second walk
        # off the memo
        for b in (a, alexander_dual(a)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mixprod.invariants, "_BETTI_AT", {})
                read = spy(mp, "_corners")
                got = hochster_betti(b, field)
                plan = mixprod.invariants._plan_of(b)
                # one corner table per set of classes met by a row whose
                # key no earlier row has, on the box of the classes' sizes
                built = tables_on_a_cold_walk(plan)
                assert len(read) == len(built) <= len({meets_of(w, plan.classes) for w, *_ in plan.rows})
                sizes = sorted(sorted(args[0]) for args in read)
                assert sizes == sorted(sorted(c.bit_count() for c in plan.classes if c & m) for m in built)
                assert all(key in mixprod.invariants._BETTI_AT for _, key, _, _ in plan.rows)
                read.clear()
                assert hochster_betti(b, field) == got
                assert read == []
            assert got.multigraded == full_walk_multigraded(b, field)
            if field == RATIONALS or b.ambient.nvars <= 5:
                assert got.entries == brute_hochster(b.ambient.nvars, supports_of(b), field.char)

    @pytest.mark.parametrize("field", [RATIONALS, GF2])
    @pytest.mark.parametrize("dual", [False, True])
    def test_projective_plane(self, fresh_memo, field, dual):
        # RP2 itself is the restriction to all six vertices: over GF(2) it
        # has h~_1 = h~_2 = 1, so beta_{4,V} = beta_{3,V} = 1; over Q none.
        # Its Alexander dual has h~_j = h~_{3-j} of RP2, which puts the
        # same two numbers at V. No transposition fixes RP2, so every
        # class is a singleton and the walk ranks the dual inside W.
        from test_homology import RP2

        amb = Ambient(6, 0)
        a = stanley_reisner_ideal(amb, RP2.facets)
        b = alexander_dual(a) if dual else a
        assert _swap_classes(b) == [1 << v for v in range(6)]
        got = hochster_betti(b, field)
        assert got.multigraded == full_walk_multigraded(b, field)
        top = {i: r for (i, w), r in got.multigraded.items() if w == amb.full_mask}
        assert top == ({3: 1, 4: 1} if field == GF2 else {})
        if field == RATIONALS:
            assert got.entries == brute_hochster(6, supports_of(b))

    @pytest.mark.parametrize("singletons", [False, True])
    def test_vertex_in_every_generator_inside_w(self, fresh_memo, singletons):
        # At W = {1,2,3} both generators hold x1. Over the swap classes
        # {x1}, {x2,x3} the one corner k = (1,1) that is no cone has
        # Gamma_k = {<empty>}; over singleton classes Gamma_k is the dual
        # inside W, with facets {3} and {2}, which does not reach x1: two
        # points, h~_0 = 1. Either way beta_{2,W} = 1.
        a = ideal(Ambient(3, 0), "x1x2", "x1x3")
        classes = (0b001, 0b010, 0b100) if singletons else tuple(_swap_classes(a))
        assert len(classes) == (3 if singletons else 2)
        types = tuple(gen_types(a.gen_masks(), classes))
        parts = cubes_at(0b111, classes, types)
        assert parts == ((((0b01, 0b10), 2, 1),) if singletons else (((0,), 3, 1),))
        plan = mixprod.invariants._walk_plan(a.gen_masks(), classes, types)
        got = hochster_betti(a, GF2, plan)
        assert got.multigraded == {(0, 0): 1, (1, 0b011): 1, (1, 0b101): 1, (2, 0b111): 1}
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_hand_computed_corners(self):
        cases = [
            # I_1J_1 at 3x3: Delta is two disjoint triangles, h~_0 = 1;
            # the corner (1,1) has Gamma = {<empty>}, the other corners
            # (1,2), (1,3), (2,1), (3,1) give cones
            (Ambient(3, 3), [f"x{i}y{j}" for i in (1, 2, 3) for j in (1, 2, 3)], (((0,), 6, 1),)),
            # I_3 + J_3: the join of two triangle boundaries, h~_3 = 1;
            # at the corner (3,3) Gamma is two points
            (Ambient(3, 3), ["x1x2x3", "y1y2y3"], (((0b01, 0b10), 2, 1),)),
            # x3 and x1x2x4, classes {x1,x2,x4} and {x3}: Delta is a
            # hollow triangle, and Gamma at the corner (3,1) two points
            (Ambient(4, 0), ["x3", "x1x2x4"], (((0b01, 0b10), 2, 1),)),
            # I_2 at three variables: one class, the corner k = 2 with
            # Gamma = {<empty>} and multiplicity C(2, 1); three points
            (Ambient(3, 0), ["x1x2", "x1x3", "x2x3"], (((0,), 3, 2),)),
        ]
        for amb, gens, expected in cases:
            b = ideal(amb, *gens)
            classes = _swap_classes(b)
            types = gen_types(b.gen_masks(), classes)
            assert cubes_at(amb.full_mask, classes, types) == expected
            delta = mixprod.homology.stanley_reisner(b)
            for field in (RATIONALS, GF2):
                got = by_types(amb.full_mask, classes, types, field)
                assert got == by_restrict(delta, amb.full_mask, field)

    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_choice_matches_both_sides_expanded(self, a, field):
        # at every non-cone representative W the type route gives what
        # both old sides give expanded: Delta|_W by restrict, and the
        # Alexander dual inside W
        gens = a.gen_masks()
        delta = mixprod.homology.stanley_reisner(a)
        classes = _swap_classes(a)
        types = gen_types(gens, classes)
        for w, _, _, _ in rows_by_scan(gens, classes):
            got = by_types(w, classes, types, field)
            assert got == by_restrict(delta, w, field) == by_dual_inside(gens, w, field), (a, w)


class TestTypeCubes:
    def test_skeleton_of_a_simplex(self):
        # the (s-1)-skeleton on c vertices has h~_{s-1} = C(c-1, s), the
        # multiplicity of the one corner k = s + 1 of its Stanley-Reisner
        # ideal I_{s+1}: the s + 1 sets are the minimal non-faces
        for c in range(1, 8):
            full = (1 << c) - 1
            for s in range(c + 1):
                facets = tuple(m for m in range(full + 1) if m.bit_count() == s)
                for field in (RATIONALS, GF2, GF3):
                    h = reduced_homology_ranks(SimplicialComplex(full, facets), field)
                    assert h == {i: (comb(c - 1, s) if i == s - 1 else 0) for i in range(-1, s)}
                if s < c:
                    parts = cubes_at(full, (full,), ((s + 1,),))
                    assert parts == (((0,), c + 1 - s, comb(c - 1, s)),)


class TestConeCheck:
    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals())
    def test_generator_cover_agrees_with_facet_intersection(self, a):
        # a nonempty representative W is a row iff the facets of
        # restrict(Delta, W) share no vertex, Delta|_W being a cone
        # otherwise; the plan reads that off the generator types inside W.
        # Over singleton classes every W is a representative. The parts
        # read at each row's key, on its own box, give the Betti numbers of
        # restrict at W, and the homology they take is of complexes on the
        # classes that meet W
        delta = mixprod.homology.stanley_reisner(a)
        gens = a.gen_masks()
        singletons = tuple(1 << v for v in range(a.ambient.nvars))
        for plan in (
            mixprod.invariants._plan_of(a),
            mixprod.invariants._walk_plan(gens, singletons, tuple(gen_types(gens, singletons))),
        ):
            keys = {w: key for w, key, _, _ in plan.rows}
            for w in representatives(plan.classes):
                if not w:
                    continue
                common = w
                for f in restrict(delta, w).facets:
                    common &= f
                assert (w in keys) == (not common)
                if common:
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    read = spy(mp, "_corners")
                    homologies = spy(mp, "_homology_of_faces")
                    got = mixprod.invariants._betti_of((parts_on_own_box(keys[w]), {}), GF2.char)
                assert {i: r for i, r in got.items() if r} == by_restrict(delta, w, GF2)
                # the parts on the key's own box read the corners of that box
                assert read == [keys[w]]
                meeting = sum(1 for c in plan.classes if c & w)
                assert all(reduce(or_, facets, 0) >> meeting == 0 for facets, _ in homologies)


class TestPlanRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            squarefree_ideals().map(lambda a: (a, None)),
            many_class_ideals(),
            canonical_specs().map(lambda spec: (realize_spec(spec), None)),
        ),
        st.booleans(),
    )
    def test_rows_by_generator_scan(self, case, singletons):
        # the rows of the ideal's plan and of its dual's, over the swap
        # classes, the given classes or singleton classes, are the nonempty
        # non-cone representatives with the keys a scan of the generators
        # finds: every grid point the plan drops holds no generator, so it
        # and the points it grows to are cones or empty. Over singleton
        # classes a key's inside types, read as masks, are the generators
        # inside W relabelled onto W's dense bits
        a, given = case
        for b in (a, alexander_dual(a)):
            gens = b.gen_masks()
            if singletons:
                classes = tuple(1 << v for v in range(b.ambient.nvars))
            else:
                classes = tuple(_swap_classes(b) if given is None else given)
            plan = mixprod.invariants._walk_plan(gens, classes, tuple(gen_types(gens, classes)))
            assert plan.rows == rows_by_scan(gens, classes)
            if singletons:
                for w, (c, inside), _, _ in plan.rows:
                    assert c == (1,) * w.bit_count()
                    relabelled = sorted(bit_by_bit(g, w) for g in gens if g & ~w == 0)
                    masks = [sum(x << v for v, x in enumerate(d)) for d in inside]
                    assert sorted(masks) == relabelled


class TestCornerTable:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            squarefree_ideals().map(lambda a: (a, None)),
            many_class_ideals(),
            canonical_specs().map(lambda spec: (realize_spec(spec), None)),
        ),
        st.booleans(),
    )
    def test_walk_parts_are_the_parts_on_each_rows_box(self, case, singletons):
        # at every row of the plan of the ideal and of its dual, over the
        # swap classes, the given classes or singleton classes, the parts
        # a walk on an empty memo keeps, summed from the corner table of
        # the classes the row meets, are those read off the row's key
        # alone, by the corner pass on W's own box
        a, given = case
        for b in (a, alexander_dual(a)):
            gens = b.gen_masks()
            if singletons:
                classes = tuple(1 << v for v in range(b.ambient.nvars))
            else:
                classes = tuple(_swap_classes(b) if given is None else given)
            plan = mixprod.invariants._walk_plan(gens, classes, tuple(gen_types(gens, classes)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mixprod.invariants, "_BETTI_AT", {})
                hochster_betti(b, GF2, plan)
                walked = dict(mixprod.invariants._BETTI_AT)
            for w, key, _, _ in plan.rows:
                expected = type_cubes_by_box(*key)
                assert walked[key][0] == expected, (b, classes, w)
                table = mixprod.invariants._corners(*mixprod.invariants._top_key(plan, w))
                assert mixprod.invariants._parts(key[0], table) == expected
                assert parts_on_own_box(key) == expected


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
        # the walk builds no complex on W and has no side to choose
        for name in (
            "SimplicialComplex", "reduced_homology_ranks", "_choose_side", "_types_bound",
            "_restricted_facets", "_restricted_types", "_local_gens", "_type_cubes",
        ):
            assert not hasattr(mixprod.invariants, name)
        assert list(inspect.signature(hochster_betti).parameters) == ["a", "field", "plan"]
        fields = mixprod.invariants._WalkPlan.__dataclass_fields__
        assert list(fields) == ["gens", "classes", "types", "rows"]

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            squarefree_ideals().map(lambda a: (a, None)), stable_ideals(), many_class_ideals()
        )
    )
    def test_type_read_restriction_is_restrict(self, case):
        # at every nonempty representative W, every row of the walk among
        # them, of the ideal and of its dual, over the given classes or the
        # swap classes, singletons and three or more classes among them,
        # the Betti numbers read off the types are those of the reference
        # restrict over Q, GF(2) and GF(3); a cone W reads none
        a, given = case
        for b in (a, alexander_dual(a)):
            classes = tuple(_swap_classes(b) if given is None else given)
            types = gen_types(b.gen_masks(), classes)
            delta = mixprod.homology.stanley_reisner(b)
            for w in representatives(classes):
                if not w:
                    continue
                for field in (RATIONALS, GF2, GF3):
                    got = by_types(w, classes, types, field)
                    assert got == by_restrict(delta, w, field), (b, classes, w)


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
            mp.setattr(mixprod.invariants, "_SET_UP", {})
            cold = {f: hochster_betti(a, f) for f in fields}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_BETTI_AT", {})
            mp.setattr(mixprod.invariants, "_SET_UP", {})
            for b in others:
                for f in fields:
                    oracle_report(b, f)
                    hochster_betti(alexander_dual(b), f)
            for f in fields:
                warm = hochster_betti(a, f)
                assert warm == cold[f]
                assert warm.multigraded == cold[f].multigraded
                assert warm.entries == brute_hochster(a.ambient.nvars, supports_of(a), f.char)

    def test_walk_order_does_not_depend_on_the_plan_that_filled_the_memo(self, fresh_memo):
        # J_3 + I_1J_1 at 1x3: at W = all four variables the parts read over
        # the swap classes give beta_{3,W} before beta_{2,W}, those over
        # singleton classes the reverse; the memo value is sorted by i, so
        # a table, its walk included, is the same whichever plan filled the
        # memo, and lists i ascending at W over either classes
        a = realize_spec(MixedProductSpec(Ambient(1, 3), ((0, 3), (1, 1))))
        singletons = tuple(1 << v for v in range(4))
        types = tuple(gen_types(a.gen_masks(), singletons))
        plan = mixprod.invariants._walk_plan(a.gen_masks(), singletons, types)
        swapped = mixprod.invariants._plan_of(a)
        assert len(swapped.classes) == 2
        (top,) = [key for w, key, _, _ in swapped.rows if w == 0b1111]
        # Gamma_k = {<empty>} gives i = 4 - 1, listed first; two points give i = 2 + 0
        assert [base for _, base, _ in parts_on_own_box(top)] == [4, 2]
        cold = hochster_betti(a, GF2, plan)
        mixprod.invariants._BETTI_AT.clear()
        swap_walk = hochster_betti(a, GF2)
        assert hochster_betti(a, GF2, plan) == cold
        assert swap_walk.multigraded == cold.multigraded
        for table in (cold, swap_walk):
            assert [i for i, w, _ in table.walk if w == 0b1111] == [2, 3]

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
# beta_{i,W} depends only on the generators inside W, so hochster_betti
# memoizes it process-wide in _BETTI_AT on those generators, relabelled
# onto W's dense bits: one entry holds the parts read off the types once
# and a value per field characteristic.


class TestBettiMemo:
    def test_misses_rank_only_complexes_on_the_classes(self, fresh_memo, monkeypatch):
        # the misses read the types once, into one corner table for the
        # one set of classes the rows meet, both classes, on the box of
        # their sizes, and rank only complexes Gamma_k on the two classes,
        # never a complex on W: I_1J_2+I_2J_1 at 3x3
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        read = spy(monkeypatch, "_corners")
        homologies = spy(monkeypatch, "_homology_of_faces")
        got = hochster_betti(a, GF2)
        plan = mixprod.invariants._plan_of(a)
        assert {meets_of(w, plan.classes) for w, *_ in plan.rows} == {0b111111}
        assert len({key for _, key, _, _ in plan.rows}) > 1
        assert read == [((3, 3), plan.types)]
        assert homologies and all(reduce(or_, facets, 0) < 0b100 for facets, _ in homologies)
        assert got.entries == brute_hochster(6, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_second_walk_is_served_by_the_memo(self, fresh_memo, monkeypatch):
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        read = spy(monkeypatch, "_corners")
        homologies = spy(monkeypatch, "_homology_of_faces")
        first = hochster_betti(a, GF3)
        # one corner table on the cold walk, for its one set of classes
        assert len(read) == 1 and homologies
        assert all(char == 3 for _, char in homologies)
        read.clear()
        homologies.clear()
        second = hochster_betti(a, GF3)
        assert read == [] and homologies == []
        assert second == first
        assert second.entries == brute_hochster(6, supports_of(a), 3)
        assert second.multigraded == full_walk_multigraded(a, GF3)
        # another field takes the homology of each part again, but builds
        # no corner table
        third = hochster_betti(a, GF2)
        assert read == [] and homologies
        assert all(char == 2 for _, char in homologies)
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


# --- the report set-up -------------------------------------------------------
# What oracle_report reads off the generators alone (the ideal's plan, its
# dual, the dual's plan and the dimension) is set up once per ideal, and
# only the last ideal's set-up is kept, as is realize_spec's ideal of the
# last spec. A sweep asks about one ideal over each field in turn.


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
        key = (a.ambient, a.gen_masks())
        assert list(mixprod.invariants._SET_UP) == [key]
        plan, dual, dual_plan, _ = mixprod.invariants._SET_UP[key]
        assert dual == alexander_dual(a)
        assert (plan.gens, dual_plan.gens) == (a.gen_masks(), dual.gen_masks())
        assert realize_spec.cache_info().currsize == 1
        assert realize_spec(specs[49]) is a

    def test_three_fields_share_one_set_up(self, fresh_memo, monkeypatch):
        # reports on one ideal over Q, GF(2) and GF(3) find the classes
        # once and count generator types once, both on the ideal, and
        # expand one dual; a self-dual ideal just before changes none of it
        amb = Ambient(3, 0)
        self_dual = MonomialIdeal.from_masks(amb, (0b011, 0b101, 0b110))
        assert alexander_dual(self_dual) == self_dual
        cases = [
            self_dual,
            MonomialIdeal.from_masks(amb, (0b011,)),
            realize_spec(MixedProductSpec(Ambient(4, 4), ((2, 2),))),
            ideal(Ambient(2, 2), "x1x2", "x2y1", "y1y2"),
        ]
        found = spy(monkeypatch, "_swap_classes")
        counted = spy(monkeypatch, "_gen_types")
        duals = spy(monkeypatch, "_dual")
        for a in cases:
            for calls in (found, counted, duals):
                calls.clear()
            for field in (RATIONALS, GF2, GF3):
                oracle_report(a, field)
            assert found == [(a,)]
            assert counted == [(a.gen_masks(), tuple(_swap_classes(a)))]
            assert len(duals) == 1

    def test_a_self_dual_ideal_is_planned_once(self, fresh_memo, monkeypatch):
        # I_2 at three variables is its own dual: its plan serves both walks
        a = MonomialIdeal.from_masks(Ambient(3, 0), (0b011, 0b101, 0b110))
        assert alexander_dual(a) == a
        planned = spy(monkeypatch, "_walk_plan")
        report = oracle_report(a, GF2)
        assert len(planned) == 1
        plan, dual, dual_plan, _ = mixprod.invariants._SET_UP[(a.ambient, a.gen_masks())]
        assert dual == a and dual_plan is plan
        assert report.reg_of_ideal == 2 and report.pd == 2
        # a dual that is not the ideal takes a plan of its own
        oracle_report(realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 1),))), GF2)
        assert len(planned) == 3

    @pytest.mark.parametrize(
        "n, m, terms", [(4, 4, ((2, 2),)), (3, 2, ((1, 1), (2, 0))), (2, 2, ((1, 1),))]
    )
    def test_the_dual_plan_takes_the_ideal_classes(self, fresh_memo, monkeypatch, n, m, terms):
        # a permutation fixes an ideal exactly when it fixes its dual, so
        # a report finds the classes once, for the ideal's plan, and the
        # dual's plan holds the types of Berge's dual over them
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        dual = alexander_dual(a)
        expected = tuple(_swap_classes(dual))
        assert expected == tuple(_swap_classes(a))
        found = spy(monkeypatch, "_swap_classes")
        oracle_report(a, GF2)
        assert found == [(a,)]
        dual_plan = mixprod.invariants._SET_UP[(a.ambient, a.gen_masks())][2]
        assert dual_plan.classes == expected
        types = {tuple((g & c).bit_count() for c in expected) for g in dual.gen_masks()}
        assert dual_plan.types == tuple(sorted(types))

    @pytest.mark.parametrize(
        "ambients, masks",
        [
            ((Ambient(2, 1), Ambient(1, 2)), (0b011, 0b110)),  # one set of variables
            ((Ambient(1, 1), Ambient(2, 1)), (0b01, 0b10)),  # and a free variable
            ((Ambient(2, 2), Ambient(3, 0)), (0b011, 0b110)),
        ],
    )
    def test_one_mask_set_in_two_ambients(self, ambients, masks, monkeypatch):
        # the set-up is kept under the ambient with the masks, so one mask
        # set in two ambients gets two set-ups, each with its own dual
        ideals = [MonomialIdeal.from_masks(amb, masks) for amb in ambients]
        fresh = {}
        for a in ideals:
            monkeypatch.setattr(mixprod.invariants, "_SET_UP", {})
            fresh[a.ambient] = (oracle_report(a, GF3), hochster_betti(a, GF3))
        monkeypatch.setattr(mixprod.invariants, "_SET_UP", {})
        for a in ideals + ideals:
            report = oracle_report(a, GF3)
            plan, dual, _, _ = mixprod.invariants._set_up(a)
            assert dual == alexander_dual(a)
            got = hochster_betti(a, GF3, plan)
            assert (report, got) == fresh[a.ambient]
            assert got.ambient == a.ambient
            # the classes partition this ambient's variables
            assert sum(got.classes) == a.ambient.full_mask
            assert got.entries == brute_hochster(a.ambient.nvars, supports_of(a), 3)


# --- the plan oracle_report passes ------------------------------------------------
# oracle_report walks the ideal, then its dual, on the plans of its set-up,
# through the module-global hochster_betti; the benchmark's traced run
# wraps that name and reads the ideal as its first argument.


class TestGivenPlan:
    @settings(max_examples=60, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_given_plan_gives_the_table_walked_alone(self, a, field):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_SET_UP", {})
            oracle_report(a, field)
            plan, dual, dual_plan, _ = mixprod.invariants._SET_UP[(a.ambient, a.gen_masks())]
        for b, given_plan in ((a, plan), (dual, dual_plan)):
            got, alone = hochster_betti(b, field, given_plan), hochster_betti(b, field)
            assert got == alone
            assert got.multigraded == alone.multigraded

    @pytest.mark.parametrize(
        "other",
        [
            MonomialIdeal.from_masks(Ambient(2, 1), (0b011,)),  # other generators
            MonomialIdeal.from_masks(Ambient(2, 1), (0b010, 0b101)),  # the dual
            MonomialIdeal.from_masks(Ambient(2, 2), (0b011, 0b110)),  # one more variable
        ],
    )
    def test_plan_of_another_ideal_is_refused(self, other):
        a = MonomialIdeal.from_masks(Ambient(2, 1), (0b011, 0b110))
        assert alexander_dual(a).gen_masks() == (0b010, 0b101)
        with pytest.raises(ValueError, match="another ideal"):
            hochster_betti(a, GF2, mixprod.invariants._plan_of(other))

    @pytest.mark.parametrize(
        "a",
        [
            realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1)))),
            MonomialIdeal.from_masks(Ambient(3, 0), (0b011, 0b101, 0b110)),  # self-dual
        ],
    )
    def test_report_walks_the_ideal_then_its_dual(self, monkeypatch, a):
        walks = spy(monkeypatch, "hochster_betti")
        oracle_report(a, GF2)
        assert [args[:2] for args in walks] == [(a, GF2), (alexander_dual(a), GF2)]
        assert walks[0][0] is a
