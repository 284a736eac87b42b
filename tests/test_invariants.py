"""Betti-table oracle and the derived invariant reports."""

from fractions import Fraction
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, product
from math import comb, prod
from operator import and_, or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mixprod.core
import mixprod.harness
import mixprod.homology
import mixprod.invariants
import mixprod.reference
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

    def test_reductions_match_the_generator_definition(self):
        # pd is the largest i and the regularity the largest j - i over the
        # keys (i, j), on every table up to 5x5, of the ideal and of its
        # dual, over Q, GF(2) and GF(3)
        for spec in mixprod.harness.enumerate_specs(5, 5):
            plan, dual_plan, _ = mixprod.invariants._set_up(realize_spec(spec))
            for p in (plan, dual_plan):
                for field in (RATIONALS, GF2, GF3):
                    b = hochster_betti(p.ideal, field, p)
                    expected = (max(i for i, _ in b.entries), max(j - i for i, j in b.entries))
                    assert betti_stats(b) == expected, (spec, field)


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

    def test_typed_ideal_expands_no_mask(self, monkeypatch):
        # the degrees are the sums of the types of one plan, which
        # hochster_betti takes: a realized ideal expands no mask and no
        # indicator, and is planned once; the same generator set built
        # from masks gives the same answer
        specs = [
            MixedProductSpec(Ambient(3, 3), terms)
            for terms in (
                ((2, 2),), ((1, 2), (2, 1)), ((0, 2), (2, 0)), ((1, 1), (2, 0)), ((0, 2), (3, 0))
            )
        ]
        expected = []
        for spec in specs:
            masked = MonomialIdeal.from_masks(spec.ambient, realize_spec(spec).gen_masks())
            expected.append(has_linear_resolution(masked, GF2))
        # I_2 + J_2 is equigenerated, with reg 3; I_3 + J_2 is not
        assert expected == [True, True, False, True, False]

        def forbidden(*args, **kwargs):
            raise AssertionError("a mask was expanded")

        monkeypatch.setattr(MonomialIdeal, "gen_masks", forbidden)
        monkeypatch.setattr(mixprod.core, "_masks_of_indicator", forbidden)
        monkeypatch.setattr(mixprod.core, "_indicator_of_types", forbidden)
        planned = spy(monkeypatch, "_walk_plan")
        for spec, linear in zip(specs, expected):
            realize_spec.cache_clear()
            a = realize_spec(spec)
            planned.clear()
            assert has_linear_resolution(a, GF2) == linear
            assert len(planned) == 1
            assert not {"_masks", "gens", "indicator"} & set(vars(a))


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


def walk_totals(table):
    """The totals summed from a table's walk: each beta_{i,W} at a
    representative W counts once for every member of W's orbit."""
    out = {}
    for i, w, r in table.walk:
        orbit = prod(comb(c.bit_count(), (w & c).bit_count()) for c in table.classes)
        out[(i, w.bit_count())] = out.get((i, w.bit_count()), 0) + r * orbit
    return out


def class_sets(classes, types):
    """The unions of the sets M of classes whose generator types supported
    in M, those that vanish off M, hit each class of M, found by testing
    every M: the keys of the corner tables a plan builds."""
    out = set()
    for size in range(1, len(classes) + 1):
        for meets in combinations(range(len(classes)), size):
            inside = [d for d in types if not any(x for j, x in enumerate(d) if j not in meets)]
            if all(any(d[j] for d in inside) for j in meets):
                out.add(sum(classes[j] for j in meets))
    return out


def projected_tables(plan):
    """(the union of M, its corner table, the sizes of M's classes, the
    types supported in M) per corner table of a plan: the generator types
    that vanish off the set M of classes, projected onto M's classes."""
    for union, table in plan.tables.items():
        meets = [j for j, c in enumerate(plan.classes) if c & union]
        inside = [
            tuple(d[j] for j in meets)
            for d in plan.types
            if not any(x for j, x in enumerate(d) if j not in meets)
        ]
        yield union, table, [plan.classes[j].bit_count() for j in meets], inside


def check_walk(table, gens):
    """The walk of a table lists Betti numbers only at rows, the nonempty
    representatives W that the generators inside W cover (rows_by_scan),
    its orbit-weighted sum is the table's totals, and the plan holds one
    corner table per class set of class_sets."""
    plan = table.plan
    rows = {w for w, *_ in rows_by_scan(gens, plan.classes)}
    assert {w for _, w, _ in table.walk} - {0} <= rows
    assert walk_totals(table) == table.entries
    assert set(plan.tables) == class_sets(plan.classes, plan.types)


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
        assert got.plan is plan
        check_walk(got, a.gen_masks())
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
        check_walk(got, a.gen_masks())
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

        monkeypatch.setattr(mixprod.reference, "alexander_dual", counting)
        mixprod.invariants._set_up.cache_clear()
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
            plan = mixprod.invariants._set_up(a)[0]
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

def swap_classes(a):
    """The swap classes of `a`, read off the indicator of its generators."""
    return mixprod.invariants._swap_classes(a.indicator, a.ambient.nvars)


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
        points = prod(c.bit_count() + 1 for c in swap_classes(a))
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
            classes, gen_types(a.gen_masks(), classes)
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
        assert swap_classes(a) == swap_classes_by_scan(a)

    @settings(max_examples=100, deadline=None)
    @given(wide_ideals())
    def test_sixteen_variables_match_the_scan(self, a):
        assert swap_classes(a) == swap_classes_by_scan(a)

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
        assert swap_classes(a) == classes == swap_classes_by_scan(a)

    def test_cap_spec(self):
        a = realize_spec(MixedProductSpec(Ambient(8, 8), ((4, 5), (6, 3))))
        assert swap_classes(a) == [0x00FF, 0xFF00] == swap_classes_by_scan(a)

    def test_bit_planes_hold_the_masks_with_each_variable(self):
        for nvars in range(11):
            has = mixprod.invariants._bit_planes(nvars)
            assert has == tuple(
                sum(1 << g for g in range(1 << nvars) if g >> j & 1) for j in range(nvars)
            )


# --- the typed form -------------------------------------------------------------
# realize_spec's ideal and the set-up's dual hold the typed form, the swap
# classes with the types over them (MonomialIdeal._from_types, which drops
# empty blocks and merges interchangeable ones), and _types_of returns it
# as it is. The delta-swap route on the same generator set, held as an
# indicator alone, is the reference.


def delta_swap_types(b):
    """The classes and types the delta-swap route reads off the indicator
    of the generator set of `b`."""
    return mixprod.invariants._types_of(MonomialIdeal._made(b.ambient, indicator=b.indicator))


@st.composite
def typed_cases(draw):
    """(ambient, blocks, types, masks): blocks that partition at most 8
    variables and types over them, for MonomialIdeal._from_types, with the
    masks of every set of those types. The nonzero types, an antichain
    (the zero ideal and the unit ideal are left to explicit cases), are drawn
    over a coarse partition whose classes are then cut into blocks, each
    type spread over a class's blocks in every way, so that the blocks of
    one class merge back; up to two empty blocks are put in, and the
    blocks come in a random order."""
    nvars = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
    coarse = [sum(1 << v for v, k in enumerate(labels) if k == lab) for lab in sorted(set(labels))]
    count = st.tuples(*(st.integers(0, c.bit_count()) for c in coarse)).filter(any)
    drawn = set(draw(st.lists(count, min_size=1, max_size=5)))
    # the minimal ones: the sets of these types are then an antichain
    types = {t for t in drawn if not any(d != t and all(map(int.__le__, d, t)) for d in drawn)}
    blocks, spreads = [], []
    for c in coarse:
        members = [1 << v for v in range(c.bit_length()) if c >> v & 1]
        cuts = draw(st.lists(st.booleans(), min_size=len(members) - 1, max_size=len(members) - 1))
        parts = [members[0]]
        for member, cut in zip(members[1:], cuts):
            if cut:
                parts.append(member)
            else:
                parts[-1] |= member
        blocks.extend(parts)
        # per count x, the ways to spread x variables over these parts
        ways = list(product(*(range(p.bit_count() + 1) for p in parts)))
        spreads.append({x: [w for w in ways if sum(w) == x] for x in range(len(members) + 1)})
    fine = [
        sum(spread, ())
        for t in types
        for spread in product(*(by_count[x] for by_count, x in zip(spreads, t)))
    ]
    empty = draw(st.integers(0, 2))
    blocks += [0] * empty
    order = draw(st.permutations(range(len(blocks))))
    blocks = [blocks[i] for i in order]
    fine = [tuple((t + (0,) * empty)[i] for i in order) for t in fine]
    masks = [
        g for g in range(1 << nvars) if tuple((g & c).bit_count() for c in coarse) in types
    ]
    n = draw(st.integers(0, nvars))
    return Ambient(n, nvars - n), blocks, fine, masks


class TestTypedForm:
    def test_every_spec_up_to_eight_by_eight(self):
        # realize_spec's ideal and its set-up dual hold the classes and
        # types the delta-swap route reads off their indicators, and the
        # dual holds the ideal's classes with the dual types as the set-up
        # passed them: the typed dual is already the coarsest form, as a
        # permutation fixes an ideal iff it fixes its dual
        specs = mixprod.harness.enumerate_specs(8, 8)
        assert len(specs) == 16344
        merged = 0
        for spec in specs:
            a = realize_spec(spec)
            plan, dual_plan, _ = mixprod.invariants._set_up(a)
            dual_types = mixprod.invariants._dual_types(plan.classes, plan.types)
            assert dual_plan.ideal._typed == (plan.classes, dual_types), spec
            for b in (a, dual_plan.ideal):
                assert mixprod.invariants._types_of(b) is b._typed
                assert b._typed == delta_swap_types(b), (spec, b)
            amb = spec.ambient
            merged += len(a._typed[0]) < (amb.n > 0) + (amb.m > 0)
        # the specs whose two blocks are one swap class, I_1J_1 at 1x1 among them
        assert merged == 233

    @pytest.mark.parametrize(
        "n, m, terms, typed",
        [
            (1, 1, ((1, 1),), ((0b11,), ((2,),))),  # I_1J_1: x1 and y1 swap
            (2, 2, ((0, 1), (1, 0)), ((0b1111,), ((1,),))),  # J_1 + I_1
            (2, 2, ((0, 2), (2, 0)), ((0b0011, 0b1100), ((0, 2), (2, 0)))),  # J_2 + I_2
            (3, 0, ((2, 0),), ((0b111,), ((2,),))),  # no y-block
            (0, 3, ((0, 1),), ((0b111,), ((1,),))),  # no x-block
            (2, 2, ((0, 0),), ((0b1111,), ((0,),))),  # the unit ideal
            (3, 2, ((1, 1), (2, 0)), ((0b00111, 0b11000), ((1, 1), (2, 0)))),
        ],
    )
    def test_empty_blocks_drop_and_interchangeable_blocks_merge(self, n, m, terms, typed):
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        assert a._typed == typed == delta_swap_types(a)

    @settings(max_examples=200, deadline=None)
    @given(typed_cases())
    def test_random_blocks_and_types(self, case):
        # over blocks that may be empty or interchangeable, in any order,
        # the typed form is the one the delta-swap route reads off the
        # generator set built from masks, and the two ideals are equal
        amb, blocks, types, masks = case
        typed = MonomialIdeal._from_types(amb, blocks, types)
        masked = MonomialIdeal.from_masks(amb, masks)
        assert typed._typed == mixprod.invariants._types_of(masked)
        assert typed == masked and masked == typed and hash(typed) == hash(masked)
        assert typed.gen_masks() == masked.gen_masks()
        # the typed form is a fixed point of the constructor
        assert MonomialIdeal._from_types(amb, *typed._typed)._typed == typed._typed

    @pytest.mark.parametrize("blocks", [(0b011, 0b100), (0b001, 0, 0b110)])
    def test_the_zero_ideal(self, blocks):
        # no type: every block merges into one class, as the delta-swap
        # route finds on the empty generator set
        amb = Ambient(1, 2)
        typed = MonomialIdeal._from_types(amb, blocks, ())
        zero = MonomialIdeal.zero(amb)
        assert typed._typed == ((0b111,), ()) == mixprod.invariants._types_of(zero)
        assert typed.is_zero and not typed.is_unit and not typed.is_proper_nonzero
        assert typed == zero and hash(typed) == hash(zero)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(squarefree_ideals(), stable_ideals().map(lambda case: case[0])))
    def test_the_dual_keeps_the_ideal_classes(self, a):
        # over the swap classes of any ideal, the constructor keeps the
        # classes and the dual types as they are given
        assume(a.is_proper_nonzero)
        classes, types = mixprod.invariants._types_of(a)
        dual_types = mixprod.invariants._dual_types(classes, types)
        dual = mixprod.invariants._dual(a.ambient, classes, dual_types)
        assert dual._typed == (classes, dual_types)
        assert dual == alexander_dual(a)


# --- the dual's generator types ------------------------------------------------
# The dual's plan takes the minimal transversal types that _dual expands,
# and the report's dimension reads them; generator types are read off the
# ideal's indicator alone.


def check_dual_types(a, mp):
    """One report on an empty set-up, with the ideal's types, the dual,
    the dual's plan and the dimension checked against a count on each
    generator of the ideal and of Berge's dual; the types are read once,
    off the ideal's indicator, for an ideal built from masks, and a typed
    ideal (realize_spec's) is planned on the typed form it holds, with no
    indicator built or read."""
    mixprod.invariants._set_up.cache_clear()
    typed = a._typed
    found, counted, built = indicator_route(mp)
    report = oracle_report(a, GF2)
    route = (list(found), list(counted), list(built))
    plan, dual_plan, dim = mixprod.invariants._set_up(a)
    dual = dual_plan.ideal
    classes = plan.classes
    assert plan.types == tuple(gen_types(a.gen_masks(), classes))
    assert dual == alexander_dual(a)
    assert dual_plan.ideal == dual
    assert dual_plan.types == tuple(gen_types(dual.gen_masks(), classes))
    assert dual_plan.classes == classes
    assert report.dim == dim == a.ambient.nvars - min(g.degree for g in dual.gens)
    if typed is None:
        assert counted == [(a.indicator, a.ambient.nvars, classes)]
    else:
        assert route == ([], [], [])
        assert (plan.classes, plan.types) == typed
        assert classes == tuple(swap_classes(a))


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
# At each W, beta_{.,W} is read off the generator types over the classes
# (_corners, _parts): a sum over the corners k of the type grid of the
# homology of small complexes Gamma_k on the classes, which with singleton
# classes is the Alexander dual of Delta|_W inside W. A plan builds the
# corners once per set of classes M, from the lcm lattice of the types
# supported in M, and a W meeting M keeps those below its type. The values
# are checked against the reference restrict(stanley_reisner(b), W),
# against that dual inside W, against the independent oracle, the parts
# against a reference corner pass on each row's own box (type_cubes_by_box),
# and the corner tables against a scan of the staircase of the up-closure
# of the types on the box of M's sizes (corners_by_staircase), whose
# points that are no lcm of types are cones (staircase_points).


@pytest.fixture
def fresh_set_up():
    """No report set-up for one test, so that its first report on an ideal
    plans it."""
    mixprod.invariants._set_up.cache_clear()


def key_at(w, classes, types):
    """The key a plan row at w has: the count vector of w and the sorted
    generator types d <= it, both over the classes that meet w."""
    t = [(w & c).bit_count() for c in classes]
    meets = [j for j, x in enumerate(t) if x]
    inside = [d for d in sorted(types) if all(x <= y for x, y in zip(d, t))]
    return (tuple(t[j] for j in meets), tuple(tuple(d[j] for j in meets) for d in inside))


def parts_on_own_box(key):
    """The parts read at a key off the corners of the types inside W, all
    in its own box [0, c]."""
    c, inside = key
    return mixprod.invariants._parts(c, mixprod.invariants._corners(inside))


def cubes_at(w, classes, types):
    """The parts read at w off the key a plan row at w has (key_at)."""
    return parts_on_own_box(key_at(w, classes, types))


def staircase_points(sizes, types):
    """Reference: each point k of the staircase of the up-closure of
    `types` on the box prod [0, s_C] of `sizes` (_up_set), in ascending
    order: k in the up-closure, each k_C >= 1 and k - 1 outside it, with
    the facets of its Gamma_k, the U_d = {C : d_C < k_C} over the types
    d <= k that no other holds, and their intersection, nonzero iff
    Gamma_k is a cone."""
    up, axes, nonzero = mixprod.invariants._up_set(sizes, types)
    points = up & ~up << sum(k for k, _ in axes)
    for mask in nonzero:
        points &= mask
    bits = [1 << j for j in range(len(sizes))]
    while points:
        low = points & -points
        points ^= low
        k = tuple((low.bit_length() - 1) % block // stride for stride, block in axes)
        facets = set()
        for d in types:
            if all(map(int.__le__, d, k)):
                facets.add(sum(b for b, x, y in zip(bits, d, k) if x < y))
        kept = []
        common = -1
        for u in sorted(facets, key=int.bit_count, reverse=True):
            if all(u & ~v for v in kept):
                kept.append(u)
                common &= u
        yield k, tuple(sorted(kept)), common


def corners_by_staircase(sizes, types):
    """Reference: the corner table of `types` (as _corners) read off the
    staircase on the box of `sizes`, its cones left out."""
    return tuple(
        (tuple(x - 1 for x in k), mixprod.homology._canonical_facets(kept), sum(k))
        for k, kept, common in staircase_points(sizes, types)
        if not common
    )


def type_cubes_by_box(c, inside):
    """Reference: beta_{.,W} at a W of type c as parts (facets, base,
    multiplicity), read row by row off W's own box [0, c] and the types
    inside W: the staircase of the inside types and each point's Gamma_k,
    its cones left out, merged on (facets, base)."""
    base = sum(c) + 2
    parts = {}
    for k, kept, common in staircase_points(c, inside):
        if common:
            continue
        key = (mixprod.homology._canonical_facets(kept), base - sum(k))
        parts[key] = parts.get(key, 0) + prod(comb(x - 1, y - 1) for x, y in zip(c, k))
    return tuple((*key, mult) for key, mult in parts.items())


def meets_of(w, classes):
    """The union of the classes that meet w."""
    return sum(c for c in classes if c & w)


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


def spy(monkeypatch, name, module=mixprod.invariants):
    """Record the calls made to <module>.<name>, invariants by default."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def indicator_route(monkeypatch):
    """Spies on the delta-swap route, which reads the swap classes and the
    types off an indicator (_swap_classes, _indicator_types), and on the
    indicator of a typed ideal (core._indicator_of_types)."""
    return (
        spy(monkeypatch, "_swap_classes"),
        spy(monkeypatch, "_indicator_types"),
        spy(monkeypatch, "_indicator_of_types", mixprod.core),
    )


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
        # both sides of a report, the ideal and its Alexander dual, read
        # their totals off a plan built once, and a second table on that
        # plan builds no corner table
        for b in (a, alexander_dual(a)):
            with pytest.MonkeyPatch.context() as mp:
                read = spy(mp, "_corners")
                got = hochster_betti(b, field)
                plan = got.plan
                # one corner table per set of classes that is a union of
                # supports of generator types, from the types projected
                # onto its classes
                built = class_sets(plan.classes, plan.types)
                assert set(plan.tables) == built and len(read) == len(built)
                widths = sorted(len(d) for args in read for d in args[0])
                assert widths == sorted(
                    sum(1 for c in plan.classes if c & m)
                    for m in built
                    for d in plan.types
                    if not any(x for x, c in zip(d, plan.classes) if not c & m)
                )
                read.clear()
                assert hochster_betti(b, field, plan) == got
                assert read == []
            check_walk(got, b.gen_masks())
            assert got.multigraded == full_walk_multigraded(b, field)
            if field == RATIONALS or b.ambient.nvars <= 5:
                assert got.entries == brute_hochster(b.ambient.nvars, supports_of(b), field.char)

    @pytest.mark.parametrize("field", [RATIONALS, GF2])
    @pytest.mark.parametrize("dual", [False, True])
    def test_projective_plane(self, fresh_set_up, field, dual):
        # RP2 itself is the restriction to all six vertices: over GF(2) it
        # has h~_1 = h~_2 = 1, so beta_{4,V} = beta_{3,V} = 1; over Q none.
        # Its Alexander dual has h~_j = h~_{3-j} of RP2, which puts the
        # same two numbers at V. No transposition fixes RP2, so every
        # class is a singleton and the walk ranks the dual inside W.
        from test_homology import RP2

        amb = Ambient(6, 0)
        a = stanley_reisner_ideal(amb, RP2.facets)
        b = alexander_dual(a) if dual else a
        assert swap_classes(b) == [1 << v for v in range(6)]
        got = hochster_betti(b, field)
        assert got.multigraded == full_walk_multigraded(b, field)
        top = {i: r for (i, w), r in got.multigraded.items() if w == amb.full_mask}
        assert top == ({3: 1, 4: 1} if field == GF2 else {})
        if field == RATIONALS:
            assert got.entries == brute_hochster(6, supports_of(b))

    @pytest.mark.parametrize("singletons", [False, True])
    def test_vertex_in_every_generator_inside_w(self, fresh_set_up, singletons):
        # At W = {1,2,3} both generators hold x1. Over the swap classes
        # {x1}, {x2,x3} the one corner k = (1,1) that is no cone has
        # Gamma_k = {<empty>}; over singleton classes Gamma_k is the dual
        # inside W, with facets {3} and {2}, which does not reach x1: two
        # points, h~_0 = 1. Either way beta_{2,W} = 1.
        a = ideal(Ambient(3, 0), "x1x2", "x1x3")
        classes = (0b001, 0b010, 0b100) if singletons else tuple(swap_classes(a))
        assert len(classes) == (3 if singletons else 2)
        types = tuple(gen_types(a.gen_masks(), classes))
        parts = cubes_at(0b111, classes, types)
        assert parts == ((((0b01, 0b10), 2, 1),) if singletons else (((0,), 3, 1),))
        plan = mixprod.invariants._walk_plan(a, classes, types)
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
            classes = swap_classes(b)
            types = gen_types(b.gen_masks(), classes)
            assert cubes_at(amb.full_mask, classes, types) == expected
            delta = mixprod.reference.stanley_reisner(b)
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
        delta = mixprod.reference.stanley_reisner(a)
        classes = swap_classes(a)
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
        # otherwise; that is read off the generator types inside W, and the
        # walk lists nothing at any other W. Over singleton classes every W
        # is a representative. The parts read at each row's key, on its own
        # box, give the Betti numbers of restrict at W, which the walk
        # lists there, and the homology they take is of complexes on the
        # classes that meet W
        delta = mixprod.reference.stanley_reisner(a)
        gens = a.gen_masks()
        singletons = tuple(1 << v for v in range(a.ambient.nvars))
        for plan in (
            mixprod.invariants._walk_plan(a, *mixprod.invariants._types_of(a)),
            mixprod.invariants._walk_plan(a, singletons, tuple(gen_types(gens, singletons))),
        ):
            keys = {w: key for w, key, _, _ in rows_by_scan(gens, plan.classes)}
            walked = {}
            for i, w, r in hochster_betti(a, GF2, plan).walk:
                walked.setdefault(w, {})[i] = r
            for w in representatives(plan.classes):
                if not w:
                    continue
                common = w
                for f in restrict(delta, w).facets:
                    common &= f
                assert (w in keys) == (not common)
                if common:
                    assert w not in walked
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    read = spy(mp, "_corners")
                    homologies = spy(mp, "_homology_of_faces")
                    got = mixprod.invariants._betti_of(parts_on_own_box(keys[w]), GF2.char)
                assert got == by_restrict(delta, w, GF2) == walked.get(w, {})
                # the parts on the key's own box read the corners of the
                # types inside W
                assert read == [(keys[w][1],)]
                meeting = sum(1 for c in plan.classes if c & w)
                assert all(reduce(or_, facets, 0) >> meeting == 0 for facets, _ in homologies)


class TestIndicatorTypes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            squarefree_ideals().map(lambda a: (a, None)),
            many_class_ideals(),
            canonical_specs().map(lambda spec: (realize_spec(spec), None)),
        )
    )
    def test_types_match_the_generator_scan(self, case):
        # the types read off one representative per orbit in the indicator
        # are the count vectors of every generator, for the ideal and for
        # Berge's dual, over the swap classes and over the given classes,
        # whose permutations fix both
        a, given = case
        for b in (a, alexander_dual(a)):
            t, nvars = b.indicator, b.ambient.nvars
            for classes in (tuple(swap_classes(b)), given):
                if classes is not None:
                    got = mixprod.invariants._indicator_types(t, nvars, tuple(classes))
                    assert got == tuple(gen_types(b.gen_masks(), classes)), (b, classes)

    def test_cap_spec(self):
        # the dual by types, which TestDualByTypes checks against Berge's
        a = realize_spec(MixedProductSpec(Ambient(8, 8), ((4, 5), (6, 3))))
        classes = (0x00FF, 0xFF00)
        assert tuple(gen_types(a.gen_masks(), classes)) == ((4, 5), (6, 3))
        for b in (a, dual_by_types(a)):
            t = b.indicator
            got = mixprod.invariants._indicator_types(t, 16, classes)
            assert got == tuple(gen_types(b.gen_masks(), classes))


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
        # the plan of the ideal and of its dual, over the swap classes, the
        # given classes or singleton classes, holds one corner table per
        # set of classes that is a union of supports of generator types,
        # which every row meets, a row being a nonempty non-cone
        # representative that a scan of the generators finds; each table is
        # the corner pass on its classes' sizes and the types supported
        # there, and the walk lists only rows. Over singleton classes a
        # table has at most the one corner k = M, and its Gamma_k is the
        # Alexander dual inside M, with the facets M - g over the
        # generators g inside M, relabelled onto M's dense bits
        a, given = case
        for b in (a, alexander_dual(a)):
            gens = b.gen_masks()
            if singletons:
                classes = tuple(1 << v for v in range(b.ambient.nvars))
            else:
                classes = tuple(swap_classes(b) if given is None else given)
            types = tuple(gen_types(gens, classes))
            plan = mixprod.invariants._walk_plan(b, classes, types)
            check_walk(hochster_betti(b, GF2, plan), gens)
            assert {meets_of(w, classes) for w, *_ in rows_by_scan(gens, classes)} <= set(plan.tables)
            for m, corners, _, inside in projected_tables(plan):
                assert corners == mixprod.invariants._corners(tuple(inside)), (b, classes, m)
                if singletons:
                    facets = tuple(sorted(bit_by_bit(m ^ g, m) for g in gens if g & ~m == 0))
                    common = reduce(and_, facets)
                    size = m.bit_count()
                    gamma = mixprod.homology._canonical_facets(facets)
                    assert corners == (() if common else (((0,) * size, gamma, size),))


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
        # at every row of the ideal and of its dual, over the swap classes,
        # the given classes or singleton classes, the parts read off the
        # plan's corner table of the classes the row meets are those read
        # off the row's key alone, by the corner pass on W's own box, and
        # the walk lists the Betti numbers they give
        a, given = case
        for b in (a, alexander_dual(a)):
            gens = b.gen_masks()
            if singletons:
                classes = tuple(1 << v for v in range(b.ambient.nvars))
            else:
                classes = tuple(swap_classes(b) if given is None else given)
            plan = mixprod.invariants._walk_plan(b, classes, tuple(gen_types(gens, classes)))
            walked = {}
            for i, w, r in hochster_betti(b, GF2, plan).walk:
                walked.setdefault(w, {})[i] = r
            for w, key, _, _ in rows_by_scan(gens, classes):
                expected = type_cubes_by_box(*key)
                table = plan.tables[meets_of(w, classes)]
                assert mixprod.invariants._parts(key[0], table) == expected, (b, classes, w)
                assert parts_on_own_box(key) == expected
                assert mixprod.invariants._betti_of(expected, GF2.char) == walked.get(w, {})


def is_lcm(k, types):
    """Whether k is the componentwise maximum of the types d <= k."""
    below = [d for d in types if all(map(int.__le__, d, k))]
    return bool(below) and tuple(max(x) for x in zip(*below)) == tuple(k)


class TestLcmCorners:
    # _corners reads its candidates off the lcm lattice of the types, not
    # off the staircase of their up-closure: every table equals the
    # staircase scan (corners_by_staircase), and a staircase point that is
    # no lcm of types is a cone
    def test_every_table_up_to_six_by_six(self):
        specs = mixprod.harness.enumerate_specs(6, 6)
        tables = off = 0
        for spec in specs:
            plan, dual_plan, _ = mixprod.invariants._set_up(realize_spec(spec))
            for p in (plan, dual_plan):
                for _, table, sizes, inside in projected_tables(p):
                    tables += 1
                    assert table == corners_by_staircase(sizes, inside), (spec, sizes, inside)
                    for k, _, common in staircase_points(sizes, inside):
                        if not is_lcm(k, inside):
                            off += 1
                            assert common, (spec, inside, k)
        assert (len(specs), tables, off) == (3871, 14642, 28420)

    def test_cones_off_the_lattice_of_one_spec(self):
        # I_2J_5+I_4J_1 at 6x6: 10 staircase points, 7 of them cones, and
        # the other 3 the lcms of the types
        a = realize_spec(MixedProductSpec(Ambient(6, 6), ((2, 5), (4, 1))))
        ((_, table, sizes, inside),) = projected_tables(mixprod.invariants._set_up(a)[0])
        points = list(staircase_points(sizes, inside))
        assert len(points) == 10
        assert [k for k, _, common in points if not common] == [(2, 5), (4, 1), (4, 5)]
        assert all(not is_lcm(k, inside) for k, _, common in points if common)
        assert [tuple(x + 1 for x in below) for below, _, _ in table] == [(2, 5), (4, 1), (4, 5)]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(squarefree_ideals(), many_class_ideals().map(lambda case: case[0])))
    def test_singleton_classes(self, a):
        # with singleton classes a type is a generator and an lcm a union
        # of generators; the plan of the ideal and of its dual
        for b in (a, alexander_dual(a)):
            gens = b.gen_masks()
            classes = tuple(1 << v for v in range(b.ambient.nvars))
            plan = mixprod.invariants._walk_plan(b, classes, tuple(gen_types(gens, classes)))
            for _, table, sizes, inside in projected_tables(plan):
                assert table == corners_by_staircase(sizes, inside), (b, inside)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            squarefree_ideals().map(lambda a: (a, None)),
            many_class_ideals(),
            canonical_specs().map(lambda spec: (realize_spec(spec), None)),
        ),
        st.booleans(),
    )
    def test_staircase_points_off_the_lcm_lattice_are_cones(self, case, singletons):
        a, given = case
        for b in (a, alexander_dual(a)):
            gens = b.gen_masks()
            if singletons:
                classes = tuple(1 << v for v in range(b.ambient.nvars))
            else:
                classes = tuple(swap_classes(b) if given is None else given)
            plan = mixprod.invariants._walk_plan(b, classes, tuple(gen_types(gens, classes)))
            for *_, sizes, inside in projected_tables(plan):
                for k, _, common in staircase_points(sizes, inside):
                    assert is_lcm(k, inside) or common, (b, classes, k)


def one_class_poly(s, k):
    """P_{s,k}(x) = sum_{c=k..s} C(s, c) C(c - 1, k - 1) x^c, coefficients
    from x^0 up to x^s."""
    return [comb(s, c) * comb(c - 1, k - 1) if c >= k else 0 for c in range(s + 1)]


class TestCornerMemo:
    # the corner tables and the products of the corner polynomials are
    # process-wide memos, keyed on what each depends on alone: the types
    # projected onto a set of classes, and the sorted pairs (s_C, k_C) of
    # a corner
    def test_every_table_up_to_six_by_six_is_the_uncached_pass(self):
        for spec in mixprod.harness.enumerate_specs(6, 6):
            plan, dual_plan, _ = mixprod.invariants._set_up(realize_spec(spec))
            for p in (plan, dual_plan):
                for _, table, _, inside in projected_tables(p):
                    inside = tuple(inside)
                    assert table == mixprod.invariants._corners.__wrapped__(inside), (spec, inside)

    def test_one_table_per_distinct_projected_types(self, fresh_set_up):
        # a 4x4 sweep builds each table once: the memo holds one entry per
        # distinct tuple of projected types over the plans of every spec
        # and its dual, and every other call is a hit
        corners = mixprod.invariants._corners
        corners.cache_clear()
        cfg = mixprod.harness.SweepConfig(4, 4, (RATIONALS, GF2, GF3), False)
        assert not mixprod.harness.run_sweep(cfg).mismatches
        info = corners.cache_info()
        seen = set()
        for spec in mixprod.harness.enumerate_specs(4, 4):
            plan, dual_plan, _ = mixprod.invariants._set_up(realize_spec(spec))
            for p in (plan, dual_plan):
                seen.update(tuple(inside) for *_, inside in projected_tables(p))
        assert info.currsize == info.misses == len(seen), (info, len(seen))
        assert info.hits > info.misses

    def test_pair_products_in_every_order(self):
        # the product of the one-class polynomials, whatever the order of
        # the pairs, for sizes up to 8: every one- and two-class product,
        # and the three-class ones with sizes up to 4
        pairs = [(s, k) for s in range(1, 9) for k in range(1, s + 1)]
        small = [(s, k) for s, k in pairs if s <= 4]
        keys = [(p,) for p in pairs] + list(product(pairs, repeat=2)) + list(product(small, repeat=3))
        for key in keys:
            expected = [1]
            for s, k in key:
                p = one_class_poly(s, k)
                out = [0] * (len(expected) + len(p) - 1)
                for a, x in enumerate(expected):
                    for b, y in enumerate(p):
                        out[a + b] += x * y
                expected = out
            assert list(mixprod.invariants._corner_poly(key)) == expected, key
            assert mixprod.invariants._corner_poly(tuple(sorted(key))) == tuple(expected), key


class TestNoComplexInTheWalk:
    # The walk reads Delta|_W off the generator types: no Stanley-Reisner
    # complex is built, none is restricted, and no dual comes from Berge.
    def test_oracle_calls_no_complex_and_no_berge(self, fresh_set_up, monkeypatch):
        from test_homology import RP2

        def forbidden(*args, **kwargs):
            raise AssertionError("the walk called a complex or Berge routine")

        import mixprod as package

        for module in (
            package, mixprod.core, mixprod.homology, mixprod.invariants, mixprod.reference
        ):
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
            "_gen_types", "_top_key", "_BETTI_AT", "_Key", "_Entry",
        ):
            assert not hasattr(mixprod.invariants, name)
        assert list(inspect.signature(hochster_betti).parameters) == ["a", "field", "plan"]
        fields = mixprod.invariants._WalkPlan._fields
        assert list(fields) == ["ideal", "classes", "types", "tables", "sums"]
        # the walk and the multigraded refinement are built when read
        assert list(mixprod.BettiTable._fields) == ["ambient", "entries", "plan", "char"]

    def test_reference_import_rule(self):
        # the reference route is for the tests, CI and the public API: only
        # the package's __init__ imports mixprod.reference, which reads the
        # data model, the kernel and the errors alone, and the moved names
        # are gone from mixprod.core and mixprod.homology; the CLI reads the
        # minimal primes off its own dual, so minimal_primes takes no dual
        import ast
        import inspect
        from pathlib import Path

        def package_imports(path):
            # the package modules that a file's imports name, relative or absolute
            out = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    paths = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = ".".join(filter(None, ["mixprod" if node.level else "", node.module]))
                    paths = [base] + [f"{base}.{a.name}" for a in node.names]
                else:
                    continue
                out.update(p.split(".")[1] for p in paths if p.startswith("mixprod."))
            return out

        imports = {p.stem: package_imports(p) for p in Path(mixprod.__file__).parent.glob("*.py")}
        assert {"core", "homology", "invariants", "mixed", "harness", "cli"} < set(imports)
        assert {m for m, names in imports.items() if "reference" in names} == {"__init__"}
        assert imports["reference"] <= {"core", "homology", "errors"}
        assert not imports["homology"] & {"core", "reference"}
        moved = {
            mixprod.core: ("alexander_dual", "minimal_primes", "krull_dim"),
            mixprod.homology: (
                "SimplicialComplex", "_faces", "stanley_reisner", "restrict",
                "reduced_homology_ranks",
            ),
        }
        for module, names in moved.items():
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
                assert hasattr(mixprod.reference, name)
                if not name.startswith("_"):
                    assert getattr(mixprod, name) is getattr(mixprod.reference, name)
        assert list(inspect.signature(mixprod.minimal_primes).parameters) == ["a"]

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
            classes = tuple(swap_classes(b) if given is None else given)
            types = gen_types(b.gen_masks(), classes)
            delta = mixprod.reference.stanley_reisner(b)
            for w in representatives(classes):
                if not w:
                    continue
                for field in (RATIONALS, GF2, GF3):
                    got = by_types(w, classes, types, field)
                    assert got == by_restrict(delta, w, field), (b, classes, w)


# --- a memo shared by many ideals ------------------------------------------------
# The homology memo (_homology_of_faces) is keyed on the canonical facets of
# each Gamma_k and the field characteristic alone, and the report set-up on
# the last ideal, so a table computed after other ideals, their duals and
# other fields have filled them must equal the one computed on none.


class TestWarmMemo:
    @settings(max_examples=40, deadline=None)
    @given(
        squarefree_ideals(),
        st.lists(squarefree_ideals(), min_size=1, max_size=4),
        st.lists(st.sampled_from([RATIONALS, GF2, GF3]), min_size=2, max_size=2, unique=True),
    )
    def test_warm_table_is_the_cold_table(self, a, others, fields):
        with pytest.MonkeyPatch.context() as mp:
            fresh = lru_cache(maxsize=None)(mixprod.homology._homology_of_faces.__wrapped__)
            mp.setattr(mixprod.invariants, "_homology_of_faces", fresh)
            mixprod.invariants._set_up.cache_clear()
            cold = {f: hochster_betti(a, f) for f in fields}
            cold_walks = {f: cold[f].walk for f in fields}
        with pytest.MonkeyPatch.context() as mp:
            mixprod.invariants._set_up.cache_clear()
            for b in others:
                for f in fields:
                    oracle_report(b, f)
                    hochster_betti(alexander_dual(b), f)
            for f in fields:
                warm = hochster_betti(a, f)
                assert warm == cold[f]
                assert warm.walk == cold_walks[f]
                assert warm.multigraded == cold[f].multigraded
                assert warm.entries == brute_hochster(a.ambient.nvars, supports_of(a), f.char)

    def test_walk_order_does_not_depend_on_the_plan_that_filled_the_memo(self, fresh_set_up):
        # J_3 + I_1J_1 at 1x3: at W = all four variables the parts read over
        # the swap classes give beta_{3,W} before beta_{2,W}, those over
        # singleton classes the reverse; a walk sorts each W's values by i,
        # so a table, its walk included, is the same whichever plan filled
        # the homology memo, and lists i ascending at W over either classes
        a = realize_spec(MixedProductSpec(Ambient(1, 3), ((0, 3), (1, 1))))
        singletons = tuple(1 << v for v in range(4))
        types = tuple(gen_types(a.gen_masks(), singletons))
        plan = mixprod.invariants._walk_plan(a, singletons, types)
        swapped = mixprod.invariants._walk_plan(a, *mixprod.invariants._types_of(a))
        assert len(swapped.classes) == 2
        (top,) = [key for w, key, _, _ in rows_by_scan(a.gen_masks(), swapped.classes) if w == 0b1111]
        # Gamma_k = {<empty>} gives i = 4 - 1, listed first; two points give i = 2 + 0
        assert [base for _, base, _ in parts_on_own_box(top)] == [4, 2]
        cold = hochster_betti(a, GF2, plan)
        swap_walk = hochster_betti(a, GF2)
        assert hochster_betti(a, GF2, plan) == cold
        assert swap_walk.entries == cold.entries
        assert swap_walk.multigraded == cold.multigraded
        for table in (cold, swap_walk):
            assert [i for i, w, _ in table.walk if w == 0b1111] == [2, 3]

    def test_after_a_foreign_dual(self, fresh_set_up):
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
# No beta_{i,W} is kept: a plan holds the corner tables of the ideal and
# their polynomials, read off the types once, and each field's totals
# take one homology per complex Gamma_k and |k| in the plan's sums, from
# the process-wide homology memo (_homology_of_faces) keyed on Gamma_k's
# canonical facets and the field characteristic.


class TestBettiMemo:
    def test_misses_rank_only_complexes_on_the_classes(self, fresh_set_up, monkeypatch):
        # the plan reads the types once, into one corner table for the one
        # set of classes every row meets, both classes, and the totals rank
        # only complexes Gamma_k on the two classes, one per complex and
        # |k|, never a complex on W: I_1J_2+I_2J_1 at 3x3
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        read = spy(monkeypatch, "_corners")
        homologies = spy(monkeypatch, "_homology_of_faces")
        got = hochster_betti(a, GF2)
        plan = got.plan
        rows = rows_by_scan(a.gen_masks(), plan.classes)
        assert {meets_of(w, plan.classes) for w, *_ in rows} == {0b111111} == set(plan.tables)
        assert len({key for _, key, _, _ in rows}) > 1
        assert read == [(((1, 2), (2, 1)),)]
        assert len(homologies) == len(plan.sums)
        assert homologies and all(reduce(or_, facets, 0) < 0b100 for facets, _ in homologies)
        assert got.entries == brute_hochster(6, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_second_walk_is_served_by_the_memo(self, fresh_set_up, monkeypatch):
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1))))
        read = spy(monkeypatch, "_corners")
        homologies = spy(monkeypatch, "_homology_of_faces")
        first = hochster_betti(a, GF3)
        # one corner table in the plan, for its one set of classes
        assert len(read) == 1 and homologies
        assert all(char == 3 for _, char in homologies)
        read.clear()
        homologies.clear()
        memo = mixprod.homology._homology_of_faces.cache_info
        misses = memo().misses
        # on the same plan: no corner table, and every homology a memo hit
        second = hochster_betti(a, GF3, first.plan)
        assert read == [] and len(homologies) == len(first.plan.sums)
        assert memo().misses == misses
        assert second == first
        assert second.entries == brute_hochster(6, supports_of(a), 3)
        assert second.multigraded == full_walk_multigraded(a, GF3)
        # another field takes the homology of each complex again, but
        # builds no corner table
        homologies.clear()
        third = hochster_betti(a, GF2, first.plan)
        assert read == [] and homologies
        assert all(char == 2 for _, char in homologies)
        assert third.entries == brute_hochster(6, supports_of(a), 2)

    def test_projective_plane_over_gf2_then_q(self, fresh_set_up):
        # The same complexes Gamma_k come back over the second field; the
        # homology memo must tell the fields apart, as RP2's homology does.
        from test_homology import RP2

        amb = Ambient(6, 0)
        a = stanley_reisner_ideal(amb, RP2.facets)
        for field, top in ((GF2, {3: 1, 4: 1}), (RATIONALS, {})):
            got = hochster_betti(a, field)
            assert got.entries == brute_hochster(6, supports_of(a), field.char)
            assert {i: r for (i, w), r in got.multigraded.items() if w == amb.full_mask} == top


# --- totals from one polynomial per corner ---------------------------------------
# hochster_betti sums, over the corners k of each set of classes M, the
# homology of Gamma_k times the coefficients of prod_C P_{s_C,k_C}(x): the
# orbit-weighted sum over the W meeting M of the multiplicities _parts
# reads at W. The totals are checked against the independent oracle and
# against the orbit-weighted sum of the walk, which reads _parts at each W.


class TestCornerSums:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            squarefree_ideals().map(lambda a: (a, None)), stable_ideals(), many_class_ideals()
        ),
        st.sampled_from([RATIONALS, GF2, GF3]),
    )
    def test_totals_are_hochster_and_the_walk(self, case, field):
        # over the swap classes and over the given classes, which may split
        # a swap class
        a, given = case
        expected = brute_hochster(a.ambient.nvars, supports_of(a), field.char)
        gens = a.gen_masks()
        plans = [None]
        if given is not None:
            classes = tuple(given)
            plans.append(mixprod.invariants._walk_plan(a, classes, tuple(gen_types(gens, classes))))
        for plan in plans:
            got = hochster_betti(a, field, plan)
            assert got.entries == expected
            assert walk_totals(got) == expected

    def test_projective_plane_torsion(self):
        # RP2 and its Alexander dual: over GF(2) the totals gain
        # beta_{3,6} = beta_{4,6} = 1, the torsion of H_1(RP2; Z), and
        # nothing else differs from Q
        from test_homology import RP2

        a = stanley_reisner_ideal(Ambient(6, 0), RP2.facets)
        for b in (a, alexander_dual(a)):
            q, f2 = hochster_betti(b, RATIONALS), hochster_betti(b, GF2)
            assert q.entries == brute_hochster(6, supports_of(b))
            assert f2.entries == brute_hochster(6, supports_of(b), 2)
            assert walk_totals(q) == q.entries and walk_totals(f2) == f2.entries
            keys = set(q.entries) | set(f2.entries)
            gained = {k: f2.rank(*k) - q.rank(*k) for k in keys if f2.rank(*k) != q.rank(*k)}
            assert gained == {(3, 6): 1, (4, 6): 1}

    def test_corner_polynomials_are_the_double_sum(self):
        # P_{s,k}(x) = sum_c C(s, c) C(c - 1, k - 1) x^c against the sum,
        # over the c-subsets W of s variables, of the k-subsets of W that
        # hold W's lowest variable: the two-term complexes in sizes k and
        # k - 1 that split the simplex on W; both counted by enumeration
        sizes = {s: Counter(w.bit_count() for w in range(1 << s)) for s in range(17)}
        holding_lowest = {c: Counter(t.bit_count() for t in range(1, 1 << c, 2)) for c in range(17)}
        for s in range(1, 17):
            for k in range(1, s + 1):
                expected = [sizes[s][c] * holding_lowest[c][k] for c in range(s + 1)]
                assert list(mixprod.invariants._corner_poly(((s, k),))) == expected, (s, k)


# --- the report set-up -------------------------------------------------------
# What oracle_report reads off the generators alone (the ideal's plan, its
# dual, the dual's plan and the dimension) is set up once per ideal, and
# only the last ideal's set-up is kept, as is realize_spec's ideal of the
# last spec. A sweep asks about one ideal over each field in turn.


class TestSharedWalkState:
    def test_projective_plane_over_alternating_fields(self, fresh_set_up):
        # RP2's tables differ by field, so a value carried from one field
        # to the next through the plan or the homology memo would show here.
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
        info = mixprod.invariants._set_up.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)
        plan, dual_plan, _ = mixprod.invariants._set_up(a)
        # the one entry kept is the last ideal's
        assert mixprod.invariants._set_up.cache_info().misses == info.misses
        assert plan.ideal is a and dual_plan.ideal == alexander_dual(a)
        assert realize_spec.cache_info().currsize == 1
        assert realize_spec(specs[49]) is a

    def test_three_fields_share_one_set_up(self, fresh_set_up, monkeypatch):
        # reports on one ideal over Q, GF(2) and GF(3) find the classes
        # once and read generator types once, both off the ideal's
        # indicator, and build one dual, none for a self-dual ideal; a
        # self-dual ideal just before changes none of it. A typed ideal
        # (realize_spec's) holds its classes and types: its reports find
        # no class, read no type and build no indicator
        amb = Ambient(3, 0)
        self_dual = MonomialIdeal.from_masks(amb, (0b011, 0b101, 0b110))
        assert alexander_dual(self_dual) == self_dual
        cases = [
            self_dual,
            MonomialIdeal.from_masks(amb, (0b011,)),
            realize_spec(MixedProductSpec(Ambient(4, 4), ((2, 2),))),
            ideal(Ambient(2, 2), "x1x2", "x2y1", "y1y2"),
        ]
        found, counted, built = indicator_route(monkeypatch)
        duals = spy(monkeypatch, "_dual")
        for a in cases:
            for calls in (found, counted, built, duals):
                calls.clear()
            for field in (RATIONALS, GF2, GF3):
                oracle_report(a, field)
            assert len(duals) == (a is not self_dual)
            if a._typed is not None:
                assert found == counted == built == []
                continue
            t = a.indicator
            assert found == [(t, a.ambient.nvars)]
            assert counted == [(t, a.ambient.nvars, tuple(swap_classes(a)))]

    def test_three_fields_build_each_corner_table_once(self, fresh_set_up, monkeypatch):
        # reports on one ideal over Q, GF(2) and GF(3) build the corner
        # tables of the ideal and of its dual once, in the set-up, one per
        # set of classes that is a union of supports of generator types,
        # and sum the totals of both sides in each report; a self-dual
        # ideal's one plan serves both sides
        amb = Ambient(3, 0)
        cases = [
            (MonomialIdeal.from_masks(amb, (0b011, 0b101, 0b110)), True),
            (realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 2), (2, 1)))), False),
            (realize_spec(MixedProductSpec(Ambient(4, 4), ((2, 2),))), False),
            (ideal(Ambient(2, 2), "x1x2", "x2y1", "y1y2"), False),
        ]
        read = spy(monkeypatch, "_corners")
        walks = spy(monkeypatch, "hochster_betti")
        for a, self_dual in cases:
            read.clear()
            walks.clear()
            for field in (RATIONALS, GF2, GF3):
                oracle_report(a, field)
            plan, dual_plan, _ = mixprod.invariants._set_up(a)
            dual = dual_plan.ideal
            assert (dual_plan is plan) == self_dual
            sides = [plan] if self_dual else [plan, dual_plan]
            assert len(read) == sum(len(class_sets(p.classes, p.types)) for p in sides)
            assert len(walks) == 6
            assert [args[0] for args in walks] == [a, dual] * 3

    def test_a_report_builds_no_generator(self, monkeypatch):
        # realize_spec holds the ideal and the set-up holds the dual as
        # classes and types: no SqFreeMonomial is made, no mask is read off
        # an indicator (_masks_of_indicator) or read (gen_masks), no
        # indicator is built, by doubling or one mask at a time, nor read
        # by the delta-swap route, and neither the ideal nor its dual
        # derives its masks, its gens or its indicator
        def forbidden(*args, **kwargs):
            raise AssertionError("a report built or read a generator or an indicator")

        specs = [s for s in mixprod.harness.enumerate_specs(5, 5) if s.ambient.nvars >= 2]
        assert len(specs) >= 1500
        monkeypatch.setattr(SqFreeMonomial, "__new__", forbidden)
        monkeypatch.setattr(MonomialIdeal, "gen_masks", forbidden)
        monkeypatch.setattr(mixprod.core, "_masks_of_indicator", forbidden)
        monkeypatch.setattr(mixprod.invariants, "_masks_of_indicator", forbidden)
        monkeypatch.setattr(mixprod.core, "_indicator_of_masks", forbidden)
        monkeypatch.setattr(mixprod.core, "_indicator_of_types", forbidden)
        for name in ("_swap_classes", "_indicator_types", "_bit_planes"):
            monkeypatch.setattr(mixprod.invariants, name, forbidden)
        for spec in specs:
            realize_spec.cache_clear()
            mixprod.invariants._set_up.cache_clear()
            a = realize_spec(spec)
            for field in (RATIONALS, GF2, GF3):
                oracle_report(a, field)
            dual = mixprod.invariants._set_up(a)[1].ideal
            for b in (a, dual):
                assert not {"_masks", "gens", "indicator"} & set(vars(b)), spec

    def test_a_self_dual_ideal_is_planned_once(self, fresh_set_up, monkeypatch):
        # I_2 at three variables is its own dual: its plan serves both
        # walks, and no dual is built
        a = MonomialIdeal.from_masks(Ambient(3, 0), (0b011, 0b101, 0b110))
        assert alexander_dual(a) == a
        planned = spy(monkeypatch, "_walk_plan")
        duals = spy(monkeypatch, "_dual")
        report = oracle_report(a, GF2)
        assert len(planned) == 1 and duals == []
        plan, dual_plan, _ = mixprod.invariants._set_up(a)
        assert dual_plan is plan and plan.ideal is a
        assert report.reg_of_ideal == 2 and report.pd == 2
        # a dual that is not the ideal takes a plan of its own
        oracle_report(realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 1),))), GF2)
        assert len(planned) == 3

    @pytest.mark.parametrize(
        "n, m, terms", [(4, 4, ((2, 2),)), (3, 2, ((1, 1), (2, 0))), (2, 2, ((1, 1),))]
    )
    def test_the_dual_plan_takes_the_ideal_classes(self, fresh_set_up, monkeypatch, n, m, terms):
        # a permutation fixes an ideal exactly when it fixes its dual, so
        # a report finds the classes once, for the ideal's plan, and the
        # dual's plan holds the types of Berge's dual over them: the
        # realized ideal holds its classes, so its report finds none and
        # builds no indicator, and the same generator set built from masks
        # has them found once off its indicator
        a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
        dual = alexander_dual(a)
        expected = tuple(swap_classes(dual))
        assert expected == tuple(swap_classes(a))
        found, counted, built = indicator_route(monkeypatch)
        oracle_report(a, GF2)
        assert found == counted == built == []
        dual_plan = mixprod.invariants._set_up(a)[1]
        assert dual_plan.classes == expected == a._typed[0]
        types = {tuple((g & c).bit_count() for c in expected) for g in dual.gen_masks()}
        assert dual_plan.types == tuple(sorted(types))
        b = MonomialIdeal.from_masks(a.ambient, a.gen_masks())
        # b equals a, so it would find a's set-up
        mixprod.invariants._set_up.cache_clear()
        found.clear()
        oracle_report(b, GF2)
        assert found == [(b.indicator, b.ambient.nvars)]
        assert mixprod.invariants._set_up(b)[1].classes == expected

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
            mixprod.invariants._set_up.cache_clear()
            fresh[a.ambient] = (oracle_report(a, GF3), hochster_betti(a, GF3))
        mixprod.invariants._set_up.cache_clear()
        for a in ideals + ideals:
            report = oracle_report(a, GF3)
            plan, dual_plan, _ = mixprod.invariants._set_up(a)
            assert dual_plan.ideal == alexander_dual(a)
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
            mixprod.invariants._set_up.cache_clear()
            oracle_report(a, field)
            plan, dual_plan, _ = mixprod.invariants._set_up(a)
        for b, given_plan in ((a, plan), (dual_plan.ideal, dual_plan)):
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
            plan = mixprod.invariants._walk_plan(other, *mixprod.invariants._types_of(other))
            hochster_betti(a, GF2, plan)

    @pytest.mark.parametrize(
        "n, m, terms, other",
        [
            (3, 3, ((1, 2), (2, 1)), ((1, 1),)),  # the same classes, other types
            (4, 2, ((2, 1),), ((1, 2), (3, 0))),
            (2, 3, ((1, 1),), ((0, 2), (2, 1))),
        ],
    )
    def test_set_up_plans_pair_with_their_ideals(self, fresh_set_up, n, m, terms, other):
        # the ideal's plan serves the ideal and the dual's plan the dual,
        # and each refuses the other side; the dual, held as types, also
        # refuses the dual plan of another ideal of the ambient. An ideal
        # with the plan's generator set, however it was built, is served:
        # Berge's dual and the dual by types with the set-up's dual plan
        amb = Ambient(n, m)
        a = realize_spec(MixedProductSpec(amb, terms))
        plan, dual_plan, _ = mixprod.invariants._set_up(a)
        dual = dual_plan.ideal
        assert dual_plan is not plan
        b = realize_spec(MixedProductSpec(amb, other))
        other_dual_plan = mixprod.invariants._set_up(b)[1]
        for ideal, wrong in ((a, dual_plan), (dual, plan), (dual, other_dual_plan)):
            with pytest.raises(ValueError, match="another ideal"):
                hochster_betti(ideal, GF2, wrong)
        typed = dual_by_types(a)
        served = [
            (same, hochster_betti(same, GF2, given_plan))
            for same, given_plan in (
                (MonomialIdeal.from_masks(amb, a.gen_masks()), plan),
                (alexander_dual(a), dual_plan),
                (typed, dual_plan),
            )
        ]
        # the dual by types was compared by its classes and types alone
        assert "indicator" not in vars(typed)
        for same, got in served:
            assert got == hochster_betti(same, GF2)

    def test_a_self_dual_ideal_serves_its_dual_plan(self, fresh_set_up, monkeypatch):
        # a self-dual ideal's plan, which holds the ideal, serves as its
        # dual's: the report walks the ideal itself twice on its own plan
        a = MonomialIdeal.from_masks(Ambient(3, 0), (0b011, 0b101, 0b110))
        walks = spy(monkeypatch, "hochster_betti")
        oracle_report(a, GF2)
        plan, dual_plan, _ = mixprod.invariants._set_up(a)
        assert dual_plan is plan and plan.ideal is a
        assert len(walks) == 2
        for b, field, given_plan in walks:
            assert b is a and field == GF2 and given_plan is plan

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
