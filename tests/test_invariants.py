"""Betti-table oracle and the derived invariant reports."""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mixprod.core
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


def ideal(ambient, *monomials):
    return MonomialIdeal.from_monomials(
        ambient, [SqFreeMonomial.parse(ambient, m) for m in monomials]
    )


# --- independent oracle ------------------------------------------------------
# A from-scratch Hochster evaluation: plain sets for faces, fraction
# arithmetic for ranks. Used to derive the frozen tables below and to
# cross-check a sample; it shares no code with the package.


def _rank_fractions(mat):
    if not mat or not mat[0]:
        return 0
    mat = [[Fraction(e) for e in row] for row in mat]
    nrows, ncols, rank = len(mat), len(mat[0]), 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(nrows):
            if i != rank and mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def brute_hochster_q(nvars, gen_supports):
    """Total-degree Betti table of S/I over the rationals."""

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
            ranks[i] = _rank_fractions(mat)
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


# --- frozen tables (computed with brute_hochster_q, cross-checked against
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
        brute = brute_hochster_q(n + m, supports_of(a))
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


@pytest.fixture
def subsets_walked(monkeypatch):
    """Counts the vertex subsets W at which hochster_betti evaluates."""
    calls = []

    def counting(delta, gens, w, *rest):
        calls.append(w)
        return _betti_at(delta, gens, w, *rest)

    monkeypatch.setattr(mixprod.invariants, "_betti_at", counting)
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
        assert got.entries == brute_hochster_q(spec.ambient.nvars, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, field)

    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_any_ideal_walks_one_subset_per_orbit(self, a, field):
        walked = []

        def counting(delta, gens, w, *rest):
            walked.append(w)
            return _betti_at(delta, gens, w, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixprod.invariants, "_betti_at", counting)
            got = hochster_betti(a, field)
        assert len(walked) == prod(size + 1 for size in swap_classes_by_pairs(a))
        # No complex on at most five vertices has torsion, so there the
        # rational table is the table over every field.
        if field == RATIONALS or a.ambient.nvars <= 5:
            assert got.entries == brute_hochster_q(a.ambient.nvars, supports_of(a))
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
        assert got.entries == brute_hochster_q(n + m, supports_of(a))
        assert got.multigraded == full_walk_multigraded(a, GF2)

    def test_one_alexander_dual_per_report(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return alexander_dual(*args, **kwargs)

        for module in (mixprod.core, mixprod.homology, mixprod.invariants):
            monkeypatch.setattr(module, "alexander_dual", counting)
        for n, m, terms in [(2, 2, ((1, 2), (2, 1))), (3, 1, ((1, 1),)), (2, 0, ((1, 0),))]:
            a = realize_spec(MixedProductSpec(Ambient(n, m), terms))
            calls.clear()
            oracle_report(a, GF2)
            assert calls == [a]
        calls.clear()
        oracle_report(ideal(Ambient(2, 2), "x1y1", "x2"), GF2)
        assert len(calls) == 1


# --- Alexander duality inside W ----------------------------------------------
# hochster_betti takes, at each W, the homology of Delta|_W or of its
# Alexander dual inside W, whichever _dual_is_smaller picks. Forcing each
# side in turn must give the same tables as the independent oracle and the
# full primal walk.


def forced_side(monkeypatch, dual):
    """Make hochster_betti take one side at every non-cone W; returns the
    list of its choices."""
    chosen = []

    def choose(primal, dual_complex):
        chosen.append(dual)
        return dual

    monkeypatch.setattr(mixprod.invariants, "_dual_is_smaller", choose)
    return chosen


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
                assert got.entries == brute_hochster_q(a.ambient.nvars, supports_of(a))

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
            assert got.entries == brute_hochster_q(6, supports_of(a))

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

    def test_smaller_face_bound_wins(self):
        # At the full W, the complex of I_1J_1 is two disjoint simplices,
        # and its dual inside W has the nine facets W minus x_i y_j. The
        # complex of the dual ideal I_3 + J_3 is the join of two simplex
        # boundaries, and its dual inside W is two simplices again.
        a = realize_spec(MixedProductSpec(Ambient(3, 3), ((1, 1),)))
        w = a.ambient.full_mask
        for b, dual_wins in ((a, False), (alexander_dual(a), True)):
            primal = restrict(mixprod.homology.stanley_reisner(b), w)
            dual = SimplicialComplex._trusted(
                w, tuple(sorted(w ^ g for g in b.gen_masks()))
            )
            assert mixprod.invariants._dual_is_smaller(primal, dual) == dual_wins


class TestConeCheck:
    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals())
    def test_generator_cover_agrees_with_facet_intersection(self, a):
        # Delta|_W is a cone iff its facets share a vertex; the walk reads
        # that off the generators inside W instead, and a cone W is never
        # restricted.
        delta = mixprod.homology.stanley_reisner(a)
        gens = a.gen_masks()
        for w in range(1, a.ambient.full_mask + 1):
            common = w
            for f in restrict(delta, w).facets:
                common &= f
            restricted = []

            def counting(d, v):
                restricted.append(v)
                return restrict(d, v)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mixprod.invariants, "restrict", counting)
                got = _betti_at(delta, gens, w, GF2)
            assert (got == {}) == bool(common)
            assert restricted == ([] if common else [w])
