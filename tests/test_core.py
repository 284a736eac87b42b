"""Monomial / ideal arithmetic, Alexander duality, canonicalization."""

import re
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixprod import (
    Ambient,
    AmbientMismatch,
    CapExceeded,
    DegreeOutOfRange,
    InvalidAmbient,
    MixedProductSpec,
    MixprodError,
    MonomialIdeal,
    SimplicialComplex,
    SqFreeMonomial,
    SupportOutsideVertices,
    UnsupportedIdeal,
    alexander_dual,
    canonicalize_spec,
    contains_monomial,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    krull_dim,
    minimal_primes,
    realize_spec,
    restrict,
    stanley_reisner,
    swap_blocks,
    veronese_ideal,
)
from mixprod.core import _masks_of_indicator, _minimalize, vars_to_mask


def ideal(ambient, *monomials):
    return MonomialIdeal.from_monomials(
        ambient, [SqFreeMonomial.parse(ambient, m) for m in monomials]
    )


def gens_of(a):
    return {str(g) for g in a.gens}


# independent oracle: a variable subset P contains a monomial ideal iff every
# generator meets P; minimal primes are the minimal such subsets
def brute_minimal_primes(a):
    nv = a.ambient.nvars
    supports = [g.support for g in a.gens]
    containing = [
        frozenset(p)
        for size in range(nv + 1)
        for p in combinations(range(1, nv + 1), size)
        if all(s & set(p) for s in supports)
    ]
    return sorted(
        (p for p in containing if not any(q < p for q in containing)),
        key=lambda s: (len(s), sorted(s)),
    )


# --- hypothesis strategy: proper nonzero square-free ideals on <= 6 vars ---

@st.composite
def proper_ideals(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    amb = Ambient(n, m)
    full = amb.full_mask
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=6))
    return MonomialIdeal.from_masks(amb, masks)


# up to 8 variables and 12 generators of degrees 1..4, so that the
# transversals Berge's algorithm keeps, extends and prunes are many
@st.composite
def wide_ideals(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 8 - n))
    amb = Ambient(n, m)
    supports = draw(
        st.lists(
            st.sets(st.integers(1, amb.nvars), min_size=1, max_size=4),
            min_size=1,
            max_size=12,
        )
    )
    return MonomialIdeal.from_masks(amb, [vars_to_mask(s) for s in supports])


# term lists as a user may give them, over ambients up to 5x5: unsorted,
# with repeated terms, terms inside others and (0, 0)
@st.composite
def raw_specs(draw):
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1 if n == 0 else 0, 5))
    terms = draw(
        st.lists(st.tuples(st.integers(0, n), st.integers(0, m)), min_size=1, max_size=4)
    )
    terms += draw(st.lists(st.sampled_from(terms), max_size=2))
    return MixedProductSpec(Ambient(n, m), tuple(draw(st.permutations(terms))))


class TestVeronese:
    def test_all_two_subsets(self):
        a = veronese_ideal(Ambient(3, 0), "x", 2)
        assert gens_of(a) == {"x1x2", "x1x3", "x2x3"}

    def test_degree_zero_is_unit(self):
        assert veronese_ideal(Ambient(3, 2), "x", 0).is_unit

    def test_degree_above_block_rejected(self):
        with pytest.raises(DegreeOutOfRange):
            veronese_ideal(Ambient(2, 2), "y", 3)
        with pytest.raises(DegreeOutOfRange):
            veronese_ideal(Ambient(2, 2), "x", -1)

    def test_generator_counts(self):
        from math import comb

        amb = Ambient(5, 3)
        for k in range(6):
            assert len(veronese_ideal(amb, "x", k).gens) == comb(5, k)


class TestArithmetic:
    def test_sum_of_mixed_products(self):
        amb = Ambient(2, 2)
        a = realize_spec(MixedProductSpec(amb, ((1, 2),)))
        b = realize_spec(MixedProductSpec(amb, ((2, 1),)))
        assert gens_of(ideal_sum(a, b)) == {"x1y1y2", "x2y1y2", "x1x2y1", "x1x2y2"}

    def test_sum_unit_absorbs(self):
        amb = Ambient(2, 1)
        a = ideal(amb, "x1y1")
        assert ideal_sum(a, MonomialIdeal.unit(amb)).is_unit

    def test_sum_zero_identity(self):
        amb = Ambient(2, 1)
        a = ideal(amb, "x1y1", "x2")
        assert ideal_sum(a, MonomialIdeal.zero(amb)) == a

    def test_product_disjoint_blocks(self):
        amb = Ambient(2, 1)
        p = ideal_product(veronese_ideal(amb, "x", 2), veronese_ideal(amb, "y", 1))
        assert gens_of(p) == {"x1x2y1"}

    def test_product_principal(self):
        amb = Ambient(1, 1)
        p = ideal_product(veronese_ideal(amb, "x", 1), veronese_ideal(amb, "y", 1))
        assert gens_of(p) == {"x1y1"}

    def test_product_unit_identity(self):
        amb = Ambient(2, 1)
        a = ideal(amb, "x1y1", "x2")
        assert ideal_product(MonomialIdeal.unit(amb), a) == a

    def test_intersect_mixed_products(self):
        amb = Ambient(2, 2)
        a = realize_spec(MixedProductSpec(amb, ((1, 2),)))
        b = realize_spec(MixedProductSpec(amb, ((2, 1),)))
        assert gens_of(ideal_intersect(a, b)) == {"x1x2y1y2"}

    def test_intersect_unit_identity(self):
        amb = Ambient(2, 2)
        a = ideal(amb, "x1y2", "x2y1")
        assert ideal_intersect(a, MonomialIdeal.unit(amb)) == a

    def test_intersect_disjoint_blocks(self):
        amb = Ambient(2, 2)
        got = ideal_intersect(veronese_ideal(amb, "x", 2), veronese_ideal(amb, "y", 2))
        assert gens_of(got) == {"x1x2y1y2"}

    def test_ambient_mismatch(self):
        a = ideal(Ambient(2, 1), "x1")
        b = ideal(Ambient(2, 2), "x1")
        for op in (ideal_sum, ideal_product, ideal_intersect):
            with pytest.raises(AmbientMismatch):
                op(a, b)

    # I_qJ_r  intersect  I_sJ_t = I_sJ_r whenever q <= s and t <= r
    def test_intersection_identity_exhaustive(self):
        for n, m in [(2, 2), (3, 2), (3, 3)]:
            amb = Ambient(n, m)
            for s in range(1, n + 1):
                for q in range(s + 1):
                    for r in range(1, m + 1):
                        for t in range(r + 1):
                            a = realize_spec(MixedProductSpec(amb, ((q, r),)))
                            b = realize_spec(MixedProductSpec(amb, ((s, t),)))
                            expect = realize_spec(MixedProductSpec(amb, ((s, r),)))
                            assert ideal_intersect(a, b) == expect


class TestMembership:
    def test_examples(self):
        amb = Ambient(2, 1)
        a = ideal(amb, "x1x2")
        assert contains_monomial(a, SqFreeMonomial.parse(amb, "x1x2y1"))
        assert not contains_monomial(a, SqFreeMonomial.parse(amb, "x1y1"))
        assert not contains_monomial(
            MonomialIdeal.zero(amb), SqFreeMonomial.parse(amb, "x1")
        )

    @settings(max_examples=60)
    @given(proper_ideals())
    def test_agrees_with_exhaustive_scan(self, a):
        amb = a.ambient
        for mask in range(amb.full_mask + 1):
            u = SqFreeMonomial(amb, mask)
            expected = any(g.divides(u) for g in a.gens)
            assert contains_monomial(a, u) == expected


def brute_minimal(masks):
    """The masks no other mask of the family divides, sorted."""
    family = set(masks)
    return tuple(sorted(m for m in family if not any(k != m and k & ~m == 0 for k in family)))


def masks_of_size(lo, hi):
    return st.integers(lo, hi).flatmap(
        lambda k: st.sets(st.integers(1, 10), min_size=k, max_size=k)
    ).map(vars_to_mask)


# masks of 10 variables: a few singletons, 10 to 40 pairs and up to 40
# larger masks, so that a larger mask is often divided by a kept mask and
# often by none of the many masks kept below it
mask_families = st.tuples(
    st.lists(masks_of_size(1, 1), max_size=2),
    st.lists(masks_of_size(2, 2), min_size=10, max_size=40),
    st.lists(masks_of_size(3, 6), max_size=40),
).map(lambda parts: [m for part in parts for m in part])


class TestAntichain:
    @settings(max_examples=100)
    @given(mask_families)
    def test_minimalize_matches_brute_force(self, masks):
        assert _minimalize(masks) == brute_minimal(masks)

    def test_minimalize_past_many_smaller_masks(self):
        # each 3- and 4-mask is scanned against the 28 pairs kept before
        # it: the first quad holds a pair and the last the triple, while the
        # triple and the quad with one variable of 1..8 are kept
        pairs = [vars_to_mask(p) for p in combinations(range(1, 9), 2)]
        triple = vars_to_mask({9, 10, 11})
        kept_quad = vars_to_mask({1, 9, 10, 12})  # holds one variable of 1..8
        quads = [vars_to_mask({1, 2, 9, 10}), kept_quad, vars_to_mask({9, 10, 11, 12})]
        got = _minimalize(quads + [triple] + pairs)
        assert got == tuple(sorted(pairs + [triple, kept_quad]))
        assert got == brute_minimal(quads + [triple] + pairs)

    def test_minimalization(self):
        amb = Ambient(3, 0)
        a = ideal(amb, "x1", "x1x2", "x2x3")
        assert gens_of(a) == {"x1", "x2x3"}

    def test_unit_only_alone(self):
        amb = Ambient(2, 0)
        a = ideal(amb, "1", "x1")
        assert a.is_unit

    @settings(max_examples=60)
    @given(proper_ideals())
    def test_ops_preserve_antichain(self, a):
        # constructors raise if the antichain property fails, so surviving
        # construction is the assertion; exercise the ops
        b = alexander_dual(a)
        for result in (ideal_sum(a, b), ideal_product(a, b), ideal_intersect(a, b)):
            masks = result.gen_masks()
            assert all(
                not (x & ~y == 0 or y & ~x == 0)
                for x, y in combinations(masks, 2)
            )


class TestAlexanderDual:
    def test_veronese_self_dual_shift(self):
        # dual of I_k over the x-block is I_{n-k+1}
        for n in range(1, 6):
            amb = Ambient(n, 0)
            for k in range(1, n + 1):
                dual = alexander_dual(veronese_ideal(amb, "x", k))
                assert dual == veronese_ideal(amb, "x", n - k + 1)

    def test_principal(self):
        amb = Ambient(1, 1)
        d = alexander_dual(ideal(amb, "x1y1"))
        assert gens_of(d) == {"x1", "y1"}

    def test_zero_and_unit_rejected(self):
        amb = Ambient(2, 0)
        with pytest.raises(UnsupportedIdeal):
            alexander_dual(MonomialIdeal.zero(amb))
        with pytest.raises(UnsupportedIdeal):
            alexander_dual(MonomialIdeal.unit(amb))

    def test_support_outside_vertices(self):
        amb = Ambient(2, 1)
        with pytest.raises(SupportOutsideVertices):
            alexander_dual(ideal(amb, "x1y1"), vertices=[1, 2])

    def test_relative_vertex_set(self):
        # dual of I_2 inside the x-block of a mixed ambient stays in the block
        amb = Ambient(3, 2)
        a = veronese_ideal(amb, "x", 2)
        d = alexander_dual(a, vertices=[1, 2, 3])
        assert d == a  # n=3, k=2 -> n-k+1 = 2

    @settings(max_examples=60)
    @given(proper_ideals())
    def test_involution(self, a):
        assert alexander_dual(alexander_dual(a)) == a

    @settings(max_examples=40)
    @given(proper_ideals())
    def test_gens_and_primes_exchange(self, a):
        dual = alexander_dual(a)
        assert sorted(
            (g.support for g in dual.gens), key=lambda s: (len(s), sorted(s))
        ) == brute_minimal_primes(a)

    @settings(max_examples=80, deadline=None)
    @given(wide_ideals())
    def test_many_mixed_degree_generators(self, a):
        dual = alexander_dual(a)
        assert [g.support for g in dual.gens] == sorted(
            brute_minimal_primes(a), key=vars_to_mask
        )
        assert alexander_dual(dual) == a


class TestPublicConstructors:
    """The package builds its own antichains without re-checking them;
    the public constructors still check everything they are given."""

    AMB = Ambient(2, 1)

    def mono(self, text):
        return SqFreeMonomial.parse(self.AMB, text)

    def test_unsorted_generators_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MonomialIdeal(self.AMB, (self.mono("x2"), self.mono("x1")))

    def test_duplicate_generators_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MonomialIdeal(self.AMB, (self.mono("x1"), self.mono("x1")))

    def test_non_antichain_rejected(self):
        with pytest.raises(ValueError, match="antichain"):
            MonomialIdeal(self.AMB, (self.mono("x1"), self.mono("x1x2")))

    def test_generator_from_another_ambient_rejected(self):
        other = SqFreeMonomial.parse(Ambient(3, 0), "x3")
        with pytest.raises(AmbientMismatch):
            MonomialIdeal(self.AMB, (self.mono("x1"), other))

    def test_monomial_from_another_ambient_rejected(self):
        # the mask of x3 in (3, 0) would read as y1 in (2, 1)
        other = SqFreeMonomial.parse(Ambient(3, 0), "x3")
        with pytest.raises(AmbientMismatch):
            MonomialIdeal.from_monomials(self.AMB, [self.mono("x1"), other])
        with pytest.raises(AmbientMismatch):
            MonomialIdeal.from_monomials(self.AMB, [other])

    # bit nvars set, alone or after a mask inside, or a higher bit alone or
    # after one; a mask outside that a mask inside divides, which
    # minimalizing would drop; a negative mask, with or without bits inside
    @pytest.mark.parametrize("masks", [
        [0b1000], [0b01, 0b1000], [1 << 20], [0b011, 1 << 20],
        [0b001, 0b1001], [-3, 0b001], [-1, 0b001],
    ])
    def test_trusted_rejects_a_mask_outside_the_ambient(self, masks):
        # the package's own constructor skips the antichain checks, not
        # the ambient check
        with pytest.raises(ValueError, match="outside its ambient"):
            MonomialIdeal._trusted(self.AMB, masks)
        with pytest.raises(ValueError, match="outside its ambient"):
            MonomialIdeal.from_masks(self.AMB, masks)

    @settings(max_examples=60, deadline=None)
    @given(wide_ideals())
    def test_trusted_and_validated_ideals_are_equal(self, a):
        # equality and hashing are on the ambient and the masks; a trusted
        # ideal builds its generators on the first read of gens, once
        amb, masks = a.ambient, a.gen_masks()
        trusted = MonomialIdeal._trusted(amb, masks)
        validated = MonomialIdeal(amb, tuple(SqFreeMonomial(amb, g) for g in masks))
        assert "gens" not in vars(trusted)
        for _ in range(2):  # before gens is built and after
            assert trusted == validated and hash(trusted) == hash(validated)
            gens = trusted.gens
        assert trusted.gens is gens and gens == validated.gens
        assert validated.gens is validated.gens
        if amb.n != amb.m:
            assert MonomialIdeal._trusted(amb.swapped(), masks) != trusted

    @settings(max_examples=60, deadline=None)
    @given(wide_ideals(), raw_specs())
    def test_gen_masks_are_the_generators_masks(self, a, spec):
        amb = a.ambient
        built = (
            a,
            MonomialIdeal(amb, a.gens),
            MonomialIdeal.from_monomials(amb, a.gens),
            MonomialIdeal.zero(amb),
            MonomialIdeal.unit(amb),
            veronese_ideal(amb, "x", 1),
            ideal_sum(a, a),
            ideal_product(a, a),
            alexander_dual(a),
            realize_spec(spec),
        )
        for b in built:
            assert b.gen_masks() == tuple(g.mask for g in b.gens)

    @settings(max_examples=60, deadline=None)
    @given(wide_ideals(), raw_specs(), st.integers(0, 2**8 - 1))
    def test_internal_values_pass_the_public_checks(self, a, spec, w):
        def again(i):
            return MonomialIdeal(i.ambient, i.gens)

        dual = alexander_dual(a)
        built = (
            dual,
            MonomialIdeal.from_masks(a.ambient, a.gen_masks() + dual.gen_masks()),
            realize_spec(spec),
        )
        for ideal in built:
            assert again(ideal) == ideal
        delta = stanley_reisner(a)
        for d in (delta, restrict(delta, w & a.ambient.full_mask)):
            assert SimplicialComplex(d.vertices, d.facets) == d


class TestMinimalPrimes:
    def test_veronese(self):
        got = minimal_primes(veronese_ideal(Ambient(3, 0), "x", 2))
        assert got == [frozenset(c) for c in combinations((1, 2, 3), 2)]

    def test_principal(self):
        got = minimal_primes(ideal(Ambient(1, 1), "x1y1"))
        assert got == [frozenset({1}), frozenset({2})]

    def test_mixed_product_frozen(self):
        # derived by brute force over all prime candidates
        amb = Ambient(2, 2)
        a = realize_spec(MixedProductSpec(amb, ((1, 1),)))
        got = minimal_primes(a)
        assert got == [frozenset({1, 2}), frozenset({3, 4})]
        assert got == brute_minimal_primes(a)


class TestKrullDim:
    def test_examples(self):
        assert krull_dim(veronese_ideal(Ambient(3, 0), "x", 2)) == 1
        amb = Ambient(1, 1)
        assert krull_dim(realize_spec(MixedProductSpec(amb, ((1, 1),)))) == 1
        assert krull_dim(veronese_ideal(Ambient(2, 3), "y", 2)) == 3

    def test_height_formula_exhaustive(self):
        for n in range(1, 5):
            for m in range(1, 5):
                amb = Ambient(n, m)
                for q in range(1, n + 1):
                    for r in range(1, m + 1):
                        a = realize_spec(MixedProductSpec(amb, ((q, r),)))
                        assert krull_dim(a) == n + m - min(n - q + 1, m - r + 1)


class TestSpec:
    def test_canonicalize_sorts(self):
        amb = Ambient(2, 2)
        got = canonicalize_spec(MixedProductSpec(amb, ((2, 1), (1, 2))))
        assert got.terms == ((1, 2), (2, 1))

    def test_canonicalize_drops_contained_term(self):
        amb = Ambient(2, 2)
        got = canonicalize_spec(MixedProductSpec(amb, ((1, 1), (2, 2))))
        assert got.terms == ((1, 1),)

    def test_unit_absorbs(self):
        amb = Ambient(2, 2)
        got = canonicalize_spec(MixedProductSpec(amb, ((0, 0), (1, 1))))
        assert got.terms == ((0, 0),)
        assert got.is_unit

    def test_degree_bounds(self):
        with pytest.raises(DegreeOutOfRange):
            MixedProductSpec(Ambient(2, 2), ((3, 0),))

    def test_is_canonical(self):
        amb = Ambient(2, 2)
        assert MixedProductSpec(amb, ((1, 2), (2, 1))).is_canonical
        assert not MixedProductSpec(amb, ((2, 1), (1, 2))).is_canonical
        assert not MixedProductSpec(amb, ((1, 1), (1, 2))).is_canonical
        assert not MixedProductSpec(amb, ((1, 1), (1, 1))).is_canonical

    def test_realize(self):
        assert gens_of(realize_spec(MixedProductSpec(Ambient(1, 1), ((1, 1),)))) == {
            "x1y1"
        }
        amb = Ambient(2, 2)
        got = realize_spec(MixedProductSpec(amb, ((1, 2), (2, 1))))
        assert gens_of(got) == {"x1y1y2", "x2y1y2", "x1x2y1", "x1x2y2"}
        assert gens_of(realize_spec(MixedProductSpec(amb, ((0, 2),)))) == {"y1y2"}

    @settings(max_examples=150, deadline=None)
    @given(raw_specs())
    def test_realize_raw_terms(self, spec):
        # the generators of I_k J_l are the unions of a k-subset of the
        # x-block with an l-subset of the y-block; a raw term list gives
        # the minimalized union of its terms' generators, which is the
        # ideal of its canonical form
        amb = spec.ambient
        xs, ys = amb.variables()[: amb.n], amb.variables()[amb.n :]
        union = [
            vars_to_mask(a + b)
            for k, l in spec.terms
            for a in combinations(xs, k)
            for b in combinations(ys, l)
        ]
        got = realize_spec(spec)
        assert got == MonomialIdeal.from_masks(amb, union)
        assert got == realize_spec(canonicalize_spec(spec))
        assert MonomialIdeal(amb, got.gens) == got

    def test_realize_degrees(self):
        # generators are exactly the monomials with (x,y)-degree matching a term
        amb = Ambient(3, 3)
        spec = MixedProductSpec(amb, ((1, 3), (2, 1)))
        got = realize_spec(spec)
        for g in got.gens:
            assert (g.x_degree, g.y_degree) in spec.terms

    def test_swap_blocks(self):
        amb = Ambient(3, 2)
        spec = MixedProductSpec(amb, ((1, 2), (2, 0)))
        swapped = swap_blocks(spec)
        assert swapped.ambient == Ambient(2, 3)
        assert swapped.terms == ((0, 2), (2, 1))
        assert swap_blocks(swapped) == spec


# --- one generator set, one ideal ---------------------------------------------
# An ideal holds its masks, its indicator (realize_spec) or the classes and
# types it was built from (the report set-up's dual), and derives the other
# forms when they are first read. However it was built, the same generator
# set in the same ambient gives equal ideals that hash alike and print
# alike, and a realized ideal's masks are the sorted union of its terms'
# generators, each built one subset at a time by vars_to_mask.


def union_of_terms(spec):
    """The sorted union of the generators of the canonical form's terms:
    each k-subset of the x-block with each l-subset of the y-block."""
    amb = spec.ambient
    xs, ys = amb.variables()[: amb.n], amb.variables()[amb.n :]
    return sorted(
        vars_to_mask(a + b)
        for k, l in canonicalize_spec(spec).terms
        for a in combinations(xs, k)
        for b in combinations(ys, l)
    )


def check_realized(spec):
    """realize_spec's ideal, before it derives its masks, against the
    ideals built from the union's masks by from_masks and by the checked
    constructor; then its masks, and its text and repr against the
    checked one's."""
    realize_spec.cache_clear()
    a, masks = realize_spec(spec), union_of_terms(spec)
    amb = a.ambient
    others = (
        MonomialIdeal.from_masks(amb, masks),
        MonomialIdeal(amb, [SqFreeMonomial(amb, g) for g in masks]),
    )
    for b in others:
        assert a == b and b == a and hash(a) == hash(b), spec
    assert "_masks" not in vars(a) and "gens" not in vars(a)
    assert a.gen_masks() == tuple(masks), spec
    assert (str(a), repr(a)) == (str(others[1]), repr(others[1])), spec
    return a


# raw term lists of three to six terms over ambients up to 6x6, either
# block possibly empty: unsorted, repeated, nested, and (0, 0) for the unit
@st.composite
def many_term_specs(draw):
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1 if n == 0 else 0, 6))
    term = st.tuples(st.integers(0, n), st.integers(0, m))
    return MixedProductSpec(Ambient(n, m), tuple(draw(st.lists(term, min_size=3, max_size=6))))


class TestOneGeneratorSet:
    def test_every_canonical_spec_up_to_six_by_six(self):
        from mixprod.harness import enumerate_specs

        specs = enumerate_specs(6, 6)
        assert len(specs) == 3871
        for spec in specs:
            check_realized(spec)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(raw_specs(), many_term_specs()))
    @example(MixedProductSpec(Ambient(0, 3), ((0, 2), (0, 1), (0, 3))))
    @example(MixedProductSpec(Ambient(4, 0), ((3, 0), (2, 0), (4, 0))))
    @example(MixedProductSpec(Ambient(2, 2), ((0, 0),)))
    @example(MixedProductSpec(Ambient(3, 3), ((2, 1), (1, 2), (3, 0), (1, 2))))
    def test_raw_specs(self, spec):
        a = check_realized(spec)
        assert a.is_unit == ((0, 0) in spec.terms)
        assert not a.is_zero

    def test_three_forms_are_equal_and_hash_alike(self):
        # the ideal and its set-up dual of every spec up to 5x5, each held
        # in the typed form, as masks and as an indicator: all three forms
        # of one generator set are equal and hash alike, and two typed
        # ideals compare and hash with no indicator derived
        from mixprod.harness import enumerate_specs
        from mixprod.invariants import _set_up, dual_by_types

        for spec in enumerate_specs(5, 5):
            realize_spec.cache_clear()
            _set_up.cache_clear()
            a = realize_spec(spec)
            dual = _set_up(a)[1].ideal
            for typed in (a, dual):
                twin = MonomialIdeal._from_types(typed.ambient, *typed._typed)
                assert typed == twin and hash(typed) == hash(twin), spec
                assert "indicator" not in vars(typed), spec
            for typed in (a, dual):
                amb, indicator = typed.ambient, typed.indicator
                forms = (
                    typed,
                    MonomialIdeal._made(amb, _masks=_masks_of_indicator(indicator)),
                    MonomialIdeal._made(amb, indicator=indicator),
                )
                for b, c in product(forms, repeat=2):
                    assert b == c and hash(b) == hash(c), spec
            assert dual_by_types(a) == dual

    def test_equal_counts_are_not_equal_ideals(self):
        # I_2 and J_2 at 2x2 have one generator each, and I_1J_1 and the
        # sets of the same type over the classes {x1, y1}, {x2, y2} four
        # each: each pair hashes alike and compares unequal in every pair
        # of forms, typed pairs with the same types included
        amb = Ambient(2, 2)
        pairs = [
            [realize_spec(MixedProductSpec(amb, (t,))) for t in ((2, 0), (0, 2))],
            [
                MonomialIdeal._from_types(amb, classes, ((1, 1),))
                for classes in ((0b0011, 0b1100), (0b0101, 0b1010))
            ],
        ]
        for pair in pairs:
            assert hash(pair[0]) == hash(pair[1])
            forms = [
                [b, MonomialIdeal.from_masks(amb, b.gen_masks()),
                 MonomialIdeal._made(amb, indicator=b.indicator)]
                for b in pair
            ]
            for b, c in product(*forms):
                assert b != c and c != b

    def test_the_set_up_dual_up_to_five_by_five(self):
        # the report set-up's dual, held as classes and types (or the ideal
        # itself, when it is self-dual), against dual_by_types's, held as
        # classes and types, and Berge's, held as masks
        from mixprod.harness import enumerate_specs
        from mixprod.invariants import _set_up, dual_by_types

        specs = enumerate_specs(5, 5)
        assert len(specs) == 1630
        for spec in specs:
            a = realize_spec(spec)
            if not a.is_proper_nonzero:
                continue
            dual = _set_up(a)[1].ideal
            others = (dual_by_types(a), alexander_dual(a))
            for b in others:
                assert dual == b and b == dual and hash(dual) == hash(b), spec
            for b in others:
                assert dual.gen_masks() == b.gen_masks(), spec
                assert (str(dual), repr(dual)) == (str(b), repr(b)), spec


class TestMonomialBasics:
    def test_parse_and_str(self):
        amb = Ambient(2, 2)
        u = SqFreeMonomial.parse(amb, "x2y1")
        assert u.support == {2, 3}
        assert str(u) == "x2y1"
        assert str(SqFreeMonomial.parse(amb, "1")) == "1"

    @pytest.mark.parametrize("text", ["x4", "y0", "x0", "y4", "x1y4", "x2x0"])
    def test_parse_rejects_an_index_outside_its_block(self, text):
        # x4 is not y1, nor y0 x3, in the (3,3) ambient
        with pytest.raises(ValueError, match=f"monomial '{text}'"):
            SqFreeMonomial.parse(Ambient(3, 3), text)

    @pytest.mark.parametrize("text", ["", "  ", "*"])
    def test_parse_rejects_text_with_no_variable(self, text):
        # only '1' spells the unit monomial
        with pytest.raises(ValueError, match=re.escape(f"cannot parse monomial {text!r}")):
            SqFreeMonomial.parse(Ambient(3, 3), text)

    def test_parse_reaches_the_last_variable_of_each_block(self):
        amb = Ambient(3, 3)
        assert SqFreeMonomial.parse(amb, "x3y3").support == {3, 6}

    def test_degrees(self):
        amb = Ambient(2, 3)
        u = SqFreeMonomial.parse(amb, "x1x2y3")
        assert (u.degree, u.x_degree, u.y_degree) == (3, 2, 1)

    def test_divides_lcm(self):
        amb = Ambient(2, 1)
        u = SqFreeMonomial.parse(amb, "x1")
        v = SqFreeMonomial.parse(amb, "x1y1")
        assert u.divides(v) and not v.divides(u)
        assert u.lcm(v) == v

    def test_ambient_validation(self):
        with pytest.raises(ValueError):
            Ambient(0, 0)
        with pytest.raises(ValueError):
            Ambient(-1, 2)
        with pytest.raises(ValueError):
            Ambient(10, 10)

    @pytest.mark.parametrize(
        "n, m, message",
        [(0, 0, "at least one variable"), (-1, 2, r"negative block size in ambient \(-1,2\)")],
    )
    def test_bad_block_sizes_are_invalid_ambient(self, n, m, message):
        with pytest.raises(InvalidAmbient, match=message) as exc:
            Ambient(n, m)
        assert isinstance(exc.value, MixprodError) and isinstance(exc.value, ValueError)

    def test_ambient_cap_is_cap_exceeded(self):
        with pytest.raises(CapExceeded, match="16-variable cap"):
            Ambient(10, 10)
        assert Ambient(8, 8).nvars == 16
