"""Stanley-Reisner complexes, restrictions and exact homology ranks."""

import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixprod
import mixprod.invariants
from mixprod import (
    GF2,
    GF3,
    RATIONALS,
    Ambient,
    FieldSpec,
    MonomialIdeal,
    SimplicialComplex,
    SqFreeMonomial,
    UnsupportedIdeal,
    VerticesOutsideComplex,
    VoidComplex,
    alexander_dual,
    oracle_report,
    realize_spec,
    reduced_homology_ranks,
    restrict,
    stanley_reisner,
    veronese_ideal,
)
from mixprod import homology
from mixprod.core import vars_to_mask
from mixprod.harness import enumerate_specs
from mixprod.homology import _matrix_rank


def complex_of(*facets):
    masks = tuple(sorted(vars_to_mask(f) for f in facets))
    vertices = 0
    for f in masks:
        vertices |= f
    return SimplicialComplex(vertices, masks)


HOLLOW_TRIANGLE = complex_of({1, 2}, {1, 3}, {2, 3})
EMPTY_FACE_ONLY = SimplicialComplex(0, (0,))
VOID = SimplicialComplex(0, ())

# 6-vertex triangulation of the real projective plane; its homology depends
# on the field, which pins down that ranks really use the chosen one
RP2_FACETS = (
    {1, 2, 3}, {1, 2, 4}, {1, 3, 5}, {1, 4, 6}, {1, 5, 6},
    {2, 3, 6}, {2, 4, 5}, {2, 5, 6}, {3, 4, 5}, {3, 4, 6},
)
RP2 = complex_of(*RP2_FACETS)


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("q") == RATIONALS
        assert FieldSpec.parse("gf2") == GF2
        assert FieldSpec.parse("GF3") == GF3
        with pytest.raises(ValueError):
            FieldSpec.parse("gf4")
        with pytest.raises(ValueError, match="0 is not prime"):
            FieldSpec.parse("gf0")  # not the rationals, which are 'q'
        with pytest.raises(ValueError):
            FieldSpec.parse("r")

    def test_str_roundtrip(self):
        for f in (RATIONALS, GF2, FieldSpec.gf(101)):
            assert FieldSpec.parse(str(f)) == f


class TestStanleyReisner:
    def test_skeleton_example(self):
        d = stanley_reisner(veronese_ideal(Ambient(3, 0), "x", 3))
        assert d == HOLLOW_TRIANGLE

    def test_all_variables_in_ideal(self):
        d = stanley_reisner(veronese_ideal(Ambient(2, 0), "x", 1))
        assert d.facets == (0,)

    def test_zero_ideal_full_simplex(self):
        d = stanley_reisner(MonomialIdeal.zero(Ambient(2, 1)))
        assert d.facets == (0b111,)

    def test_unit_rejected(self):
        with pytest.raises(UnsupportedIdeal):
            stanley_reisner(MonomialIdeal.unit(Ambient(2, 0)))

    def test_veronese_gives_skeleta(self):
        # faces of SR(I_k) are the subsets of size < k
        for n in range(1, 6):
            amb = Ambient(n, 0)
            for k in range(1, n + 1):
                d = stanley_reisner(veronese_ideal(amb, "x", k))
                expected = tuple(
                    sorted(vars_to_mask(c) for c in combinations(range(1, n + 1), k - 1))
                )
                assert d.facets == expected

    def test_faces_are_nonmembers(self):
        amb = Ambient(2, 2)
        a = MonomialIdeal.from_monomials(
            amb, [SqFreeMonomial.parse(amb, t) for t in ("x1y1", "x2y1y2")]
        )
        d = stanley_reisner(a)
        for mask in range(amb.full_mask + 1):
            in_ideal = any(g.mask & ~mask == 0 for g in a.gens)
            assert d.has_face(SqFreeMonomial(amb, mask).support) == (not in_ideal)

    @settings(max_examples=60)
    @given(st.integers(1, 6).flatmap(
        lambda nv: st.tuples(
            st.integers(0, nv).map(lambda n: Ambient(n, nv - n)),
            st.lists(st.integers(1, (1 << nv) - 1), min_size=1, max_size=6),
        )
    ))
    def test_facets_are_maximal_nonmembers(self, drawn):
        amb, masks = drawn
        a = MonomialIdeal.from_masks(amb, masks)
        for ideal in (a, alexander_dual(a)):
            gens = ideal.gen_masks()
            faces = [s for s in range(amb.full_mask + 1) if not any(g & ~s == 0 for g in gens)]
            facets = tuple(f for f in faces if not any(f != g and f & ~g == 0 for g in faces))
            assert stanley_reisner(ideal).facets == facets


class TestRestrict:
    def test_segment(self):
        got = restrict(HOLLOW_TRIANGLE, {1, 2})
        assert got.facets == (vars_to_mask({1, 2}),)

    def test_to_empty_set(self):
        assert restrict(HOLLOW_TRIANGLE, ()).facets == (0,)
        assert restrict(VOID, ()).is_void

    def test_full_simplex_restricts_to_full_simplex(self):
        d = complex_of({1, 2, 3})
        got = restrict(d, {1, 3})
        assert got.facets == (vars_to_mask({1, 3}),)

    def test_outside_vertices_rejected(self):
        with pytest.raises(VerticesOutsideComplex):
            restrict(HOLLOW_TRIANGLE, {4})

    def test_composition(self):
        for w in range(8):
            for w2 in range(8):
                if w2 & ~w:
                    continue
                assert restrict(restrict(RP2, w), w2) == restrict(RP2, w2)


class TestReducedHomology:
    def test_circle(self):
        assert reduced_homology_ranks(HOLLOW_TRIANGLE, RATIONALS) == {-1: 0, 0: 0, 1: 1}

    def test_three_points(self):
        d = complex_of({1}, {2}, {3})
        assert reduced_homology_ranks(d, RATIONALS) == {-1: 0, 0: 2}

    def test_empty_complex(self):
        assert reduced_homology_ranks(EMPTY_FACE_ONLY, GF2) == {-1: 1}

    def test_void_rejected(self):
        with pytest.raises(VoidComplex):
            reduced_homology_ranks(VOID, RATIONALS)

    def test_full_simplex_acyclic(self):
        for nv in range(1, 5):
            d = complex_of(set(range(1, nv + 1)))
            assert all(
                r == 0 for r in reduced_homology_ranks(d, RATIONALS).values()
            )

    def test_sphere_boundary(self):
        # boundary of the (nv-1)-simplex is a (nv-2)-sphere
        for nv in range(2, 6):
            d = stanley_reisner(veronese_ideal(Ambient(nv, 0), "x", nv))
            h = reduced_homology_ranks(d, RATIONALS)
            assert h == {i: (1 if i == nv - 2 else 0) for i in range(-1, nv - 1)}

    def test_field_sanity_triangle(self):
        for f in (RATIONALS, GF2, GF3):
            assert reduced_homology_ranks(HOLLOW_TRIANGLE, f) == {-1: 0, 0: 0, 1: 1}

    def test_projective_plane_depends_on_field(self):
        assert reduced_homology_ranks(RP2, RATIONALS) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology_ranks(RP2, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_homology_ranks(RP2, GF3) == {-1: 0, 0: 0, 1: 0, 2: 0}


@st.composite
def small_complexes(draw):
    nv = draw(st.integers(1, 6))
    full = (1 << nv) - 1
    facets = draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
    maximal = [
        f for f in set(facets) if not any(g != f and f & ~g == 0 for g in set(facets))
    ]
    return SimplicialComplex(full, tuple(sorted(maximal)))


class TestHomologyProperties:
    @settings(max_examples=80)
    @given(small_complexes(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_euler_characteristic(self, d, field):
        h = reduced_homology_ranks(d, field)
        faces = d.all_faces()
        chi_faces = sum((-1) ** (f.bit_count() - 1) for f in faces)
        chi_hom = sum((-1) ** i * r for i, r in h.items())
        assert chi_faces == chi_hom

    @settings(max_examples=80)
    @given(small_complexes(), st.sampled_from([RATIONALS, GF2, GF3]))
    def test_ranks_nonnegative(self, d, field):
        # im boundary <= ker boundary, which fails if any sign or rank is off
        assert all(r >= 0 for r in reduced_homology_ranks(d, field).values())

    @settings(max_examples=40)
    @given(small_complexes())
    def test_restriction_to_own_vertices_is_identity(self, d):
        support = 0
        for f in d.facets:
            support |= f
        assert restrict(d, support).facets == d.facets

    @settings(max_examples=80)
    @given(small_complexes(), st.integers(0, 63))
    def test_restrict_keeps_the_maximal_traces(self, d, w):
        w &= d.vertices
        traces = {f & w for f in d.facets}
        maximal = [t for t in traces if not any(u != t and t & ~u == 0 for u in traces)]
        assert restrict(d, w).facets == tuple(sorted(maximal))


def relabelled(d, targets):
    """The copy of d whose vertex bit i is moved to bit targets[i]."""

    def move(mask):
        return sum(1 << t for i, t in enumerate(targets) if mask >> i & 1)

    return SimplicialComplex(move(d.vertices), tuple(sorted(move(f) for f in d.facets)))


FIELDS = st.sampled_from([RATIONALS, GF2, GF3])


class TestHomologyCache:
    @settings(max_examples=60)
    @given(small_complexes(), st.data(), FIELDS)
    def test_ranks_are_invariant_under_vertex_permutations(self, d, data, field):
        perm = data.draw(st.permutations(range(d.vertices.bit_length())))
        uncached = dict(homology._homology_of_faces.__wrapped__(d.facets, field.char))
        assert reduced_homology_ranks(d, field) == uncached
        assert reduced_homology_ranks(relabelled(d, perm), field) == uncached

    @settings(max_examples=60)
    @given(small_complexes(), st.data(), FIELDS)
    def test_order_preserving_copy_is_a_cache_hit(self, d, data, field):
        nv = d.vertices.bit_length()
        targets = data.draw(st.lists(st.integers(0, 15), min_size=nv, max_size=nv, unique=True))
        copy = relabelled(d, sorted(targets))
        homology._homology_of_faces.cache_clear()
        assert reduced_homology_ranks(copy, field) == reduced_homology_ranks(d, field)
        info = homology._homology_of_faces.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_equal_facet_sizes_do_not_share_an_entry(self):
        # a hollow triangle and a path of three edges have facets of the
        # same sizes but different homology
        path = complex_of({1, 2}, {2, 3}, {3, 4})
        homology._homology_of_faces.cache_clear()
        assert reduced_homology_ranks(HOLLOW_TRIANGLE, RATIONALS) == {-1: 0, 0: 0, 1: 1}
        assert reduced_homology_ranks(path, RATIONALS) == {-1: 0, 0: 0, 1: 0}
        assert homology._homology_of_faces.cache_info().misses == 2


class TestComplexValidation:
    def test_facets_must_be_antichain(self):
        with pytest.raises(ValueError):
            SimplicialComplex(0b11, (0b01, 0b11))

    def test_facets_must_be_sorted(self):
        with pytest.raises(ValueError):
            SimplicialComplex(0b11, (0b10, 0b01))

    def test_dim(self):
        assert HOLLOW_TRIANGLE.dim == 1
        assert EMPTY_FACE_ONLY.dim == -1
        with pytest.raises(VoidComplex):
            VOID.dim


# --- exact rank --------------------------------------------------------------


def _rank_by_elimination(mat, p):
    """Dense Gauss-Jordan elimination over Q (p = 0, in Fractions) or over
    GF(p); the reference the package's rank routines are compared with."""
    rows = [[Fraction(v) if p == 0 else v % p for v in row] for row in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c] if p == 0 else pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
                if p:
                    rows[i] = [a % p for a in rows[i]]
        rank += 1
    return rank


def assert_rank(mat, p):
    """_matrix_rank of the matrix over Q (p = 0) or GF(p), from its sparse
    columns, equals the rank of dense elimination, and is returned."""
    rank = _matrix_rank(columns_of(mat), FieldSpec(p))
    assert rank == _rank_by_elimination(mat, p)
    return rank


def dense_boundaries(d):
    """The faces of d by dimension and each boundary map C_i -> C_{i-1}
    as a dense signed matrix, rows the (i-1)-faces and columns the
    i-faces in ascending mask order; dropping the k-th vertex (ascending)
    of a face has sign (-1)^k."""
    by_dim = {}
    for f in d.all_faces():
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    mats = {}
    for i in range(max(by_dim) + 1):
        rows = by_dim[i - 1]
        mat = [[0] * len(by_dim[i]) for _ in rows]
        for c, f in enumerate(by_dim[i]):
            verts = [v for v in range(f.bit_length()) if f >> v & 1]
            for k, v in enumerate(verts):
                mat[rows.index(f ^ (1 << v))][c] = (-1) ** k
        mats[i] = mat
    return by_dim, mats


def star_vertex(d):
    """The vertex bit whose closed star the homology kernel leaves out: the
    vertex in the most facets, the lowest on ties."""
    counts = [sum(f >> u & 1 for f in d.facets) for u in range(d.vertices.bit_length())]
    return 1 << counts.index(max(counts))


def relative_cells(d):
    """The i-cells of the relative complex (d minus v, lk v) at v =
    star_vertex(d), by dimension: the faces f of d with v not in f and
    f | v not a face."""
    v = star_vertex(d)
    by_dim, _ = dense_boundaries(d)
    return {
        i: [f for f in faces if not f & v and not any((f | v) & ~g == 0 for g in d.facets)]
        for i, faces in by_dim.items()
    }


def recorded_rank_calls(d, field):
    """The columns and the rank of every _matrix_rank call one uncached
    homology computation of d makes, in call order, over any field."""
    real = homology._matrix_rank
    calls = []

    def recording(cols, fld):
        rank = real(cols, fld)
        calls.append((cols, rank))
        return rank

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_matrix_rank", recording)
        facets = homology._canonical_facets(d.facets)
        ranks = homology._homology_of_faces.__wrapped__(facets, field.char)
    assert dict(ranks) == reduced_homology_ranks(d, field)
    return calls


def reference_homology(d, p):
    """h~_i of d over Q (p = 0) or GF(p) from its dense boundary matrices,
    each ranked by _rank_by_elimination: no relative complex, no cache and
    no relabelling, so it shares no step with reduced_homology_ranks beyond
    the face list."""
    by_dim, mats = dense_boundaries(d)
    ranks = {i: _rank_by_elimination(mat, p) for i, mat in mats.items()}
    return {
        i: len(by_dim[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        for i in range(-1, max(by_dim) + 1)
    }


def fractions_made(monkeypatch):
    """The argument tuples of every Fraction the rank code makes from now
    on: it imports Fraction where it needs it, from this stand-in."""
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setitem(sys.modules, "fractions", SimpleNamespace(Fraction=counting_fraction))
    return made


@st.composite
def integer_matrices(draw):
    """0-9 rows by 0-9 columns, entries in [-7, 7], at a drawn density."""
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.integers(0, 10))
    entry = st.integers(-7, 7)
    return [
        [draw(entry) if draw(st.integers(1, 10)) <= density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def columns_of(mat):
    """The matrix as sparse columns {row: entry}, the form _matrix_rank
    takes."""
    ncols = len(mat[0]) if mat else 0
    return [{i: row[c] for i, row in enumerate(mat) if row[c]} for c in range(ncols)]


class TestSparseRank:
    @settings(max_examples=200)
    @given(integer_matrices())
    def test_rationals_match_bareiss_and_fractions(self, mat):
        assert_rank(mat, 0)

    @settings(max_examples=200)
    @given(integer_matrices(), st.sampled_from([3, 5, 7]))
    def test_prime_fields_match_dense_elimination(self, mat, p):
        assert_rank(mat, p)

    @settings(max_examples=200)
    @given(integer_matrices())
    def test_gf2_matches_dense_elimination(self, mat):
        # GF(2) ranks through the same dict columns as every other field
        assert_rank(mat, 2)

    @pytest.mark.parametrize(
        "mat, ranks",
        [
            ([[2, 0], [0, 2]], {0: 2, 3: 2, 5: 2}),
            # determinant -12: regular over Q and GF(5), singular over GF(3)
            ([[2, 4], [4, 2]], {0: 2, 3: 1, 5: 2}),
        ],
    )
    def test_matrices_without_units(self, mat, ranks):
        for p, rank in ranks.items():
            assert assert_rank(mat, p) == rank

    def test_projective_plane_takes_a_non_unit_pivot(self, monkeypatch):
        # over Q, a column of RP2's map C_2 -> C_1, reduced against the
        # basis built from the columns before it, keeps +-2 at its last
        # row, the torsion of H_1; it joins the basis with the inverse
        # Fraction(1, +-2). GF(2) never needs one.
        made = fractions_made(monkeypatch)
        facets = homology._canonical_facets(RP2.facets)
        ranks = homology._homology_of_faces.__wrapped__(facets, 0)
        assert dict(ranks) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert made and made[0] in ((1, 2), (1, -2))
        made.clear()
        ranks = homology._homology_of_faces.__wrapped__(facets, 2)
        assert dict(ranks) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert not made
        # the rank of that elimination, on the map C_2 -> C_1 it is made
        # in, is that of dense elimination
        mat = dense_boundaries(RP2)[1][2]
        assert_rank(mat, 0)
        assert made and made[0] in ((1, 2), (1, -2))

    def test_rationals_stay_integral_on_mixed_product_ideals(self, monkeypatch):
        # every pivot entry of the boundary maps of their restrictions is
        # +-1, so ranking them over Q makes no Fraction: the reference
        # sides restrict(stanley_reisner(b), W) at every row of the walks
        # of each ideal and of its dual are ranked here, on a fresh cache
        # so that each reaches the kernel, and so are the reports
        made = fractions_made(monkeypatch)
        monkeypatch.setattr(mixprod.invariants, "_BETTI_AT", {})
        monkeypatch.setattr(mixprod.invariants, "_SET_UP", {})
        fresh = lru_cache(maxsize=None)(homology._homology_of_faces.__wrapped__)
        monkeypatch.setattr(homology, "_homology_of_faces", fresh)
        specs = [s for s in enumerate_specs(6, 6) if s.ambient.nvars <= 6]
        assert len(specs) == 392
        for spec in specs:
            a = realize_spec(spec)
            plan, dual, dual_plan, _ = mixprod.invariants._set_up(a)
            for b, walk in ((a, plan), (dual, dual_plan)):
                delta = stanley_reisner(b)
                for w, _, _, _ in walk.rows:
                    reduced_homology_ranks(restrict(delta, w), RATIONALS)
            oracle_report(a, RATIONALS)
        assert fresh.cache_info().misses > 200
        assert not made

    def test_importing_the_cli_loads_no_fractions_or_decimal(self):
        # Fraction is imported lazily, on the first pivot without a unit
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import mixprod.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        src = Path(mixprod.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-E", "-S", "-c", code, str(src)],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"


SPHERES = [stanley_reisner(veronese_ideal(Ambient(nv, 0), "x", nv)) for nv in range(2, 7)]


@st.composite
def larger_complexes(draw):
    """7-8 vertices and up to 12 facets: past the 6 vertices of
    small_complexes, towards the 12 of the complexes a 6x6 Hochster walk
    ranks."""
    nv = draw(st.integers(7, 8))
    facets = set(draw(st.lists(st.integers(0, (1 << nv) - 1), min_size=1, max_size=12)))
    maximal = [f for f in facets if not any(g != f and f & ~g == 0 for g in facets)]
    return SimplicialComplex((1 << nv) - 1, tuple(sorted(maximal)))


class TestReferenceHomology:
    """reduced_homology_ranks against dense boundary matrices ranked by
    plain elimination, and the columns it builds on the way."""

    @settings(max_examples=150)
    @given(small_complexes(), FIELDS)
    def test_small_complexes(self, d, field):
        assert reduced_homology_ranks(d, field) == reference_homology(d, field.char)

    @pytest.mark.parametrize("field", [RATIONALS, GF2, GF3], ids=str)
    def test_projective_plane_triangle_and_spheres(self, field):
        for d in (RP2, HOLLOW_TRIANGLE, *SPHERES):
            assert reduced_homology_ranks(d, field) == reference_homology(d, field.char)

    @settings(max_examples=40, deadline=None)
    @given(larger_complexes(), FIELDS)
    def test_larger_complexes(self, d, field):
        assert reduced_homology_ranks(d, field) == reference_homology(d, field.char)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_complexes(), larger_complexes()), FIELDS)
    def test_every_cell_gets_one_column(self, d, field):
        # the maps of the relative complex are built from the top down, and
        # C_i -> C_{i-1} gets exactly one column for every i-cell, with one
        # entry for each of its boundary faces that is an (i-1)-cell, on
        # the rows of those cells; the cells are found by the boundary
        # walk, so a missed one would show as a missing column or entry
        calls = recorded_rank_calls(d, field)
        cells = relative_cells(d)
        assert len(calls) == d.dim + 1
        for i, (cols, _) in zip(range(d.dim, -1, -1), calls):
            lower = set(cells[i - 1])
            entries = [
                sum(f ^ (1 << u) in lower for u in range(f.bit_length()) if f >> u & 1)
                for f in cells[i]
            ]
            assert sorted(map(len, cols)) == sorted(entries)
            assert set().union(*cols) <= set(range(len(lower)))


CONES = [
    complex_of({1, 2, 3}, {1, 2, 4}, {1, 3, 4}),
    complex_of({1, 6}, {1, 2, 3}, {1, 4, 5}),
    complex_of(*({7} | f for f in RP2_FACETS)),
]


@pytest.mark.parametrize("field", [RATIONALS, GF2, GF3], ids=str)
class TestRelativeComplex:
    """Homology through the relative complex (Delta minus v, lk v) of the
    vertex v in the most facets."""

    def test_empty_face_only(self, field):
        assert recorded_rank_calls(EMPTY_FACE_ONLY, field) == []
        assert reduced_homology_ranks(EMPTY_FACE_ONLY, field) == {-1: 1}

    def test_one_vertex_and_two_points(self, field):
        assert reduced_homology_ranks(complex_of({1}), field) == {-1: 0, 0: 0}
        assert reduced_homology_ranks(complex_of({1}, {2}), field) == {-1: 0, 0: 1}
        # v is the lowest of the two points; the other is the one cell
        assert recorded_rank_calls(complex_of({1}, {2}), field) == [([{}], 0)]

    def test_cone_gives_no_column(self, field):
        for d in CONES:
            calls = recorded_rank_calls(d, field)
            assert calls == [([], 0)] * (d.dim + 1)
            assert reduced_homology_ranks(d, field) == {i: 0 for i in range(-1, d.dim + 1)}

    def test_only_the_link_is_enumerated(self, field, monkeypatch):
        # the cells are found by the boundary walk that builds the
        # columns; _face_set runs once, on the link facets F ^ v
        real = homology._face_set
        calls = []

        def spy(facets):
            calls.append(list(facets))
            return real(calls[-1])

        monkeypatch.setattr(homology, "_face_set", spy)
        for d in (RP2, HOLLOW_TRIANGLE, *CONES, *SPHERES):
            facets = homology._canonical_facets(d.facets)
            v = star_vertex(SimplicialComplex((1 << max(facets).bit_length()) - 1, facets))
            calls.clear()
            homology._homology_of_faces.__wrapped__(facets, field.char)
            assert calls == [[f ^ v for f in facets if f & v]]

    def test_sphere_has_one_cell(self, field):
        # every vertex is in all facets but one; the lowest is v, and the
        # facet opposite it is the only cell, with no boundary cell
        for d in SPHERES:
            assert star_vertex(d) == 1
            cells = relative_cells(d)
            assert [f for fs in cells.values() for f in fs] == [d.vertices ^ star_vertex(d)]
            calls = recorded_rank_calls(d, field)
            assert [len(cols) for cols, _ in calls] == [1] + [0] * d.dim
            assert not calls[0][0][0]
            assert reduced_homology_ranks(d, field) == reference_homology(d, field.char)


# --- relabelling and the star vertex, against bit-by-bit references --------------


def bit_by_bit(mask, support):
    """mask, inside support, moved onto support's dense bits one bit at a
    time: bit b goes to the bit that counts support's bits below b."""
    return sum(1 << (support & (1 << b) - 1).bit_count() for b in range(mask.bit_length()) if mask >> b & 1)


@st.composite
def supports(draw):
    """A nonzero mask of up to 20 bits: arbitrary, so mostly many runs of
    bits, as a W with singleton classes is; one run above bit 0; or dense,
    one run from bit 0, which _canonical_facets passes through."""
    kind = draw(st.sampled_from(["runs", "one run", "dense"]))
    if kind == "runs":
        return draw(st.integers(1, (1 << 20) - 1))
    size = draw(st.integers(1, 19))
    shift = 0 if kind == "dense" else draw(st.integers(1, 20 - size))
    return ((1 << size) - 1) << shift


def submasks(support):
    return st.integers(0, support).map(lambda m: m & support)


class TestRelabel:
    @settings(max_examples=200)
    @given(supports(), st.data())
    def test_relabel_is_bit_by_bit(self, support, data):
        masks = data.draw(st.lists(submasks(support), max_size=12))
        assert homology._relabel(masks, support) == [bit_by_bit(m, support) for m in masks]

    @settings(max_examples=200)
    @given(supports(), st.data())
    def test_canonical_facets_are_bit_by_bit(self, support, data):
        drawn = set(data.draw(st.lists(submasks(support), min_size=1, max_size=12)))
        union = 0
        for f in drawn:
            union |= f
        drawn.add(support & ~union)  # the facets cover the whole support
        facets = tuple(sorted(f for f in drawn if not any(g != f and f & ~g == 0 for g in drawn)))
        got = homology._canonical_facets(facets)
        assert got == tuple(bit_by_bit(f, support) for f in facets)
        assert got == tuple(sorted(got))
        if support & (support + 1) == 0:
            assert got is facets


def most_frequent_vertex(facets):
    counts = [sum(f >> j & 1 for f in facets) for j in range(max(facets).bit_length())]
    return 1 << counts.index(max(counts))


@st.composite
def facet_lists(draw):
    """Facets on up to 24 vertices; or with a tie on every vertex count, as
    a copy of the facets moved above their vertices adds, on up to 32."""
    tied = draw(st.booleans())
    n = draw(st.integers(1, 16 if tied else 24))
    facets = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=30))
    if tied:
        facets += [f << n for f in facets]
    return facets


class TestStarVertex:
    @settings(max_examples=300)
    @given(facet_lists())
    def test_one_pass_equals_the_per_vertex_count(self, facets):
        assert homology._star_vertex(facets) == most_frequent_vertex(facets)

    def test_ties_take_the_lowest(self):
        assert homology._star_vertex(HOLLOW_TRIANGLE.facets) == 1
        assert homology._star_vertex([1 << 20, 1 << 17]) == 1 << 17
        assert homology._star_vertex([0b11 << 18, 0b110 << 16]) == 1 << 18

    @pytest.mark.parametrize("field", [RATIONALS, GF2, GF3], ids=str)
    def test_twenty_vertices(self, field):
        # a 20-cycle with 17 chords from vertex 20: a graph whose star
        # vertex lies above bit 16, with 37 - 20 + 1 = 18 independent cycles
        cycle = [{j, j % 20 + 1} for j in range(1, 21)]
        d = complex_of(*cycle, *({20, j} for j in range(2, 19)))
        assert d.vertices == (1 << 20) - 1
        assert homology._star_vertex(d.facets) == 1 << 19 == star_vertex(d)
        assert reduced_homology_ranks(d, field) == {-1: 0, 0: 0, 1: 18}
        assert reduced_homology_ranks(d, field) == reference_homology(d, field.char)
