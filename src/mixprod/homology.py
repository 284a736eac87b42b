"""Stanley-Reisner complexes and exact reduced simplicial homology.

stanley_reisner, restrict and reduced_homology_ranks are the reference
for Hochster's formula: the walk of mixprod.invariants reads the Betti
numbers off the generator types and ranks here only the small complexes
Gamma_k of that reading, on the classes of interchangeable variables.

Conventions: the reduced (augmented) chain complex is used throughout, so
the complex {<empty face>} has h~_{-1} = 1 and any full simplex has zero
homology everywhere. The void complex (no faces at all) carries no
homology and is rejected. Homology is computed from the facets alone,
relabelled onto dense vertex bits, which is also the cache key; the cells
are found only when the cache misses. The closed star of one vertex v,
the vertex in the most facets and the lowest on ties, is a cone and so
acyclic: the reduced homology of the complex is that of the relative
complex (Delta minus v, lk v), whose cells are the faces outside the star.
Only the faces of the link are enumerated. Each boundary map is built as
sparse columns {row: +-1}, one per cell, over every field, never as a
dense matrix. The same walk over the boundary faces finds the cells one
dimension down: each face outside the link gets a row when first seen,
so no face through v is visited, no face of the star is indexed, and the
cells take no pass of their own. All ranks are exact and come from one
column reduction, _matrix_rank: each column is reduced against the
columns kept before it, each keyed by its last row, and joins them if it
survives; over Q only a pivot entry other than +-1 makes a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .core import MonomialIdeal, _minimalize, alexander_dual, vars_to_mask
from .errors import UnsupportedIdeal, VerticesOutsideComplex, VoidComplex


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 means the rationals, a prime p
    means GF(p)."""

    char: int = 0

    def __post_init__(self) -> None:
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"{self.char} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, token: str) -> "FieldSpec":
        t = token.strip().lower()
        if t == "q":
            return cls(0)
        if t.startswith("gf") and t[2:].isdigit():
            p = int(t[2:])
            if not _is_prime(p):  # gf0 included: characteristic 0 is spelled 'q'
                raise ValueError(f"{p} is not prime")
            return cls(p)
        raise ValueError(f"unknown field {token!r}; use 'q' or 'gf<p>'")

    def __str__(self) -> str:
        return "q" if self.char == 0 else f"gf{self.char}"


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex set plus facets (maximal faces), both as variable bitmasks.

    An empty facet tuple is the void complex; the facet tuple (0,) is the
    complex whose only face is the empty set.
    """

    vertices: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.facets != tuple(sorted(set(self.facets))):
            raise ValueError("facets must be sorted and duplicate-free")
        for f in self.facets:
            if f & ~self.vertices:
                raise ValueError("facet outside the vertex set")
        for f in self.facets:
            for g in self.facets:
                if f != g and f & ~g == 0:
                    raise ValueError("facets are not an antichain")

    @classmethod
    def _trusted(cls, vertices: int, facets: tuple[int, ...]) -> "SimplicialComplex":
        """Build from facets the package has just made into a sorted,
        duplicate-free antichain inside `vertices`, skipping the quadratic
        checks of __post_init__."""
        complex_ = object.__new__(cls)
        object.__setattr__(complex_, "vertices", vertices)
        object.__setattr__(complex_, "facets", facets)
        return complex_

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for {<empty>}. Undefined (raises) on the void complex."""
        if self.is_void:
            raise VoidComplex("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def has_face(self, face_vars: Iterable[int]) -> bool:
        fmask = vars_to_mask(face_vars)
        return any(fmask & ~f == 0 for f in self.facets)

    def all_faces(self) -> list[int]:
        """Every face mask, sorted ascending (deterministic)."""
        return _faces(self.facets)


def _faces(facets: Iterable[int]) -> list[int]:
    """Every face of the complex with these facets, sorted ascending."""
    return sorted(_face_set(facets))


def _face_set(facets: Iterable[int]) -> set[int]:
    """Every face of the complex with these facets, as a set."""
    seen: set[int] = set()
    for f in facets:
        sub = f
        # standard submask walk, including 0
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return seen


def stanley_reisner(a: MonomialIdeal) -> SimplicialComplex:
    """Complex whose faces are the variable sets supporting no generator.

    Its facets are the complements of the minimal primes of a, which are
    the supports of the generators of the Alexander dual: no subset walk
    is made. The zero ideal gives the full simplex; an ideal
    containing every variable gives {<empty>}; the unit ideal is rejected
    (its complex would be void, which homology excludes).
    """
    if a.is_unit:
        raise UnsupportedIdeal("the unit ideal has no Stanley-Reisner complex here")
    full = a.ambient.full_mask
    if a.is_zero:
        return SimplicialComplex(full, (full,))
    dual = alexander_dual(a)
    return SimplicialComplex._trusted(full, tuple(sorted(full ^ g for g in dual.gen_masks())))


def restrict(d: SimplicialComplex, w: int | Iterable[int]) -> SimplicialComplex:
    """Full subcomplex on the vertex subset w (indices or a ready bitmask)."""
    wmask = w if isinstance(w, int) else vars_to_mask(w)
    if wmask & ~d.vertices:
        raise VerticesOutsideComplex("restriction vertices outside the complex")
    # maximal sets among f & w are the complements in w of the minimal w & ~f
    missing = _minimalize(wmask & ~f for f in d.facets)
    return SimplicialComplex._trusted(wmask, tuple(sorted(wmask ^ g for g in missing)))


# --- exact rank computations -------------------------------------------------


def _matrix_rank(cols: list[dict[int, int]], field: FieldSpec) -> int:
    """Rank over Q or GF(p) of the matrix with these sparse columns
    {row: entry}, by column reduction (Edelsbrunner-Harer, ch. VII): each
    column is reduced against a basis keyed by the last row of each
    vector, the "low" of the book, and a column that survives joins the
    basis. Each basis vector is kept with the inverse of its entry there,
    so the multiplier v[r] * inverse is exact: +-1 over Q for a +-1 pivot
    entry, a residue over GF(p), and a Fraction only for another pivot
    entry over Q, which torsion such as RP2's makes. Keying by the first
    row instead made about six times as many entry updates on boundary
    maps over Q. The benchmark's tracer (perfbench/spans.py) wraps this
    name and reads the length of the first column."""
    p = field.char
    basis: dict[int, tuple[dict[int, int], int]] = {}
    for col in cols:
        v = {j: e % p for j, e in col.items() if e % p} if p else dict(col)
        while v:
            low = max(v)
            entry = basis.get(low)
            if entry is None:
                e = v[low]
                if p:
                    inv = pow(e, -1, p)
                elif e in (1, -1):
                    inv = e
                else:
                    # imported here, so that importing the package never loads it
                    from fractions import Fraction

                    inv = Fraction(1, e)
                basis[low] = (v, inv)
                break
            b, inv = entry
            f = v[low] * inv
            for j, e in b.items():
                w = v.get(j, 0) - f * e
                if p:
                    w %= p
                if w:
                    v[j] = w
                else:
                    del v[j]
    return len(basis)


# --- reduced homology --------------------------------------------------------


@lru_cache(maxsize=None)
def _homology_of_faces(facets: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    """Reduced homology ranks of the complex with these facets over the
    field of characteristic char, as (i, h~_i) pairs for i = -1 .. dim.
    The key is the facet tuple that reduced_homology_ranks relabels onto
    dense vertex bits, so complexes of the same shape, such as the
    complexes Gamma_k the Hochster walk reads off the type grid, which
    repeat heavily across walks, share one entry, and the cells are found
    only on a miss.
    What is reduced is the relative complex (Delta minus v, lk v) of the
    vertex v in the most facets, the lowest on ties (_star_vertex). The
    closed star of v is a cone, so it is acyclic and
    h~_i(Delta) = h_i(Delta minus v, lk v): the cells are the faces that
    miss v and are not in the link, whose faces are the only ones
    enumerated. The empty face lies in the link, so h~_{-1} is 0 unless
    Delta is {<empty>}, and a cone has no cells.
    The maps C_i -> C_{i-1} are built from the top dimension down, each as
    sparse columns {row: +-1}, one per i-cell, the boundary faces in the
    link left out, and ranked by _matrix_rank. The (i-1)-cells are the
    (i-1)-facets that miss v plus the boundary faces outside the link that
    the columns of C_i -> C_{i-1} visit, each given a row when first seen.
    No cell is missed: a cell f that is not a facet lies in a facet F that
    misses v (were v in F, f | v would be a face and f in the link), and
    for u in F - f, f | u is a cell one dimension up, whose column visits
    f (the link is closed under subsets, so it does not hold f | u).
    The name says faces though the key is facets; it is kept because the
    benchmark's tracer (perfbench/spans.py) reads its cache_info."""
    if facets == (0,):
        return ((-1, 1),)
    v = _star_vertex(facets)
    top = max(f.bit_count() for f in facets) - 1
    link = _face_set(f ^ v for f in facets if f & v)
    cells: dict[int, list[int]] = {i: [] for i in range(-1, top + 1)}
    for f in facets:
        if not f & v:
            cells[f.bit_count() - 1].append(f)
    field = FieldSpec(char)
    ranks: dict[int, int] = {}  # i -> rank of the boundary map C_i -> C_{i-1}
    for i in range(top, -1, -1):
        index = {f: r for r, f in enumerate(cells[i - 1])}
        cols: list[dict[int, int]] = []
        for f in cells[i]:
            col: dict[int, int] = {}
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                g = f ^ low
                if g not in link:
                    col[index.setdefault(g, len(index))] = sign
                sign = -sign
                rest ^= low
            cols.append(col)
        ranks[i] = _matrix_rank(cols, field)
        cells[i - 1] = list(index)
    return tuple(
        (i, len(cells[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0))
        for i in range(-1, top + 1)
    )


def _star_vertex(facets: Sequence[int]) -> int:
    """The bit of the vertex in the most of these facets, the lowest on
    ties."""
    vertices = range(max(facets).bit_length())
    return 1 << max(vertices, key=lambda j: sum(f >> j & 1 for f in facets))


def _relabel(masks: Iterable[int], support: int) -> list[int]:
    """The masks, each inside `support`, moved onto its dense bits in
    order: bit b goes to the bit that counts support's bits below b. The
    support is split once into its runs of consecutive bits, and each mask
    moves down one run at a time, by a mask and a shift."""
    runs = []
    below = 0  # support's bits below the run
    rest = support
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)  # adding low carries through the run
        runs.append((run, low.bit_length() - 1 - below))
        below += run.bit_count()
        rest ^= run
    if len(runs) == 1:
        ((_, shift),) = runs
        return [m >> shift for m in masks]
    out = []
    for m in masks:
        h = 0
        for run, shift in runs:
            h |= (m & run) >> shift
        out.append(h)
    return out


def _canonical_facets(facets: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted facets relabelled onto dense vertex bits (_relabel over their
    support). The relabelling keeps the vertex order, so the tuple stays
    sorted, and complexes equal up to such a renaming get the same key."""
    support = 0
    for f in facets:
        support |= f
    if support & (support + 1) == 0:  # the vertices in use are dense already
        return facets
    return tuple(_relabel(facets, support))


def reduced_homology_ranks(d: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """h~_i(d; field) for i = -1 .. dim(d), as a dict."""
    if d.is_void:
        raise VoidComplex("the void complex has no homology")
    return dict(_homology_of_faces(_canonical_facets(d.facets), field.char))
