"""Stanley-Reisner complexes and exact reduced simplicial homology.

Conventions: the reduced (augmented) chain complex is used throughout, so
the complex {<empty face>} has h~_{-1} = 1 and any full simplex has zero
homology everywhere. The void complex (no faces at all) carries no
homology and is rejected. Homology is computed from the facets alone,
relabelled onto dense vertex bits, which is also the cache key; the faces
are enumerated only when the cache misses, and each boundary map is built
as sparse columns, one {row: +-1} dict per face, never as a dense matrix.
The maps are reduced from the top dimension down, and each rank routine
reports its pivot rows; a face that is a pivot row of the map above it is
a boundary modulo faces off those rows, so it gets no column in its own
map (clearing), which leaves every rank unchanged over every field.
All ranks are exact: over GF(2) the columns are packed into ints and
reduced against a basis keyed by lowest bit; over Q and GF(p), p > 2,
sparse elimination prefers unit pivots and, over Q, takes a Fraction
multiplier only when no column has a +-1 entry left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .core import MonomialIdeal, _minimalize, alexander_dual, vars_to_mask
from .errors import (
    AmbientMismatch,
    UnsupportedIdeal,
    VerticesOutsideComplex,
    VoidComplex,
)


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
    seen: set[int] = set()
    for f in facets:
        sub = f
        # standard submask walk, including 0
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return sorted(seen)


def stanley_reisner(
    a: MonomialIdeal, dual: MonomialIdeal | None = None
) -> SimplicialComplex:
    """Complex whose faces are the variable sets supporting no generator.

    Its facets are the complements of the minimal primes of a, which are
    the supports of the generators of the Alexander dual: no subset walk
    is made. Pass `dual` when alexander_dual(a) is already at hand; by
    duality the complex of the dual then has the complements of a's own
    generators as facets. hochster_betti visits one vertex subset per
    orbit of the ideal's interchangeable variables, read off the generator
    set alone, and restricts the complex only at a subset whose
    restriction is no cone, whose restricted ideal its memo has not seen,
    and whose Alexander dual inside the subset has a face bound above
    half the subset's subsets. The zero ideal gives the full
    simplex; an ideal containing every variable gives {<empty>}; the unit
    ideal is rejected (its complex would be void, which homology excludes).
    """
    if a.is_unit:
        raise UnsupportedIdeal("the unit ideal has no Stanley-Reisner complex here")
    full = a.ambient.full_mask
    if a.is_zero:
        return SimplicialComplex(full, (full,))
    if dual is None:
        dual = alexander_dual(a)
    elif dual.ambient != a.ambient:
        raise AmbientMismatch("the dual lives in a different ambient")
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


def _rank_gf2(cols: list[dict[int, int]]) -> list[int]:
    """Pivot rows over GF(2), one per unit of rank: each column is packed
    into an int, one bit per odd entry, and reduced against a basis keyed
    by lowest set bit; a column that survives joins the basis. The pivot
    row of a basis vector is its lowest bit, so on the pivot rows, taken
    in order, the basis is triangular with a unit diagonal and the columns
    span every vector there."""
    basis: dict[int, int] = {}
    for col in cols:
        v = 0
        for j, e in col.items():
            if e & 1:
                v |= 1 << j
        while v:
            low = v & -v
            b = basis.get(low)
            if b is None:
                basis[low] = v
                break
            v ^= b
    return [low.bit_length() - 1 for low in basis]


def _rank_sparse(cols: list[dict[int, int]], p: int) -> list[int]:
    """Pivot indices over Q (p = 0) or GF(p) of sparse vectors
    {index: entry}, one per unit of rank, by elimination: each step takes
    the shortest live vector with a unit entry (+-1 over Q; any nonzero
    residue over GF(p)), clears that index from every other vector with
    exact (or mod-p) arithmetic, drops the pivot and reports the index.
    Each pivot vector is zero at the indices reported before it, so the
    vectors span every vector on the reported indices. Over Q the vectors
    are consumed in place. Boundary matrices have +-1 entries, so Q
    vectors seldom run out of units (RP2's torsion makes them); then the
    shortest vector is the pivot, with a Fraction multiplier."""
    if p:
        cols = [{j: v % p for j, v in c.items() if v % p} for c in cols]
    live = [c for c in cols if c]
    pivots = []
    while live:
        pivot = None
        for r in live:
            if (pivot is None or len(r) < len(pivot)) and (
                p or 1 in r.values() or -1 in r.values()
            ):
                pivot = r
        # the multiplier that clears col is v / pivot[col]
        if pivot is None:
            # imported here, so that importing the package never loads it
            from fractions import Fraction

            pivot = min(live, key=len)
            col = next(iter(pivot))
            inv = Fraction(1, pivot[col])
        else:
            col = next(j for j, v in pivot.items() if p or v in (1, -1))
            inv = pow(pivot[col], -1, p) if p else pivot[col]  # 1/(+-1) = +-1
        rest = []
        for r in live:
            if r is pivot:
                continue
            f = r.get(col)
            if f:
                f *= inv
                for j, v in pivot.items():
                    w = r.get(j, 0) - f * v
                    if p:
                        w %= p
                    if w:
                        r[j] = w
                    else:
                        r.pop(j, None)
                if not r:
                    continue
            rest.append(r)
        live = rest
        pivots.append(col)
    return pivots


def _matrix_rank(cols: list[dict[int, int]], field: FieldSpec) -> list[int]:
    """Pivot rows of the matrix with these sparse columns {row: entry}: as
    many as its rank, and the columns span every vector on them."""
    if field.char == 2:
        return _rank_gf2(cols)
    return _rank_sparse(cols, field.char)


# --- reduced homology --------------------------------------------------------


@lru_cache(maxsize=None)
def _homology_of_faces(facets: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    """Reduced homology ranks of the complex with these facets over the
    field of characteristic char, as (i, h~_i) pairs. The key is the facet
    tuple that reduced_homology_ranks relabels onto dense vertex bits, so
    complexes of the same shape, restrictions and their Alexander duals
    inside W alike, which repeat heavily across Hochster walks, share one
    entry, and the faces are enumerated only on a miss.
    Each boundary map C_i -> C_{i-1} is built as sparse columns, one
    {row: +-1} dict per i-face, and no dense matrix is made. The maps are
    reduced from the top dimension down with clearing (Chen-Kerber, "twist"):
    an i-face that is a pivot row of C_{i+1} -> C_i gets no column. The
    columns of C_{i+1} -> C_i span every vector on its pivot rows, so each
    such face is a boundary plus faces off those rows; its image under
    C_i -> C_{i-1} lies in the span of the columns that are built, and the
    rank is unchanged over every field. The name says faces though the
    key is facets; it is kept because the benchmark's tracer
    (perfbench/spans.py) reads its cache_info."""
    by_dim: dict[int, list[int]] = {}
    for f in _faces(facets):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    field = FieldSpec(char)
    ranks: dict[int, int] = {}  # i -> rank of the boundary map C_i -> C_{i-1}
    cleared: set[int] = set()  # the i-faces that are pivot rows of C_{i+1} -> C_i
    for i in range(top, -1, -1):
        lower = by_dim[i - 1]
        index = {f: r for r, f in enumerate(lower)}
        cols = []
        for f in by_dim[i]:
            if f in cleared:
                continue
            col = {}
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                col[index[f ^ low]] = sign
                sign = -sign
                rest ^= low
            cols.append(col)
        pivots = _matrix_rank(cols, field)
        ranks[i] = len(pivots)
        cleared = {lower[r] for r in pivots}
    return tuple(
        (i, len(by_dim[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0))
        for i in range(-1, top + 1)
    )


def _canonical_facets(d: SimplicialComplex) -> tuple[int, ...]:
    """Facets relabelled onto dense vertex bits. The relabelling keeps the
    vertex order, so the tuple stays sorted, and complexes equal up to
    such a renaming get the same key."""
    support = 0
    for f in d.facets:
        support |= f
    bits = [1 << i for i in range(support.bit_length()) if support >> i & 1]
    return tuple(sum(1 << j for j, b in enumerate(bits) if f & b) for f in d.facets)


def reduced_homology_ranks(d: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """h~_i(d; field) for i = -1 .. dim(d), as a dict."""
    if d.is_void:
        raise VoidComplex("the void complex has no homology")
    return dict(_homology_of_faces(_canonical_facets(d), field.char))
