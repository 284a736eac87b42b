"""Stanley-Reisner complexes and exact reduced simplicial homology.

Conventions: the reduced (augmented) chain complex is used throughout, so
the complex {<empty face>} has h~_{-1} = 1 and any full simplex has zero
homology everywhere. The void complex (no faces at all) carries no
homology and is rejected. All ranks are computed exactly: bit-packed
elimination over GF(2); over Q and GF(p), p > 2, sparse elimination on
unit pivots, with fraction-free (Bareiss) elimination only on a leftover
core of rows without a +-1 entry over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .core import MonomialIdeal, _minimalize, alexander_dual, mask_to_vars, vars_to_mask
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
            return cls(int(t[2:]))
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

    def facet_sets(self) -> list[frozenset[int]]:
        return [mask_to_vars(f) for f in self.facets]

    def all_faces(self) -> list[int]:
        """Every face mask, sorted ascending (deterministic)."""
        seen: set[int] = set()
        for f in self.facets:
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
    generators as facets. hochster_betti restricts the complex to one
    vertex subset per orbit of the ideal's interchangeable variables, read
    off the generator set alone. The zero ideal gives the full
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
    return SimplicialComplex(full, tuple(sorted(full ^ g for g in dual.gen_masks())))


def restrict(d: SimplicialComplex, w: int | Iterable[int]) -> SimplicialComplex:
    """Full subcomplex on the vertex subset w (indices or a ready bitmask)."""
    wmask = w if isinstance(w, int) else vars_to_mask(w)
    if wmask & ~d.vertices:
        raise VerticesOutsideComplex("restriction vertices outside the complex")
    # maximal sets among f & w are the complements in w of the minimal w & ~f
    missing = _minimalize(wmask & ~f for f in d.facets)
    return SimplicialComplex(wmask, tuple(sorted(wmask ^ g for g in missing)))


# --- exact rank computations -------------------------------------------------


def _rank_char0(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination over the integers; the result is
    the rank over the rationals. Pivots are chosen with minimal magnitude
    to limit entry growth; all divisions are exact."""
    if not rows or not rows[0]:
        return 0
    mat = [row[:] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            v = mat[i][col]
            if v and (pivot is None or abs(v) < abs(mat[pivot][col])):
                pivot = i
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, nrows):
            vi = mat[i][col]
            row_i, row_p = mat[i], mat[rank]
            for j in range(col, ncols):
                row_i[j] = (row_i[j] * pv - vi * row_p[j]) // prev
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_gf2(rows: list[list[int]]) -> int:
    """Bit-packed elimination over GF(2)."""
    packed = []
    for row in rows:
        acc = 0
        for j, v in enumerate(row):
            if v & 1:
                acc |= 1 << j
        if acc:
            packed.append(acc)
    rank = 0
    while packed:
        piv = packed.pop()
        rank += 1
        low = piv & -piv
        packed = [r ^ piv if r & low else r for r in packed]
        packed = [r for r in packed if r]
    return rank


def _rank_sparse(rows: list[list[int]], p: int) -> int:
    """Exact rank over Q (p = 0) or GF(p) by sparse elimination on unit
    pivots: each step takes the shortest live row with a unit entry (+-1
    over Q; any nonzero residue over GF(p)), clears that column from every
    other row with exact integer (or mod-p) arithmetic and drops the pivot
    row. Boundary matrices have +-1 entries, so over Q Bareiss only runs
    on a core of rows with no unit left, if any; those rows are zero in
    every pivot column, so the ranks add."""
    if p:
        rows = [[v % p for v in row] for row in rows]
    live = [r for r in ({j: v for j, v in enumerate(row) if v} for row in rows) if r]
    rank = 0
    while live:
        pivot = None
        for r in live:
            if (pivot is None or len(r) < len(pivot)) and (
                p or 1 in r.values() or -1 in r.values()
            ):
                pivot = r
        if pivot is None:
            break
        col = next(j for j, v in pivot.items() if p or v in (1, -1))
        # the multiplier that clears col: v / pivot[col], and 1/(+-1) = +-1
        inv = pow(pivot[col], -1, p) if p else pivot[col]
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
        rank += 1
    if live:
        cols = sorted(set().union(*live))
        rank += _rank_char0([[r.get(j, 0) for j in cols] for r in live])
    return rank


def _matrix_rank(rows: list[list[int]], field: FieldSpec) -> int:
    if field.char == 2:
        return _rank_gf2(rows)
    return _rank_sparse(rows, field.char)


# --- reduced homology --------------------------------------------------------


@lru_cache(maxsize=None)
def _homology_of_faces(faces: tuple[int, ...], char: int) -> tuple[tuple[int, int], ...]:
    """Reduced homology ranks keyed by the face list itself (cacheable:
    restrictions repeat heavily across Hochster sweeps). The faces come
    sorted and closed under subsets, so every dimension from -1 to the top
    has a bucket, and each bucket is sorted."""
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    field = FieldSpec(char)
    ranks: dict[int, int] = {}  # i -> rank of the boundary map C_i -> C_{i-1}
    for i in range(top + 1):
        lower, upper = by_dim[i - 1], by_dim[i]
        index = {f: r for r, f in enumerate(lower)}
        mat = [[0] * len(upper) for _ in lower]
        for col, f in enumerate(upper):
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                mat[index[f ^ low]][col] = sign
                sign = -sign
                rest ^= low
        ranks[i] = _matrix_rank(mat, field)
    return tuple(
        (i, len(by_dim[i]) - ranks.get(i, 0) - ranks.get(i + 1, 0))
        for i in range(-1, top + 1)
    )


def _canonical_faces(d: SimplicialComplex) -> tuple[int, ...]:
    """Faces relabelled onto dense vertex bits so equal-shaped complexes on
    different vertex sets share cache entries."""
    support = 0
    for f in d.facets:
        support |= f
    bits = [i for i in range(support.bit_length()) if support >> i & 1]
    remap = {b: j for j, b in enumerate(bits)}
    faces = []
    for f in d.all_faces():
        g = 0
        rest = f
        while rest:
            low = rest & -rest
            g |= 1 << remap[low.bit_length() - 1]
            rest ^= low
        faces.append(g)
    return tuple(sorted(faces))


def reduced_homology_ranks(d: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """h~_i(d; field) for i = -1 .. dim(d), as a dict."""
    if d.is_void:
        raise VoidComplex("the void complex has no homology")
    return dict(_homology_of_faces(_canonical_faces(d), field.char))
