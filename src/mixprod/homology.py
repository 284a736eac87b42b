"""Coefficient fields and exact reduced simplicial homology: the kernel
that ranks the complexes Gamma_k of the oracle's Hochster sum.

Conventions: the reduced (augmented) chain complex is used throughout, so
the complex {<empty face>} has h~_{-1} = 1 and any full simplex has zero
homology everywhere. The void complex (no faces at all) carries no
homology. Homology is computed from the facets alone, relabelled onto
dense vertex bits, which is also the cache key; the cells are found only
when the cache misses. The closed star of one vertex v,
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

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldSpec(namedtuple("FieldSpec", "char")):
    """Coefficient field: characteristic 0 means the rationals, a prime p
    means GF(p)."""

    __slots__ = ()

    def __new__(cls, char: int = 0) -> "FieldSpec":
        if char != 0 and not _is_prime(char):
            raise ValueError(f"{char} is not prime")
        return tuple.__new__(cls, (char,))

    @classmethod
    def _make(cls, values: Iterable) -> "FieldSpec":
        return cls(*values)

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
    The key is a facet tuple relabelled onto dense vertex bits
    (_canonical_facets), so complexes of the same shape, such as the
    complexes Gamma_k that Hochster's sum reads off the type grid, which
    repeat heavily across ideals and fields, share one entry, and the
    cells are found only on a miss.
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
