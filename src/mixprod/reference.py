"""The reference route: Berge's Alexander dual, minimal primes, Krull
dimension, Stanley-Reisner complexes, their restrictions and their reduced
homology.

This is the slow, general route that the tests and CI compare the oracle
(mixprod.invariants) against, and part of the public API. The oracle sums
the Betti numbers off the generator types and ranks only the small
complexes Gamma_k of that sum through the homology kernel; it imports
nothing from here, and neither does any other module of the package but
its __init__. This module reads the data model (mixprod.core) and the
kernel (mixprod.homology).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .core import MonomialIdeal, SqFreeMonomial, _minimalize, mask_to_vars, vars_to_mask
from .errors import (
    SupportOutsideVertices,
    UnsupportedIdeal,
    VerticesOutsideComplex,
    VoidComplex,
)
from .homology import FieldSpec, _canonical_facets, _face_set, _homology_of_faces


def alexander_dual(
    a: MonomialIdeal, vertices: Iterable[int] | None = None
) -> MonomialIdeal:
    """Intersection of the variable primes of the generators, relative to
    the given vertex set (default: all ambient variables). Involutive on a
    fixed vertex set.

    Its generators are the minimal transversals of the generator supports,
    built by Berge's incremental algorithm (C. Berge, Hypergraphs, 1989,
    ch. 2): at each generator g, the transversals that meet g are kept,
    each other one is extended by one variable of g at a time, and an
    extension survives unless it contains a kept transversal. A kept k
    lies inside the extension t | s (t missing g, s in g) exactly when
    k & g == s and k ^ s lies inside t, so the kept transversals that meet
    g in one variable s are indexed as k ^ s under s, and each extension is
    tested against its own variable's list only. The result
    is a duplicate-free antichain with no minimalizing pass: if t | s lay
    inside t' | s' for transversals t, t' missing g and s, s' in g, then t
    would lie inside t', so t = t' and s = s'; and a kept transversal
    containing t | s would strictly contain t, though both are minimal
    transversals of the earlier generators."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Alexander dual needs a proper nonzero ideal")
    vmask = a.ambient.full_mask if vertices is None else vars_to_mask(vertices)
    if vmask & ~a.ambient.full_mask:
        raise SupportOutsideVertices("vertex set outside the ambient")
    gens = a.gen_masks()
    for g in gens:
        if g & ~vmask:
            raise SupportOutsideVertices(
                f"generator {SqFreeMonomial(a.ambient, g)} uses variables outside the vertex set"
            )
    current = [0]
    for g in gens:
        kept = [t for t in current if t & g]
        # inside[s]: k ^ s for the kept k with k & g == s, a single variable
        inside: dict[int, list[int]] = {
            1 << i: [] for i in range(g.bit_length()) if g >> i & 1
        }
        for k in kept:
            s = k & g
            if s in inside:
                inside[s].append(k ^ s)
        current = kept + [
            t | s
            for t in current
            if not t & g
            for s, rests in inside.items()
            if not any(r & ~t == 0 for r in rests)
        ]
    return MonomialIdeal._trusted(a.ambient, sorted(current))


def minimal_primes(a: MonomialIdeal) -> list[frozenset[int]]:
    """Variable sets of the minimal primes: supports of the dual's minimal
    generators over the full ambient vertex set."""
    dual = alexander_dual(a)
    return sorted(map(mask_to_vars, dual.gen_masks()), key=lambda s: (len(s), sorted(s)))


def krull_dim(a: MonomialIdeal) -> int:
    """dim(S/a) = (number of variables) - height."""
    return a.ambient.nvars - min(len(p) for p in minimal_primes(a))


class SimplicialComplex(namedtuple("SimplicialComplex", "vertices facets")):
    """Vertex set plus facets (maximal faces), both as variable bitmasks.

    An empty facet tuple is the void complex; the facet tuple (0,) is the
    complex whose only face is the empty set.
    """

    __slots__ = ()

    def __new__(cls, vertices: int, facets: tuple[int, ...]) -> "SimplicialComplex":
        if facets != tuple(sorted(set(facets))):
            raise ValueError("facets must be sorted and duplicate-free")
        for f in facets:
            if f & ~vertices:
                raise ValueError("facet outside the vertex set")
        for f in facets:
            for g in facets:
                if f != g and f & ~g == 0:
                    raise ValueError("facets are not an antichain")
        return tuple.__new__(cls, (vertices, facets))

    @classmethod
    def _make(cls, values: Iterable) -> "SimplicialComplex":
        return cls(*values)

    @classmethod
    def _trusted(cls, vertices: int, facets: tuple[int, ...]) -> "SimplicialComplex":
        """Build from facets the package has just made into a sorted,
        duplicate-free antichain inside `vertices`, skipping the quadratic
        checks of __new__."""
        return tuple.__new__(cls, (vertices, facets))

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


def reduced_homology_ranks(d: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """h~_i(d; field) for i = -1 .. dim(d), as a dict."""
    if d.is_void:
        raise VoidComplex("the void complex has no homology")
    return dict(_homology_of_faces(_canonical_facets(d.facets), field.char))
