"""Brute-force invariants: graded Betti numbers of S/I by Hochster's
formula, then regularity, projective dimension, depth, dimension and the
Cohen-Macaulay / linear-resolution tests.

Depth is defined here through Auslander-Buchsbaum as
(number of variables) - pd(S/I); no separate depth computation is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import MonomialIdeal, Ambient, alexander_dual
from .errors import TeraiMismatch, UnsupportedIdeal
from .homology import (
    FieldSpec,
    SimplicialComplex,
    reduced_homology_ranks,
    restrict,
    stanley_reisner,
)


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti numbers of S/I: (homological degree i,
    total degree j) -> rank, plus the multigraded refinement
    (i, vertex-set mask) -> rank kept for diagnostics."""

    ambient: Ambient
    entries: dict[tuple[int, int], int]
    multigraded: dict[tuple[int, int], int]

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, r) for (i, j), r in sorted(self.entries.items())]


def _swap_classes(a: MonomialIdeal) -> list[int]:
    """Masks of the classes of interchangeable variables: i and j share a
    class iff swapping them maps the generator set to itself. The relation
    is transitive, (i k) = (i j)(j k)(i j), so each variable is tested
    against one member of each class found so far."""
    gens = set(a.gen_masks())
    classes: list[int] = []
    for v in range(a.ambient.nvars):
        for k, cls in enumerate(classes):
            swap = (1 << v) | (cls & -cls)
            if all(g ^ swap in gens for g in gens if (g & swap).bit_count() == 1):
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _subsets_by_size(cls: int) -> list[list[int]]:
    """Submasks of the class mask `cls`, grouped by size; each group starts
    with its lowest variables."""
    groups: list[list[int]] = [[] for _ in range(cls.bit_count() + 1)]
    sub = 0
    while True:
        groups[sub.bit_count()].append(sub)
        if sub == cls:
            return groups
        sub = (sub - cls) & cls


def _face_bound(d: SimplicialComplex) -> int:
    """sum(2^|F|) over the facets F: at least the number of faces."""
    return sum(1 << f.bit_count() for f in d.facets)


def _choose_side(
    delta: SimplicialComplex, w: int, dual: SimplicialComplex
) -> tuple[SimplicialComplex, bool]:
    """The complex whose homology gives beta_{.,W}, Delta|_W or its
    Alexander dual `dual` inside W (on any relabelling of W's vertices),
    and whether it is the dual. The faces
    of the two split the 2^|W| subsets of W between them, so a dual whose
    face bound is at most 2^(|W|-1) has no more faces than Delta|_W and is
    taken without restricting. Otherwise Delta|_W is restricted and the
    side with the smaller face bound wins."""
    bound = _face_bound(dual)
    if bound <= 1 << (w.bit_count() - 1):
        return dual, True
    primal = restrict(delta, w)
    if bound < _face_bound(primal):
        return dual, True
    return primal, False


# (generators inside W relabelled onto W's dense bits, field.char) -> the
# _betti_at value; process-wide, since beta_{i,W} depends on nothing else
_BETTI_AT: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}


def _betti_at(
    delta: SimplicialComplex, gens: tuple[int, ...], w: int, field: FieldSpec
) -> dict[int, int]:
    """{i: beta_{i,W}(S/I)} for the vertex subset w; an i it leaves out
    has beta_{i,W} = 0. The dict is shared through the memo: do not
    change it.

    The minimal non-faces of Delta|_W are the generators g inside W, so
    Delta|_W is a cone, hence acyclic, exactly when they miss a vertex of
    W. Otherwise beta_{i,W} depends only on those generators (Hochster),
    so the value is memoized on them, relabelled onto W's dense bits in
    order, and on the field's characteristic. On a miss the relabelled
    generators give the Alexander dual inside W, with the facets W - g,
    and combinatorial Alexander duality gives h~_k(Delta|_W) =
    h~_{|W|-k-3} of the dual, so beta_{i,W} = h~_{|W|-i-1}(Delta|_W) =
    h~_{i-2} of the dual. The homology is taken of whichever side
    _choose_side picks.
    """
    if not w:
        return {0: 1}
    inside = [g for g in gens if g & ~w == 0]
    cover = 0
    for g in inside:
        cover |= g
    if cover != w:
        return {}
    # bit b of g moves to the bit that counts W's vertices below b
    local = []
    for g in inside:
        h = 0
        while g:
            low = g & -g
            h |= 1 << (w & (low - 1)).bit_count()
            g ^= low
        local.append(h)
    key = (tuple(local), field.char)
    betti = _BETTI_AT.get(key)
    if betti is None:
        full = (1 << w.bit_count()) - 1
        dual = SimplicialComplex._trusted(full, tuple(sorted(full ^ g for g in local)))
        side, is_dual = _choose_side(delta, w, dual)
        ranks = reduced_homology_ranks(side, field)
        if is_dual:
            betti = {k + 2: r for k, r in ranks.items()}
        else:
            betti = {w.bit_count() - 1 - k: r for k, r in ranks.items()}
        _BETTI_AT[key] = betti
    return betti


def hochster_betti(
    a: MonomialIdeal, field: FieldSpec, dual: MonomialIdeal | None = None
) -> BettiTable:
    """beta_{i,W}(S/I) = h~_{|W|-i-1}(Delta|_W; field) over every subset W
    of the variables, aggregated to total degree j = |W|.

    The complex's facets are the complements of the dual's generators
    (see stanley_reisner); pass `dual` when alexander_dual(a) is known.
    oracle_report passes the ideal and its dual each other, so both of its
    complexes come from generator complements. The walk sees only the
    generator set: permuting the variables inside each class of
    _swap_classes fixes the ideal, so beta_{i,W} depends only on the
    counts |W & C| over the classes C. One representative per count
    vector, the lowest variables of each class, is evaluated by _betti_at,
    prod(|C|+1) in all, and its value counts once for every member of its
    orbit in the multigraded table and in the totals. With singleton
    classes this is the full 2^N walk. W = {} gives beta_{0,{}} = 1, and a
    W whose generators miss one of its vertices gives a cone and is
    skipped without restricting. Every other W is looked up in a
    process-wide memo under the generators inside W, relabelled onto W's
    dense bits, and the field, so a restricted ideal met before, in this
    walk or an earlier one, costs no homology. A miss takes the homology
    of the Alexander dual inside W outright when its face bound is at
    most 2^(|W|-1), and otherwise of whichever of Delta|_W and that dual
    has the smaller face bound; the dual side reads beta_{i,W} = h~_{i-2}
    of the dual.
    """
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Betti numbers are computed for proper nonzero ideals")
    delta = stanley_reisner(a, dual)
    gens = a.gen_masks()
    groups = [_subsets_by_size(cls) for cls in _swap_classes(a)]
    multigraded: dict[tuple[int, int], int] = {}
    for parts in product(*groups):
        w = sum(p[0] for p in parts)
        for i, r in _betti_at(delta, gens, w, field).items():
            if r:
                for v in product(*parts):
                    multigraded[(i, sum(v))] = r
    entries: dict[tuple[int, int], int] = {}
    for (i, w), r in multigraded.items():
        key = (i, w.bit_count())
        entries[key] = entries.get(key, 0) + r
    return BettiTable(a.ambient, entries, multigraded)


def betti_stats(b: BettiTable) -> tuple[int, int]:
    """(projective dimension, regularity of the quotient) read off a table."""
    pd = max(i for i, _ in b.entries)
    reg_quotient = max(j - i for i, j in b.entries)
    return pd, reg_quotient


@dataclass(frozen=True)
class InvariantReport:
    """One bundle of invariants of S/I, produced by either route."""

    dim: int
    depth: int
    pd: int
    reg_of_ideal: int
    reg_of_quotient: int
    cm: bool
    height: int
    method: str  # "formula" | "oracle"
    field: FieldSpec | None = None


def oracle_report(a: MonomialIdeal, field: FieldSpec) -> InvariantReport:
    """Invariants from the combinatorial route: dimension from the minimal
    primes (the supports of the Alexander dual's generators), pd and
    regularity from the Betti table, depth by Auslander-Buchsbaum. The
    regularity is re-derived as pd(S/I*) over the full vertex set and the
    two values are asserted equal (Terai). The dual is computed once and
    serves the dimension and both Stanley-Reisner complexes."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("invariants are computed for proper nonzero ideals")
    nv = a.ambient.nvars
    dual = alexander_dual(a)
    dim = nv - min(g.degree for g in dual.gens)
    pd, reg_quotient = betti_stats(hochster_betti(a, field, dual=dual))
    reg_ideal = reg_quotient + 1
    # the dual of the dual is a itself
    dual_pd, _ = betti_stats(hochster_betti(dual, field, dual=a))
    if dual_pd != reg_ideal:
        raise TeraiMismatch(
            f"reg({a}) = {reg_ideal} but pd of the dual quotient is {dual_pd}"
        )
    depth = nv - pd
    return InvariantReport(
        dim=dim,
        depth=depth,
        pd=pd,
        reg_of_ideal=reg_ideal,
        reg_of_quotient=reg_quotient,
        cm=(dim == depth),
        height=nv - dim,
        method="oracle",
        field=field,
    )


def has_linear_resolution(a: MonomialIdeal, field: FieldSpec) -> bool:
    """True iff all minimal generators share one degree d and reg(a) = d."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("linear resolutions concern proper nonzero ideals")
    degrees = {g.degree for g in a.gens}
    if len(degrees) != 1:
        return False
    (d,) = degrees
    _, reg_quotient = betti_stats(hochster_betti(a, field))
    return reg_quotient + 1 == d
