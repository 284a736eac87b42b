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
    vector, the lowest variables of each class, is restricted, prod(|C|+1)
    in all, and its value counts once for every member of its orbit in the
    multigraded table and in the totals. With singleton classes this is
    the full 2^N walk. Restrictions whose facets share a vertex are cones,
    hence contractible, and are skipped.
    """
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Betti numbers are computed for proper nonzero ideals")
    delta = stanley_reisner(a, dual)
    groups = [_subsets_by_size(cls) for cls in _swap_classes(a)]
    multigraded: dict[tuple[int, int], int] = {}
    for parts in product(*groups):
        w = sum(p[0] for p in parts)
        dw = restrict(delta, w)
        common = dw.facets[0]
        for f in dw.facets[1:]:
            common &= f
        if common:
            continue
        jdeg = w.bit_count()
        for ihom, r in reduced_homology_ranks(dw, field).items():
            if r:
                for v in product(*parts):
                    multigraded[(jdeg - 1 - ihom, sum(v))] = r
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
