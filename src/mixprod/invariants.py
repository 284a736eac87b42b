"""Brute-force invariants: graded Betti numbers of S/I by Hochster's
formula, then regularity, projective dimension, depth, dimension and the
Cohen-Macaulay / linear-resolution tests.

Depth is defined here through Auslander-Buchsbaum as
(number of variables) - pd(S/I); no separate depth computation is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, prod
from typing import Sequence

from .core import MonomialIdeal, Ambient
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
    total degree j) -> rank. The walk behind them is kept as `walk`, one
    (i, W, beta_{i,W}) per nonzero value at an orbit representative W,
    with the classes of interchangeable variables whose permutations
    carry W over its orbit; `multigraded`, the refinement
    (i, vertex-set mask) -> rank kept for diagnostics, is expanded from
    them when first read."""

    ambient: Ambient
    entries: dict[tuple[int, int], int]
    walk: tuple[tuple[int, int, int], ...]
    classes: tuple[int, ...]

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, r) for (i, j), r in sorted(self.entries.items())]

    @cached_property
    def multigraded(self) -> dict[tuple[int, int], int]:
        members = [[1 << b for b in range(c.bit_length()) if c >> b & 1] for c in self.classes]
        out: dict[tuple[int, int], int] = {}
        for i, w, r in self.walk:
            parts = [
                [sum(s) for s in combinations(bits, (w & cls).bit_count())]
                for cls, bits in zip(self.classes, members)
            ]
            for v in product(*parts):
                out[(i, sum(v))] = r
        return out


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


def dual_by_types(a: MonomialIdeal, classes: Sequence[int] | None = None) -> MonomialIdeal:
    """The Alexander dual of `a` over all its variables, read off count
    vectors: the one dual of the walk plan and of `mixprod dual`.
    `classes` partitions the variables so that permuting inside each class
    fixes the generator set, and defaults to _swap_classes(a).

    The type of a set T is (|T & C|)_C. A set U of type u contains a
    generator exactly when u >= d for a generator type d, since the group
    carries a generator of type d <= u into U. The grid prod [0, |C|] is
    held as the bits of one integer, and `up`, the up-closure of the
    generator types, is closed by a prefix OR along each class's axis. A
    set of type c is a transversal (its complement holds no generator) iff
    its complement's type s - c, s the class sizes, is outside `up`, and a
    minimal one iff s - c is a maximal such type: adding a variable of any
    class it misses lands in `up`. The dual is every set of a minimal
    transversal type."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Alexander dual needs a proper nonzero ideal")
    if classes is None:
        classes = _swap_classes(a)
    # mixed-radix grid index, the last class counting fastest: the digit
    # of a class has stride k and runs once over each block of k(|C|+1)
    axes = []
    points = 1
    for cls in reversed(classes):
        axes.append((points, points * (cls.bit_count() + 1)))
        points = axes[-1][1]
    axes.reverse()
    up = 0
    for g in a.gen_masks():
        up |= 1 << sum((g & c).bit_count() * k for c, (k, _) in zip(classes, axes))
    everything = (1 << points) - 1
    # below[i]: the points whose digit of class i is below |C_i|
    below = []
    for k, block in axes:
        # the points whose digit of class i is at least 1: bits k.. of each block
        nonzero = (everything // ((1 << block) - 1)) * ((1 << block) - (1 << k))
        for _ in range(block // k - 1):
            up |= up << k & nonzero
        below.append(nonzero >> k)
    free = everything ^ up  # the types of the sets holding no generator
    tops = free
    for (k, _), mask in zip(axes, below):
        tops &= ~(free >> k & mask)
    out = []
    while tops:
        low = tops & -tops
        tops ^= low
        c = points - low.bit_length()  # the index of s - t, t the type of low
        parts = []
        for cls, (k, block) in zip(classes, axes):
            bits = [1 << b for b in range(cls.bit_length()) if cls >> b & 1]
            parts.append([sum(t) for t in combinations(bits, c % block // k)])
        out.extend(sum(p) for p in product(*parts))
    return MonomialIdeal._trusted(a.ambient, sorted(out))


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


def _local_gens(gens: tuple[int, ...], w: int) -> tuple[int, ...] | None:
    """The generators inside the vertex subset w, relabelled onto w's
    dense bits in order, or None when Delta|_W is a cone. The minimal
    non-faces of Delta|_W are the generators inside W, so it is a cone,
    hence acyclic, exactly when they miss a vertex of W."""
    inside = [g for g in gens if g & ~w == 0]
    cover = 0
    for g in inside:
        cover |= g
    if cover != w:
        return None
    # bit b of g moves to the bit that counts W's vertices below b
    local = []
    for g in inside:
        h = 0
        while g:
            low = g & -g
            h |= 1 << (w & (low - 1)).bit_count()
            g ^= low
        local.append(h)
    return tuple(local)


# (generators inside W relabelled onto W's dense bits, field.char) -> the
# _betti_at value; process-wide, since beta_{i,W} depends on nothing else
_BETTI_AT: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}


def _betti_at(
    delta: SimplicialComplex, w: int, local: tuple[int, ...], field: FieldSpec
) -> dict[int, int]:
    """{i: beta_{i,W}(S/I)} for a nonempty vertex subset w whose
    restriction is no cone, given its relabelled generators `local`
    (_local_gens); an i it leaves out has beta_{i,W} = 0. The dict is
    shared through the memo: do not change it.

    beta_{i,W} depends only on `local` (Hochster), so the value is
    memoized on it and on the field's characteristic. On a miss `local`
    gives the Alexander dual inside W, with the facets W - g, and
    combinatorial Alexander duality gives h~_k(Delta|_W) =
    h~_{|W|-k-3} of the dual, so beta_{i,W} = h~_{|W|-i-1}(Delta|_W) =
    h~_{i-2} of the dual. The homology is taken of whichever side
    _choose_side picks.
    """
    key = (local, field.char)
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


@dataclass(frozen=True)
class _WalkPlan:
    """The field-independent part of hochster_betti on one ideal: its
    Alexander dual, its complex, its classes of interchangeable variables,
    and one row (W, generators inside W relabelled, |W|, orbit size) per
    orbit representative W that is neither empty nor a cone."""

    dual: MonomialIdeal
    delta: SimplicialComplex
    classes: tuple[int, ...]
    rows: tuple[tuple[int, tuple[int, ...], int, int], ...]


# (ambient, generator masks) -> plan, for the last two ideals planned:
# oracle_report asks for the ideal, then the dual, once per field
_PLANS: dict[tuple[Ambient, tuple[int, ...]], _WalkPlan] = {}


def _walk_plan(a: MonomialIdeal, dual: MonomialIdeal | None) -> _WalkPlan:
    """The plan of `a`, from the last two built or built now; building a
    third drops the older, so the plan of an ideal that follows a
    self-dual one outlives the building of its dual's. A plan built
    without `dual` computes it by dual_by_types on the plan's classes. A
    permutation fixes an ideal exactly when it fixes its dual, so when
    the plan of `dual` is at hand its classes are taken and _swap_classes
    is not run again. The representative taking k variables of a class
    takes its lowest k, and its orbit holds prod C(|C|, k) subsets."""
    key = (a.ambient, a.gen_masks())
    plan = _PLANS.get(key)
    if plan is None:
        gens = key[1]
        known = None if dual is None else _PLANS.get((dual.ambient, dual.gen_masks()))
        classes = known.classes if known else tuple(_swap_classes(a))
        # prefixes[c][k]: the lowest k variables of class c
        prefixes = []
        for cls in classes:
            masks = [0]
            for b in range(cls.bit_length()):
                if cls >> b & 1:
                    masks.append(masks[-1] | 1 << b)
            prefixes.append(masks)
        rows = []
        for parts in product(*prefixes):
            w = sum(parts)
            local = _local_gens(gens, w)
            if w and local is not None:
                orbit = prod(comb(len(p) - 1, s.bit_count()) for p, s in zip(prefixes, parts))
                rows.append((w, local, w.bit_count(), orbit))
        if dual is None:
            dual = dual_by_types(a, classes)
        plan = _WalkPlan(dual, stanley_reisner(a, dual), classes, tuple(rows))
        if len(_PLANS) >= 2:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = plan
    return plan


def hochster_betti(
    a: MonomialIdeal, field: FieldSpec, dual: MonomialIdeal | None = None
) -> BettiTable:
    """beta_{i,W}(S/I) = h~_{|W|-i-1}(Delta|_W; field) over every subset W
    of the variables, aggregated to total degree j = |W|.

    The complex's facets are the complements of the dual's generators
    (see stanley_reisner); pass `dual` when the Alexander dual of `a` is
    known, and otherwise the plan computes it by dual_by_types.
    oracle_report passes the ideal and its dual each other, so both of its
    complexes come from generator complements. The walk sees only the
    generator set: permuting the variables inside each class of
    _swap_classes fixes the ideal, so beta_{i,W} depends only on the
    counts |W & C| over the classes C. One representative per count
    vector, the lowest variables of each class, prod(|C|+1) in all, is
    evaluated, and its value counts once for every member of its orbit:
    the totals add it times the orbit size, and the multigraded table is
    expanded over the orbits only when read. With singleton classes this
    is the full 2^N walk. W = {} gives beta_{0,{}} = 1, and a W whose
    generators miss one of its vertices gives a cone and is skipped
    without restricting. All of this depends on the generators alone, so
    it is planned once per ideal (_walk_plan), and the plans of the last
    ideal and of its dual are kept: a sweep asks for both once per field,
    and the dual's plan takes the ideal's classes.
    Every other W is looked up by _betti_at in a process-wide memo under
    the generators inside W, relabelled onto W's dense bits, and the
    field, so a restricted ideal met before, in this walk or an earlier
    one, costs no homology. A miss takes the homology of the Alexander
    dual inside W outright when its face bound is at most 2^(|W|-1), and
    otherwise of whichever of Delta|_W and that dual has the smaller face
    bound; the dual side reads beta_{i,W} = h~_{i-2} of the dual.
    """
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Betti numbers are computed for proper nonzero ideals")
    plan = _walk_plan(a, dual)
    entries = {(0, 0): 1}
    walk = [(0, 0, 1)]
    for w, local, size, orbit in plan.rows:
        for i, r in _betti_at(plan.delta, w, local, field).items():
            if r:
                entries[(i, size)] = entries.get((i, size), 0) + r * orbit
                walk.append((i, w, r))
    return BettiTable(a.ambient, entries, tuple(walk), plan.classes)


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
    two values are asserted equal (Terai). The dual is read off the
    ideal's walk plan, which computes it once per ideal by dual_by_types,
    off the count vectors over the classes. It serves the dimension and
    both Stanley-Reisner complexes, and a report on the same ideal over
    another field, as a sweep makes, reuses the plans of the ideal and of
    its dual."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("invariants are computed for proper nonzero ideals")
    nv = a.ambient.nvars
    dual = _walk_plan(a, None).dual
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
