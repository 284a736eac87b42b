"""Brute-force invariants: graded Betti numbers of S/I by Hochster's
formula, then regularity, projective dimension, depth, dimension and the
Cohen-Macaulay / linear-resolution tests.

Depth is defined here through Auslander-Buchsbaum as
(number of variables) - pd(S/I); no separate depth computation is made.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, prod
from typing import Iterable, Sequence

from .core import MonomialIdeal, Ambient
from .errors import TeraiMismatch, UnsupportedIdeal
from .homology import (
    FieldSpec,
    SimplicialComplex,
    _canonical_facets,
    _relabel,
    reduced_homology_ranks,
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
        members = [_members(c) for c in self.classes]
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
    against one member of each class found so far.

    The generator set is held as one 2^N-bit integer T, bit g set iff g is
    a generator mask, and a transposition (u v), u < v, is tested on all
    of it by one delta-swap (Knuth, TAOCP 4A, 7.1.3): with d = 2^v - 2^u,
    the set is fixed iff T[g] = T[g + d] at every g that holds u and not
    v, that is iff (T ^ (T >> d)) & has[u] & ~has[v] is 0, where has[j]
    marks the masks that hold j (_bit_planes)."""
    nvars = a.ambient.nvars
    indicator = bytearray(((1 << nvars) + 7) >> 3)
    for g in a.gen_masks():
        indicator[g >> 3] |= 1 << (g & 7)
    t = int.from_bytes(indicator, "little")
    has = _bit_planes(nvars)
    classes: list[int] = []
    for v in range(nvars):
        for k, cls in enumerate(classes):
            u = (cls & -cls).bit_length() - 1
            # the g with u where T[g] != T[g + d]: fixed iff each also holds v
            mismatched = (t ^ t >> ((1 << v) - (1 << u))) & has[u]
            if mismatched & has[v] == mismatched:
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


@lru_cache(maxsize=None)
def _bit_planes(nvars: int) -> tuple[int, ...]:
    """has[j], as 2^nvars-bit integers: bit g set iff the mask g holds
    variable j. Each is a block of 2^j zeros then 2^j ones, doubled until
    it spans the 2^nvars positions."""
    size = 1 << nvars
    has = []
    for j in range(nvars):
        width = 2 << j
        block = ((1 << (1 << j)) - 1) << (1 << j)
        while width < size:
            block |= block << width
            width <<= 1
        has.append(block)
    return tuple(has)


def _members(mask: int) -> list[int]:
    """The single-bit masks of mask's variables, lowest first."""
    return [1 << b for b in range(mask.bit_length()) if mask >> b & 1]


def _transversal_types(
    sizes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The minimal transversal types of a set family over classes of these
    sizes, given the types of its members, for a family fixed by the
    permutations inside each class.

    The type of a set T is (|T & C|)_C. A set U of type u contains a member
    exactly when u >= d for a member type d, since the group carries a
    member of type d <= u into U. The grid prod [0, |C|] is held as the bits
    of one integer, and `up`, the up-closure of the member types, is closed
    by a prefix OR along each class's axis. A set of type t is a transversal
    (its complement holds no member) iff its complement's type s - t, s the
    class sizes, is outside `up`, and a minimal one iff s - t is a maximal
    such type: adding a variable of any class it misses lands in `up`."""
    # mixed-radix grid index, the last class counting fastest: the digit
    # of a class has stride k and runs once over each block of k(|C|+1)
    axes = []
    points = 1
    for size in reversed(sizes):
        axes.append((points, points * (size + 1)))
        points = axes[-1][1]
    axes.reverse()
    up = 0
    for d in types:
        up |= 1 << sum(x * k for x, (k, _) in zip(d, axes))
    everything = (1 << points) - 1
    # below[i]: the points whose digit of class i is below |C_i|
    below = []
    for k, block in axes:
        # the points whose digit of class i is at least 1: bits k.. of each block
        nonzero = (everything // ((1 << block) - 1)) * ((1 << block) - (1 << k))
        for _ in range(block // k - 1):
            up |= up << k & nonzero
        below.append(nonzero >> k)
    free = everything ^ up  # the types of the sets holding no member
    tops = free
    for (k, _), mask in zip(axes, below):
        tops &= ~(free >> k & mask)
    out = []
    while tops:
        low = tops & -tops
        tops ^= low
        c = points - low.bit_length()  # the index of s - u, u the type of low
        out.append(tuple(c % block // k for k, block in axes))
    return out


def _sets_of_types(types: Iterable[tuple[int, ...]], members: Sequence[list[int]]) -> list[int]:
    """Every set of each of these types over the classes whose variables
    are `members` (single-bit masks): the unions of a t_C-subset of each
    class C. A class's subsets are built only for the types expanded."""
    out = []
    for t in types:
        parts = [[sum(s) for s in combinations(bits, k)] for bits, k in zip(members, t)]
        out.extend(sum(p) for p in product(*parts))
    return out


def _gen_types(gens: Iterable[int], classes: Sequence[int]) -> set[tuple[int, ...]]:
    """The distinct count vectors (|g & C|)_C of the generators."""
    return {tuple((g & c).bit_count() for c in classes) for g in gens}


@lru_cache(maxsize=1)
def _dual_types(
    classes: tuple[int, ...], types: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """The generator types of the Alexander dual of the ideal whose
    generator types over `classes` are `types`, sorted: its minimal
    transversal types (_transversal_types). _dual expands them, and the
    dual's plan and oracle_report's dimension read them; the last one is
    kept, since those three ask for the same dual in turn."""
    return tuple(sorted(_transversal_types([c.bit_count() for c in classes], types)))


@lru_cache(maxsize=1)
def _dual(
    ambient: Ambient, classes: tuple[int, ...], types: tuple[tuple[int, ...], ...]
) -> MonomialIdeal:
    """The Alexander dual of the ideal of `ambient` whose generator types
    over `classes` are `types`: every set of the dual's types
    (_dual_types), expanded over the class members (_sets_of_types). The
    last one is kept, since a sweep reports on one ideal over each field
    in turn."""
    members = [_members(c) for c in classes]
    tops = _dual_types(classes, types)
    return MonomialIdeal._trusted(ambient, sorted(_sets_of_types(tops, members)))


def dual_by_types(a: MonomialIdeal, classes: Sequence[int] | None = None) -> MonomialIdeal:
    """The Alexander dual of `a` over all its variables, read off count
    vectors (_dual), as `mixprod dual` prints it; the oracle calls _dual on
    its plan's classes and types. `classes` partitions the variables so
    that permuting inside each class fixes the generator set, and defaults
    to _swap_classes(a)."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Alexander dual needs a proper nonzero ideal")
    classes = tuple(_swap_classes(a) if classes is None else classes)
    return _dual(a.ambient, classes, tuple(sorted(_gen_types(a.gen_masks(), classes))))


def _restricted_types(
    w: int, classes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The type c of W over `classes`, and the types of the complements in
    W of the facets of Delta|_W, read off the generator types `types` of an
    ideal whose generator set the permutations inside each of `classes`
    fix; no complex is restricted and no facet is built.

    The permutations inside each W & C fix the generators inside W, which
    are the subsets of W of the types d <= c in `types`. Those generators
    are the minimal non-faces of Delta|_W, so its facets are the
    complements in W of their minimal transversals: the sets of the
    minimal transversal types of those d over the sizes c."""
    c = [(w & cls).bit_count() for cls in classes]
    inside = [d for d in types if all(x <= y for x, y in zip(d, c))]
    return c, _transversal_types(c, inside)


def _types_bound(c: Sequence[int], tops: Iterable[tuple[int, ...]]) -> int:
    """The face bound of Delta|_W, sum(2^|F|) over its facets F, which is
    at least its number of faces, counted from its types
    (_restricted_types): the facet W - T has 2^(|W| - |T|) subsets, and W
    has prod C(c_C, t_C) sets T of type t."""
    size = sum(c)
    return sum(prod(map(comb, c, t)) << (size - sum(t)) for t in tops)


def _restricted_facets(
    w: int, classes: Sequence[int], tops: Iterable[tuple[int, ...]]
) -> tuple[int, ...]:
    """The facets of Delta|_W relabelled onto W's dense bits in order: the
    complements in W of every set of the types `tops` (_restricted_types),
    expanded over W & C relabelled onto W's dense bits."""
    members = [[1 << (w & (b - 1)).bit_count() for b in _members(w & cls)] for cls in classes]
    full = (1 << w.bit_count()) - 1
    return tuple(sorted(full ^ t for t in _sets_of_types(tops, members)))


def _choose_side(
    local: tuple[int, ...], w: int, classes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The complex whose homology gives beta_{.,W}, for a nonempty vertex
    subset w whose restriction is no cone, with its generators `local`
    relabelled onto W's dense bits (_local_gens): its facets, canonical as
    _homology_of_faces keys them, and the degree map (shift, step) with
    beta_{i,W} = h~_k of the side at i = shift + step * k.

    The sides are Delta|_W, with i = |W| - 1 - k (Hochster), and its
    Alexander dual inside W, with the facets W - g over the generators
    inside W and i = k + 2 (combinatorial Alexander duality,
    h~_k(Delta|_W) = h~_{|W|-k-3} of the dual). Both face bounds are
    counted before either side is built: the dual's is the sum of
    2^(|W| - |g|) over the generators g inside W, since W - g has that
    many subsets. The faces of the two split the 2^|W| subsets of W
    between them, so a dual whose bound is at most 2^(|W|-1) has no more
    faces than Delta|_W and is taken without reading Delta|_W. Otherwise
    the bound of Delta|_W is counted from its types (_restricted_types,
    _types_bound), and the side with the smaller bound wins, Delta|_W on a
    tie. Only the winner's facets are built: those of Delta|_W expanded
    from its types (_restricted_facets), those of the dual sorted."""
    size = w.bit_count()
    full = (1 << size) - 1
    bound = sum(1 << (size - g.bit_count()) for g in local)
    if bound > 1 << (size - 1):
        c, tops = _restricted_types(w, classes, types)
        if _types_bound(c, tops) <= bound:
            facets = _restricted_facets(w, classes, tops)
            return _canonical_facets(SimplicialComplex._trusted(full, facets)), (size - 1, -1)
    facets = tuple(sorted(full ^ g for g in local))
    return _canonical_facets(SimplicialComplex._trusted(full, facets)), (2, 1)


def _local_gens(gens: tuple[int, ...], w: int) -> tuple[int, ...] | None:
    """The generators inside the vertex subset w, relabelled onto w's
    dense bits in order (_relabel, a shift per run of w's bits: at most
    two for a W of a mixed product), or None when Delta|_W is a cone. The
    minimal non-faces of Delta|_W are the generators inside W, so it is a
    cone, hence acyclic, exactly when they miss a vertex of W. The
    generator masks come sorted ascending, as gen_masks gives them, so
    only those up to w can lie inside it."""
    outside = ~w
    inside = [g for g in gens[: bisect_right(gens, w)] if not g & outside]
    cover = 0
    for g in inside:
        cover |= g
    if cover != w:
        return None
    return tuple(_relabel(inside, w))


# generators inside W relabelled onto W's dense bits -> (the facets of the
# side _choose_side picked, its degree map, {field.char: the _betti_at
# value}); process-wide, since beta_{i,W} depends on nothing else
_BETTI_AT: dict[
    tuple[int, ...], tuple[tuple[int, ...], tuple[int, int], dict[int, dict[int, int]]]
] = {}


def _betti_at(
    plan: _WalkPlan, w: int, local: tuple[int, ...], field: FieldSpec
) -> dict[int, int]:
    """{i: beta_{i,W}(S/I)} for a row (w, local) of `plan`: a nonempty
    vertex subset w whose restriction is no cone, and its relabelled
    generators `local` (_local_gens); an i it leaves out has
    beta_{i,W} = 0. The dict is shared through the memo: do not change it.

    beta_{i,W} depends only on `local` (Hochster), so the value is
    memoized on it. One entry holds the side _choose_side picks, chosen on
    the first miss from the plan's classes and types, and one value per
    field characteristic, each taken from the homology of that side."""
    entry = _BETTI_AT.get(local)
    if entry is None:
        entry = _BETTI_AT[local] = (*_choose_side(local, w, plan.classes, plan.types), {})
    facets, (shift, step), by_char = entry
    betti = by_char.get(field.char)
    if betti is None:
        side = SimplicialComplex._trusted((1 << w.bit_count()) - 1, facets)
        ranks = reduced_homology_ranks(side, field)
        betti = by_char[field.char] = {shift + step * k: r for k, r in ranks.items()}
    return betti


@dataclass(frozen=True)
class _WalkPlan:
    """The field-independent part of hochster_betti on one ideal, read off
    its generator set alone: its classes of interchangeable variables, the
    distinct count vectors (types) of its generators over them, sorted,
    and one row (W, generators inside W relabelled, |W|, orbit size) per
    orbit representative W that is neither empty nor a cone."""

    classes: tuple[int, ...]
    types: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, tuple[int, ...], int, int], ...]


# (ambient, generator masks) -> plan, for the last two ideals planned:
# oracle_report asks for the ideal, then the dual, once per field
_PLANS: dict[tuple[Ambient, tuple[int, ...]], _WalkPlan] = {}


def _walk_plan(
    a: MonomialIdeal,
    classes: Sequence[int] | None = None,
    types: tuple[tuple[int, ...], ...] | None = None,
) -> _WalkPlan:
    """The plan of `a`, from the last two built or built now; building a
    third drops the older, so the plan of an ideal that follows a
    self-dual one outlives the building of its dual's. A plan built now
    takes `classes` when given, which must partition the variables into
    classes whose permutations fix the generator set, and otherwise runs
    _swap_classes; it takes `types` when given with them, which must be
    the sorted generator types over those classes, and otherwise counts
    them (_gen_types). oracle_report passes the ideal's classes and the
    dual's types (_dual_types) to its dual's plan, since a permutation
    fixes an ideal exactly when it fixes its dual. The representative
    taking k variables of a class takes its lowest k, and its orbit holds
    prod C(|C|, k) subsets, multiplied out over the classes' binomial
    rows once for all representatives."""
    key = (a.ambient, a.gen_masks())
    plan = _PLANS.get(key)
    if plan is None:
        gens = key[1]
        classes = tuple(_swap_classes(a) if classes is None else classes)
        if types is None:
            types = tuple(sorted(_gen_types(gens, classes)))
        # the representatives and their orbit sizes in one order, the last
        # class counting fastest
        reps, orbits = [0], [1]
        for cls in classes:
            prefixes = [0]
            for bit in _members(cls):
                prefixes.append(prefixes[-1] | bit)
            binomials = [comb(len(prefixes) - 1, k) for k in range(len(prefixes))]
            reps = [w | p for w in reps for p in prefixes]
            orbits = [o * b for o in orbits for b in binomials]
        rows = []
        for w, orbit in zip(reps, orbits):
            local = _local_gens(gens, w)
            if w and local is not None:
                rows.append((w, local, w.bit_count(), orbit))
        plan = _WalkPlan(classes, types, tuple(rows))
        if len(_PLANS) >= 2:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = plan
    return plan


def hochster_betti(a: MonomialIdeal, field: FieldSpec) -> BettiTable:
    """beta_{i,W}(S/I) = h~_{|W|-i-1}(Delta|_W; field) over every subset W
    of the variables, aggregated to total degree j = |W|.

    The walk sees only the generator set, and no Stanley-Reisner complex
    is built: permuting the variables inside each class of _swap_classes
    fixes the ideal, so beta_{i,W} depends only on the counts |W & C| over
    the classes C. One representative per count vector, the lowest
    variables of each class, prod(|C|+1) in all, is evaluated, and its
    value counts once for every member of its orbit: the totals add it
    times the orbit size, and the multigraded table is expanded over the
    orbits only when read. With singleton classes this is the full 2^N
    walk. W = {} gives beta_{0,{}} = 1, and a W whose generators miss one
    of its vertices gives a cone and is skipped. All of this depends on
    the generators alone, so it is planned once per ideal (_walk_plan),
    and the plans of the last ideal and of its dual are kept: a sweep asks
    for both once per field.
    Every other W is looked up by _betti_at in a process-wide memo under
    the generators inside W, relabelled onto W's dense bits, so a
    restricted ideal met before, in this walk or an earlier one, over
    this field or another, chooses no side again, and over a field met
    before costs no homology. A miss takes the homology of the Alexander
    dual inside W, whose facets are W - g over those generators, outright
    when its face bound is at most 2^(|W|-1), and otherwise of whichever
    of it and Delta|_W has the smaller face bound, Delta|_W on a tie. The
    bound of Delta|_W is counted from the generator types, and its facets
    are read off them only when it wins; the dual side reads
    beta_{i,W} = h~_{i-2} of the dual.
    """
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Betti numbers are computed for proper nonzero ideals")
    plan = _walk_plan(a)
    entries = {(0, 0): 1}
    walk = [(0, 0, 1)]
    for w, local, size, orbit in plan.rows:
        for i, r in _betti_at(plan, w, local, field).items():
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
    classes and generator types of the ideal's plan (_dual). Its own
    generator types are the minimal transversal types that _dual expands
    (_dual_types), so the dual's plan takes them and the ideal's classes,
    and the dimension is nv minus the least sum of one of them: a report
    finds the classes once and counts generator types on the ideal only.
    A report on the same ideal over another field, as a sweep makes,
    reuses the plans of the ideal and of its dual."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("invariants are computed for proper nonzero ideals")
    nv = a.ambient.nvars
    plan = _walk_plan(a)
    dual = _dual(a.ambient, plan.classes, plan.types)
    dual_types = _dual_types(plan.classes, plan.types)
    _walk_plan(dual, plan.classes, dual_types)  # the Terai walk below takes this plan
    dim = nv - min(map(sum, dual_types))
    pd, reg_quotient = betti_stats(hochster_betti(a, field))
    reg_ideal = reg_quotient + 1
    dual_pd, _ = betti_stats(hochster_betti(dual, field))
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
