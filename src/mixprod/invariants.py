"""Brute-force invariants: graded Betti numbers of S/I by Hochster's
formula, then regularity, projective dimension, depth, dimension and the
Cohen-Macaulay / linear-resolution tests.

Depth is defined here through Auslander-Buchsbaum as
(number of variables) - pd(S/I); no separate depth computation is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, prod
from typing import Iterable, Sequence

from .core import MonomialIdeal, Ambient
from .errors import TeraiMismatch, UnsupportedIdeal
from .homology import FieldSpec, _canonical_facets, _homology_of_faces


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


def _up_set(
    sizes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """The up-closure of `types` in the grid prod [0, s_C] over these class
    sizes, held as the bits of one integer, with its mixed-radix axes
    (stride k, block k(s_C + 1)) per class, the last class counting
    fastest, and per class the points whose digit of that class is at
    least 1. The up-closure is closed by a prefix OR along each axis."""
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
    nonzero = []
    for k, block in axes:
        # the points whose digit of this class is at least 1: bits k.. of each block
        nonzero.append((everything // ((1 << block) - 1)) * ((1 << block) - (1 << k)))
        for _ in range(block // k - 1):
            up |= up << k & nonzero[-1]
    return up, axes, nonzero


def _transversal_types(
    sizes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The minimal transversal types of a set family over classes of these
    sizes, given the types of its members, for a family fixed by the
    permutations inside each class.

    The type of a set T is (|T & C|)_C. A set U of type u contains a member
    exactly when u >= d for a member type d, since the group carries a
    member of type d <= u into U: it lies in the up-closure `up` of the
    member types (_up_set). A set of type t is a transversal (its
    complement holds no member) iff its complement's type s - t, s the
    class sizes, is outside `up`, and a minimal one iff s - t is a maximal
    such type: adding a variable of any class it misses lands in `up`."""
    up, axes, nonzero = _up_set(sizes, types)
    points = axes[0][1]
    free = ((1 << points) - 1) ^ up  # the types of the sets holding no member
    tops = free
    for (k, _), mask in zip(axes, nonzero):
        tops &= ~(free >> k & mask >> k)
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


def _dual_types(
    classes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The generator types of the Alexander dual of the ideal whose
    generator types over `classes` are `types`, sorted: its minimal
    transversal types (_transversal_types)."""
    return tuple(sorted(_transversal_types([c.bit_count() for c in classes], types)))


def _dual(
    ambient: Ambient, classes: Sequence[int], dual_types: Iterable[tuple[int, ...]]
) -> MonomialIdeal:
    """The ideal of `ambient` generated by every set of the types
    `dual_types` over `classes`, expanded over the class members
    (_sets_of_types): the Alexander dual of an ideal when they are the
    minimal transversal types of its generator types (_dual_types)."""
    members = [_members(c) for c in classes]
    return MonomialIdeal._trusted(ambient, sorted(_sets_of_types(dual_types, members)))


def dual_by_types(a: MonomialIdeal) -> MonomialIdeal:
    """The Alexander dual of `a` over all its variables, read off count
    vectors over its swap classes (_swap_classes, _dual_types, _dual), as
    `mixprod dual` prints it and as oracle_report's set-up builds it."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Alexander dual needs a proper nonzero ideal")
    classes = _swap_classes(a)
    return _dual(a.ambient, classes, _dual_types(classes, _gen_types(a.gen_masks(), classes)))


# (the counts c of W over the classes that meet it, the generator types
# inside W over those classes): a row's description of W (_walk_plan)
_Key = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]
_Parts = tuple[tuple[tuple[int, ...], int, int], ...]
# (k - 1 at a corner k of the type grid, the canonical facets of Gamma_k, |k|)
_Corners = tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]


def _corners(sizes: Sequence[int], types: Sequence[tuple[int, ...]]) -> _Corners:
    """The corners k of the up-closure U of the generator types `types` in
    the grid prod [0, s_C] over these class sizes, each with the facets of
    its complex Gamma_k, canonical as _homology_of_faces keys them, and
    |k|, in ascending order of k, for an ideal whose generator set is fixed
    by the permutations inside each class. A corner whose Gamma_k is a
    cone is left out. _parts reads beta_{.,W} off them at any W of type
    c <= s over these classes.

    A set inside W is a face of Delta|_W iff its type lies in the down-set
    R of the t <= c with no generator type d <= t. The augmented chain
    complex of the simplex on W is the tensor product over C of those of
    the simplices on W & C, each split exact: the sum of C(c_C - 1, k_C - 1)
    two-term complexes in sizes k_C and k_C - 1, k_C = 1..c_C. The
    splitting keeps types, so C~(Delta|_W) is the sum of the cubes of
    corners k <= c, cut to R. A cube is all in R or all outside it unless
    k is outside R and k - 1 inside: a corner of U (_up_set) with k <= c,
    since U meets the box [0, c] in the up-closure of the types inside W.
    There a vertex k - e, e a set of classes, is outside R iff e lies in
    U_d = {C : d_C < k_C} for some d <= k, so the cut cube is the full
    cube, acyclic, modulo the cochains of the complex Gamma_k with the
    facets U_d: its homology in size |k| - j - 2 has the rank
    h~_j(Gamma_k), which Hochster's formula puts at i = |W| - |k| + 2 + j;
    a cone Gamma_k is acyclic. Gamma_k depends on k and the types d <= k
    alone, not on W. With singleton classes k = W, and Gamma_k is the
    Alexander dual of Delta|_W inside W, with the facets W - g over the
    generators g inside W."""
    up, axes, nonzero = _up_set(sizes, types)
    corners = up & ~up << sum(k for k, _ in axes)  # k - 1 lies outside up
    for mask in nonzero:
        corners &= mask
    bits = [1 << j for j in range(len(sizes))]
    out = []
    while corners:
        low = corners & -corners
        corners ^= low
        k = [(low.bit_length() - 1) % block // stride for stride, block in axes]
        facets = set()
        for d in types:  # U_d for each d <= k
            u = 0
            for b, x, y in zip(bits, d, k):
                if x > y:
                    break
                if x < y:
                    u |= b
            else:
                facets.add(u)
        # the U_d that no other holds, by size, larger first
        kept: list[int] = []
        common = -1
        for u in sorted(facets, key=int.bit_count, reverse=True):
            if all(u & ~v for v in kept):
                kept.append(u)
                common &= u
        if not common:
            out.append((tuple([x - 1 for x in k]), _canonical_facets(tuple(sorted(kept))), sum(k)))
    return tuple(out)


def _parts(c: tuple[int, ...], corners: _Corners) -> _Parts:
    """beta_{.,W}(S/I) at a nonempty W of type c, read off the corners of
    the type grid over the classes that meet W (_corners) on any box that
    holds c, as parts (facets, base, multiplicity) merged on (facets,
    base): beta_{i,W} is the sum of multiplicity * h~_{i-base} of those
    complexes. Only the corners k <= c count, each with the multiplicity
    prod_C C(c_C - 1, k_C - 1) and the base |c| + 2 - |k|. No complex on W
    is built."""
    base, below = sum(c) + 2, [x - 1 for x in c]
    parts: dict[tuple[tuple[int, ...], int], int] = {}
    for below_k, facets, size in corners:
        mult = prod(map(comb, below, below_k))  # 0 unless k <= c
        if mult:
            key = (facets, base - size)
            parts[key] = parts.get(key, 0) + mult
    return tuple((*key, mult) for key, mult in parts.items())


# a row's key (_Key) -> (the parts _parts reads at it, {field.char: the
# value _betti_of sums}); process-wide, since beta_{i,W} depends on nothing
# else, and filled by hochster_betti alone
_Entry = tuple[_Parts, dict[int, dict[int, int]]]
_BETTI_AT: dict[_Key, _Entry] = {}


def _betti_of(entry: _Entry, char: int) -> dict[int, int]:
    """The value of a memo entry over the field of characteristic `char`,
    {i: beta_{i,W}}, an i left out having beta_{i,W} = 0: summed from the
    homology of its parts' complexes, sorted by i, so that a table's walk
    lists each W's Betti numbers in ascending i whatever the order of the
    parts, and stored in the entry."""
    parts, by_char = entry
    betti: dict[int, int] = {}
    for facets, base, mult in parts:
        for j, h in _homology_of_faces(facets, char):
            if h:
                betti[base + j] = betti.get(base + j, 0) + mult * h
    betti = by_char[char] = dict(sorted(betti.items()))
    return betti


@dataclass(frozen=True)
class _WalkPlan:
    """The field-independent part of hochster_betti on one ideal, read off
    its generator masks `gens` alone: their classes of interchangeable
    variables, the distinct count vectors (types) of the generators over
    them, sorted, and one row (W, key, |W|, orbit size) per orbit
    representative W that is neither empty nor a cone, its key the type of
    W and the generator types inside W over the classes that meet W. The
    rows whose W meets the same classes M read their parts off one corner
    table, built on the key of the row at the union of M (_top_key)."""

    gens: tuple[int, ...]
    classes: tuple[int, ...]
    types: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, _Key, int, int], ...]


def _walk_plan(
    gens: tuple[int, ...], classes: tuple[int, ...], types: tuple[tuple[int, ...], ...]
) -> _WalkPlan:
    """The plan of the ideal with the ascending generator masks `gens`,
    given classes that partition its variables so that permuting inside
    each fixes the generator set, and its sorted generator types over them.

    The representatives are the points of the type grid, built class by
    class, the last class counting fastest: the one taking k variables of a
    class takes its lowest k, and its orbit holds prod C(|C|, k) subsets.
    Each point carries the generator types inside it, the d <= its type;
    taking k variables of class C keeps those with d_C <= k. A point with
    no type left, W = {} among them for a proper ideal, is dropped with
    every point it grows to: no generator lies inside it. The generator
    set is a union of type orbits, so the generators inside W cover W, and
    Delta|_W is no cone, iff each class meeting W is hit by an inside type.
    A row's key is W's type and its inside types, projected onto the
    classes that meet W: with singleton classes that is the set of
    generators inside W relabelled onto W's bits."""
    # (W, its counts over the classes it meets, those classes, its orbit
    # size, the generator types inside it)
    points = [(0, (), (), 1, types)]
    for j, cls in enumerate(classes):
        prefixes = [0]
        for bit in _members(cls):
            prefixes.append(prefixes[-1] | bit)
        size = len(prefixes) - 1
        binomials = [comb(size, k) for k in range(size + 1)]
        grown = []
        for w, c, meets, orbit, inside in points:
            narrowed = [d for d in inside if not d[j]]
            if narrowed:
                grown.append((w, c, meets, orbit, narrowed))
            for k in range(1, size + 1):
                narrowed = [d for d in inside if d[j] <= k] if k < size else inside
                if narrowed:
                    grown.append((w | prefixes[k], (*c, k), (*meets, j), orbit * binomials[k], narrowed))
        points = grown
    rows = []
    for w, c, meets, orbit, inside in points:
        inside = tuple([tuple([d[j] for j in meets]) for d in inside])
        if all(map(any, zip(*inside))):
            rows.append((w, (c, inside), w.bit_count(), orbit))
    return _WalkPlan(gens, classes, types, tuple(rows))


def _plan_of(a: MonomialIdeal) -> _WalkPlan:
    """The plan of `a` over its swap classes (_swap_classes) and the
    generator types it counts over them (_gen_types)."""
    gens = a.gen_masks()
    classes = tuple(_swap_classes(a))
    return _walk_plan(gens, classes, tuple(sorted(_gen_types(gens, classes))))


def _top_key(plan: _WalkPlan, w: int) -> _Key:
    """The key of the plan row at the union of the classes M that W meets,
    a row whenever W is one: M's sizes and the generator types supported in
    M, projected onto M. Its box holds the type of every W meeting M, so
    the corners read at it (_corners) serve all of them."""
    meets = [j for j, cls in enumerate(plan.classes) if w & cls]
    types = [tuple([d[j] for j in meets]) for d in plan.types]
    return (
        tuple([plan.classes[j].bit_count() for j in meets]),
        tuple([t for t, d in zip(types, plan.types) if sum(t) == sum(d)]),
    )


def hochster_betti(a: MonomialIdeal, field: FieldSpec, plan: _WalkPlan | None = None) -> BettiTable:
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
    the generator types alone, so it is planned (_walk_plan) before the
    walk: `plan` when oracle_report passes the one its set-up built, which
    must be that of a's generator masks and variables (ValueError
    otherwise), and a plan built now when it is None.
    Every other W is looked up in the process-wide Betti memo _BETTI_AT,
    which only this walk fills, under its row's key, the type of W and the
    generator types inside W over the classes that meet W, by one dict
    lookup, so a restricted ideal met before over the same classes, in
    this walk or an earlier one, over this field or another, is not read
    off the types again, and over a field met before costs no homology. A
    miss splits the chain complex of the simplex on W over the classes
    (_corners): beta_{i,W} is a sum of the homologies of small complexes
    Gamma_k on the classes M that meet W, one per corner k <= c of the
    type grid, c the type of W, times binomial multiplicities (_parts),
    and those homologies are the only ones the oracle asks the homology
    kernel for. Gamma_k depends on k and the generator types d <= k alone,
    so the corners are read once per walk and per M, on the first miss
    among M's rows, on the box of M's full sizes (_top_key), and each miss
    keeps those below its type. With singleton classes Gamma_k is the
    Alexander dual of Delta|_W inside W.
    """
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Betti numbers are computed for proper nonzero ideals")
    if plan is None:
        plan = _plan_of(a)
    elif plan.gens != a.gen_masks() or sum(plan.classes) != a.ambient.full_mask:
        raise ValueError("the walk plan is that of another ideal")
    entries = {(0, 0): 1}
    walk = [(0, 0, 1)]
    char = field.char
    tables: dict[int, _Corners] = {}  # the union of the classes a W meets -> their corners
    for w, key, size, orbit in plan.rows:
        entry = _BETTI_AT.get(key)
        if entry is None:
            top = sum(cls for cls in plan.classes if w & cls)
            corners = tables.get(top)
            if corners is None:
                corners = tables[top] = _corners(*_top_key(plan, w))
            entry = _BETTI_AT[key] = (_parts(key[0], corners), {})
        betti = entry[1].get(char)
        if betti is None:
            betti = _betti_of(entry, char)
        for i, r in betti.items():
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


# (ambient, generator masks) -> the _set_up of the last ideal reported on:
# a sweep reports on one ideal over each field in turn
_SET_UP: dict[tuple[Ambient, tuple[int, ...]], tuple[_WalkPlan, MonomialIdeal, _WalkPlan, int]] = {}


def _set_up(a: MonomialIdeal) -> tuple[_WalkPlan, MonomialIdeal, _WalkPlan, int]:
    """What oracle_report needs of `a` before any field, built once and kept
    for the last ideal only: its plan, its Alexander dual read off the
    plan's classes and types (_dual_types, _dual), the dual's plan and the
    dimension. A permutation fixes an ideal exactly when it fixes its dual,
    so the dual's plan takes the ideal's classes and the dual types, and the
    dimension is nv minus the least sum of a dual type. A self-dual ideal's
    plan serves as its dual's."""
    key = (a.ambient, a.gen_masks())
    set_up = _SET_UP.get(key)
    if set_up is None:
        plan = _plan_of(a)
        dual_types = _dual_types(plan.classes, plan.types)
        dual = _dual(a.ambient, plan.classes, dual_types)
        if dual.gen_masks() == plan.gens:  # self-dual: the same plan
            dual_plan = plan
        else:
            dual_plan = _walk_plan(dual.gen_masks(), plan.classes, dual_types)
        set_up = (plan, dual, dual_plan, a.ambient.nvars - min(map(sum, dual_types)))
        _SET_UP.clear()
        _SET_UP[key] = set_up
    return set_up


def oracle_report(a: MonomialIdeal, field: FieldSpec) -> InvariantReport:
    """Invariants from the combinatorial route: dimension from the minimal
    primes (the supports of the Alexander dual's generators), pd and
    regularity from the Betti table, depth by Auslander-Buchsbaum. The
    regularity is re-derived as pd(S/I*) over the full vertex set and the
    two values are asserted equal (Terai). The plans of both walks, the
    dual and the dimension come from the ideal's set-up (_set_up), so a
    report on the same ideal over another field, as a sweep makes, builds
    none of them again."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("invariants are computed for proper nonzero ideals")
    nv = a.ambient.nvars
    plan, dual, dual_plan, dim = _set_up(a)
    pd, reg_quotient = betti_stats(hochster_betti(a, field, plan))
    reg_ideal = reg_quotient + 1
    dual_pd, _ = betti_stats(hochster_betti(dual, field, dual_plan))
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
