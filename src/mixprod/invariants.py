"""Brute-force invariants: graded Betti numbers of S/I by Hochster's
formula, then regularity, projective dimension, depth, dimension and the
Cohen-Macaulay / linear-resolution tests.

Depth is defined here through Auslander-Buchsbaum as
(number of variables) - pd(S/I); no separate depth computation is made.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache, reduce
from itertools import groupby, product, starmap
from math import comb, prod
from operator import sub

from .core import MonomialIdeal, Ambient, _masks_of_indicator, _subset_tables
from .errors import TeraiMismatch, UnsupportedIdeal
from .homology import FieldSpec, _canonical_facets, _homology_of_faces


class BettiTable(namedtuple("BettiTable", "ambient entries plan char")):
    """Sparse graded Betti numbers of S/I over the field of characteristic
    `char`: (homological degree i, total degree j) -> rank, summed off the
    plan `plan` of the ideal (hochster_betti).

    The walk behind them, one (i, W, beta_{i,W}) per nonzero value at an
    orbit representative W, with the classes of interchangeable variables
    whose permutations carry W over its orbit, is read off the plan's
    corner tables when `walk` is first read; `multigraded`, the refinement
    (i, vertex-set mask) -> rank kept for diagnostics, is expanded from it
    when first read, each W's orbit as the sets of W's type, the product
    of the per-class subset indicators (core._subset_tables, built once
    per call) read back as masks (core._masks_of_indicator), one orbit per
    W. A report reads neither. The repr leaves out the plan and the
    characteristic; the table is immutable, and only the cached
    properties write to its __dict__."""

    ambient: Ambient
    entries: dict[tuple[int, int], int]
    plan: _WalkPlan
    char: int

    def __repr__(self) -> str:
        return f"BettiTable(ambient={self.ambient!r}, entries={self.entries!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a BettiTable is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a BettiTable is immutable")

    @property
    def classes(self) -> tuple[int, ...]:
        return self.plan.classes

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(i, j, r) for (i, j), r in sorted(self.entries.items())]

    @cached_property
    def walk(self) -> tuple[tuple[int, int, int], ...]:
        """(0, {}, 1), then for each representative W, the point of the type
        grid that takes the lowest c_C variables of each class C, in the
        order of the grid with the last class counting fastest, its nonzero
        beta_{i,W} in ascending i, read off the corner table of the classes
        that W meets (_parts); a W whose classes have no table holds no
        generator or is a cone."""
        classes, tables = self.plan.classes, self.plan.tables
        lowest = [[sum(bits[:k]) for k in range(len(bits) + 1)] for bits in map(_members, classes)]
        out = [(0, 0, 1)]
        for point in product(*lowest):
            c = [p.bit_count() for p in point]
            table = tables.get(sum(cls for cls, x in zip(classes, c) if x))
            if table:
                w = sum(point)
                parts = _parts(tuple([x for x in c if x]), table)
                out.extend((i, w, r) for i, r in _betti_of(parts, self.char).items())
        return tuple(out)

    @cached_property
    def multigraded(self) -> dict[tuple[int, int], int]:
        classes = self.classes
        tables = list(zip(classes, _subset_tables(classes, map(int.bit_count, classes))))
        out: dict[tuple[int, int], int] = {}
        for w, entries in groupby(self.walk, key=lambda entry: entry[1]):  # one run per W
            orbit = _masks_of_indicator(prod(v[(w & c).bit_count()] for c, v in tables))
            out.update(((i, v), r) for i, _, r in entries for v in orbit)
        return out


def _swap_classes(t: int, nvars: int) -> list[int]:
    """Masks of the classes of interchangeable variables of the generator
    set with the indicator `t` (MonomialIdeal.indicator) over `nvars`
    variables: i and j share a class iff swapping them maps the set to
    itself. The relation is transitive, (i k) = (i j)(j k)(i j), so each
    variable is tested against one member of each class found so far.

    A transposition (u v), u < v, is tested on all of T by one delta-swap
    (Knuth, TAOCP 4A, 7.1.3): with d = 2^v - 2^u, the set is fixed iff
    T[g] = T[g + d] at every g that holds u and not v, that is iff
    (T ^ (T >> d)) & has[u] & ~has[v] is 0, where has[j] marks the masks
    that hold j (_bit_planes)."""
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


def _indicator_types(t: int, nvars: int, classes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The distinct count vectors (|g & C|)_C, sorted, of the generators g
    of the set with the indicator `t` over `nvars` variables, for classes
    whose permutations fix the set.

    The set is then a union of orbits, one per count vector, and each orbit
    has one representative g whose variables in each class C are C's
    lowest ones: the g in T that hold no member hi of a class without the
    member lo just below it, T & ~(has[hi] & ~has[lo]) over consecutive
    lo < hi (_bit_planes), at most N - 1 steps. Each type is read off one
    representative; no other generator is looked at."""
    has = _bit_planes(nvars)
    reps = t
    for cls in classes:
        lo = (cls & -cls).bit_length() - 1
        rest = cls & (cls - 1)
        while rest:
            hi = (rest & -rest).bit_length() - 1
            reps &= ~(has[hi] & ~has[lo])
            rest &= rest - 1
            lo = hi
    types = []
    while reps:
        g = reps.bit_length() - 1
        reps ^= 1 << g
        types.append(tuple([(g & c).bit_count() for c in classes]))
    types.sort()
    return tuple(types)


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


def _dual_types(
    classes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The generator types of the Alexander dual of the ideal whose
    generator types over `classes` are `types`, sorted: its minimal
    transversal types, for a generator set fixed by the permutations
    inside each class.

    The type of a set T is (|T & C|)_C. A set U of type u contains a
    generator exactly when u >= d for a generator type d, since the group
    carries a generator of type d <= u into U: it lies in the up-closure
    `up` of the generator types (_up_set). A set of type t is a
    transversal (its complement holds no generator) iff its complement's
    type s - t, s the class sizes, is outside `up`, and a minimal one iff
    s - t is a maximal such type: adding a variable of any class it misses
    lands in `up`."""
    up, axes, nonzero = _up_set([c.bit_count() for c in classes], types)
    points = axes[0][1]
    free = ((1 << points) - 1) ^ up  # the types of the sets holding no generator
    tops = free
    for (k, _), mask in zip(axes, nonzero):
        tops &= ~(free >> k & mask >> k)
    out = []
    while tops:
        low = tops & -tops
        tops ^= low
        c = points - low.bit_length()  # the index of s - u, u the type of low
        out.append(tuple(c % block // k for k, block in axes))
    return tuple(sorted(out))


def _dual(
    ambient: Ambient, classes: Sequence[int], dual_types: Iterable[tuple[int, ...]]
) -> MonomialIdeal:
    """The ideal of `ambient` generated by every set of the sorted types
    `dual_types` over `classes`, which partition its variables, held in
    the typed form (MonomialIdeal._from_types) with no set expanded: the
    Alexander dual of an ideal when they are the minimal transversal types
    of its generator types (_dual_types). Over the ideal's swap classes,
    as the set-up passes them, that form is the classes and types as
    given: a permutation fixes an ideal iff it fixes its dual, so the
    dual's swap classes are the ideal's, and no class merges."""
    return MonomialIdeal._from_types(ambient, classes, dual_types)


def _types_of(a: MonomialIdeal) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The swap classes of `a` and its sorted generator types over them.
    An ideal held in the typed form, as realize_spec's ideal and the
    set-up's dual are, holds exactly these (MonomialIdeal._from_types),
    and they are returned as they are. Any other ideal has both read off
    the indicator of its generator set (MonomialIdeal.indicator,
    _swap_classes, _indicator_types), by delta-swaps on its 2^N bits: no
    mask, no generator object and no count per generator."""
    if a._typed is not None:
        return a._typed
    t, nvars = a.indicator, a.ambient.nvars
    classes = tuple(_swap_classes(t, nvars))
    return classes, _indicator_types(t, nvars, classes)


def dual_by_types(a: MonomialIdeal) -> MonomialIdeal:
    """The Alexander dual of `a` over all its variables, read off count
    vectors over its swap classes (_types_of, _dual_types, _dual), as the
    report set-up reads the dual types: held as the classes and the dual
    types, its masks read off its indicator only when asked for, as
    `mixprod dual` asks."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Alexander dual needs a proper nonzero ideal")
    classes, types = _types_of(a)
    return _dual(a.ambient, classes, _dual_types(classes, types))


_Parts = tuple[tuple[tuple[int, ...], int, int], ...]
# (k - 1 at a corner k of the type grid, the canonical facets of Gamma_k, |k|)
_Corners = tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
# (the canonical facets of Gamma_k, 2 - |k|, the nonzero coefficients (j, x)
# of the corner polynomials summed over the corners with that Gamma_k and |k|)
_Sums = tuple[tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]


@lru_cache(maxsize=None)
def _corners(types: tuple[tuple[int, ...], ...]) -> _Corners:
    """The corners k of the type grid of the generator types `types` over a
    set M of classes, each with the facets of its complex Gamma_k,
    canonical as _homology_of_faces keys them, and |k|, in ascending order
    of k, for an ideal whose generator set is fixed by the permutations
    inside each class. A corner whose Gamma_k is a cone is left out. The
    plan (_walk_plan) builds one such table per set M of classes and sums
    its corners into the totals; _parts reads beta_{.,W} off it at any W
    of type c over these classes.

    A set inside W is a face of Delta|_W iff its type lies in the down-set
    R of the t <= c with no generator type d <= t. The augmented chain
    complex of the simplex on W is the tensor product over C of those of
    the simplices on W & C, each split exact: the sum of C(c_C - 1, k_C - 1)
    two-term complexes in sizes k_C and k_C - 1, k_C = 1..c_C. The
    splitting keeps types, so C~(Delta|_W) is the sum of the cubes of the
    k <= c, cut to R. A cube is all in R or all outside it unless k is
    outside R and k - 1 inside: a point of the staircase of the up-closure
    of the types. There a vertex k - e, e a set of classes, is outside R
    iff e lies in U_d = {C : d_C < k_C} for some d <= k, so the cut cube is
    the full cube, acyclic, modulo the cochains of the complex Gamma_k with
    the facets U_d: its homology in size |k| - j - 2 has the rank
    h~_j(Gamma_k), which Hochster's formula puts at i = |W| - |k| + 2 + j;
    a cone Gamma_k is acyclic. Gamma_k depends on k and the types d <= k
    alone, not on W. With singleton classes k = W, and Gamma_k is the
    Alexander dual of Delta|_W inside W, with the facets W - g over the
    generators g inside W.

    Only an lcm of types can carry homology, as Betti multidegrees lie in
    the lcm lattice of the generators (Gasharov, Peeva and Welker, Math.
    Res. Lett. 6, 1999; Miller and Sturmfels, Combinatorial Commutative
    Algebra, GTM 227, ch. 1): at a staircase point k that is no lcm, the
    lcm b of the types d <= k has b_C < k_C in some class C, so every
    U_d holds C and Gamma_k is a cone. The candidates are therefore the
    componentwise maxima of the nonempty sets of types, closed type by
    type; one with some k_C = 0 meets fewer classes, and one with a U_d
    holding every class has k - 1 in the up-closure, so both are passed
    over.

    A table depends on the projected types alone, not on the ideal, its
    sizes or the field, so the memo is process-wide and keyed on them:
    156 tables over the 4x4 sweep (2046 calls), 2156 up to 8x8 and 4984
    over every spec with n + m <= 16 and its dual."""
    lcms: set[tuple[int, ...]] = set()
    for d in types:
        lcms |= {tuple(map(max, k, d)) for k in lcms} | {d}
    bits = [1 << j for j in range(len(types[0]))] if types else []  # no type: no corner
    full = sum(bits)
    out = []
    for k in sorted(filter(all, lcms)):
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
        if full in facets:
            continue
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
    the types supported in the classes that meet W (_corners), or of the
    types inside W, as parts (facets, base, multiplicity) merged on
    (facets, base): beta_{i,W} is the sum of multiplicity * h~_{i-base}
    of those complexes. Only the corners k <= c count, each with the
    multiplicity prod_C C(c_C - 1, k_C - 1) and the base |c| + 2 - |k|.
    No complex on W is built."""
    base, below = sum(c) + 2, [x - 1 for x in c]
    parts: dict[tuple[tuple[int, ...], int], int] = {}
    for below_k, facets, size in corners:
        mult = prod(map(comb, below, below_k))  # 0 unless k <= c
        if mult:
            key = (facets, base - size)
            parts[key] = parts.get(key, 0) + mult
    return tuple((*key, mult) for key, mult in parts.items())


def _betti_of(parts: _Parts, char: int) -> dict[int, int]:
    """{i: beta_{i,W}} over the field of characteristic `char` from the
    parts read at W (_parts), an i left out having beta_{i,W} = 0, sorted
    by i, so that a walk lists each W's Betti numbers in ascending i
    whatever the order of the parts."""
    betti: dict[int, int] = {}
    for facets, base, mult in parts:
        for j, h in _homology_of_faces(facets, char):
            if h:
                betti[base + j] = betti.get(base + j, 0) + mult * h
    return dict(sorted(betti.items()))


def _times(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The product of two polynomials given by their coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        if x:
            for b, y in enumerate(q):
                out[a + b] += x * y
    return out


@lru_cache(maxsize=None)
def _corner_poly(pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The coefficients, from x^0 up, of the product over the pairs (s, k)
    of the corner polynomials
    P_{s,k}(x) = sum_{c=k..s} C(s, c) C(c - 1, k - 1) x^c, 1 <= k <= s:
    over the C(s, c) sets of c variables of a class of s, the two-term
    complexes of size k that split the simplex on each (_corners). The
    product commutes, so the plan passes the pairs (s_C, k_C) of a corner
    sorted; the memo is process-wide and keyed on them alone (81 keys over
    the 4x4 sweep, 738 up to 8x8 and 1683 over every spec with
    n + m <= 16 and its dual)."""
    return tuple(reduce(_times, [
        [0] * k + [comb(s, c) * comb(c - 1, k - 1) for c in range(k, s + 1)] for s, k in pairs
    ]))


class _WalkPlan(namedtuple("_WalkPlan", "ideal classes types tables sums")):
    """The field-independent part of hochster_betti on the ideal `ideal`,
    read off its generator set alone: classes of interchangeable
    variables, the distinct count vectors (types) of the generators over
    them, sorted, the corner table (_corners) of each set M of classes
    that is a union of supports of generator types, under the union of
    M's classes, and `sums`, the corners of all tables summed into
    polynomials (_walk_plan) from which each field's totals are read."""

    __slots__ = ()
    ideal: MonomialIdeal
    classes: tuple[int, ...]
    types: tuple[tuple[int, ...], ...]
    tables: dict[int, _Corners]
    sums: _Sums


def _walk_plan(
    ideal: MonomialIdeal, classes: tuple[int, ...], types: tuple[tuple[int, ...], ...]
) -> _WalkPlan:
    """The plan of `ideal`, given classes that partition its variables so
    that permuting inside each fixes the generator set, and its sorted
    generator types over them.

    A W meets a set M of classes, and its type c over M has c_C >= 1 on
    each. The sets M are built class by class, each with the types
    supported in it, those that vanish off M: leaving a class out keeps
    the types with no variable in it, and a set with no type left is
    dropped with every set it grows to, since no W meeting it holds a
    generator. The generator set is a union of type orbits, so at a W
    meeting M the generators inside W cover W, and Delta|_W is no cone,
    only if M's types hit each class of M: every other M is dropped too.
    Each M left gets the corner table of its types projected onto M,
    whose corners are lcms of those types (_corners, memoized on that
    tuple of types); M's sizes s enter only the polynomials below.

    Summed over the W that meet M exactly, beta_{i,W} times W's orbit size
    prod_C C(s_C, c_C) adds, at each corner k of M's table and over the
    c >= k, h~(Gamma_k) times prod_C C(s_C, c_C) C(c_C - 1, k_C - 1) at
    j = |c| (_parts), and that sum factors over the classes: the
    coefficient of x^j in prod_C P_{s_C,k_C}(x) (_corner_poly, memoized
    on the sorted pairs (s_C, k_C)). A cone W and a W with no generator
    inside add 0, as their Betti numbers are 0.
    The polynomials of the corners with one Gamma_k and one |k| are
    summed, and kept as (facets, 2 - |k|, their nonzero coefficients)."""
    sets = [(0, (), types)]  # (the union of M, M's class indices, M's types)
    for j, cls in enumerate(classes):
        grown = []
        for union, meets, inside in sets:
            off = [d for d in inside if not d[j]]
            if off:
                grown.append((union, meets, off))
            grown.append((union | cls, (*meets, j), inside))
        sets = grown
    tables = {}
    sums: dict[tuple[tuple[int, ...], int], list[int]] = {}
    degrees = sum(classes).bit_length() + 1
    for union, meets, inside in sets:
        inside = tuple([tuple([d[j] for j in meets]) for d in inside])
        if not all(map(any, zip(*inside))):
            continue
        sizes = [classes[j].bit_count() for j in meets]
        table = tables[union] = _corners(inside)
        for below, facets, size in table:
            poly = _corner_poly(tuple(sorted([(s, x + 1) for s, x in zip(sizes, below)])))
            total = sums.setdefault((facets, size), [0] * degrees)
            for j, x in enumerate(poly):
                total[j] += x
    return _WalkPlan(ideal, classes, types, tables, tuple(
        (facets, 2 - size, tuple([(j, x) for j, x in enumerate(total) if x]))
        for (facets, size), total in sums.items()
    ))


def hochster_betti(a: MonomialIdeal, field: FieldSpec, plan: _WalkPlan | None = None) -> BettiTable:
    """beta_{i,j}(S/I), the sum over the subsets W of the variables with
    |W| = j of beta_{i,W} = h~_{|W|-i-1}(Delta|_W; field) (Hochster).

    The sum sees only the generator set, and no Stanley-Reisner complex
    is built: permuting the variables inside each class of _swap_classes
    fixes the ideal, so beta_{i,W} depends only on the counts |W & C| over
    the classes C. It splits the chain complex of the simplex on W over
    the classes (_corners): beta_{i,W} is a sum of the homologies of small
    complexes Gamma_k on the classes M that meet W, one per corner k <= c
    of the type grid, c the type of W, times binomial multiplicities, and
    Gamma_k depends on k and the generator types d <= k alone; a corner
    whose Gamma_k is no cone is an lcm of types, so only the lcm lattice
    of the types is searched. Summed over
    W, each corner's multiplicities and orbit sizes make one polynomial in
    j, so the totals are, besides beta_{0,0} = 1,

        beta_{i,j} = sum over the corners k of each M:
                     h~_{i-j-2+|k|}(Gamma_k) * [x^j] prod_C P_{s_C,k_C}(x),

    with P_{s,k} of _corner_poly. The homologies of the Gamma_k are the
    only ones the oracle asks the homology kernel for; with singleton
    classes Gamma_k is the Alexander dual of Delta|_W inside W, k = W. The
    corners and their polynomials depend on the generator types alone, so
    they are planned (_walk_plan) before any field: `plan` when
    oracle_report passes the one its set-up built, and a plan built now
    when it is None. A given plan must be that of a's ambient and
    generator set (ValueError otherwise): it is when it holds `a` itself,
    as the set-up's plans hold the ideal and its dual, or the ideal twice
    when it is self-dual (_set_up); any other ideal is compared with the
    plan's by their typed forms when both hold one, and by one indicator
    comparison otherwise. No W is visited: the table's
    `walk` and `multigraded` are read off the plan only when first asked
    for.
    """
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("Betti numbers are computed for proper nonzero ideals")
    if plan is None:
        plan = _walk_plan(a, *_types_of(a))
    elif plan.ideal is not a and plan.ideal != a:
        raise ValueError("the walk plan is that of another ideal")
    char = field.char
    entries = {(0, 0): 1}
    for facets, shift, poly in plan.sums:
        for i, h in _homology_of_faces(facets, char):
            if h:
                i += shift
                for j, x in poly:
                    entries[(i + j, j)] = entries.get((i + j, j), 0) + h * x
    return BettiTable(a.ambient, entries, plan, char)


def betti_stats(b: BettiTable) -> tuple[int, int]:
    """(projective dimension, regularity of the quotient) read off a table:
    the largest i and the largest j - i over its keys (i, j), in C-level
    reductions (the largest key has the largest i)."""
    return max(b.entries)[0], -min(starmap(sub, b.entries))


class InvariantReport(
    namedtuple(
        "InvariantReport",
        "dim depth pd reg_of_ideal reg_of_quotient cm height method field",
        defaults=(None,),
    )
):
    """One bundle of invariants of S/I, produced by either route."""

    __slots__ = ()
    dim: int
    depth: int
    pd: int
    reg_of_ideal: int
    reg_of_quotient: int
    cm: bool
    height: int
    method: str  # "formula" | "oracle"
    field: FieldSpec | None


@lru_cache(maxsize=1)
def _set_up(a: MonomialIdeal) -> tuple[_WalkPlan, _WalkPlan, int]:
    """What oracle_report needs of `a` before any field, built once and kept
    for the last ideal only (a sweep reports on one ideal over each field
    in turn): its plan, with its corner tables and their polynomials
    (_walk_plan), the plan of its Alexander dual, which holds the dual
    (_WalkPlan.ideal), and the dimension. A permutation fixes an ideal
    exactly when it fixes its dual, so the dual's plan takes the ideal's
    classes and the dual types (_dual_types), the dual is held as those
    classes and types (_dual), and the dimension is nv minus the least sum
    of a dual type. Both generator sets are unions of type orbits over
    those classes, so an ideal is self-dual iff its dual types are its
    types, and then its own plan, which holds the ideal itself, serves as
    its dual's and no dual is built. All of it reads the types alone, which
    an ideal of realize_spec holds (_types_of): no mask, no indicator and
    no generator object is built. The set-up is kept under the ideal's
    hash, its ambient and generator count, and its equality, which on two
    typed ideals compares their typed forms."""
    plan = _walk_plan(a, *_types_of(a))
    dual_types = _dual_types(plan.classes, plan.types)
    if dual_types == plan.types:  # self-dual: the same plan
        dual_plan = plan
    else:
        dual_plan = _walk_plan(_dual(a.ambient, plan.classes, dual_types), plan.classes, dual_types)
    return plan, dual_plan, a.ambient.nvars - min(map(sum, dual_types))


def oracle_report(a: MonomialIdeal, field: FieldSpec) -> InvariantReport:
    """Invariants from the combinatorial route: dimension from the minimal
    primes (the supports of the Alexander dual's generators), pd and
    regularity from the Betti table, depth by Auslander-Buchsbaum. The
    regularity is re-derived as pd(S/I*) over the full vertex set and the
    two values are asserted equal (Terai), the dual being the one its plan
    holds (the ideal itself when it is self-dual). The plans of both
    sides, with the dual, and the dimension come from the ideal's set-up
    (_set_up), so a report on the same ideal over another field, as a
    sweep makes, builds none of them, and no corner table, again."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("invariants are computed for proper nonzero ideals")
    nv = a.ambient.nvars
    plan, dual_plan, dim = _set_up(a)
    pd, reg_quotient = betti_stats(hochster_betti(a, field, plan))
    reg_ideal = reg_quotient + 1
    dual_pd, _ = betti_stats(hochster_betti(dual_plan.ideal, field, dual_plan))
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
    """True iff all minimal generators share one degree d and reg(a) = d.
    The degrees are the sums of the generator types of one plan, which
    hochster_betti then takes: no mask is expanded."""
    if not a.is_proper_nonzero:
        raise UnsupportedIdeal("linear resolutions concern proper nonzero ideals")
    plan = _walk_plan(a, *_types_of(a))
    degrees = set(map(sum, plan.types))
    if len(degrees) != 1:
        return False
    (d,) = degrees
    _, reg_quotient = betti_stats(hochster_betti(a, field, plan))
    return reg_quotient + 1 == d
