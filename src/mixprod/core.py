"""Square-free monomials, monomial-ideal arithmetic and mixed product specs.

The ambient ring is K[x_1..x_n, y_1..y_m]. Variables are numbered 1..n+m
with the x-block first, and a square-free monomial is the set of variables
it contains, stored as a bitmask (bit i-1 = variable i). Everything here
is radical, so products are taken support-wise; see ideal_product.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from itertools import combinations, islice
from math import comb, prod

from .errors import (
    AmbientMismatch,
    CapExceeded,
    DegreeOutOfRange,
    InvalidAmbient,
    UnsupportedIdeal,
    UnsupportedShape,
)

#: Largest supported number of variables n+m (bit width of support masks).
AMBIENT_CAP = 16


def vars_to_mask(indices: Iterable[int]) -> int:
    """Pack 1-based variable indices into a support bitmask."""
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def mask_to_vars(mask: int) -> frozenset[int]:
    """Unpack a support bitmask into 1-based variable indices."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class Ambient(namedtuple("Ambient", "n m")):
    """Ring shape: n x-variables followed by m y-variables."""

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> "Ambient":
        if n < 0 or m < 0:
            raise InvalidAmbient(f"negative block size in ambient ({n},{m})")
        if n + m < 1:
            raise InvalidAmbient("ambient needs at least one variable")
        if n + m > AMBIENT_CAP:
            raise CapExceeded(f"ambient ({n},{m}) exceeds the {AMBIENT_CAP}-variable cap")
        return tuple.__new__(cls, (n, m))

    @classmethod
    def _make(cls, values: Iterable) -> "Ambient":
        return cls(*values)  # namedtuple's skips __new__, and _replace goes through it

    @property
    def nvars(self) -> int:
        return self.n + self.m

    @property
    def full_mask(self) -> int:
        return (1 << self.nvars) - 1

    @property
    def x_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def y_mask(self) -> int:
        return self.full_mask ^ self.x_mask

    def variables(self) -> range:
        """All variable indices, x-block first."""
        return range(1, self.nvars + 1)

    def variable_name(self, i: int) -> str:
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} outside ambient ({self.n},{self.m})")
        return f"x{i}" if i <= self.n else f"y{i - self.n}"

    def swapped(self) -> "Ambient":
        return Ambient(self.m, self.n)


class SqFreeMonomial(namedtuple("SqFreeMonomial", "ambient mask")):
    """A square-free monomial, identified with its set of variables."""

    __slots__ = ()

    def __new__(cls, ambient: Ambient, mask: int) -> "SqFreeMonomial":
        if mask & ~ambient.full_mask:
            raise ValueError("monomial support outside its ambient")
        return tuple.__new__(cls, (ambient, mask))

    @classmethod
    def _make(cls, values: Iterable) -> "SqFreeMonomial":
        return cls(*values)

    @classmethod
    def from_indices(cls, ambient: Ambient, indices: Iterable[int]) -> "SqFreeMonomial":
        return cls(ambient, vars_to_mask(indices))

    @classmethod
    def parse(cls, ambient: Ambient, text: str) -> "SqFreeMonomial":
        """Parse notation like 'x1x2y1' ('1' is the unit monomial, and text
        with no variable, such as '' or '*', is an error)."""
        if text.strip() == "1":
            return cls(ambient, 0)
        parts = text.replace("*", " ").replace("x", " x").replace("y", " y").split()
        if not parts:
            raise ValueError(f"cannot parse monomial {text!r}")
        indices = []
        for part in parts:
            block, num = part[0], part[1:]
            if block not in "xy" or not num.isdigit():
                raise ValueError(f"cannot parse monomial {text!r}")
            i = int(num)
            size = ambient.n if block == "x" else ambient.m
            if not 1 <= i <= size:
                raise ValueError(
                    f"variable {part} of monomial {text!r} is outside ambient "
                    f"({ambient.n},{ambient.m})"
                )
            indices.append(i if block == "x" else ambient.n + i)
        mono = cls.from_indices(ambient, indices)
        if len(indices) != mono.degree:
            raise ValueError(f"repeated variable in monomial {text!r}")
        return mono

    @property
    def support(self) -> frozenset[int]:
        return mask_to_vars(self.mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def x_degree(self) -> int:
        return (self.mask & self.ambient.x_mask).bit_count()

    @property
    def y_degree(self) -> int:
        return (self.mask & self.ambient.y_mask).bit_count()

    @property
    def is_unit(self) -> bool:
        return self.mask == 0

    def divides(self, other: "SqFreeMonomial") -> bool:
        return self.mask & ~other.mask == 0

    def lcm(self, other: "SqFreeMonomial") -> "SqFreeMonomial":
        return SqFreeMonomial(self.ambient, self.mask | other.mask)

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        return "".join(self.ambient.variable_name(i) for i in sorted(self.support))

    def __repr__(self) -> str:
        return f"SqFreeMonomial({self})"


def _minimalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Antichain of minimal supports under inclusion (sorted, deduplicated).

    The masks are taken by number of variables, so only a kept mask with
    fewer variables can divide m, and only those are scanned."""
    kept: list[int] = []
    below = 0  # kept[:below] have fewer variables than m; no other can divide it
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        size = m.bit_count()
        while below < len(kept) and kept[below].bit_count() < size:
            below += 1
        outside = ~m
        for k in islice(kept, below):
            if not k & outside:
                break
        else:
            kept.append(m)
    return tuple(sorted(kept))


def _within(ambient: Ambient, masks: Iterable[int]) -> tuple[int, ...]:
    """The masks, each checked to lie in [0, 2^N), N the number of
    variables of `ambient`."""
    masks = tuple(masks)
    if masks and (min(masks) < 0 or max(masks) >> ambient.nvars):
        raise ValueError("monomial support outside its ambient")
    return masks


def _indicator_of_masks(nvars: int, masks: Iterable[int]) -> int:
    """The set of these masks over `nvars` variables as one 2^nvars-bit
    integer: bit g set iff g is one of them, set one mask at a time."""
    indicator = bytearray(((1 << nvars) + 7) >> 3)
    for g in masks:
        indicator[g >> 3] |= 1 << (g & 7)
    return int.from_bytes(indicator, "little")


def _subset_tables(classes: Iterable[int], tops: Iterable[int]) -> list[list[int]]:
    """Per class C, with its top t, the indicators V_C(k) of the k-subsets
    of C for k = 0..t, built member by member, V[k] | V[k-1] << 2^p for
    each member p."""
    tables = []
    for cls, top in zip(classes, tops):
        v = [1] + [0] * top
        while cls:
            low = cls & -cls  # 2^p for the member p
            cls ^= low
            for k in range(top, 0, -1):
                v[k] |= v[k - 1] << low
        tables.append(v)
    return tables


def _indicator_of_types(
    classes: Iterable[int], types: Iterable[tuple[int, ...]]
) -> int:
    """The indicator (as _indicator_of_masks) of every set of each of these
    types over the disjoint classes, the sets g with (|g & C|)_C a type.

    The sets of one type are the unions of a t_C-subset of each class,
    with the indicator prod_C V_C(t_C) (_subset_tables, built up to the
    largest count of each class only): the classes are disjoint, so
    g + h = g | h for any two bits multiplied and no product carries. The
    indicator is the OR of the types' products."""
    types = tuple(types)
    tables = _subset_tables(classes, map(max, zip(*types)))
    out = 0
    for t in types:
        out |= prod(v[k] for v, k in zip(tables, t))
    return out


def _interchangeable(
    types: frozenset[tuple[int, ...]], sizes: list[int], i: int, j: int
) -> bool:
    """Whether the variables of classes i and j, of these sizes, are
    interchangeable in the set of every set of one of these types: a
    transposition (u v), u in class i and v in class j, maps a set of type
    t that holds u and not v onto one of type t - e_i + e_j, so it fixes
    the set iff that is a type wherever t_i >= 1 and t_j < s_j, and the
    same with i and j exchanged (an injective map of a finite set into
    itself is onto)."""
    for src, dst in ((i, j), (j, i)):
        for t in types:
            if t[src] and t[dst] < sizes[dst]:
                u = list(t)
                u[src] -= 1
                u[dst] += 1
                if tuple(u) not in types:
                    return False
    return True


def _swap_classes_of_types(
    classes: Sequence[int], types: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The classes of interchangeable variables of the set of every set of
    one of these types over these classes, which partition the variables
    and are each fixed by their own permutations, with the sorted types
    over them: the empty classes dropped, and the classes that are
    interchangeable (_interchangeable) merged, the types summed over each
    merged group. A swap class is a union of the given classes, and the
    relation is transitive, so each class, taken by its lowest variable,
    is tested against the first class of each group found so far; the
    groups, and so the swap classes, come ordered by their lowest
    variable."""
    types = frozenset(types)
    sizes = [c.bit_count() for c in classes]
    groups: list[list[int]] = []
    for _, j in sorted([(c & -c, j) for j, c in enumerate(classes) if c]):
        for group in groups:
            if _interchangeable(types, sizes, group[0], j):
                group.append(j)
                break
        else:
            groups.append([j])
    if groups != [[j] for j in range(len(classes))]:  # a class dropped, merged or moved
        types = {tuple([sum([t[j] for j in group]) for group in groups]) for t in types}
    return tuple([sum([classes[j] for j in group]) for group in groups]), tuple(sorted(types))


def _masks_of_indicator(t: int) -> tuple[int, ...]:
    """The masks g with bit g set in the indicator `t`, ascending, read off
    its bytes: a zero byte is passed over at once."""
    masks = []
    for i, byte in enumerate(t.to_bytes((t.bit_length() + 7) >> 3, "little")):
        base = i << 3
        while byte:
            low = byte & -byte
            masks.append(base + low.bit_length() - 1)
            byte ^= low
    return tuple(masks)


class MonomialIdeal:
    """A square-free monomial ideal given by its minimal generators.

    The empty generator set is the zero ideal; a single empty-support
    generator is the unit ideal. An ideal holds its ambient and one of
    three exact forms of its generator set (_made): the ascending
    generator masks, the indicator (one 2^N-bit integer, bit g set iff g
    is a generator mask), or the typed form (_from_types): the swap
    classes of the generator set, which partition the variables, ordered
    by their lowest variable, with the sorted types over them, every set
    of those types being a generator. Each other form, and `gens`, one
    SqFreeMonomial per mask, is derived when first read: realize_spec and
    the report set-up's dual hold the typed form, so that a report, which
    reads neither masks, nor an indicator, nor generator objects, builds
    none. Equality and hashing are on the ambient and the generator set,
    however the ideal was built. An ideal is immutable: its attributes
    live in its __dict__, written only by the constructors and the cached
    properties.
    """

    ambient: Ambient
    # the typed form (swap classes, types) of an ideal built from types, else None
    _typed = None

    def __init__(self, ambient: Ambient, gens: Iterable[SqFreeMonomial]) -> None:
        gens = tuple(gens)
        masks = tuple(g.mask for g in gens)
        if list(masks) != sorted(set(masks)):
            raise ValueError("generators must be sorted and duplicate-free")
        for g in gens:
            if g.ambient != ambient:
                raise AmbientMismatch("generator from a different ambient")
        for a, b in combinations(masks, 2):
            if a & ~b == 0 or b & ~a == 0:
                raise ValueError("generators are not an antichain")
        self.__dict__.update(ambient=ambient, _masks=masks, gens=gens)

    @classmethod
    def _made(cls, ambient: Ambient, **form) -> "MonomialIdeal":
        """An ideal of `ambient` holding the given form of its generator
        set (_masks, indicator or _typed), with no check."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(form, ambient=ambient)
        return ideal

    @classmethod
    def _from_types(
        cls, ambient: Ambient, classes: Sequence[int], types: Iterable[tuple[int, ...]]
    ) -> "MonomialIdeal":
        """The ideal of `ambient` generated by every set of one of these
        types over these classes, which partition its variables, with no
        set expanded and no check that the sets form an antichain. It holds
        the typed form: the swap classes of the set, the given classes with
        the empty ones dropped and the interchangeable ones merged, and the
        types over them (_swap_classes_of_types). This is the one
        constructor of a typed ideal, so two typed ideals with one
        generator set hold one typed form."""
        return cls._made(ambient, _typed=_swap_classes_of_types(classes, types))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a MonomialIdeal is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a MonomialIdeal is immutable")

    @classmethod
    def _trusted(cls, ambient: Ambient, masks: Iterable[int]) -> "MonomialIdeal":
        """Build from masks the package has just made into a sorted,
        duplicate-free antichain, skipping the quadratic checks of
        __init__; no generator is built. The masks are still checked
        against the ambient (_within)."""
        return cls._made(ambient, _masks=_within(ambient, masks))

    @cached_property
    def indicator(self) -> int:
        """The generator set as one 2^N-bit integer, N the number of
        variables: bit g set iff g is a generator mask. Derived when first
        read, by doubling from the types (_indicator_of_types) or from
        the masks one at a time, unless the ideal was built from it; no
        report reads it."""
        if self._typed is not None:
            return _indicator_of_types(*self._typed)
        return _indicator_of_masks(self.ambient.nvars, self._masks)

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        return _masks_of_indicator(self.indicator)

    @cached_property
    def gens(self) -> tuple[SqFreeMonomial, ...]:
        """The minimal generators, ascending, built when first read."""
        return tuple(SqFreeMonomial(self.ambient, m) for m in self._masks)

    @cached_property
    def _count(self) -> int:
        """The number of generators, counted off the form the ideal holds:
        sum_t prod_C C(|C|, t_C) over its types, the bits of its
        indicator, or its masks."""
        if self._typed is not None:
            classes, types = self._typed
            sizes = [c.bit_count() for c in classes]
            return sum(prod(map(comb, sizes, t)) for t in types)
        if "indicator" in vars(self):
            return self.indicator.bit_count()
        return len(self._masks)

    def __eq__(self, other: object) -> bool:
        """Same ambient and generator set. Two typed ideals compare their
        typed forms alone, which are equal iff their generator sets are
        (_from_types); any other pair compares indicators."""
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        if self._typed is not None and other._typed is not None:
            return self._typed == other._typed
        return self.indicator == other.indicator

    def __hash__(self) -> int:
        """The ambient and the generator count (_count): equal ideals hash
        alike whatever form each holds, and no form is derived."""
        return hash((self.ambient, self._count))

    @classmethod
    def from_monomials(
        cls, ambient: Ambient, monomials: Iterable[SqFreeMonomial]
    ) -> "MonomialIdeal":
        """Build an ideal from any generating set, minimalizing it. Every
        monomial must live in `ambient`."""
        masks = []
        for m in monomials:
            if m.ambient != ambient:
                raise AmbientMismatch("generator from a different ambient")
            masks.append(m.mask)
        return cls._trusted(ambient, _minimalize(masks))

    @classmethod
    def from_masks(cls, ambient: Ambient, masks: Iterable[int]) -> "MonomialIdeal":
        """Build an ideal from any masks, minimalizing them. Every mask
        must lie in the ambient, one that minimalizing drops included."""
        return cls._made(ambient, _masks=_minimalize(_within(ambient, masks)))

    @classmethod
    def zero(cls, ambient: Ambient) -> "MonomialIdeal":
        return cls(ambient, ())

    @classmethod
    def unit(cls, ambient: Ambient) -> "MonomialIdeal":
        return cls(ambient, (SqFreeMonomial(ambient, 0),))

    # an antichain that holds the empty mask holds nothing else, so the
    # indicator of the unit ideal is 1, and a typed unit ideal has the one
    # type zero
    @property
    def is_zero(self) -> bool:
        return self._count == 0

    @property
    def is_unit(self) -> bool:
        if self._typed is not None:
            classes, types = self._typed
            return types == ((0,) * len(classes),)
        return self.indicator == 1

    @property
    def is_proper_nonzero(self) -> bool:
        """Neither zero nor the unit ideal; an ideal built from types reads
        them, the zero type sorting first, and derives no indicator."""
        if self._typed is not None:
            types = self._typed[1]
            return bool(types) and any(types[0])
        return self.indicator > 1

    def gen_masks(self) -> tuple[int, ...]:
        """The generator masks, ascending; derived once, when first read."""
        return self._masks

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.ambient.n},{self.ambient.m}){self}"


def veronese_ideal(ambient: Ambient, block: str, k: int) -> MonomialIdeal:
    """I_k (block 'x') or J_k (block 'y'): all square-free degree-k
    monomials in one block. k = 0 gives the unit ideal."""
    block = block.lower()
    if block not in ("x", "y"):
        raise ValueError(f"block must be 'x' or 'y', got {block!r}")
    size = ambient.n if block == "x" else ambient.m
    offset = 0 if block == "x" else ambient.n
    if not 0 <= k <= size:
        raise DegreeOutOfRange(
            f"degree {k} outside 0..{size} for the {block}-block of ({ambient.n},{ambient.m})"
        )
    indices = range(offset + 1, offset + size + 1)
    masks = [vars_to_mask(c) for c in combinations(indices, k)]
    return MonomialIdeal.from_masks(ambient, masks)


def _check_same_ambient(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambients differ: {a.ambient} vs {b.ambient}")


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_same_ambient(a, b)
    return MonomialIdeal.from_masks(a.ambient, a.gen_masks() + b.gen_masks())


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Product in the square-free sense: generator pairs with overlapping
    supports contribute their support union (the square-free part, which
    preserves the radical). For the disjoint blocks of I_k and J_l this
    caveat never fires."""
    _check_same_ambient(a, b)
    return MonomialIdeal.from_masks(
        a.ambient, (ga | gb for ga in a.gen_masks() for gb in b.gen_masks())
    )


def ideal_intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection; for square-free ideals the generators are the
    minimalized pairwise lcms, i.e. support unions."""
    return ideal_product(a, b)


def contains_monomial(a: MonomialIdeal, u: SqFreeMonomial) -> bool:
    if u.ambient != a.ambient:
        raise AmbientMismatch("monomial from a different ambient")
    return any(g & ~u.mask == 0 for g in a.gen_masks())


class MixedProductSpec(namedtuple("MixedProductSpec", "ambient terms")):
    """Symbolic sum of mixed products: terms (k, l) stand for I_k J_l.

    Canonical form (see canonicalize_spec): no term contained in another,
    sorted by k ascending. Construction only checks degree bounds, so raw
    user input is representable.
    """

    __slots__ = ()

    def __new__(cls, ambient: Ambient, terms: tuple[tuple[int, int], ...]) -> "MixedProductSpec":
        if not terms:
            raise ValueError("a mixed product description needs at least one term")
        for k, l in terms:
            if not (0 <= k <= ambient.n and 0 <= l <= ambient.m):
                raise DegreeOutOfRange(
                    f"term ({k},{l}) outside ambient ({ambient.n},{ambient.m})"
                )
        return tuple.__new__(cls, (ambient, terms))

    @classmethod
    def _make(cls, values: Iterable) -> "MixedProductSpec":
        return cls(*values)

    @property
    def is_unit(self) -> bool:
        return self.terms == ((0, 0),)

    @property
    def is_canonical(self) -> bool:
        if any(
            i != j and ka >= kb and la >= lb
            for i, (ka, la) in enumerate(self.terms)
            for j, (kb, lb) in enumerate(self.terms)
        ):
            return False
        return self.terms == tuple(sorted(self.terms))

    def __str__(self) -> str:
        def term(k: int, l: int) -> str:
            if (k, l) == (0, 0):
                return "S"
            return (f"I_{k}" if k else "") + (f"J_{l}" if l else "")

        return " + ".join(term(k, l) for k, l in self.terms)


def canonicalize_spec(raw: MixedProductSpec) -> MixedProductSpec:
    """Drop every term whose ideal lies inside another term's (i.e. (k,l)
    with some other (k',l'), k' <= k and l' <= l) and sort by k ascending."""
    uniq = sorted(set(raw.terms))
    kept = tuple(
        (k, l)
        for k, l in uniq
        if not any((kp, lp) != (k, l) and kp <= k and lp <= l for kp, lp in uniq)
    )
    return MixedProductSpec(raw.ambient, kept)


@lru_cache(maxsize=1)
def realize_spec(spec: MixedProductSpec) -> MonomialIdeal:
    """The actual ideal: sum over terms of I_k * J_l, taken over the
    canonical form of the spec, so a non-canonical spec gives the ideal of
    its canonical form. A term's generators are the unions of a k-subset
    of the x-block with an l-subset of the y-block: the sets of type
    (k, l) over the two blocks. The terms of a canonical spec are pairwise
    incomparable, so a generator of one term has another type than those
    of the others and lies inside none of them: the union of the terms'
    generators is the minimal generating set as it stands. The ideal holds
    it in the typed form, the terms as types over the two blocks, an empty
    block dropped and the blocks merged when they are interchangeable
    (MonomialIdeal._from_types), with no set expanded; its indicator,
    masks and generators are derived when first read, which no report
    does. The ideal of the last spec is kept: a sweep realizes each spec
    once per field, one field after the other."""
    amb = spec.ambient
    terms = canonicalize_spec(spec).terms
    return MonomialIdeal._from_types(amb, (amb.x_mask, amb.y_mask), terms)


def swap_blocks(spec: MixedProductSpec) -> MixedProductSpec:
    """Exchange the roles of the two blocks: (n,m) -> (m,n), (k,l) -> (l,k)."""
    swapped = MixedProductSpec(
        spec.ambient.swapped(), tuple((l, k) for k, l in spec.terms)
    )
    return canonicalize_spec(swapped)


def require_canonical(spec: MixedProductSpec) -> MixedProductSpec:
    """Shared precondition of the formula layer: a canonical spec of one
    or two terms that is not the unit."""
    if not spec.is_canonical:
        raise UnsupportedShape(
            f"{spec} is not canonical; pass it through canonicalize_spec first"
        )
    if spec.is_unit:
        raise UnsupportedIdeal("the unit ideal has no invariants here")
    if len(spec.terms) > 2:
        raise UnsupportedShape(f"{spec} has {len(spec.terms)} terms; formulas cover at most 2")
    return spec
