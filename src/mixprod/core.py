"""Square-free monomials, monomial-ideal arithmetic and Alexander duality.

The ambient ring is K[x_1..x_n, y_1..y_m]. Variables are numbered 1..n+m
with the x-block first, and a square-free monomial is the set of variables
it contains, stored as a bitmask (bit i-1 = variable i). Everything here
is radical, so products are taken support-wise; see ideal_product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable

from .errors import (
    AmbientMismatch,
    CapExceeded,
    DegreeOutOfRange,
    InvalidAmbient,
    SupportOutsideVertices,
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


@dataclass(frozen=True)
class Ambient:
    """Ring shape: n x-variables followed by m y-variables."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise InvalidAmbient(f"negative block size in ambient ({self.n},{self.m})")
        if self.nvars < 1:
            raise InvalidAmbient("ambient needs at least one variable")
        if self.nvars > AMBIENT_CAP:
            raise CapExceeded(
                f"ambient ({self.n},{self.m}) exceeds the {AMBIENT_CAP}-variable cap"
            )

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


@dataclass(frozen=True)
class SqFreeMonomial:
    """A square-free monomial, identified with its set of variables."""

    ambient: Ambient
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.ambient.full_mask:
            raise ValueError("monomial support outside its ambient")

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


@dataclass(frozen=True)
class MonomialIdeal:
    """A square-free monomial ideal given by its minimal generators.

    The empty generator set is the zero ideal; a single empty-support
    generator is the unit ideal.
    """

    ambient: Ambient
    gens: tuple[SqFreeMonomial, ...]

    def __post_init__(self) -> None:
        masks = tuple(g.mask for g in self.gens)
        if list(masks) != sorted(set(masks)):
            raise ValueError("generators must be sorted and duplicate-free")
        for g in self.gens:
            if g.ambient != self.ambient:
                raise AmbientMismatch("generator from a different ambient")
        for a, b in combinations(masks, 2):
            if a & ~b == 0 or b & ~a == 0:
                raise ValueError("generators are not an antichain")
        object.__setattr__(self, "_masks", masks)

    @classmethod
    def _trusted(cls, ambient: Ambient, masks: Iterable[int]) -> "MonomialIdeal":
        """Build from masks the package has just made into a sorted,
        duplicate-free antichain, skipping the quadratic checks of
        __post_init__ and the __init__ of each generator. Each mask is
        still checked against the ambient."""
        masks = tuple(masks)
        outside = ~ambient.full_mask
        gens = []
        for m in masks:
            if m & outside:
                raise ValueError("monomial support outside its ambient")
            g = object.__new__(SqFreeMonomial)
            object.__setattr__(g, "ambient", ambient)
            object.__setattr__(g, "mask", m)
            gens.append(g)
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ambient", ambient)
        object.__setattr__(ideal, "gens", tuple(gens))
        object.__setattr__(ideal, "_masks", masks)
        return ideal

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
        return cls._trusted(ambient, _minimalize(masks))

    @classmethod
    def zero(cls, ambient: Ambient) -> "MonomialIdeal":
        return cls(ambient, ())

    @classmethod
    def unit(cls, ambient: Ambient) -> "MonomialIdeal":
        return cls(ambient, (SqFreeMonomial(ambient, 0),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].mask == 0

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.gens) and not self.is_unit

    def gen_masks(self) -> tuple[int, ...]:
        """The generator masks, ascending; made once, when the ideal is."""
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


def minimal_primes(
    a: MonomialIdeal, dual: MonomialIdeal | None = None
) -> list[frozenset[int]]:
    """Variable sets of the minimal primes: supports of the dual's minimal
    generators over the full ambient vertex set. Pass `dual` when
    alexander_dual(a) is already at hand."""
    if dual is None:
        dual = alexander_dual(a)
    else:
        _check_same_ambient(a, dual)
    return sorted((g.support for g in dual.gens), key=lambda s: (len(s), sorted(s)))


def krull_dim(a: MonomialIdeal) -> int:
    """dim(S/a) = (number of variables) - height."""
    return a.ambient.nvars - min(len(p) for p in minimal_primes(a))


@dataclass(frozen=True)
class MixedProductSpec:
    """Symbolic sum of mixed products: terms (k, l) stand for I_k J_l.

    Canonical form (see canonicalize_spec): no term contained in another,
    sorted by k ascending. Construction only checks degree bounds, so raw
    user input is representable.
    """

    ambient: Ambient
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a mixed product description needs at least one term")
        for k, l in self.terms:
            if not (0 <= k <= self.ambient.n and 0 <= l <= self.ambient.m):
                raise DegreeOutOfRange(
                    f"term ({k},{l}) outside ambient ({self.ambient.n},{self.ambient.m})"
                )

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
    its canonical form. Each term's generators are the unions of a
    k-subset of the x-block with an l-subset of the y-block. The terms of
    a canonical spec are pairwise incomparable, so a generator of one term
    has another (x-degree, y-degree) than those of the others and lies
    inside none of them: the sorted union of the terms' generators is the
    minimal generating set as it stands. The ideal of the last spec is
    kept: a sweep realizes each spec once per field, one field after the
    other."""
    amb = spec.ambient
    masks: list[int] = []
    for k, l in canonicalize_spec(spec).terms:
        xs = [vars_to_mask(c) for c in combinations(range(1, amb.n + 1), k)]
        ys = [vars_to_mask(c) for c in combinations(range(amb.n + 1, amb.nvars + 1), l)]
        masks += [x | y for x in xs for y in ys]
    masks.sort()
    return MonomialIdeal._trusted(amb, masks)


def swap_blocks(spec: MixedProductSpec) -> MixedProductSpec:
    """Exchange the roles of the two blocks: (n,m) -> (m,n), (k,l) -> (l,k)."""
    swapped = MixedProductSpec(
        spec.ambient.swapped(), tuple((l, k) for k, l in spec.terms)
    )
    return canonicalize_spec(swapped)


def require_canonical(spec: MixedProductSpec, max_terms: int = 2) -> MixedProductSpec:
    """Shared precondition of the formula layer."""
    if not spec.is_canonical:
        raise UnsupportedShape(
            f"{spec} is not canonical; pass it through canonicalize_spec first"
        )
    if spec.is_unit:
        raise UnsupportedIdeal("the unit ideal has no invariants here")
    if len(spec.terms) > max_terms:
        raise UnsupportedShape(
            f"{spec} has {len(spec.terms)} terms; formulas cover at most {max_terms}"
        )
    return spec
