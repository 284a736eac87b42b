"""Closed-form invariants of canonical mixed product descriptions, and the
explicit syzygy / Koszul-cycle witnesses behind the two hard bounds.

All closed forms come from one case dispatch, `_closed_forms`, with one row
per canonical shape:

    (k,0) | (0,r) | (q,r)                      single term
    (0,r)+(s,0) | (q,r)+(s,0) | (q,r)+(s,t)    two terms, q < s, t < r

with k,q,t >= 1 inside a shape. Each row gives the dimension, depth and
regularity together with the Cohen-Macaulay verdict and the branch that
decided it; reg_formula, dim_formula, depth_formula, cm_classify and
formula_report only read that row. Degenerate degrees are routed to their
own row (I_0 = J_0 = S collapses the term), never substituted into the
general two-term formulas. The mirrored shape (0,r)+(s,t) with t >= 1 is
handled by swapping the blocks and reading the (q,r)+(s,0) row.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import lru_cache

from .core import (
    Ambient,
    MixedProductSpec,
    SqFreeMonomial,
    require_canonical,
    swap_blocks,
)
from .errors import EmptyBlock, UnsupportedShape
from .invariants import InvariantReport


class CmCase(str, enum.Enum):
    """Which branch of the Cohen-Macaulay classification applied."""

    VERONESE = "veronese"  # I_k or J_r alone: always CM
    DISJOINT_SUM = "disjoint_sum"  # I_s + J_r: always CM
    PRODUCT = "product"  # I_qJ_r: CM iff q = n and r = m
    PRODUCT_PLUS_VERONESE = "product_plus_veronese"  # I_qJ_r + I_s (or mirror)
    TWO_PRODUCTS = "two_products"  # I_qJ_r + I_sJ_t, q,t >= 1


_ClosedForms = namedtuple("_ClosedForms", "dim depth reg cm case")


def _closed_forms(spec: MixedProductSpec) -> _ClosedForms:
    """Every closed form of one canonical description, one row per shape."""
    require_canonical(spec)
    n, m = spec.ambient.n, spec.ambient.m
    if len(spec.terms) == 1:
        ((k, l),) = spec.terms
        if l == 0:
            return _ClosedForms(m + k - 1, m + k - 1, k, True, CmCase.VERONESE)
        if k == 0:
            return _ClosedForms(n + l - 1, n + l - 1, l, True, CmCase.VERONESE)
        dim = n + m - min(n - k + 1, m - l + 1)
        return _ClosedForms(dim, k + l - 1, k + l, k == n and l == m, CmCase.PRODUCT)
    (q, r), (s, t) = spec.terms
    if q == 0 and t == 0:
        return _ClosedForms(r + s - 2, r + s - 2, r + s - 1, True, CmCase.DISJOINT_SUM)
    if t == 0:
        dim = n + m - min(n - q + 1, n + m - (r + s) + 2)
        cm = s == q + 1 and r == m
        return _ClosedForms(dim, q + r - 1, r + s - 1, cm, CmCase.PRODUCT_PLUS_VERONESE)
    if q == 0:
        return _closed_forms(swap_blocks(spec))
    dim = n + m - min(n - q + 1, m - t + 1, n + m - (r + s) + 2)
    cm = r == m and s == n and t == m - 1 and q == n - 1
    return _ClosedForms(dim, min(q + r, s + t) - 1, r + s - 1, cm, CmCase.TWO_PRODUCTS)


def reg_formula(spec: MixedProductSpec) -> int:
    """Castelnuovo-Mumford regularity of the ideal itself.

    I_k -> k, J_r -> r, I_qJ_r -> q+r (q,r >= 1), and any canonical
    two-term sum (q,r)+(s,t) -> r+s-1. The last case includes the pure sum
    I_s+J_r and I_qJ_r+I_s boundaries, where it agrees with the dedicated
    sum formula; the exhaustive sweep pins this extension down.
    """
    return _closed_forms(spec).reg


def dim_formula(spec: MixedProductSpec) -> int:
    """Krull dimension of the quotient ring."""
    return _closed_forms(spec).dim


def depth_formula(spec: MixedProductSpec) -> int:
    """Depth of the quotient ring."""
    return _closed_forms(spec).depth


def cm_classify(spec: MixedProductSpec) -> tuple[bool, CmCase]:
    """Cohen-Macaulay test by classification, with the branch that fired."""
    forms = _closed_forms(spec)
    return forms.cm, forms.case


@lru_cache(maxsize=1)
def formula_report(spec: MixedProductSpec) -> InvariantReport:
    """Bundle of the closed forms; pd comes from depth by
    Auslander-Buchsbaum and height from the dimension. It reads no field,
    and the report of the last spec is kept: a sweep asks for each spec
    once per field, one field after the other."""
    nv = spec.ambient.nvars
    forms = _closed_forms(spec)
    return InvariantReport(
        dim=forms.dim,
        depth=forms.depth,
        pd=nv - forms.depth,
        reg_of_ideal=forms.reg,
        reg_of_quotient=forms.reg - 1,
        cm=forms.cm,
        height=nv - forms.dim,
        method="formula",
        field=None,
    )


class SyzygyWitness(
    namedtuple("SyzygyWitness", "u v cofactor_u cofactor_v internal_degree")
):
    """A first syzygy between one generator of each term, certifying the
    top internal degree r+s of the resolution's first step (so the
    regularity contribution r+s-1)."""

    __slots__ = ()
    u: SqFreeMonomial
    v: SqFreeMonomial
    cofactor_u: SqFreeMonomial
    cofactor_v: SqFreeMonomial
    internal_degree: int


def syzygy_witness(spec: MixedProductSpec) -> SyzygyWitness:
    """The lexicographically first choice: u = x_1..x_q y_1..y_r,
    v = x_1..x_s y_1..y_t, with cofactors x_{q+1}..x_s and y_{t+1}..y_r."""
    require_canonical(spec)
    if len(spec.terms) != 2:
        raise UnsupportedShape(f"{spec} has no two-term syzygy witness")
    amb = spec.ambient
    (q, r), (s, t) = spec.terms
    x = lambda i: i
    y = lambda j: amb.n + j
    u = SqFreeMonomial.from_indices(
        amb, [x(i) for i in range(1, q + 1)] + [y(j) for j in range(1, r + 1)]
    )
    v = SqFreeMonomial.from_indices(
        amb, [x(i) for i in range(1, s + 1)] + [y(j) for j in range(1, t + 1)]
    )
    cof_u = SqFreeMonomial.from_indices(amb, [x(i) for i in range(q + 1, s + 1)])
    cof_v = SqFreeMonomial.from_indices(amb, [y(j) for j in range(t + 1, r + 1)])
    return SyzygyWitness(u, v, cof_u, cof_v, internal_degree=r + s)


def verify_syzygy_witness(w: SyzygyWitness) -> bool:
    """Check that both cofactor products equal lcm(u, v) and that each
    cofactor is exactly the complementary support (gcd-minimality)."""
    lcm = w.u.mask | w.v.mask
    if (w.cofactor_u.mask | w.u.mask) != lcm or (w.cofactor_v.mask | w.v.mask) != lcm:
        return False
    if w.cofactor_u.mask != w.v.mask & ~w.u.mask:
        return False
    if w.cofactor_v.mask != w.u.mask & ~w.v.mask:
        return False
    return w.internal_degree == lcm.bit_count()


KoszulSummand = namedtuple("KoszulSummand", "sign coefficient omitted_y_index")


class KoszulCycleWitness(namedtuple("KoszulCycleWitness", "ambient summands")):
    """The explicit degree-(n+m-1) cycle in the Koszul complex of the
    variables, taken modulo I_1 J_1: summand k carries coefficient y_k,
    sign (-1)^(k+1), and omits the k-th y-slot from the wedge."""

    __slots__ = ()
    ambient: Ambient
    summands: tuple[KoszulSummand, ...]


def koszul_cycle_witness(ambient: Ambient) -> KoszulCycleWitness:
    if ambient.n == 0 or ambient.m == 0:
        raise EmptyBlock("the cycle needs at least one variable in each block")
    summands = tuple(
        KoszulSummand(
            sign=(-1) ** (k + 1),
            coefficient=SqFreeMonomial.from_indices(ambient, [ambient.n + k]),
            omitted_y_index=k,
        )
        for k in range(1, ambient.m + 1)
    )
    return KoszulCycleWitness(ambient, summands)


def verify_koszul_cycle(w: KoszulCycleWitness) -> bool:
    """Expand the Koszul boundary of the witness symbolically and check it
    vanishes modulo I_1 J_1: terms whose coefficient gains an x-variable
    land in the ideal, and the remaining y_k y_l terms must cancel in
    pairs. (That the class is nonzero is certified separately, by the
    oracle's top Betti number of S/I_1J_1.)

    Wedge slots are numbered like the variables: slot i <= n is e_i, slot
    n+j is f_j, and a boundary removal at the p-th present slot carries
    sign (-1)^p.
    """
    amb = w.ambient
    n, m = amb.n, amb.m
    full = (1 << (n + m)) - 1
    residual: dict[tuple[int, int], int] = {}
    for sm in w.summands:
        wedge = full & ~(1 << (n + sm.omitted_y_index - 1))
        pos = 0
        rest = wedge
        while rest:
            low = rest & -rest
            var_mask = low  # slot bit and variable bit coincide
            coeff = sm.coefficient.mask | var_mask
            in_ideal = (coeff & amb.x_mask) and (coeff & amb.y_mask)
            if not in_ideal:
                key = (wedge ^ low, coeff)
                sign = sm.sign * (-1) ** pos
                residual[key] = residual.get(key, 0) + sign
            pos += 1
            rest ^= low
    return all(c == 0 for c in residual.values())
