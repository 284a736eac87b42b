"""Long checks of the oracle against the reference, run by CI's "CLI smoke"
step and runnable locally, one at a time:

    PYTHONPATH=src python ci/checks.py <name>

with <name> one of rows, swap_classes, antichain, dual_berge, digest,
corners and startup. Each asserts its counts and prints one line per
pass; a failed assert exits non-zero. The file lies outside tests/, so
Tier-1 does not collect it.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time
from itertools import combinations, product
from math import comb, prod

from pathlib import Path

import mixprod
from mixprod import (
    GF2,
    GF3,
    RATIONALS,
    alexander_dual,
    realize_spec,
    reduced_homology_ranks,
    restrict,
    stanley_reisner,
)
from mixprod.core import Ambient, _indicator_of_masks, _minimalize, vars_to_mask
from mixprod.harness import _ambient_specs, enumerate_specs
from mixprod.homology import _canonical_facets, _homology_of_faces
from mixprod.invariants import (
    _corners, _set_up, _swap_classes, _up_set, dual_by_types, hochster_betti,
)
from mixprod.reference import _faces


def _rows_by_scan(gens, classes):
    """The nonempty representatives W, each class taking its lowest
    variables, that the generators inside W cover."""
    lowest = []
    for c in classes:
        prefixes, rest = [0], c
        while rest:
            prefixes.append(prefixes[-1] | rest & -rest)
            rest &= rest - 1
        lowest.append(prefixes)
    rows = []
    for parts in product(*lowest):
        w, cover = sum(parts), 0
        for g in gens:
            if g & ~w == 0:
                cover |= g
        if w and cover == w:
            rows.append(w)
    return rows


def rows() -> None:
    """The totals sum one polynomial per corner of the type grid
    (_walk_plan, _corners), and the walk, built when read, reads
    beta_{.,W} off the corner table of the classes W meets (_parts). For
    every canonical spec up to 6x6 and its dual, a scan of the generators
    finds the rows, the nonempty representatives W that the generators
    inside cover, and over Q, GF(2) and GF(3) the Betti numbers the walk
    lists at each row equal Hochster's formula on the reference
    restrict(stanley_reisner(b), W); it lists none at any other nonempty
    W, and its orbit-weighted sum is the table's totals (93834 rows).

    The homology kernel finds the cells in the boundary walk that builds
    the columns, and a missed cell breaks Euler-Poincare: over every
    distinct reference side restrict(stanley_reisner(b), W) met at those
    rows, over Q, GF(2) and GF(3), sum (-1)^i h~_i equals the alternating
    count of all faces (4507 sides)."""
    count = bad = 0
    sides = set()
    for spec in enumerate_specs(6, 6):
        a = realize_spec(spec)
        a_plan, dual_plan, _ = _set_up(a)
        for b, plan in ((a, a_plan), (dual_plan.ideal, dual_plan)):
            scanned = _rows_by_scan(b.gen_masks(), plan.classes)
            delta = stanley_reisner(b)
            walked = {}
            for field in (RATIONALS, GF2, GF3):
                table = hochster_betti(b, field, plan)
                walked[field], totals = {}, {}
                for i, w, r in table.walk:
                    walked[field].setdefault(w, {})[i] = r
                    orbit = prod(comb(c.bit_count(), (w & c).bit_count()) for c in plan.classes)
                    totals[(i, w.bit_count())] = totals.get((i, w.bit_count()), 0) + r * orbit
                bad += totals != table.entries
                bad += not set(walked[field]) - {0} <= set(scanned)
            for w in scanned:
                count += 1
                side = restrict(delta, w)
                sides.add(_canonical_facets(side.facets))
                for field in (RATIONALS, GF2, GF3):
                    expected = {
                        w.bit_count() - 1 - k: r
                        for k, r in reduced_homology_ranks(side, field).items()
                        if r
                    }
                    bad += walked[field].get(w, {}) != expected
    assert count == 93834 and not bad, (count, bad)
    print(count, "rows: the Betti numbers the walk lists at each row are those of restrict"
          " over Q, GF(2) and GF(3), and it sums to the totals")
    bad = 0
    for facets in sides:
        chi = sum((-1) ** (f.bit_count() - 1) for f in _faces(facets))
        for char in (0, 2, 3):
            bad += sum((-1) ** i * h for i, h in _homology_of_faces(facets, char)) != chi
    assert len(sides) == 4507 and not bad, (len(sides), bad)
    print(len(sides), "sides: the Euler characteristic of every restriction matches its"
          " homology over Q, GF(2) and GF(3)")


def _swap_classes_by_scan(b):
    """Each variable tested against the lowest member of each class found
    so far, by scanning the generators for one whose swap image is no
    generator."""
    gens, classes = set(b.gen_masks()), []
    for v in range(b.ambient.nvars):
        for k, cls in enumerate(classes):
            swap = (1 << v) | (cls & -cls)
            if all(g ^ swap in gens for g in gens if (g & swap).bit_count() == 1):
                classes[k] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def swap_classes() -> None:
    """_swap_classes tests each transposition by one delta-swap on a
    2^N-bit indicator of the generator set; on every canonical spec up to
    7x7 and on its dual it equals a scan of the generators for one whose
    swap image is missing (16576 ideals)."""
    ideals = bad = 0
    for spec in enumerate_specs(7, 7):
        a = realize_spec(spec)
        for b in (a, dual_by_types(a)):
            ideals += 1
            bad += _swap_classes(b.indicator, b.ambient.nvars) != _swap_classes_by_scan(b)
    assert ideals == 16576 and not bad, (ideals, bad)
    print(ideals, "ideals: the swap classes by delta-swaps equal the scan of the generators")


def antichain() -> None:
    """realize_spec builds the indicator from the blocks by doubling, with
    no minimalizing pass. Over every canonical spec up to 8x8 the sorted
    union of the terms' generators, built one subset at a time by
    vars_to_mask, is already an antichain, equal to its _minimalize, and
    it is both the masks realize_spec's ideal reads off its indicator and,
    set one mask at a time, that indicator (16344 specs)."""
    specs = enumerate_specs(8, 8)
    bad = []
    for s in specs:
        xs, ys = range(1, s.ambient.n + 1), range(s.ambient.n + 1, s.ambient.nvars + 1)
        union = sorted(
            vars_to_mask(a + b)
            for k, l in s.terms
            for a in combinations(xs, k)
            for b in combinations(ys, l)
        )
        got = realize_spec(s)
        if not (
            got.indicator == _indicator_of_masks(s.ambient.nvars, union)
            and union == list(_minimalize(union)) == list(got.gen_masks())
        ):
            bad.append(s)
    assert len(specs) == 16344 and not bad, (len(specs), bad[:3])
    print(len(specs), "specs: the sorted union of the terms generators is an antichain, and"
          " realize_spec returns it")


def dual_berge() -> None:
    """The oracle's dual, read off the count vectors, equals Berge's on
    every canonical spec up to 7x7 (8288 specs), both as dual_by_types
    builds it and as the report set-up walks it, the ideal its dual's plan
    holds (the ideal itself when it is self-dual, 160 specs)."""
    specs = enumerate_specs(7, 7)
    bad, self_dual = [], 0
    for s in specs:
        a = realize_spec(s)
        berge, walked = alexander_dual(a), _set_up(a)[1].ideal
        self_dual += walked is a
        if not dual_by_types(a) == berge == walked:
            bad.append(s)
    assert len(specs) == 8288 and self_dual == 160 and not bad, (len(specs), self_dual, bad[:3])
    print(len(specs), "specs: dual by types equals Berge")
    print(len(specs), "specs: the set-up's dual equals Berge,", self_dual, "of them self-dual")


DIGESTS = Path(__file__).with_name("betti_digests.txt")


def _cap_ambients():
    """Each ambient (n, m) with 1 <= n + m <= 16, by n + m then n, with its
    canonical specs."""
    for nvars in range(1, 17):
        for n in range(nvars + 1):
            amb = Ambient(n, nvars - n)
            yield amb, _ambient_specs(amb)


def _digests() -> list[str]:
    """One line "n m sha256" per ambient (n, m) with 1 <= n + m <= 16: the
    hash of every canonical spec's terms with the sorted Betti entries of
    its ideal and of the ideal's Alexander dual, each walked on the plan of
    the report set-up, over Q and over GF(2)."""
    lines = []
    for amb, specs in _cap_ambients():
        h = hashlib.sha256()
        for spec in specs:
            a = realize_spec(spec)
            plan, dual_plan, _ = _set_up(a)
            h.update(repr(spec.terms).encode())
            for field in (RATIONALS, GF2):
                for b, p in ((a, plan), (dual_plan.ideal, dual_plan)):
                    h.update(repr(hochster_betti(b, field, p).sorted_entries()).encode())
        lines.append(f"{amb.n} {amb.m} {h.hexdigest()}")
    return lines


def digest() -> None:
    """Every Betti table the oracle makes over Q and GF(2), for the ideal
    and its dual of every canonical spec with n + m <= 16, hashed per
    ambient and compared with the committed ci/betti_digests.txt (152
    ambients). The digests pin the outputs against change; they do not
    prove them, which the reference checks above do. After a change that
    is meant to alter a table, the file is rewritten, from the root, by

        PYTHONPATH=src:ci python -c "from checks import _digests; print(*_digests(), sep=chr(10))" > ci/betti_digests.txt
    """
    got, want = _digests(), DIGESTS.read_text().splitlines()
    bad = [line for line, old in zip(got, want) if line != old]
    assert len(got) == len(want) == 152 and not bad, (len(got), len(want), bad[:3])
    print(len(got), "ambients: the Betti tables of every ideal and its dual over Q and GF(2)"
          " match the committed digests")


def _corners_by_staircase(sizes, types):
    """Reference: the corner table of `types` on the box of `sizes` by a
    scan of the staircase of their up-closure (_up_set), every k with each
    k_C >= 1 in the up-closure and k - 1 outside it, each with its Gamma_k
    read off the U_d of the types d <= k, the cones left out."""
    up, axes, nonzero = _up_set(sizes, types)
    points = up & ~up << sum(k for k, _ in axes)
    for mask in nonzero:
        points &= mask
    out = []
    while points:
        low = points & -points
        points ^= low
        k = [(low.bit_length() - 1) % block // stride for stride, block in axes]
        facets = {
            sum(1 << j for j, (x, y) in enumerate(zip(d, k)) if x < y)
            for d in types
            if all(map(int.__le__, d, k))
        }
        kept, common = [], -1
        for u in sorted(facets, key=int.bit_count, reverse=True):
            if all(u & ~v for v in kept):
                kept.append(u)
                common &= u
        if not common:
            out.append((tuple(x - 1 for x in k), _canonical_facets(tuple(sorted(kept))), sum(k)))
    return tuple(out)


def corners() -> None:
    """_corners reads its candidate corners off the lcm lattice of the
    types; every corner table of the plans of every canonical spec with
    n + m <= 16 and of its dual, as the report set-up builds them, equals
    the staircase scan of the up-closure on the box of the classes' sizes
    (169462 tables). _corners is a process-wide memo keyed on the
    projected types: cleared first, it ends holding one table per distinct
    tuple of projected types visited (4984), each built once."""
    _corners.cache_clear()
    _set_up.cache_clear()
    tables, bad, seen = 0, [], set()
    for _, specs in _cap_ambients():
        for spec in specs:
            plan, dual_plan, _ = _set_up(realize_spec(spec))
            for p in (plan, dual_plan):
                for union, table in p.tables.items():
                    meets = [j for j, c in enumerate(p.classes) if c & union]
                    inside = [
                        tuple(d[j] for j in meets)
                        for d in p.types
                        if not any(x for j, x in enumerate(d) if j not in meets)
                    ]
                    sizes = [p.classes[j].bit_count() for j in meets]
                    tables += 1
                    seen.add(tuple(inside))
                    if table != _corners_by_staircase(sizes, inside):
                        bad.append((spec, union))
    assert tables == 169462 and not bad, (tables, bad[:3])
    print(tables, "tables: the corners from the lcm lattice of the types equal the staircase scan")
    info = _corners.cache_info()
    assert info.currsize == info.misses == len(seen) == 4984, (info, len(seen))
    print(f"_corners memo: {info.hits} hits, {info.misses} misses, {info.currsize} tables")


def _fresh(code: str) -> tuple[float, str]:
    """Wall time and stdout of one `python -E -S` process that puts the
    package's source on its path and runs `code`."""
    src = str(Path(mixprod.__file__).resolve().parent.parent)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return time.perf_counter() - t0, proc.stdout


def startup() -> None:
    """A process that imports the CLI loads neither dataclasses nor typing
    (no code is generated at import), and the median wall time of 21 fresh
    processes, each for a bare interpreter, `import mixprod.cli` and the
    6x6 `invariants` call. No time is asserted: the numbers depend on the
    host."""
    _, loaded = _fresh("import mixprod.cli; print(*{'dataclasses', 'typing'} & set(sys.modules))")
    assert not loaded.split(), loaded
    print("import mixprod.cli loads neither dataclasses nor typing")
    invariants = ["invariants", "--n", "6", "--m", "6", "--terms", "1,2+2,1", "--field", "gf2"]
    for name, code in (
        ("bare interpreter", "pass"),
        ("import mixprod.cli", "import mixprod.cli"),
        ("mixprod " + " ".join(invariants), f"import mixprod.cli; mixprod.cli.main({invariants!r})"),
    ):
        ms = statistics.median(_fresh(code)[0] for _ in range(21)) * 1e3
        print(f"{name}: median {ms:.1f} ms of 21 fresh processes")


CHECKS = {
    f.__name__: f for f in (rows, swap_classes, antichain, dual_berge, digest, corners, startup)
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python ci/checks.py {{{','.join(CHECKS)}}}")
    CHECKS[sys.argv[1]]()
