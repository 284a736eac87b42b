"""Machine-speed calibration for a shared, noisy host.

On the host the seed numbers were taken on, each vCPU flips between a
fast and a slow state (the slow one about 1.8 times slower) many times a
second, independently of the other vCPU, while the process stays on the
CPU: a neighbour on the same physical core, most likely. Wall time alone
then spreads by 30 % or more from run to run.

So every measured process samples the speed of its own CPU while it
works: a timer interrupts it every INTERVAL_S, and the handler times one
run of a small fixed kernel (a mark). The time between two marks is
scaled by REF_S over the mean of their kernel times, and the marks
themselves are left out. The result is the time the work would have
taken with the CPU in its fast state throughout.

The kernel is owned by the benchmark and never imports mixprod, so a
change to the program cannot change it. It mimics the program's mix of
operations: restrictions of a simplicial complex over bitmasks, face
enumeration, signed boundary matrices, GF(2) and fraction-free integer
elimination.
"""

from __future__ import annotations

import bisect
import signal
import time

#: Kernel time, in seconds, in the fast state of the seed's host (an Intel
#: Xeon vCPU at 2.0 GHz, CPython 3.11); its slow state takes about 1.4 ms.
REF_S = 0.00075
INTERVAL_S = 0.05


def _faces(facets: tuple[int, ...]) -> list[int]:
    seen: set[int] = set()
    for f in facets:
        sub = f
        while True:
            seen.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return sorted(seen)


def _boundary(faces: list[int], dim: int) -> list[list[int]]:
    """Signed boundary matrix from the faces of size dim + 1 to those of size dim."""
    lower = [f for f in faces if f.bit_count() == dim]
    upper = [f for f in faces if f.bit_count() == dim + 1]
    index = {f: r for r, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for col, f in enumerate(upper):
        sign, rest = 1, f
        while rest:
            low = rest & -rest
            mat[index[f ^ low]][col] = sign
            sign, rest = -sign, rest ^ low
    return mat


def _bareiss_rank(rows: list[list[int]]) -> int:
    mat = [row[:] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, nrows):
            vi, row_i, row_p = mat[i][col], mat[i], mat[rank]
            for j in range(col, ncols):
                row_i[j] = (row_i[j] * pv - vi * row_p[j]) // prev
        prev = pv
        rank += 1
        if rank == nrows:
            break
    return rank


def _maximal(masks) -> tuple[int, ...]:
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (-m.bit_count(), m)):
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _gf2_rank(rows: list[list[int]]) -> int:
    packed = [sum(1 << j for j, v in enumerate(row) if v & 1) for row in rows]
    packed = [r for r in packed if r]
    rank = 0
    while packed:
        piv = packed.pop()
        rank += 1
        low = piv & -piv
        packed = [r ^ piv if r & low else r for r in packed]
        packed = [r for r in packed if r]
    return rank


#: Stanley-Reisner complex of I_1J_2 + I_2J_1 on 4 + 3 variables.
_NV = 7
_FACETS = _maximal(
    s for s in range(1 << _NV)
    if not ((s & 15).bit_count() >= 1 and (s >> 4).bit_count() >= 2)
    and not ((s & 15).bit_count() >= 2 and (s >> 4).bit_count() >= 1)
)


def kernel() -> int:
    """One fixed unit of work, a few steps of a Hochster walk without
    caching; returns a checksum so none of it is skipped."""
    total = 0
    for w in range(0, 1 << _NV, 9):
        faces = _faces(_maximal(f & w for f in _FACETS))
        for d in range(1, max(f.bit_count() for f in faces) + 1):
            mat = _boundary(faces, d - 1)
            if mat and mat[0]:
                total += _gf2_rank(mat) + _bareiss_rank(mat)
    return total


def timed_kernel() -> tuple[float, float]:
    """(start, end) of one kernel run, on the perf_counter clock."""
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter()


class Clock:
    """Marks taken every INTERVAL_S between start() and stop(), and the
    conversion of a measured interval to reference time."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []

    def _mark(self, *_) -> None:
        self.marks.append(timed_kernel())

    def start(self) -> None:
        self._mark()
        signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._mark()

    def span(self, t0: float, t1: float, scaled: bool = True) -> float:
        """Time spent in [t0, t1] outside the marks, in reference seconds
        (or, unscaled, in seconds)."""
        total = 0.0
        first = max(bisect.bisect_right(self.marks, (t0,)) - 1, 0)
        for (s0, e0), (s1, e1) in zip(self.marks[first:], self.marks[first + 1:]):
            if s0 >= t1:
                break
            overlap = min(t1, s1) - max(t0, e0)
            if overlap > 0:
                total += overlap * REF_S / ((e0 - s0 + e1 - s1) / 2) if scaled else overlap
        return total
