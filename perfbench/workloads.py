"""The benchmark's workloads: fixed inputs, shared by the runner, the
measured child process and the golden-reference capture.

A *sweep* workload is one in-process ``mixprod sweep`` over every canonical
spec up to (max_n, max_m); a *cases* workload is a fixed list of specs,
each run through formula_report + realize_spec + oracle_report over one
field. The ``smoke`` workloads are 2x2 versions of the three measured
ones, used by the self-check only. The two measured case lists have an
odd length, so that the median case of a run is the median of one spec's
samples rather than the mean of two neighbouring specs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    max_n: int
    max_m: int
    fields: str  # as passed to ``mixprod sweep --fields``

    def argv(self, out: str) -> list[str]:
        return [
            "sweep", "--max-n", str(self.max_n), "--max-m", str(self.max_m),
            "--fields", self.fields, "--format", "json", "--out", out,
        ]


@dataclass(frozen=True)
class Cases:
    field: str  # "q" or "gf<p>"
    specs: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]  # (n, m, terms)


WORKLOADS: dict[str, Sweep | Cases] = {
    "sweep44": Sweep(4, 4, "q,gf2,gf3"),
    "walk-gf2-6x6": Cases("gf2", (
        (6, 6, ((1, 2), (2, 1))),
        (6, 6, ((2, 5), (4, 1))),
        (6, 6, ((3, 3),)),
        (6, 6, ((1, 1),)),
        (8, 4, ((2, 3), (3, 1))),
    )),
    "rank-q-5x5": Cases("q", (
        (5, 5, ((2, 3), (3, 2))),
        (5, 5, ((4, 3), (5, 2))),
        (5, 5, ((3, 3), (4, 2))),
        (5, 5, ((2, 3), (4, 2))),
        (5, 5, ((0, 3), (3, 2))),
    )),
    # 2x2 smoke versions for the self-check
    "sweep22": Sweep(2, 2, "q,gf2,gf3"),
    "walk-gf2-2x2": Cases("gf2", ((2, 2, ((1, 2), (2, 1))), (3, 1, ((1, 1),)))),
    "rank-q-2x2": Cases("q", ((2, 2, ((1, 1),)), (2, 2, ((0, 1), (2, 0))))),
}

#: Invariants read off a report and compared: formula against oracle, and
#: oracle against the golden reference.
REPORT_FIELDS = ("dim", "depth", "pd", "reg_of_ideal", "reg_of_quotient", "cm", "height")
