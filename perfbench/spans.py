"""Layer tracing from outside the program.

Each traced function is wrapped by rebinding its name in the module that
calls it (``mixprod.invariants.restrict``, ``mixprod.core.alexander_dual``,
...), so no source file of the package changes. A span records its
inclusive time; a layer's self time is a span's time minus the time of
the spans opened inside it. Aggregates are kept in memory and handed to
the runner when the process ends; layer_metrics turns those of a whole
run into the per-layer metrics. Importing this module does not import
mixprod, so the runner can use it too.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from typing import Any, Callable

#: (module, attribute, span name). The same function may be bound in more
#: than one calling module; each binding gets its own wrapper, so a call
#: is counted once whichever binding it goes through.
WRAPPED = (
    ("mixprod.cli", "main", "cli.main"),
    ("mixprod.cli", "run_sweep", "harness.run_sweep"),
    ("mixprod.harness", "formula_report", "mixed.formula_report"),
    ("mixprod.mixed", "formula_report", "mixed.formula_report"),
    ("mixprod.harness", "realize_spec", "core.realize_spec"),
    ("mixprod.core", "realize_spec", "core.realize_spec"),
    ("mixprod.harness", "oracle_report", "invariants.oracle_report"),
    ("mixprod.invariants", "oracle_report", "invariants.oracle_report"),
    ("mixprod.invariants", "krull_dim", "core.krull_dim"),
    ("mixprod.invariants", "alexander_dual", "core.alexander_dual"),
    ("mixprod.core", "alexander_dual", "core.alexander_dual"),
    ("mixprod.invariants", "hochster_betti", "invariants.hochster_betti"),
    ("mixprod.invariants", "stanley_reisner", "homology.stanley_reisner"),
    ("mixprod.invariants", "restrict", "homology.restrict"),
    ("mixprod.invariants", "reduced_homology_ranks", "homology.reduced_homology_ranks"),
    ("mixprod.homology", "_matrix_rank", "homology.rank"),
)
CACHE = ("mixprod.homology", "_homology_of_faces")


def _field_key(char: int) -> str:
    return "q" if char == 0 else "gf2" if char == 2 else "gfp"


class Tracer:
    """Span aggregates for one process: per span name, [calls, inclusive
    seconds, self seconds], plus the few values a metric needs from the
    arguments or results of a call."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.absent: list[str] = []
        self.oracle_ms: list[float] = []
        self.terai_s = 0.0
        self.rank_s = {"q": 0.0, "gf2": 0.0, "gfp": 0.0}
        self.rank_max_cells = 0
        # (primal or dual side, sorted Betti entries) per hochster_betti call
        self.betti: list[tuple[str, list[tuple[int, int, int]]]] = []
        # open spans, innermost last: [name, child seconds, positional args]
        self._stack: list[list[Any]] = []

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        stack, stats = self._stack, self.stats
        stats.setdefault(name, [0, 0.0, 0.0])
        on_return = {
            "invariants.oracle_report": self._on_oracle_report,
            "invariants.hochster_betti": self._on_hochster_betti,
            "homology.rank": self._on_rank,
        }.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, args]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_return is not None:
                on_return(args, result, dt)
            return result

        return wrapper

    def _on_oracle_report(self, args, result, dt) -> None:
        self.oracle_ms.append(dt * 1e3)

    def _on_hochster_betti(self, args, result, dt) -> None:
        # The Terai pass is the hochster_betti call on another ideal than
        # the one the enclosing oracle_report was asked about.
        report = next(
            (f for f in reversed(self._stack) if f[0] == "invariants.oracle_report"), None
        )
        side = "dual" if report is not None and args[0] != report[2][0] else "primal"
        if side == "dual":
            self.terai_s += dt
        self.betti.append((side, result.sorted_entries()))

    def _on_rank(self, args, result, dt) -> None:
        rows, field = args[0], args[1]
        self.rank_s[_field_key(field.char)] += dt
        if rows:
            self.rank_max_cells = max(self.rank_max_cells, len(rows) * len(rows[0]))

    def summary(self, scale: float) -> dict:
        """The aggregates, with every time multiplied by scale (the process's
        reference time over its wall time, so that layer times are in the
        same reference seconds as the end-to-end metrics)."""
        cache = getattr(importlib.import_module(CACHE[0]), CACHE[1], None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        if info is None:
            self.absent.append(".".join(CACHE))
        return {
            "stats": {k: [c, t * scale, st * scale] for k, (c, t, st) in self.stats.items()},
            "absent": self.absent,
            "oracle_ms": [v * scale for v in self.oracle_ms],
            "terai_s": self.terai_s * scale,
            "rank_s": {k: v * scale for k, v in self.rank_s.items()},
            "rank_max_cells": self.rank_max_cells,
            "cache": [0, 0] if info is None else [info.hits, info.misses],
        }


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def layer_metrics(summaries: list[dict], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass over the workload, from the summaries
    of every traced process of a run."""
    stats: dict[str, list[float]] = {}
    oracle_ms: list[float] = []
    terai_s, hits, misses, max_cells = 0.0, 0, 0, 0
    rank_s = {"q": 0.0, "gf2": 0.0, "gfp": 0.0}
    for sm in summaries:
        for name, values in sm["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        oracle_ms += sm["oracle_ms"]
        terai_s += sm["terai_s"]
        hits, misses = hits + sm["cache"][0], misses + sm["cache"][1]
        max_cells = max(max_cells, sm["rank_max_cells"])
        for k, v in sm["rank_s"].items():
            rank_s[k] += v

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0] / passes

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1] / passes

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    restricts, rhr = calls("homology.restrict"), calls("homology.reduced_homology_ranks")
    return {
        "cli.self_s": (self_s("cli.main"), "s"),
        "harness.self_s": (self_s("harness.run_sweep"), "s"),
        "mixed.formula_report.s": (total("mixed.formula_report"), "s"),
        "core.realize_spec.s": (total("core.realize_spec"), "s"),
        "core.alexander_dual.calls_per_report": (
            ratio(calls("core.alexander_dual"), calls("invariants.oracle_report")), "calls/report"),
        "core.alexander_dual.s": (total("core.alexander_dual"), "s"),
        "core.krull_dim.s": (total("core.krull_dim"), "s"),
        "core.self_s": (self_s("core.realize_spec", "core.krull_dim", "core.alexander_dual"), "s"),
        "homology.stanley_reisner.s": (total("homology.stanley_reisner"), "s"),
        "homology.restrict.calls": (restricts, "count"),
        "homology.restrict.s": (total("homology.restrict"), "s"),
        "homology.reduced_homology_ranks.calls": (rhr, "count"),
        "homology.reduced_homology_ranks.s": (total("homology.reduced_homology_ranks"), "s"),
        "homology.cone_skip_ratio": (1 - ratio(rhr, restricts) if restricts else 0.0, "ratio"),
        "homology.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "homology.rank.q.s": (rank_s["q"] / passes, "s"),
        "homology.rank.gf2.s": (rank_s["gf2"] / passes, "s"),
        "homology.rank.gfp.s": (rank_s["gfp"] / passes, "s"),
        "homology.rank.calls": (calls("homology.rank"), "count"),
        "homology.rank.max_cells": (max_cells, "cells"),
        "homology.self_s": (self_s(
            "homology.stanley_reisner", "homology.restrict",
            "homology.reduced_homology_ranks", "homology.rank"), "s"),
        "invariants.hochster_betti.calls": (calls("invariants.hochster_betti"), "count"),
        "invariants.hochster_betti.s": (total("invariants.hochster_betti"), "s"),
        "invariants.self_s": (self_s("invariants.oracle_report", "invariants.hochster_betti"), "s"),
        "invariants.terai_share": (
            ratio(terai_s / passes, total("invariants.oracle_report")), "ratio"),
        "invariants.oracle_report.p50_ms": (
            statistics.median(oracle_ms) if oracle_ms else 0.0, "ms"),
        "invariants.oracle_report.p99_ms": (
            _percentile(oracle_ms, 99) if oracle_ms else 0.0, "ms"),
    }
