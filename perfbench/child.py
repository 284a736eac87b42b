"""One measured process: a fresh interpreter that sets up, runs one unit of
a workload (one whole sweep, or one case of a case list), checks its
output and prints its measurements as one JSON line.

    python3 perfbench/child.py <setup|run|trace> <workload> <case> <t_spawn>

``case`` is the index into a case list (ignored for sweeps); ``t_spawn``
is the runner's ``time.monotonic()`` just before it started this process,
so that set-up time covers interpreter start, ``import mixprod`` and
building the case list. Only the runner starts this script; every run is a
fresh interpreter because ``mixprod`` keeps a process-global homology
cache, and a warm second run would measure a different program.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # run with -E, which ignores PYTHONPATH

import calibrate  # noqa: E402
import mixprod.cli  # noqa: E402
import mixprod.core  # noqa: E402
import mixprod.harness  # noqa: E402
import mixprod.invariants  # noqa: E402
import mixprod.mixed  # noqa: E402
from mixprod.homology import FieldSpec  # noqa: E402
from workloads import REPORT_FIELDS, WORKLOADS, Cases  # noqa: E402


def main(mode: str, workload: str, case: int, t_spawn: float) -> dict:
    if not Path(mixprod.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {mixprod.__file__}, not the checkout's src/mixprod")
    wl = WORKLOADS[workload]
    if isinstance(wl, Cases):
        n, m, terms = wl.specs[case]
        spec = mixprod.core.canonicalize_spec(
            mixprod.core.MixedProductSpec(mixprod.core.Ambient(n, m), terms))
        field = FieldSpec.parse(wl.field)
        attempted = 1
    else:
        specs = mixprod.harness.enumerate_specs(wl.max_n, wl.max_m)
        attempted = len(specs) * len(wl.fields.split(","))
    out = {"setup_s": time.monotonic() - t_spawn, "attempted": attempted, "failed": 0}
    if mode == "setup":
        speed = sorted(end - start for start, end in
                       (calibrate.timed_kernel() for _ in range(5)))[2]  # median
        out["setup_ref_s"] = out["setup_s"] * calibrate.REF_S / speed
        return out

    tracer = None
    if mode == "trace":
        from spans import Tracer  # only here: it imports statistics, a cost set-up should not carry

        tracer = Tracer()
        tracer.install()
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())[workload]
    if isinstance(wl, Cases):
        out.update(_run_case(spec, field, golden[case], tracer))
    else:
        out.update(_run_sweep(wl, golden, attempted))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.summary(out["ref_wall_s"] / out["wall_s"] if "wall_s" in out else 1.0)
    return out


def _run_case(spec, field, golden: dict, tracer) -> dict:
    """formula_report + realize_spec + oracle_report on one spec, timed as
    one case; fails if it raises, if the routes disagree, or if the oracle
    report (or, traced, any Betti table) differs from the golden one."""
    problems = []
    clock = calibrate.Clock()
    clock.start()
    t0 = time.perf_counter()
    try:
        formula = mixprod.mixed.formula_report(spec)
        oracle = mixprod.invariants.oracle_report(mixprod.core.realize_spec(spec), field)
    except Exception:
        traceback.print_exc()
        return {"failed": 1}
    finally:
        t1 = time.perf_counter()
        clock.stop()
    wall, ref = clock.span(t0, t1, scaled=False), clock.span(t0, t1)
    for name in REPORT_FIELDS:
        fv, ov, gv = getattr(formula, name), getattr(oracle, name), golden["report"][name]
        if not fv == ov == gv:
            problems.append(f"{name}: formula={fv} oracle={ov} golden={gv}")
    if tracer is not None:
        for side, entries in tracer.betti:
            if [list(e) for e in entries] != golden[side + "_betti"]:
                problems.append(f"{side} Betti table differs from the golden one")
    for p in problems:
        print(f"{spec} over {field}: {p}", file=sys.stderr)
    return {
        "wall_s": wall, "ref_wall_s": ref,
        "case_ms": [wall * 1e3], "ref_case_ms": [ref * 1e3],
        "failed": int(bool(problems)),
    }


def _run_sweep(wl, golden: dict, attempted: int) -> dict:
    """One ``mixprod sweep`` through ``mixprod.cli.main``. Each case is
    timed by wrapping the harness's per-case function. A sweep that aborts
    fails every case it did not complete; a sweep whose JSON document
    (without ``elapsed_seconds``) differs from the golden one fails as a
    whole."""
    evaluate = mixprod.harness._evaluate_case
    spans: list[tuple[float, float]] = []
    mismatched = 0

    def timed_case(*args):
        nonlocal mismatched
        t = time.perf_counter()
        found = evaluate(*args)
        spans.append((t, time.perf_counter()))
        mismatched += bool(found)
        return found

    mixprod.harness._evaluate_case = timed_case
    out_path = Path(os.environ["PERFBENCH_TMP"]) / "sweep.json"
    clock = calibrate.Clock()
    clock.start()
    t0 = time.perf_counter()
    try:
        rc = mixprod.cli.main(wl.argv(str(out_path)))
    except Exception:
        traceback.print_exc()
        rc = None
    finally:
        t1 = time.perf_counter()
        clock.stop()
    failed = attempted - len(spans) + mismatched
    if rc == 0:
        doc = json.loads(out_path.read_text())
        doc.pop("elapsed_seconds")
        if doc != golden:
            print("sweep JSON differs from the golden one", file=sys.stderr)
            failed = attempted
    elif failed == 0:
        print(f"sweep exited with {rc}", file=sys.stderr)
        failed = attempted
    return {
        "wall_s": clock.span(t0, t1, scaled=False),
        "ref_wall_s": clock.span(t0, t1),
        "case_ms": [clock.span(a, b, scaled=False) * 1e3 for a, b in spans],
        "ref_case_ms": [clock.span(a, b) * 1e3 for a, b in spans],
        "failed": failed,
    }


if __name__ == "__main__":
    mode, workload, case, t_spawn = sys.argv[1:]
    print(json.dumps(main(mode, workload, int(case), float(t_spawn))))
