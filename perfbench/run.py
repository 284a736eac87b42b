"""mixprod benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every measured unit (one sweep, or one
case of a case list) runs in a fresh interpreter started by this process,
one at a time, and the runner aggregates what each reports. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced units and prints the per-layer metrics.
The last line of standard output is one JSON object; the exit code is 0
only if every case was correct. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Cases  # noqa: E402

SETUP_PROBES = 15  # set-up-only processes per untraced run; setup_s is their median
MIN_PASSES = 3  # per untraced run, so that the median pass ignores one slow one
RUN_LIMIT_S = 170  # no measured process outlives this, counted from the run's start


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One run of one workload: starts the measured processes and counts
    the cases they attempt and fail."""

    def __init__(self, workload: str, seed: int, seconds: float, env: dict) -> None:
        self.workload, self.seconds, self.env = workload, seconds, env
        wl = WORKLOADS[workload]
        if isinstance(wl, Cases):
            self.units = list(range(len(wl.specs)))
            random.Random(seed).shuffle(self.units)  # changes no work: one process per case
            self.unit_cases = 1
        else:
            self.units = [0]
            golden = json.loads((HERE / "golden.json").read_text())[workload]
            self.unit_cases = golden["cases_run"]
        self.attempted = self.failed = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, mode: str, unit: int = 0) -> dict | None:
        """Start one measured process and wait for it. Returns its report if
        every case in it passed; a unit that crashes, times out or prints no
        report fails all its cases."""
        t_spawn = time.monotonic()
        # -E: no PYTHON* variable of the caller reaches the measured process
        # (bytecode caches are always written, so probes after the warm-up
        # read them); -S: no .pth file of the host's site-packages runs.
        cmd = [sys.executable, "-E", "-S", str(HERE / "child.py"), mode, self.workload,
               str(unit), repr(t_spawn)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - t_spawn, 1.0))
            report = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, IndexError, ValueError):
            report = None
        if report is None:
            print(f"{self.workload} unit {unit}: no report from the {mode} process", file=sys.stderr)
            report = {"attempted": self.unit_cases, "failed": self.unit_cases}
        if mode != "setup":
            self.attempted += report["attempted"]
            self.failed += report["failed"]
        return None if report["failed"] else report

    def passes(self, min_passes: int):
        """Yield 1, 2, ... until a case has failed, or at least min_passes
        passes are done and another pass as long as the last one would
        overrun the run's time."""
        start = time.monotonic()
        done = 0
        while True:
            t_pass = time.monotonic()
            done += 1
            yield done
            now = time.monotonic()
            if self.failed or done >= min_passes and now - start + (now - t_pass) > self.seconds:
                return

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        self.child("setup")  # warm-up: bytecode cache and file cache
        setups = [self.child("setup") for _ in range(SETUP_PROBES)]
        if None in setups:
            raise SystemExit("a set-up probe failed")
        pass_s, raw_pass_s, case_ms, raw_case_ms, rss_kb = [], [], [], [], 0
        for _ in self.passes(MIN_PASSES):
            reports = [self.child("run", unit) for unit in self.units]
            for r in filter(None, reports):
                case_ms += r["ref_case_ms"]
                raw_case_ms += r["case_ms"]
                rss_kb = max(rss_kb, r["peak_rss_kb"])
            if None not in reports:  # only whole passes time the workload
                pass_s.append(sum(r["ref_wall_s"] for r in reports))
                raw_pass_s.append(sum(r["wall_s"] for r in reports))
        cases = self.unit_cases * len(self.units)
        if pass_s:
            print(f"{self.workload}  unscaled: setup {_median([r['setup_s'] for r in setups]):.4g} s,"
                  f" {cases / _median(raw_pass_s):.4g} cases/s,"
                  f" case p50 {_median(raw_case_ms):.4g} ms, {len(pass_s)} passes")
        return {
            "setup_s": (_median([r["setup_ref_s"] for r in setups]), "s"),
            "cases_per_s": (cases / _median(pass_s) if pass_s else 0.0, "1/s"),
            "case_p50_ms": (_median(case_ms), "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        self.child("setup")
        plain_s = traced_s = 0.0
        summaries = []
        passes = 0
        for passes in self.passes(1):
            for unit in self.units:
                plain, traced = self.child("run", unit), self.child("trace", unit)
                if plain and traced:
                    plain_s += plain["ref_wall_s"]
                    traced_s += traced["ref_wall_s"]
                    summaries.append(traced["trace"])
        for name in sorted({a for sm in summaries for a in sm["absent"]}):
            print(f"absent: {name} (its metrics read 0)")
        metrics = layer_metrics(summaries, passes)
        metrics["trace.overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
        metrics["trace.wall_s"] = (traced_s / passes, "s")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixprod" / "__init__.py").is_file():
        print(f"error: no src/mixprod under {ROOT}; run from a mixprod checkout", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    run = Run(args.workload, args.seed, args.seconds,
              dict(os.environ, PERFBENCH_TMP=tmp))
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  failed_ratio = {run.failed / max(run.attempted, 1):.6g}"
          f" ({run.failed} failed of {run.attempted} attempted)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
