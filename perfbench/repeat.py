"""Run the benchmark over several seeds and record every result.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/BENCH_<label>.json

Runs the command of BENCHMARK.json once per (seed, workload), seeds in
the outer loop so that a slow spell of the host touches every workload
alike, then one traced run per workload with the first seed. Writes every
run's result plus, for each end-to-end metric, the median, the quartiles
and their distance as a share of the median. Exits non-zero if any run
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["exit_code"] = proc.returncode
    print(workload, seed, f"trace={trace}", proc.returncode,
          {k: round(v["value"], 5) for k, v in result["metrics"].items()}, flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            runs[name].append({"seed": seed, **_run(spec, name, seed, 0)})
    summary = {}
    for name in names:
        summary[name] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[name]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name][m["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "bound": m["bound"],
            }
            print(f"{name:14s} {m['name']:12s} median {statistics.median(values):10.5g}"
                  f"  spread {(q3 - q1) / statistics.median(values):.4f}  bound {m['bound']}")
    traced = {name: _run(spec, name, args.seeds[0], 1) for name in names}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"summary": summary, "runs": runs, "traced": traced}, indent=1) + "\n")
    every = [r for rs in runs.values() for r in rs] + list(traced.values())
    return 0 if all(r["exit_code"] == 0 for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
