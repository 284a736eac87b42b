"""Write perfbench/golden.json: the reference outputs every benchmark run
is checked against.

    PYTHONPATH=src python3 perfbench/capture_golden.py

For each case workload: the oracle report of every case, and the Betti
tables of the ideal and of its Alexander dual (the two hochster_betti
calls an oracle report makes). For each sweep workload: the ``mixprod
sweep`` JSON document without ``elapsed_seconds``. Capture it once, from
a commit whose outputs are trusted; a change that alters any of these
values is a bug, not a speed-up.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import mixprod.cli
from mixprod import (
    Ambient,
    MixedProductSpec,
    alexander_dual,
    canonicalize_spec,
    hochster_betti,
    oracle_report,
    realize_spec,
)
from mixprod.homology import FieldSpec

from workloads import REPORT_FIELDS, WORKLOADS, Cases

HERE = Path(__file__).resolve().parent


def capture() -> dict:
    golden: dict = {}
    for name, wl in WORKLOADS.items():
        if isinstance(wl, Cases):
            field = FieldSpec.parse(wl.field)
            cases = []
            for n, m, terms in wl.specs:
                spec = canonicalize_spec(MixedProductSpec(Ambient(n, m), terms))
                ideal = realize_spec(spec)
                report = oracle_report(ideal, field)
                cases.append({
                    "spec": f"{spec} in {n}x{m}",
                    "report": {f: getattr(report, f) for f in REPORT_FIELDS},
                    "primal_betti": [list(e) for e in hochster_betti(ideal, field).sorted_entries()],
                    "dual_betti": [
                        list(e) for e in hochster_betti(alexander_dual(ideal), field).sorted_entries()
                    ],
                })
            golden[name] = cases
        else:
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "sweep.json"
                if mixprod.cli.main(wl.argv(str(out))) != 0:
                    raise SystemExit(f"{name}: the sweep failed; nothing to capture")
                doc = json.loads(out.read_text())
            doc.pop("elapsed_seconds")
            golden[name] = doc
    return golden


if __name__ == "__main__":
    (HERE / "golden.json").write_text(json.dumps(capture(), indent=1) + "\n")
