"""Exhaustive formula-vs-oracle sweep over all canonical mixed products up
to a size bound, with machine-readable reporting."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .core import AMBIENT_CAP, Ambient, MixedProductSpec, realize_spec
from .errors import CapExceeded
from .homology import RATIONALS, FieldSpec
from .invariants import oracle_report
from .mixed import (
    formula_report,
    koszul_cycle_witness,
    syzygy_witness,
    verify_koszul_cycle,
    verify_syzygy_witness,
)

#: Invariants compared between the two routes, in report order.
COMPARED = ("dim", "depth", "pd", "reg_of_ideal", "reg_of_quotient", "cm")


@dataclass(frozen=True)
class SweepConfig:
    max_n: int = 3
    max_m: int = 3
    fields: tuple[FieldSpec, ...] = (RATIONALS,)
    include_witness_checks: bool = True

    def __post_init__(self) -> None:
        if self.max_n < 0 or self.max_m < 0:
            raise ValueError("sweep bounds must be nonnegative")
        if self.max_n + self.max_m > AMBIENT_CAP:
            raise CapExceeded(
                f"sweep bounds ({self.max_n},{self.max_m}) exceed the "
                f"{AMBIENT_CAP}-variable cap"
            )
        if not self.fields:
            raise ValueError("a sweep needs at least one field")
        if len(set(self.fields)) < len(self.fields):
            raise ValueError("a sweep names each field once")


def spec_to_json(spec: MixedProductSpec) -> dict:
    """JSON form of a description: its ambient and its term list."""
    return {
        "ambient": {"n": spec.ambient.n, "m": spec.ambient.m},
        "ideal": [list(t) for t in spec.terms],
    }


def spec_from_json(entry: dict) -> MixedProductSpec:
    """Inverse of spec_to_json; other keys of the entry are ignored."""
    amb = Ambient(entry["ambient"]["n"], entry["ambient"]["m"])
    return MixedProductSpec(amb, tuple((k, l) for k, l in entry["ideal"]))


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between the routes. Invariant "error" means a route
    raised: the value of each route that raised is "<Type>: <message>", and
    that of a route that did not is None."""

    spec: MixedProductSpec
    field: FieldSpec
    invariant: str
    formula_value: int | bool | str | None
    oracle_value: int | bool | str | None


@dataclass(frozen=True)
class WitnessFailure:
    spec: MixedProductSpec
    kind: str  # "syzygy" | "koszul"


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cases_run: int
    mismatches: tuple[Mismatch, ...]
    witness_failures: tuple[WitnessFailure, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.witness_failures

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "max_n": self.config.max_n,
                "max_m": self.config.max_m,
                "fields": [str(f) for f in self.config.fields],
                "include_witness_checks": self.config.include_witness_checks,
            },
            "cases_run": self.cases_run,
            "mismatches": [
                {
                    **spec_to_json(mm.spec),
                    "field": str(mm.field),
                    "invariant": mm.invariant,
                    "formula": mm.formula_value,
                    "oracle": mm.oracle_value,
                }
                for mm in self.mismatches
            ],
            "witness_failures": [
                {**spec_to_json(wf.spec), "kind": wf.kind}
                for wf in self.witness_failures
            ],
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepReport":
        cfg = SweepConfig(
            max_n=d["config"]["max_n"],
            max_m=d["config"]["max_m"],
            fields=tuple(FieldSpec.parse(f) for f in d["config"]["fields"]),
            include_witness_checks=d["config"]["include_witness_checks"],
        )
        mms = tuple(
            Mismatch(
                spec=spec_from_json(e),
                field=FieldSpec.parse(e["field"]),
                invariant=e["invariant"],
                formula_value=e["formula"],
                oracle_value=e["oracle"],
            )
            for e in d["mismatches"]
        )
        wfs = tuple(
            WitnessFailure(spec=spec_from_json(e), kind=e["kind"]) for e in d["witness_failures"]
        )
        return cls(cfg, d["cases_run"], mms, wfs, d["elapsed_seconds"])


def enumerate_specs(max_n: int, max_m: int) -> list[MixedProductSpec]:
    """All canonical mixed product descriptions over every ambient (n, m)
    with n <= max_n, m <= max_m, n+m >= 1: single terms (k,l) != (0,0) and
    two-term sums (q,r)+(s,t) with 0 <= q < s <= n, 0 <= t < r <= m."""
    if max_n < 0 or max_m < 0:
        raise ValueError("bounds must be nonnegative")
    if max_n + max_m > AMBIENT_CAP:
        raise CapExceeded(
            f"bounds ({max_n},{max_m}) exceed the {AMBIENT_CAP}-variable cap"
        )
    out: list[MixedProductSpec] = []
    for n in range(max_n + 1):
        for m in range(max_m + 1):
            if n + m == 0:
                continue
            amb = Ambient(n, m)
            for k in range(n + 1):
                for l in range(m + 1):
                    if (k, l) != (0, 0):
                        out.append(MixedProductSpec(amb, ((k, l),)))
            for s in range(1, n + 1):
                for q in range(s):
                    for r in range(1, m + 1):
                        for t in range(r):
                            out.append(MixedProductSpec(amb, ((q, r), (s, t))))
    return out


def _evaluate_case(spec: MixedProductSpec, fld: FieldSpec) -> list[Mismatch]:
    """Compare the two routes on one case. Exceptions raised by the routes
    become a single "error" mismatch that names the route that raised, so
    one bad case cannot abort the sweep."""
    formula = formula_error = None
    try:
        formula = formula_report(spec)
    except Exception as e:
        formula_error = f"{type(e).__name__}: {e}"
    oracle_error = None
    try:
        oracle = oracle_report(realize_spec(spec), fld)
    except Exception as e:
        oracle_error = f"{type(e).__name__}: {e}"
    if formula_error or oracle_error:
        return [Mismatch(spec, fld, "error", formula_error, oracle_error)]
    out = []
    for name in COMPARED:
        fv, ov = getattr(formula, name), getattr(oracle, name)
        if fv != ov:
            out.append(Mismatch(spec, fld, name, fv, ov))
    return out


def _check_witnesses(spec: MixedProductSpec) -> list[WitnessFailure]:
    out = []
    if len(spec.terms) == 2:
        if not verify_syzygy_witness(syzygy_witness(spec)):
            out.append(WitnessFailure(spec, "syzygy"))
    return out


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> SweepReport:
    """Compare formula_report against oracle_report on every enumerated
    description and field. Failures, exceptions included, are collected,
    not raised. Work units
    are independent (spec, field) pairs, the fields of one spec in a row;
    with jobs > 1 they are fanned out to at most one worker process per
    CPU in chunks of whole specs, so that each worker reuses an ideal's
    field-independent work across its fields, and merged back in
    enumeration order, so the report does not depend on scheduling."""
    start = time.perf_counter()
    specs = enumerate_specs(cfg.max_n, cfg.max_m)
    unit_specs = [spec for spec in specs for _ in cfg.fields]
    unit_fields = list(cfg.fields) * len(specs)
    if jobs > 1 and unit_specs:
        # imported here: it loads multiprocessing, which --jobs 1 never needs
        from concurrent.futures import ProcessPoolExecutor

        # the least multiple of the field count that is at least 8
        chunk = -(-8 // len(cfg.fields)) * len(cfg.fields)
        # the pool starts all its workers up front; they are CPU-bound
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            found = list(pool.map(_evaluate_case, unit_specs, unit_fields, chunksize=chunk))
    else:
        found = list(map(_evaluate_case, unit_specs, unit_fields))
    mismatches = [mm for case in found for mm in case]
    witness_failures: list[WitnessFailure] = []
    if cfg.include_witness_checks:
        for spec in specs:
            witness_failures.extend(_check_witnesses(spec))
        for amb in dict.fromkeys(spec.ambient for spec in specs):
            if amb.n >= 1 and amb.m >= 1:
                if not verify_koszul_cycle(koszul_cycle_witness(amb)):
                    witness_failures.append(
                        WitnessFailure(MixedProductSpec(amb, ((1, 1),)), "koszul")
                    )
    return SweepReport(
        config=cfg,
        cases_run=len(unit_specs),
        mismatches=tuple(mismatches),
        witness_failures=tuple(witness_failures),
        elapsed_seconds=time.perf_counter() - start,
    )
