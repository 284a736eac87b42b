"""Command line interface.

Subcommands: invariants, betti, sweep, witness, dual. Ideals are written
as `+`-separated (k,l) pairs, e.g. `--terms 1,2+2,1` for I_1J_2 + I_2J_1.
Exit codes: 0 success, 1 mismatch, validation failure or I/O error (such
as an unwritable --out path), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .core import (
    Ambient,
    MixedProductSpec,
    canonicalize_spec,
    mask_to_vars,
    realize_spec,
)
from .errors import MixprodError, UnsupportedShape
from .harness import SweepConfig, run_sweep, spec_to_json
from .homology import FieldSpec
from .invariants import (
    BettiTable,
    InvariantReport,
    dual_by_types,
    hochster_betti,
    oracle_report,
)
from .mixed import (
    cm_classify,
    formula_report,
    koszul_cycle_witness,
    syzygy_witness,
    verify_koszul_cycle,
    verify_syzygy_witness,
)


def _terms_arg(text: str) -> tuple[tuple[int, int], ...]:
    try:
        terms = []
        for part in text.split("+"):
            k, l = part.split(",")
            terms.append((int(k), int(l)))
        return tuple(terms)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a term list like '1,2+2,1'"
        ) from None


def _field_arg(text: str) -> FieldSpec:
    try:
        return FieldSpec.parse(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _fields_arg(text: str) -> tuple[FieldSpec, ...]:
    fields = tuple(_field_arg(tok) for tok in text.split(","))
    if len(set(fields)) < len(fields):
        raise argparse.ArgumentTypeError(f"{text!r} names a field twice")
    return fields


def _jobs_arg(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixprod",
        description="Invariants of mixed product monomial ideals: closed"
        " formulas checked against a Stanley-Reisner/Hochster oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ideal_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="number of x-variables")
        p.add_argument("--m", type=int, required=True, help="number of y-variables")
        p.add_argument(
            "--terms",
            type=_terms_arg,
            required=True,
            help="'+'-separated k,l pairs; 1,2+2,1 means I_1J_2 + I_2J_1",
        )

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_inv = sub.add_parser("invariants", help="dim/depth/pd/reg/CM of one ideal")
    add_ideal_flags(p_inv)
    p_inv.add_argument("--method", choices=("formula", "oracle", "both"), default="both")
    p_inv.add_argument("--field", type=_field_arg, default=FieldSpec.rationals())
    add_output_flags(p_inv)

    p_betti = sub.add_parser("betti", help="graded Betti table of S/I via Hochster")
    add_ideal_flags(p_betti)
    p_betti.add_argument("--field", type=_field_arg, default=FieldSpec.rationals())
    add_output_flags(p_betti)

    p_sweep = sub.add_parser("sweep", help="exhaustive formula-vs-oracle comparison")
    p_sweep.add_argument("--max-n", type=int, default=3)
    p_sweep.add_argument("--max-m", type=int, default=3)
    p_sweep.add_argument("--fields", type=_fields_arg, default=(FieldSpec.rationals(),))
    p_sweep.add_argument("--jobs", type=_jobs_arg, default=1)
    p_sweep.add_argument("--skip-witnesses", action="store_true")
    add_output_flags(p_sweep)

    p_wit = sub.add_parser("witness", help="print and verify proof witnesses")
    add_ideal_flags(p_wit)
    add_output_flags(p_wit)

    p_dual = sub.add_parser("dual", help="Alexander dual and minimal primes")
    add_ideal_flags(p_dual)
    add_output_flags(p_dual)

    return parser


def _make_spec(args: argparse.Namespace) -> MixedProductSpec:
    ambient = Ambient(args.n, args.m)
    return canonicalize_spec(MixedProductSpec(ambient, args.terms))


def _report_block(rep: InvariantReport, case: str | None) -> dict:
    return {
        "dim": rep.dim,
        "depth": rep.depth,
        "pd": rep.pd,
        "reg_ideal": rep.reg_of_ideal,
        "reg_quotient": rep.reg_of_quotient,
        "cm": rep.cm,
        "height": rep.height,
        "case": case,
    }


def _base_doc(spec: MixedProductSpec, fld: FieldSpec) -> dict:
    return {**spec_to_json(spec), "field": str(fld)}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _betti_grid(b: BettiTable) -> str:
    """Aligned Betti table, rows d = j - i, columns i."""
    entries = b.sorted_entries()
    imax = max(i for i, _, _ in entries)
    dmax = max(j - i for i, j, _ in entries)
    width = max(len(str(r)) for _, _, r in entries) + 2
    width = max(width, 4)
    lines = ["".rjust(7) + "".join(str(i).rjust(width) for i in range(imax + 1))]
    for d in range(dmax + 1):
        cells = [b.rank(i, i + d) or "." for i in range(imax + 1)]
        lines.append(f"{d}:".rjust(7) + "".join(str(c).rjust(width) for c in cells))
    return "\n".join(lines)


def _invariants_table(doc: dict) -> str:
    rows = ["dim", "depth", "pd", "reg_ideal", "reg_quotient", "cm", "height", "case"]
    methods = [m for m in ("formula", "oracle") if doc.get(m)]
    width = 2 + max(
        len(str(v)) for m in methods for v in list(doc[m].values()) + [m]
    )
    head = "invariant".ljust(14) + "".join(m.rjust(width) for m in methods)
    lines = [head]
    for r in rows:
        vals = [str(doc[m][r]).rjust(width) for m in methods]
        lines.append(r.ljust(14) + "".join(vals))
    return "\n".join(lines)


def _cmd_invariants(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    doc = _base_doc(spec, args.field)
    try:
        case = cm_classify(spec)[1].value
    except UnsupportedShape:
        # the oracle alone needs no formula; its block then has no case
        if args.method != "oracle":
            raise
        case = None
    if args.method in ("formula", "both"):
        doc["formula"] = _report_block(formula_report(spec), case)
    if args.method in ("oracle", "both"):
        doc["oracle"] = _report_block(oracle_report(realize_spec(spec), args.field), case)
    mismatch = (
        args.method == "both"
        and doc["formula"] != doc["oracle"]
    )
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        sizes = (("x", spec.ambient.n), ("y", spec.ambient.m))
        blocks = ", ".join(f"{b}1..{b}{size}" for b, size in sizes if size)
        text = f"{spec}  in  K[{blocks}]\n"
        text += _invariants_table(doc)
        if mismatch:
            text += "\nMISMATCH between formula and oracle"
        _emit(text, args.out)
    return 1 if mismatch else 0


def _cmd_betti(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    table = hochster_betti(realize_spec(spec), args.field)
    doc = _base_doc(spec, args.field)
    doc["betti"] = [list(e) for e in table.sorted_entries()]
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(f"Betti table of S/({spec}) over {args.field}\n" + _betti_grid(table), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        max_n=args.max_n,
        max_m=args.max_m,
        fields=args.fields,
        include_witness_checks=not args.skip_witnesses,
    )
    if args.out:
        # a sweep can run for minutes: an unwritable path fails before the first case
        open(args.out, "a", encoding="utf-8").close()
    report = run_sweep(cfg, jobs=args.jobs)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    else:
        lines = [
            f"cases run:         {report.cases_run}",
            f"mismatches:        {len(report.mismatches)}",
            f"witness failures:  {len(report.witness_failures)}",
            f"elapsed:           {report.elapsed_seconds:.2f}s",
        ]
        for mm in report.mismatches:
            lines.append(
                f"  {mm.spec} over {mm.field}: {mm.invariant} formula="
                f"{mm.formula_value} oracle={mm.oracle_value}"
            )
        for wf in report.witness_failures:
            lines.append(f"  {wf.spec}: {wf.kind} witness failed")
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    doc = spec_to_json(spec)
    ok = True
    if len(spec.terms) == 2:
        w = syzygy_witness(spec)
        good = verify_syzygy_witness(w)
        ok &= good
        doc["syzygy"] = {
            "u": str(w.u),
            "v": str(w.v),
            "cofactor_u": str(w.cofactor_u),
            "cofactor_v": str(w.cofactor_v),
            "internal_degree": w.internal_degree,
            "verified": good,
        }
    if spec.terms == ((1, 1),):  # the Koszul cycle certifies I_1J_1 only
        kz = koszul_cycle_witness(spec.ambient)
        good = verify_koszul_cycle(kz)
        ok &= good
        doc["koszul"] = {
            "summands": [
                {"sign": s.sign, "coefficient": str(s.coefficient), "omits": s.omitted_y_index}
                for s in kz.summands
            ],
            "verified": good,
        }
    if "syzygy" not in doc and "koszul" not in doc:
        print("no witness defined for this shape", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [str(spec)]
        if "syzygy" in doc:
            s = doc["syzygy"]
            lines.append(
                f"syzygy: {s['cofactor_u']}*e[{s['u']}] - {s['cofactor_v']}*e[{s['v']}]"
                f"  (degree {s['internal_degree']})  verified={s['verified']}"
            )
        if "koszul" in doc:
            terms = " ".join(
                ("+" if s["sign"] > 0 else "-") + f"{s['coefficient']}*w(f{s['omits']})"
                for s in doc["koszul"]["summands"]
            )
            lines.append(f"koszul cycle: {terms}  verified={doc['koszul']['verified']}")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _cmd_dual(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    # the minimal primes are the supports of the dual's generators
    supports = [sorted(mask_to_vars(g)) for g in dual_by_types(realize_spec(spec)).gen_masks()]
    primes = sorted(supports, key=lambda s: (len(s), s))
    amb = spec.ambient
    doc = spec_to_json(spec)
    doc["dual_gens"] = [sorted(amb.variable_name(i) for i in s) for s in supports]
    doc["minimal_primes"] = [sorted(amb.variable_name(i) for i in p) for p in primes]
    if args.format == "json":
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [
            f"dual generators: {', '.join(''.join(g) for g in doc['dual_gens'])}",
            "minimal primes:  "
            + ", ".join("(" + ",".join(p) + ")" for p in doc["minimal_primes"]),
        ]
        _emit("\n".join(lines), args.out)
    return 0


_HANDLERS = {
    "invariants": _cmd_invariants,
    "betti": _cmd_betti,
    "sweep": _cmd_sweep,
    "witness": _cmd_witness,
    "dual": _cmd_dual,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (MixprodError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
