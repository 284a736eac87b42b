"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixprod
import mixprod.cli
import mixprod.harness
import mixprod.invariants
import mixprod.reference
from mixprod import (
    GF3,
    Ambient,
    MixedProductSpec,
    TeraiMismatch,
    alexander_dual,
    minimal_primes,
    oracle_report,
    realize_spec,
)
from mixprod.cli import main
from mixprod.invariants import dual_by_types


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_both_methods_json(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--n", "2", "--m", "2", "--terms", "1,2+2,1",
            "--method", "both", "--field", "gf2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ambient"] == {"n": 2, "m": 2}
        assert doc["ideal"] == [[1, 2], [2, 1]]
        assert doc["field"] == "gf2"
        expected = {
            "dim": 2, "depth": 2, "pd": 2, "reg_ideal": 3, "reg_quotient": 2,
            "cm": True, "height": 2, "case": "two_products",
        }
        assert doc["formula"] == expected
        assert doc["oracle"] == expected

    def test_formula_only(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--n", "3", "--m", "0", "--terms", "2,0",
            "--method", "formula", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert "oracle" not in doc
        assert doc["formula"]["reg_ideal"] == 2

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--n", "2", "--m", "2", "--terms", "1,1"
        )
        assert code == 0
        assert "formula" in out and "oracle" in out
        assert "depth" in out

    @pytest.mark.parametrize(
        "n, m, terms, head",
        [("2", "0", "1,0", "I_1  in  K[x1..x2]"), ("0", "3", "0,2", "J_2  in  K[y1..y3]")],
    )
    def test_table_header_lists_the_nonempty_blocks(self, capsys, n, m, terms, head):
        argv = ["invariants", "--n", n, "--m", m, "--terms", terms]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == head
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["ambient"] == {"n": int(n), "m": int(m)}

    def test_noncanonical_input_is_canonicalized(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--n", "2", "--m", "2", "--terms", "2,2+1,1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["ideal"] == [[1, 1]]

    def test_unit_ideal_is_validation_failure(self, capsys):
        code, _, err = run(
            capsys, "invariants", "--n", "1", "--m", "1", "--terms", "0,0"
        )
        assert code == 1
        assert "error" in err

    def test_oracle_route_needs_no_formula(self, capsys):
        argv = ["invariants", "--n", "3", "--m", "3", "--terms", "0,3+1,2+2,0"]
        code, out, _ = run(
            capsys, *argv, "--method", "oracle", "--field", "gf3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert "formula" not in doc
        spec = MixedProductSpec(Ambient(3, 3), ((0, 3), (1, 2), (2, 0)))
        rep = oracle_report(realize_spec(spec), GF3)
        assert doc["oracle"] == {
            "dim": rep.dim, "depth": rep.depth, "pd": rep.pd,
            "reg_ideal": rep.reg_of_ideal, "reg_quotient": rep.reg_of_quotient,
            "cm": rep.cm, "height": rep.height, "case": None,
        }
        for method in ("formula", "both"):
            code, _, err = run(capsys, *argv, "--method", method)
            assert code == 1
            assert "formulas cover at most 2" in err

    def test_ambient_over_the_cap_is_validation_failure(self, capsys):
        code, out, err = run(
            capsys, "invariants", "--n", "9", "--m", "9", "--terms", "1,1"
        )
        assert code == 1
        assert out == ""
        assert "exceeds the 16-variable cap" in err

    @pytest.mark.parametrize("n, m", [("0", "0"), ("-1", "2")])
    def test_invalid_ambient_is_validation_failure(self, capsys, n, m):
        code, out, err = run(capsys, "invariants", "--n", n, "--m", m, "--terms", "0,0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "ambient" in err

    def test_degree_out_of_range_is_validation_failure(self, capsys):
        code, _, err = run(
            capsys, "invariants", "--n", "2", "--m", "0", "--terms", "3,0"
        )
        assert code == 1
        assert "error" in err


class TestBetti:
    def test_json_values(self, capsys):
        code, out, _ = run(
            capsys,
            "betti", "--n", "3", "--m", "0", "--terms", "2,0",
            "--field", "q", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["betti"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]

    def test_table_grid(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--n", "3", "--m", "0", "--terms", "2,0"
        )
        assert code == 0
        assert "Betti table" in out

    def test_unwritable_out_is_one_error_line(self, tmp_path):
        # a real process, so that an uncaught OSError would show its traceback
        target = tmp_path / "missing" / "x.json"
        src = str(Path(mixprod.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "mixprod.cli", "betti", "--n", "2", "--m", "2",
             "--terms", "1,1", "--out", str(target)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(target) in lines[0]
        assert "Traceback" not in proc.stderr
        assert not target.exists()


class TestSweep:
    def test_small_sweep_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--max-n", "2", "--max-m", "2", "--fields", "q,gf2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatches"] == []
        assert doc["cases_run"] == 2 * 43

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "sweep", "--max-n", "1", "--max-m", "1", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["cases_run"] == 6

    def test_unwritable_out_fails_before_the_first_case(self, capsys, monkeypatch, tmp_path):
        real = mixprod.harness._evaluate_case
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mixprod.harness, "_evaluate_case", counting)
        argv = ["sweep", "--max-n", "1", "--max-m", "1", "--format", "json", "--out"]
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, *argv, str(target))
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()
        # the spy sees the cases of a sweep whose path can be written
        code, out, _ = run(capsys, *argv, str(tmp_path / "report.json"))
        assert (code, out, len(calls)) == (0, "", 6)
        assert json.loads((tmp_path / "report.json").read_text())["cases_run"] == 6

    def test_table_summary(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-n", "1", "--max-m", "1")
        assert code == 0
        assert "mismatches:        0" in out

    def test_jobs_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--max-n", "1", "--max-m", "2", "--jobs", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["mismatches"] == []


    def test_exception_in_a_case_exits_one(self, capsys, monkeypatch):
        real = mixprod.harness.oracle_report

        def oracle(ideal, field):
            if (ideal.ambient.n, ideal.ambient.m) == (1, 1):
                raise TeraiMismatch("injected")
            return real(ideal, field)

        monkeypatch.setattr(mixprod.harness, "oracle_report", oracle)
        code, out, _ = run(capsys, "sweep", "--max-n", "1", "--max-m", "1")
        assert code == 1
        assert "mismatches:        4" in out
        assert "TeraiMismatch: injected" in out


class TestWitness:
    def test_two_term_witnesses(self, capsys):
        code, out, _ = run(
            capsys,
            "witness", "--n", "2", "--m", "2", "--terms", "1,2+2,1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["syzygy"]["verified"] is True
        assert doc["syzygy"]["internal_degree"] == 4
        assert doc["syzygy"]["u"] == "x1y1y2"
        # the Koszul cycle certifies I_1J_1, not this ideal
        assert "koszul" not in doc

    def test_single_term_koszul_only(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--n", "1", "--m", "2", "--terms", "1,1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert "syzygy" not in doc
        assert doc["koszul"]["verified"] is True

    def test_pure_block_has_no_witness(self, capsys):
        code, _, err = run(
            capsys, "witness", "--n", "3", "--m", "0", "--terms", "2,0"
        )
        assert code == 1
        assert "no witness" in err

    def test_koszul_cycle_not_printed_for_another_ideal(self, capsys):
        code, out, err = run(
            capsys, "witness", "--n", "2", "--m", "2", "--terms", "2,0"
        )
        assert code == 1
        assert out == ""
        assert "no witness" in err

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--n", "2", "--m", "2", "--terms", "1,2+2,1"
        )
        assert code == 0
        assert "verified=True" in out


class TestDual:
    def test_principal(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--n", "1", "--m", "1", "--terms", "1,1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dual_gens"] == [["x1"], ["y1"]]
        assert doc["minimal_primes"] == [["x1"], ["y1"]]

    def test_dual_computed_once(self, capsys, monkeypatch):
        duals, berge = [], []

        def spying(calls, fn):
            def counting(*args, **kwargs):
                calls.append(args[0])
                return fn(*args, **kwargs)

            return counting

        monkeypatch.setattr(mixprod.cli, "dual_by_types", spying(duals, dual_by_types))
        monkeypatch.setattr(mixprod.reference, "alexander_dual", spying(berge, alexander_dual))
        # the grid of I_1J_2 + I_2J_1 at 2x2 has more points than the ideal
        # has generators (9 against 4), that of I_2J_2 at 4x4 fewer (25, 36)
        for n, terms in [("2", "1,2+2,1"), ("4", "2,2")]:
            duals.clear()
            code, _, _ = run(capsys, "dual", "--n", n, "--m", n, "--terms", terms)
            assert code == 0
            assert len(duals) == 1
        assert berge == []

    @pytest.mark.parametrize(
        "n, m, terms", [(2, 2, ((1, 2), (2, 1))), (11, 2, ((3, 1), (5, 0))), (0, 3, ((0, 2),))]
    )
    def test_minimal_primes_are_the_reference_primes(self, capsys, n, m, terms):
        # read off the dual by types, in the order of the reference's
        # minimal_primes, also where x10 sorts before x2 by name
        argv = ["dual", "--n", str(n), "--m", str(m), "--format", "json"]
        code, out, _ = run(capsys, *argv, "--terms", "+".join(f"{k},{l}" for k, l in terms))
        assert code == 0
        amb = Ambient(n, m)
        primes = minimal_primes(realize_spec(MixedProductSpec(amb, terms)))
        expected = [sorted(amb.variable_name(i) for i in p) for p in primes]
        assert json.loads(out)["minimal_primes"] == expected

    def test_veronese_table(self, capsys):
        code, out, _ = run(capsys, "dual", "--n", "3", "--m", "0", "--terms", "2,0")
        assert code == 0
        assert "x1x2" in out

    def test_unit_rejected(self, capsys):
        code, out, err = run(capsys, "dual", "--n", "2", "--m", "0", "--terms", "0,0")
        assert code == 1
        assert out == ""
        assert err == "error: Alexander dual needs a proper nonzero ideal\n"


class TestUsageErrors:
    def test_bad_terms_syntax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--n", "2", "--m", "2", "--terms", "1;2"])
        assert exc.value.code == 2
        assert "--terms" in capsys.readouterr().err

    def test_bad_field(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--n", "2", "--m", "0", "--terms", "1,0", "--field", "gf6"])
        assert exc.value.code == 2
        assert "--field" in capsys.readouterr().err

    def test_gf0_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--n", "2", "--m", "2", "--terms", "1,1", "--field", "gf0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--field" in captured.err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--n", "2", "--terms", "1,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--max-n", "1", "--max-m", "1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    # a field named twice would run, and report, each of its cases twice
    @pytest.mark.parametrize("fields", ["q,q", "gf2,GF2", "q,gf3,gf2,gf3"])
    def test_repeated_field(self, capsys, fields):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--max-n", "1", "--max-m", "1", "--fields", fields])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--fields" in captured.err and "twice" in captured.err


class TestStartUp:
    def test_import_generates_no_code(self):
        # the records are named tuples: a fresh process that imports the CLI,
        # with no site packages and no environment, loads neither
        # dataclasses nor typing
        src = str(Path(mixprod.__file__).resolve().parent.parent)
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import mixprod.cli; "
            "print(*sorted({'dataclasses', 'typing'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []
