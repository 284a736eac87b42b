"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import json

import pytest

import mixprod.cli
import mixprod.core
import mixprod.harness
from mixprod import (
    GF3,
    Ambient,
    MixedProductSpec,
    TeraiMismatch,
    alexander_dual,
    oracle_report,
    realize_spec,
)
from mixprod.cli import main


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
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return alexander_dual(*args, **kwargs)

        monkeypatch.setattr(mixprod.cli, "alexander_dual", counting)
        monkeypatch.setattr(mixprod.core, "alexander_dual", counting)
        code, _, _ = run(capsys, "dual", "--n", "2", "--m", "2", "--terms", "1,2+2,1")
        assert code == 0
        assert len(calls) == 1

    def test_veronese_table(self, capsys):
        code, out, _ = run(capsys, "dual", "--n", "3", "--m", "0", "--terms", "2,0")
        assert code == 0
        assert "x1x2" in out

    def test_unit_rejected(self, capsys):
        code, _, err = run(capsys, "dual", "--n", "2", "--m", "0", "--terms", "0,0")
        assert code == 1


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
