"""Sweep enumeration, execution, determinism and serialization."""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixprod.harness
import mixprod.mixed
from mixprod import (
    GF2,
    GF3,
    RATIONALS,
    Ambient,
    CapExceeded,
    FieldSpec,
    MixedProductSpec,
    Mismatch,
    SweepConfig,
    SweepReport,
    TeraiMismatch,
    WitnessFailure,
    enumerate_specs,
    run_sweep,
)
from mixprod.harness import _evaluate_case


class TestEnumerate:
    def test_single_x_variable(self):
        got = enumerate_specs(1, 0)
        assert got == [MixedProductSpec(Ambient(1, 0), ((1, 0),))]

    def test_one_one_contains_expected(self):
        got = enumerate_specs(1, 1)
        amb = Ambient(1, 1)
        assert MixedProductSpec(amb, ((1, 1),)) in got
        assert MixedProductSpec(amb, ((0, 1), (1, 0))) in got
        assert len(got) == 6

    def test_empty_bounds(self):
        assert enumerate_specs(0, 0) == []

    def test_all_canonical_and_unique(self):
        got = enumerate_specs(3, 3)
        assert len(got) == len(set(got))
        assert all(s.is_canonical and not s.is_unit for s in got)

    def test_deterministic(self):
        assert enumerate_specs(3, 2) == enumerate_specs(3, 2)

    def test_counts(self):
        # per ambient: (n+1)(m+1)-1 singles, C(n+1,2)*C(m+1,2) two-term sums
        got = enumerate_specs(4, 4)
        singles = sum(1 for s in got if len(s.terms) == 1)
        doubles = sum(1 for s in got if len(s.terms) == 2)
        assert singles == sum(
            (n + 1) * (m + 1) - 1
            for n in range(5)
            for m in range(5)
            if n + m >= 1
        )
        assert doubles == sum(
            (n + 1) * n // 2 * ((m + 1) * m // 2)
            for n in range(5)
            for m in range(5)
            if n + m >= 1
        )

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_specs(10, 7)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool by one that maps in this process and
    records the max_workers and chunksize it is given."""
    seen = {"max_workers": [], "chunksize": []}

    class SerialPool:
        def __init__(self, max_workers):
            seen["max_workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            seen["chunksize"].append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return seen


class TestRunSweep:
    def test_tiny_sweep_passes(self):
        report = run_sweep(SweepConfig(max_n=1, max_m=1, fields=(RATIONALS,)))
        assert report.cases_run == 6
        assert report.mismatches == ()
        assert report.witness_failures == ()
        assert report.passed

    def test_empty_sweep(self):
        report = run_sweep(SweepConfig(max_n=0, max_m=0))
        assert report.cases_run == 0
        assert report.passed

    def test_three_fields(self):
        from mixprod import GF3

        report = run_sweep(SweepConfig(max_n=2, max_m=2, fields=(RATIONALS, GF2, GF3)))
        assert report.cases_run == 3 * len(enumerate_specs(2, 2))
        assert report.passed

    def test_determinism(self):
        cfg = SweepConfig(max_n=2, max_m=2, fields=(GF2,))
        a, b = run_sweep(cfg), run_sweep(cfg)
        assert dataclasses.replace(a, elapsed_seconds=0.0) == dataclasses.replace(
            b, elapsed_seconds=0.0
        )

    def test_parallel_matches_serial(self):
        cfg = SweepConfig(max_n=2, max_m=2, fields=(GF2,))
        serial = run_sweep(cfg, jobs=1)
        parallel = run_sweep(cfg, jobs=4)
        assert dataclasses.replace(
            serial, elapsed_seconds=0.0
        ) == dataclasses.replace(parallel, elapsed_seconds=0.0)

    def test_pool_chunks_hold_whole_specs(self, serial_pool):
        # each worker gets every field of a spec, so it plans an ideal once
        for fields, chunk in [
            ((GF2,), 8),
            ((RATIONALS, GF2, GF3), 9),
            ((RATIONALS, GF2, GF3, FieldSpec(5), FieldSpec(7)), 10),
        ]:
            cfg = SweepConfig(max_n=1, max_m=1, fields=fields)
            pooled = run_sweep(cfg, jobs=2)
            assert serial_pool["chunksize"].pop() == chunk
            assert dataclasses.replace(pooled, elapsed_seconds=0.0) == dataclasses.replace(
                run_sweep(cfg, jobs=1), elapsed_seconds=0.0
            )

    @pytest.mark.parametrize("cpus, jobs, workers", [(4, 1000, 4), (4, 3, 3), (None, 8, 1)])
    def test_pool_has_at_most_one_worker_per_cpu(
        self, serial_pool, monkeypatch, cpus, jobs, workers
    ):
        # the pool starts every worker up front, so --jobs is capped
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run_sweep(SweepConfig(max_n=1, max_m=1, fields=(GF2,)), jobs=jobs)
        assert serial_pool["max_workers"] == [workers]

    def test_importing_the_cli_loads_no_process_pool(self):
        # the pool is imported only when a sweep runs with --jobs above 1
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import mixprod.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        src = Path(mixprod.harness.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-E", "-S", "-c", code, str(src)],
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_config_validation(self):
        with pytest.raises(CapExceeded):
            SweepConfig(max_n=12, max_m=5)
        with pytest.raises(ValueError):
            SweepConfig(max_n=-1, max_m=0)

    def test_repeated_field_rejected(self):
        # a field named twice would run each of its cases twice
        with pytest.raises(ValueError, match="each field once"):
            SweepConfig(max_n=1, max_m=1, fields=(RATIONALS, GF2, RATIONALS))
        doc = run_sweep(SweepConfig(max_n=1, max_m=1, fields=(GF2,))).to_json_dict()
        assert doc["cases_run"] == 6
        doc["config"]["fields"] = ["gf2", "GF2"]
        with pytest.raises(ValueError, match="each field once"):
            SweepReport.from_json_dict(json.loads(json.dumps(doc)))

    def test_no_field_rejected(self):
        # a sweep over no field would run no case and still pass
        with pytest.raises(ValueError, match="at least one field"):
            SweepConfig(max_n=2, max_m=2, fields=())
        doc = run_sweep(SweepConfig(max_n=1, max_m=1, fields=(GF2,))).to_json_dict()
        doc["config"]["fields"] = []
        with pytest.raises(ValueError, match="at least one field"):
            SweepReport.from_json_dict(json.loads(json.dumps(doc)))


class TestReportSerialization:
    def test_round_trip_clean(self):
        report = run_sweep(SweepConfig(max_n=2, max_m=1, fields=(RATIONALS, GF2)))
        blob = json.dumps(report.to_json_dict())
        assert SweepReport.from_json_dict(json.loads(blob)) == report

    def test_round_trip_with_failures(self):
        # synthesize a report carrying failure records
        amb = Ambient(2, 2)
        spec = MixedProductSpec(amb, ((1, 2), (2, 1)))
        report = SweepReport(
            config=SweepConfig(max_n=2, max_m=2, fields=(GF2,)),
            cases_run=1,
            mismatches=(Mismatch(spec, GF2, "depth", 2, 1), Mismatch(spec, GF2, "cm", True, False)),
            witness_failures=(WitnessFailure(spec, "syzygy"),),
            elapsed_seconds=0.125,
        )
        blob = json.dumps(report.to_json_dict())
        restored = SweepReport.from_json_dict(json.loads(blob))
        assert restored == report
        assert not restored.passed


def _fail_on_1x1(monkeypatch):
    """Make the oracle raise TeraiMismatch on every ideal of the 1x1 ambient."""
    real = mixprod.harness.oracle_report

    def oracle(ideal, field):
        if (ideal.ambient.n, ideal.ambient.m) == (1, 1):
            raise TeraiMismatch("injected")
        return real(ideal, field)

    monkeypatch.setattr(mixprod.harness, "oracle_report", oracle)


class TestErrorsAsData:
    def test_injected_exception_is_one_error_per_case(self, monkeypatch):
        _fail_on_1x1(monkeypatch)
        cfg = SweepConfig(max_n=2, max_m=2, fields=(RATIONALS, GF2))
        report = run_sweep(cfg)
        hit = [s for s in enumerate_specs(2, 2) if s.ambient == Ambient(1, 1)]
        assert len(hit) == 4
        assert report.mismatches == tuple(
            Mismatch(s, f, "error", None, "TeraiMismatch: injected")
            for s in hit
            for f in (RATIONALS, GF2)
        )
        assert report.cases_run == 2 * len(enumerate_specs(2, 2))
        assert not report.passed

    def test_formula_report_once_per_spec_and_its_error_per_field(self, monkeypatch):
        real = mixprod.mixed._closed_forms

        def closed_forms(spec):
            if spec.ambient == Ambient(1, 1):
                raise ValueError("injected")
            return real(spec)

        monkeypatch.setattr(mixprod.mixed, "_closed_forms", closed_forms)
        cache = mixprod.mixed.formula_report
        cache.cache_clear()
        fields = (RATIONALS, GF2, GF3)
        report = run_sweep(SweepConfig(max_n=2, max_m=2, fields=fields))
        info = cache.cache_info()
        cache.cache_clear()
        specs = enumerate_specs(2, 2)
        raising = sum(s.ambient == Ambient(1, 1) for s in specs)
        # the calls below the cache of the last spec: one per spec, and one
        # per field for a spec that raises, since no exception is cached
        assert info.misses == len(specs) + (len(fields) - 1) * raising
        assert info.hits == (len(fields) - 1) * (len(specs) - raising)
        assert report.mismatches == tuple(
            Mismatch(s, f, "error", "ValueError: injected", None)
            for s in specs
            if s.ambient == Ambient(1, 1)
            for f in fields
        )

    def test_error_report_round_trips(self, monkeypatch):
        _fail_on_1x1(monkeypatch)
        report = run_sweep(SweepConfig(max_n=1, max_m=1, fields=(GF2,)))
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["mismatches"][0] == {
            "ambient": {"n": 1, "m": 1},
            "ideal": [[0, 1]],
            "field": "gf2",
            "invariant": "error",
            "formula": None,
            "oracle": "TeraiMismatch: injected",
        }
        restored = SweepReport.from_json_dict(doc)
        assert restored == report
        assert not restored.passed

    def test_formula_route_exception_is_recorded(self):
        spec = MixedProductSpec(Ambient(2, 0), ((1, 0), (2, 0)))  # not canonical
        (mm,) = _evaluate_case(spec, RATIONALS)
        assert mm.invariant == "error"
        assert mm.formula_value.startswith("UnsupportedShape: ")
        assert mm.oracle_value is None

    def test_clean_run_adds_no_key(self):
        doc = run_sweep(SweepConfig(max_n=1, max_m=1)).to_json_dict()
        assert list(doc) == [
            "config", "cases_run", "mismatches", "witness_failures", "elapsed_seconds",
        ]
