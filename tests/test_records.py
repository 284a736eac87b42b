"""The records are named tuples: their reprs, immutability, checks and
pickling, pinned as they were when the records were frozen dataclasses."""

import pickle

import pytest

from mixprod import (
    GF2,
    Ambient,
    CapExceeded,
    DegreeOutOfRange,
    FieldSpec,
    InvalidAmbient,
    Mismatch,
    MixedProductSpec,
    MonomialIdeal,
    SimplicialComplex,
    SqFreeMonomial,
    SweepConfig,
    SweepReport,
    WitnessFailure,
    formula_report,
    hochster_betti,
    koszul_cycle_witness,
    oracle_report,
    realize_spec,
    syzygy_witness,
)

SPEC = MixedProductSpec(Ambient(2, 2), ((1, 2), (2, 1)))
SPEC_TEXT = "MixedProductSpec(ambient=Ambient(n=2, m=2), terms=((1, 2), (2, 1)))"
I1J1 = MixedProductSpec(Ambient(2, 2), ((1, 1),))


def _records():
    """(record, its repr) for every public record."""
    a = realize_spec(I1J1)
    return [
        (Ambient(n=2, m=3), "Ambient(n=2, m=3)"),
        (SqFreeMonomial(Ambient(2, 3), 0b10101), "SqFreeMonomial(x1y1y3)"),
        (SPEC, SPEC_TEXT),
        (FieldSpec(char=2), "FieldSpec(char=2)"),
        (FieldSpec(), "FieldSpec(char=0)"),
        (
            hochster_betti(a, GF2),
            "BettiTable(ambient=Ambient(n=2, m=2), entries={(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1})",
        ),
        (
            oracle_report(a, GF2),
            "InvariantReport(dim=2, depth=1, pd=3, reg_of_ideal=2, reg_of_quotient=1, cm=False, "
            "height=2, method='oracle', field=FieldSpec(char=2))",
        ),
        (
            formula_report(I1J1),
            "InvariantReport(dim=2, depth=1, pd=3, reg_of_ideal=2, reg_of_quotient=1, cm=False, "
            "height=2, method='formula', field=None)",
        ),
        (
            SweepConfig(),
            "SweepConfig(max_n=3, max_m=3, fields=(FieldSpec(char=0),), include_witness_checks=True)",
        ),
        (
            SweepConfig(max_n=1, max_m=2, fields=(GF2,), include_witness_checks=False),
            "SweepConfig(max_n=1, max_m=2, fields=(FieldSpec(char=2),), include_witness_checks=False)",
        ),
        (
            Mismatch(SPEC, GF2, "pd", 1, 2),
            f"Mismatch(spec={SPEC_TEXT}, field=FieldSpec(char=2), invariant='pd', formula_value=1, "
            "oracle_value=2)",
        ),
        (WitnessFailure(SPEC, "syzygy"), f"WitnessFailure(spec={SPEC_TEXT}, kind='syzygy')"),
        (
            SweepReport(SweepConfig(1, 1), 3, (), (), 0.5),
            "SweepReport(config=SweepConfig(max_n=1, max_m=1, fields=(FieldSpec(char=0),), "
            "include_witness_checks=True), cases_run=3, mismatches=(), witness_failures=(), "
            "elapsed_seconds=0.5)",
        ),
        (
            syzygy_witness(SPEC),
            "SyzygyWitness(u=SqFreeMonomial(x1y1y2), v=SqFreeMonomial(x1x2y1), "
            "cofactor_u=SqFreeMonomial(x2), cofactor_v=SqFreeMonomial(y2), internal_degree=4)",
        ),
        (
            koszul_cycle_witness(Ambient(1, 2)),
            "KoszulCycleWitness(ambient=Ambient(n=1, m=2), summands=("
            "KoszulSummand(sign=1, coefficient=SqFreeMonomial(y1), omitted_y_index=1), "
            "KoszulSummand(sign=-1, coefficient=SqFreeMonomial(y2), omitted_y_index=2)))",
        ),
        (SimplicialComplex(0b111, (0b011, 0b100)), "SimplicialComplex(vertices=7, facets=(3, 4))"),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_fields_are_read_only(record, text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None


def test_betti_table_and_ideal_are_immutable():
    a = realize_spec(I1J1)
    table = hochster_betti(a, GF2)
    assert table.walk  # cached: the cache is written to __dict__, not through __setattr__
    for obj, names in (
        (table, ("walk", "multigraded", "other")),
        (a, ("ambient", "indicator", "other")),
    ):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_pickle_round_trip(record, text):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record
    assert repr(back) == text


def test_ideal_pickle_round_trip():
    a = realize_spec(I1J1)
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is MonomialIdeal and back == a and back.gen_masks() == a.gen_masks()


# (a valid record, fields that make it invalid, the error class)
INVALID = [
    (Ambient(2, 2), {"n": -1}, InvalidAmbient),
    (Ambient(2, 2), {"n": 0, "m": 0}, InvalidAmbient),
    (Ambient(2, 2), {"n": 9, "m": 8}, CapExceeded),
    (SqFreeMonomial(Ambient(2, 2), 1), {"mask": 0b10000}, ValueError),
    (SPEC, {"terms": ()}, ValueError),
    (SPEC, {"terms": ((3, 0),)}, DegreeOutOfRange),
    (FieldSpec(2), {"char": 4}, ValueError),
    (SweepConfig(), {"max_m": -1}, ValueError),
    (SweepConfig(), {"max_n": 9, "max_m": 8}, CapExceeded),
    (SweepConfig(), {"fields": ()}, ValueError),
    (SweepConfig(), {"fields": (GF2, GF2)}, ValueError),
    (SimplicialComplex(0b111, (0b011, 0b100)), {"facets": (0b100, 0b011)}, ValueError),
    (SimplicialComplex(0b111, (0b011, 0b100)), {"facets": (0b1000,)}, ValueError),
    (SimplicialComplex(0b111, (0b011, 0b100)), {"facets": (0b001, 0b011)}, ValueError),
]


@pytest.mark.parametrize(
    "valid, bad, error", INVALID, ids=[f"{type(v).__name__}-{b}" for v, b, _ in INVALID]
)
def test_invalid_values_are_rejected(valid, bad, error):
    cls = type(valid)
    values = tuple(bad.get(name, value) for name, value in zip(cls._fields, valid))
    built_unchecked = tuple.__new__(cls, values)
    for make in (
        lambda: cls(**{**valid._asdict(), **bad}),
        lambda: cls(*values),
        lambda: valid._replace(**bad),
        lambda: cls._make(values),
        lambda: pickle.loads(pickle.dumps(built_unchecked)),
    ):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
