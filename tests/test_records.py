"""The record types keep value semantics whatever builds them: construction
by position and by keyword, equality by value, reprs, hashing and
immutability of the frozen records, unshared report defaults, the triple's
validation messages, and the benchmark's witness round trip."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from matchext import (
    BlockedExtension,
    CensusResult,
    CharacterizationViolation,
    DecompositionWitness,
    Matching,
    NkdParams,
    NoKMatching,
    ParameterError,
    TheoremReport,
    Verdict,
    Violation,
)
from matchext.harness import RULES, Rule, _Deletions, _lowered, _shifted

_GATES = Path(__file__).resolve().parent.parent / "bench" / "gates.py"


def _gates():
    spec = importlib.util.spec_from_file_location("bench_gates", _GATES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (class, field names, field values, one other value per field, frozen)
RECORDS = [
    (NkdParams, ("n", "k", "d"), (3, 1, 2), (1, 0, 0), True),
    (NoKMatching, ("deleted",), ((0, 2),), ((0, 3),), True),
    (BlockedExtension, ("deleted", "matching", "blocker"),
     ((1,), ((2, 3),), (4,)), ((0,), ((2, 4),), ()), True),
    (CharacterizationViolation, ("condition", "subset"), ("i", (0, 1)), ("ii", (0,)), True),
    (Verdict, ("holds", "witness"), (False, NoKMatching((0,))), (True, None), True),
    (DecompositionWitness,
     ("separator", "edge", "variant", "odd_components", "separator_matching"),
     ((0, 1), (6, 7), "d1", ((2,), (3, 4, 5)), ((0, 1),)),
     ((0, 2), (5, 6), "d3", ((3,),), ()), True),
    (Violation, ("graph_index", "graph6", "params", "context", "detail"),
     (4, "C~", (1, 0, 0), "cone", "derived graph is not a (2,0,0)-graph"),
     (5, "Cr", (0, 1, 0), "edge 0-1", "other"), False),
    (TheoremReport, ("theorem", "graphs_examined", "applicable", "inapplicable", "violations"),
     ("A3", 2, 1, {"k<1": 1}, []), ("B1", 3, 0, {}, [None]), False),
    (_Deletions, ("dn", "dk", "degree"), (2, 0, 0), (0, 1, 2), True),
    (Rule, ("doc", "preconditions", "hosts", "variant", "bipartite"),
     ("doc", (), _lowered, None, False), ("other", (("k<1", None),), _shifted, "d1", True), True),
    (CensusResult, ("graphs", "skipped_over_max_order", "decode_errors", "reports"),
     (3, 1, [(2, "bad")], {"A3": TheoremReport("A3")}), (4, 0, [], {}), False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

VALUE_REPRS = [
    (NkdParams(3, 1, 2), "NkdParams(n=3, k=1, d=2)"),
    (NoKMatching((0, 2)), "NoKMatching(deleted=(0, 2))"),
    (BlockedExtension((1,), ((2, 3),), (4,)),
     "BlockedExtension(deleted=(1,), matching=((2, 3),), blocker=(4,))"),
    (CharacterizationViolation("i", (0, 1)), "CharacterizationViolation(condition='i', subset=(0, 1))"),
    (Verdict(True), "Verdict(holds=True, witness=None)"),
    (Verdict(False, NoKMatching(())), "Verdict(holds=False, witness=NoKMatching(deleted=()))"),
    (DecompositionWitness((0, 1), (6, 7), "d1", ((2,),), ((0, 1),)),
     "DecompositionWitness(separator=(0, 1), edge=(6, 7), variant='d1', "
     "odd_components=((2,),), separator_matching=((0, 1),))"),
    (Violation(4, "C~", (1, 0, 0), "cone", "x"),
     "Violation(graph_index=4, graph6='C~', params=(1, 0, 0), context='cone', detail='x')"),
    (Matching([(3, 2), (0, 1)]), "Matching(edges=((0, 1), (2, 3)))"),
]


@pytest.mark.parametrize("cls, names, values, others, frozen", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, names, values, others, frozen):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, names, values, others, frozen", RECORDS, ids=IDS)
def test_equal_by_value_and_unequal_in_any_field(cls, names, values, others, frozen):
    assert cls(*values) == cls(*values)
    assert not cls(*values) != cls(*values)
    for i, other in enumerate(others):
        changed = values[:i] + (other,) + values[i + 1:]
        assert cls(*values) != cls(*changed), names[i]


@pytest.mark.parametrize("cls, names, values, others, frozen",
                         [r for r in RECORDS if r[-1]], ids=[i for i, r in zip(IDS, RECORDS) if r[-1]])
def test_frozen_records_hash_by_value_and_refuse_assignment(cls, names, values, others, frozen):
    a, b = cls(*values), cls(*values)
    assert a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(a, name, other)
    assert a == b


def test_matching_keeps_value_semantics():
    a, b = Matching([(3, 2), (0, 1)]), Matching(edges=((0, 1), (2, 3)))
    assert a == b and hash(a) == hash(b) and a != Matching([(0, 1)])
    assert a.edges == ((0, 1), (2, 3)) and Matching().edges == ()
    with pytest.raises(AttributeError):
        a.edges = ()
    assert a == b


@pytest.mark.parametrize("record, text", VALUE_REPRS, ids=[t.split("(")[0] for _, t in VALUE_REPRS])
def test_value_record_repr(record, text):
    assert repr(record) == text


def test_theorem_report_defaults_are_not_shared():
    a, b = TheoremReport("A3"), TheoremReport("A3")
    assert a == b
    assert a.inapplicable is not b.inapplicable and a.violations is not b.violations
    a.skip("k<1")
    a.violations.append(Violation(0, "A_", (0, 0, 0), "cone", "x"))
    assert b.inapplicable == {} and b.violations == [] and b.passed
    assert a != b and not a.passed
    assert (a.graphs_examined, a.applicable) == (b.graphs_examined, b.applicable) == (0, 0)


def test_rule_table_keeps_its_records():
    assert isinstance(RULES["D3"].hosts, _Deletions)
    assert RULES["D3"].hosts == _Deletions(0, 1, degree=2)
    assert (RULES["D1"].variant, RULES["D2"].bipartite, RULES["A3"].variant) == ("d1", True, None)
    assert _Deletions(2, 0).target(NkdParams(3, 1, 0)) == (1, 1, 0)


@pytest.mark.parametrize("args, message", [
    ((-1, 0, 0), "n must be a non-negative integer, got -1"),
    ((0, 1.5, 0), "k must be a non-negative integer, got 1.5"),
    ((0, 0, "2"), "d must be a non-negative integer, got '2'"),
    ((0, None, -3), "k must be a non-negative integer, got None"),
])
def test_nkd_params_validation_messages(args, message):
    with pytest.raises(ParameterError) as info:
        NkdParams(*args)
    assert str(info.value) == message


def test_nkd_params_as_tuple_is_a_plain_tuple():
    t = NkdParams(3, 1, 2).as_tuple()
    assert t == (3, 1, 2) and type(t) is tuple


@pytest.mark.parametrize("witness", [
    NoKMatching((0, 2)),
    NoKMatching(()),
    BlockedExtension((1,), ((2, 3), (4, 5)), (6,)),
    CharacterizationViolation("ii", (0, 1, 4)),
], ids=lambda w: w.kind)
def test_witness_round_trips_through_the_bench_gates(witness):
    doc = witness.to_dict()
    assert doc["kind"] == type(witness).kind
    rebuilt = _gates().witness_from_dict(doc)
    assert type(rebuilt) is type(witness) and rebuilt == witness
    assert rebuilt.to_dict() == doc
