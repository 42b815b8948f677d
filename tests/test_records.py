"""The result types: immutable namedtuples with value equality and keyword reprs."""

import pytest

from dflab import (
    AbcTriple,
    BlockReport,
    BoundCheckResult,
    EmptyScan,
    EquationInstance,
    ErdosGrahamRatio,
    ErdosRatio,
    GapWitness,
    Inequality3,
    KnownFactorials,
    OddDecomposition,
    ProofTripleResult,
    SolutionRecord,
    Thm12iiBound,
    analyze_block,
    classify,
    erdos_graham_ratio,
    erdos_ratio,
    inequality3_rhs,
    make_triple,
    odd_gap_obstruction,
    proof_triple,
    thm12ii_bound,
    verify_known_factorial_solutions,
)


def records(table):
    """One record of each of the fourteen result types."""
    return [
        analyze_block(24, 5, table),
        EquationInstance(720, [5, 718, 6]),
        OddDecomposition(60, 1, 3, 1),
        classify(EquationInstance(20, (14, 8, 5)), table),
        BoundCheckResult("check", "x <= 9", [(3, 4)], 0.5, {"seen": 9}),
        make_triple(1, 8, table),
        proof_triple(24, 3, 1, table),
        erdos_ratio(24, 5, table),
        erdos_graham_ratio(4374, table),
        odd_gap_obstruction(20, 5, table),
        thm12ii_bound(5),
        inequality3_rhs(10, 30, 1000),
        verify_known_factorial_solutions(),
        EmptyScan(0, "nothing to check"),
    ]


def test_each_result_type_is_covered(table_small):
    kinds = [BlockReport, EquationInstance, OddDecomposition, SolutionRecord,
             BoundCheckResult, AbcTriple, ProofTripleResult, ErdosRatio, ErdosGrahamRatio,
             GapWitness, Thm12iiBound, Inequality3, KnownFactorials, EmptyScan]
    assert [type(rec) for rec in records(table_small)] == kinds


def test_fields_cannot_be_assigned(table_small):
    for rec in records(table_small):
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = None  # no instance dict either


def test_equal_fields_give_equal_records(table_small):
    for rec in records(table_small):
        twin = type(rec)(*rec)
        assert twin == rec and twin is not rec
        assert rec == tuple(rec)  # a record is a tuple and compares as one
        if isinstance(rec, BoundCheckResult):
            with pytest.raises(TypeError):  # its counterexamples are a list
                hash(rec)
        else:
            assert hash(twin) == hash(rec)


def test_repr_names_every_field(table_small):
    for rec in records(table_small):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(rec._fields, rec))
        assert repr(rec) == f"{type(rec).__name__}({fields})"
    assert repr(OddDecomposition(60, 1, 3, 1)) == "OddDecomposition(x1=60, l1=1, x2=3, l2=1)"


def test_bound_check_results_own_their_details():
    first = BoundCheckResult("a", "d", [], 1.0)
    second = BoundCheckResult(name="b", domain_checked="d", counterexamples=[], margin=1.0)
    assert first.details == second.details == {}
    first.details["seen"] = 1
    assert second.details == {}
    assert first.passed and not BoundCheckResult("c", "d", [(1, 2)], -1.0).passed


def test_equation_instance_normalises_its_parts():
    inst = EquationInstance(720.0, [5, 718, 6.0])
    assert inst == (720, (718, 6, 5)) and type(inst.n) is int
    assert all(type(v) is int for v in inst.a)
    assert SolutionRecord(inst, "nontrivial", "w").decomposition is None
    with pytest.raises(ValueError, match="at least two parts"):
        EquationInstance(10, [3])
    with pytest.raises(ValueError, match="must be < n"):
        EquationInstance(10, [10, 3])
