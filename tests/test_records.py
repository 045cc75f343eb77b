"""The package's immutable value types: construction, equality, hashing,
repr, immutability and ordering, one table row per type."""
import copy
import importlib
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import partialsat
from partialsat import (
    And,
    Atom,
    AtomRef,
    Const,
    EnumResult,
    ExistentialFormula,
    Iff,
    Implies,
    LossCase,
    LossReport,
    ModeComparison,
    Not,
    Or,
    PredAbsProblem,
    SatVerdict,
    TseitinResult,
    VerificationReport,
    parse,
    parse_assignment,
)
from partialsat.formula import Formula, StructureReport, _Binary
from partialsat.record import Record
from gen import atom_pool, random_formula
from oracles import ref_repr

A1, A2, B1, L1 = Atom("A1"), Atom("A2"), Atom("B1"), Atom("L1")
rA1, rA2, rB1 = AtomRef(A1), AtomRef(A2), AtomRef(B1)
MU, ETA = parse_assignment("A1"), parse_assignment("A1, !A2")
F, G = parse("A1 | A2"), parse("A1 & !A2")

# (type, field names, values, other values differing in every field,
#  defaults of the trailing fields)
RECORDS = [
    (Atom, ("name",), ("A1",), ("A2",), {}),
    (Const, ("value",), (True,), (False,), {}),
    (AtomRef, ("atom",), (A1,), (A2,), {}),
    (Not, ("arg",), (rA1,), (rA2,), {}),
    (And, ("left", "right"), (rA1, rA2), (rA2, rA1), {}),
    (Or, ("left", "right"), (rA1, rA2), (rA2, rA1), {}),
    (Implies, ("left", "right"), (rA1, rA2), (rA2, rA1), {}),
    (Iff, ("left", "right"), (rA1, rA2), (rA2, rA1), {}),
    (StructureReport,
     ("is_literal", "is_clause", "is_cube", "is_cnf", "is_tautology_free_cnf"),
     (True, False, True, False, True), (False, True, False, True, False), {}),
    (SatVerdict, ("validates", "entails", "witness"), (False, False, ETA),
     (True, True, MU), {"witness": None}),
    (TseitinResult, ("cnf", "fresh_atoms", "definitions"),
     (F, (B1,), ((B1, G),)), (G, (), ()), {}),
    (LossCase, ("delta", "outcome", "witness"), (MU, "falsified", ETA),
     (ETA, "entailed", MU), {"witness": None}),
    (LossReport, ("mode", "loss", "original", "cnf", "fresh_atoms", "cases"),
     ("entailing", True, F, G, (B1,), (LossCase(MU, "falsified"),)),
     ("validating", False, G, F, (), ()), {}),
    (EnumResult, ("engine", "mode", "formula", "assignments"),
     ("dpll", "validating", F, (MU,)), ("obdd", "entailing", G, ()), {}),
    (VerificationReport,
     ("engine", "mode", "mode_violations", "disjointness_violations", "covers"),
     ("dpll", "validating", (), None, True), ("obdd", "entailing", (0,), ((0, 1),), False),
     {}),
    (PredAbsProblem, ("base", "predicates"), (F, ((L1, rA1),)), (G, ()), {}),
    (ModeComparison,
     ("cube_count_validating", "cube_count_entailing", "total_literals_validating",
      "total_literals_entailing", "equivalent"),
     (2, 1, 4, 1, True), (3, 2, 5, 2, False), {}),
    (ExistentialFormula, ("matrix", "quantified"), (F, frozenset({A2})), (G, frozenset()),
     {"quantified": frozenset()}),
]
ROWS = [pytest.param(*row, id=row[0].__name__) for row in RECORDS]


@pytest.mark.parametrize("cls,fields,values,other,defaults", ROWS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, fields, values, other, defaults):
        rec = cls(*values)
        assert tuple(getattr(rec, name) for name in fields) == values
        assert cls(**dict(zip(fields, values))) == rec
        with pytest.raises(TypeError):
            cls(*values, values[0])

    def test_defaults(self, cls, fields, values, other, defaults):
        required = len(fields) - len(defaults)
        assert fields[required:] == tuple(defaults)
        rec = cls(*values[:required])
        for name, default in defaults.items():
            assert getattr(rec, name) == default
        if required < len(fields):
            with pytest.raises(TypeError):
                cls(*values[:required - 1])

    def test_equality_and_hash_agree(self, cls, fields, values, other, defaults):
        rec, twin = cls(*values), cls(*values)
        assert rec == twin and not rec != twin and hash(rec) == hash(twin)
        assert len({rec, twin}) == 1
        for i in range(len(fields)):
            changed = cls(*values[:i], other[i], *values[i + 1:])
            assert changed != rec and not changed == rec
        assert rec != values and rec != object()

    def test_repr_names_every_field(self, cls, fields, values, other, defaults):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({shown})"

    def test_fields_can_be_neither_assigned_nor_deleted(self, cls, fields, values, other,
                                                        defaults):
        rec = cls(*values)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, other[0])
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert tuple(getattr(rec, name) for name in fields) == values

    def test_copies_and_pickles_are_equal(self, cls, fields, values, other, defaults):
        rec = cls(*values)
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls and twin == rec

    def test_no_instance_dict(self, cls, fields, values, other, defaults):
        assert not hasattr(cls(*values), "__dict__")


def test_repr_matches_recursive_reference():
    for cls, _, values, other, _ in RECORDS:
        for rec in (cls(*values), cls(*other)):
            assert repr(rec) == ref_repr(rec)
    rng = random.Random(1005)
    for _ in range(2000):
        f = random_formula(rng, atom_pool(rng.randint(1, 8)), max_depth=rng.randint(0, 8),
                           const_chance=0.2)
        rec = TseitinResult(f, (B1,), ((B1, f),))
        assert repr(f) == ref_repr(f) and repr(rec) == ref_repr(rec)


def test_binary_connectives_differ_by_type():
    nodes = [node(rA1, rA2) for node in (And, Or, Implies, Iff)]
    for i, f in enumerate(nodes):
        for j, g in enumerate(nodes):
            assert (f == g) is (i == j)
    assert And(rA1, rA2) != Or(rA1, rA2)
    assert Not(rA1) != rA1 and Const(True) != Not(Const(False))


def test_atom_and_literal_order():
    # an atom is its name: str's hash, equality and order, and a plain str
    # wherever it is written out
    for method in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(Atom, method) is getattr(str, method)
    assert isinstance(A1, str) and A1 == "A1" and hash(A1) == hash("A1")
    assert {A1: 1}["A1"] == 1 and "A1" in {A1}
    assert all(type(s) is str for s in (A1.name, str(A1), f"{A1}", "".join([A1])))
    assert Atom("A1").name is Atom("A1").name  # interned: one object per name
    assert sorted([A2, Atom("A10"), A1]) == [A1, Atom("A10"), A2]
    assert Atom("A1") <= Atom("A1") < Atom("B") and Atom("B") >= Atom("A1")
    # a literal is its text, listed atom-lexicographic
    assert parse_assignment("A2, !A10, !A1").literals() == ("!A1", "!A10", "A2")


@pytest.mark.parametrize("name", ["true", "false", "exists", "1A", "A-1", ""])
def test_atom_rejects_bad_names(name):
    with pytest.raises(ValueError):
        Atom(name)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_atom_is_rebuilt_through_the_name_checks(protocol):
    assert A1.__reduce__() == (Atom, ("A1",))
    data = pickle.dumps(Atom("Z9"), protocol)
    assert pickle.loads(data) == Atom("Z9")
    with pytest.raises(ValueError, match="invalid atom name"):
        pickle.loads(data.replace(b"Z9", b"9Z"))


def test_predicate_labels_are_checked():
    with pytest.raises(ValueError, match="pairwise distinct"):
        PredAbsProblem(F, ((L1, rA1), (L1, rA2)))
    with pytest.raises(ValueError, match="collide"):
        PredAbsProblem(F, ((A2, rA1),))


@pytest.mark.parametrize("cls,fields,values,other,defaults", ROWS)
def test_a_field_given_twice_or_unknown_is_refused(cls, fields, values, other, defaults):
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: other[0]})
    with pytest.raises(TypeError):
        cls(*values, extra=other[0])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)), extra=other[0])


def test_every_package_record_has_a_row():
    # a record added later gets every TestRecord check, or this fails
    for info in pkgutil.iter_modules(partialsat.__path__):
        importlib.import_module(f"partialsat.{info.name}")
    found, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("partialsat.") and sub not in (Formula, _Binary):
                found.add(sub)
    assert found - {row[0] for row in RECORDS} == set()
    assert _Binary.__subclasses__() == [And, Or, Implies, Iff]


def test_the_cli_does_not_import_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, partialsat.cli\n"
            "print(sorted(set(sys.modules) & {'dataclasses', 'inspect', 'ast', 'dis'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
