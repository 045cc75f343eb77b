"""Formula depth does not bound the formula walkers: 10^5-deep inputs parse,
print, repr, CNF-ize, build an OBDD and enumerate without reaching the
recursion limit."""
import pytest

from partialsat import (
    And,
    Assignment,
    Atom,
    AtomRef,
    Iff,
    Implies,
    Not,
    Or,
    and_all,
    atoms,
    brute_equivalent,
    build_obdd,
    check_validation_loss,
    cnf_clauses,
    obdd_enumerate,
    or_all,
    parse,
    tableaux_enumerate,
    tseitin,
)
from gen import deep_chain

DEPTH = 100_000
CHAINS = [
    pytest.param(Not, False, id="Not"),
    *(pytest.param(node, side, id=f"{node.__name__}-{['left', 'right'][side]}")
      for node in (And, Or, Implies, Iff) for side in (False, True)),
]
CONJUNCTION = and_all(AtomRef(Atom(f"d{i}")) for i in range(1200))


@pytest.mark.parametrize("node,right_deep", CHAINS)
def test_round_trip_repr_and_obdd(node, right_deep):
    f = deep_chain(node, DEPTH, right_deep)
    assert parse(str(f)) == f
    assert repr(f).startswith(f"{node.__name__}(")
    cubes = obdd_enumerate(build_obdd(f), f).assignments
    assert brute_equivalent(or_all(mu.to_cube() for mu in cubes), f)


def test_negation_chain_repr_and_tseitin():
    f = deep_chain(Not, DEPTH)
    assert repr(f) == "Not(arg=" * DEPTH + "AtomRef(atom=Atom(name='A0'))" + ")" * DEPTH
    result = tseitin(f)
    assert result.cnf == AtomRef(Atom("A0")) and result.fresh_atoms == ()


def test_tseitin_on_a_long_conjunction():
    f = deep_chain(And, DEPTH)
    result = tseitin(f)
    assert result.cnf == f and result.fresh_atoms == ()
    implication = parse("A -> B")
    result = tseitin(and_all([implication, *(AtomRef(Atom(f"A{i % 10}")) for i in range(DEPTH))]))
    assert result.definitions == ((Atom("B1"), implication),)
    clauses = cnf_clauses(result.cnf)
    assert len(clauses) == 1 + DEPTH + 3
    assert [str(c) for c in clauses[:2] + clauses[-3:]] == [
        "B1", "A0", "!B1 | !A | B", "B1 | A", "B1 | !B"]


def test_tableaux_on_a_long_conjunction_and_its_negation():
    (mu,) = tableaux_enumerate(CONJUNCTION).assignments
    assert mu == Assignment({a: True for a in atoms(CONJUNCTION)})
    listing = tableaux_enumerate(Not(CONJUNCTION)).assignments
    assert [str(mu) for mu in listing] == [f"!d{i}" for i in range(1200)]


def test_validation_loss_on_a_long_conjunction():
    mu = Assignment({a: True for a in atoms(CONJUNCTION)})
    report = check_validation_loss(mu, CONJUNCTION)
    assert not report.loss and report.fresh_atoms == ()
    assert [case.outcome for case in report.cases] == ["validated"]
