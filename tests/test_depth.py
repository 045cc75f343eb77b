"""Depth does not bound the package: 10^5-deep inputs parse, print, repr,
CNF-ize, build an OBDD and enumerate, a 1,200-level OBDD builds and is
walked, and no function calls itself."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
    obdd_to_formula,
    or_all,
    parse,
    residual,
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


def test_obdd_of_a_long_conjunction():
    bdd = build_obdd(CONJUNCTION)
    assert bdd.internal_node_count == 1200
    everything = Assignment({a: True for a in atoms(CONJUNCTION)})
    assert obdd_enumerate(bdd, CONJUNCTION).assignments == (everything,)
    back = obdd_to_formula(bdd)
    assert residual(back, everything) == residual(CONJUNCTION, everything)
    assert build_obdd(back).signature() == bdd.signature()
    hash(bdd.signature())


SRC = Path(__file__).resolve().parents[1] / "src"

# Every CLI verb on inputs of 300 atoms or levels, under a recursion limit
# of 100 set after the package is imported; prints [verb, code, stderr].
LOW_LIMIT_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
from partialsat.cli import run

names = [f"d{i}" for i in range(300)]
chain = " & ".join(names)
base = "B1"
for i in range(300):
    base = f"({base}) {'|&'[i % 2]} B{1 + i % 2}"
path = os.path.join(tempfile.mkdtemp(), "problem.json")
with open(path, "w") as fh:
    json.dump({"base": base, "predicates": [{"label": "P1", "def": "B1 & B2"},
                                            {"label": "P2", "def": "B1 | !B2"}]}, fh)
commands = {
    "check": ["check", "-f", chain, "-a", ""],
    "residual": ["residual", "-f", chain, "-a", "d0, d1"],
    **{f"enumerate {e}": ["enumerate", "-f", chain, "--engine", e]
       for e in ("dpll", "tableaux", "obdd")},
    "cnfize": ["cnfize", "-f", chain, "-a", ", ".join(names), "--check-loss", "validating"],
    "shannon": ["shannon", "-f", "exists B1 . (B1 | d0) & " + chain],
    **{f"predabs {m}": ["predabs", "--problem", path, "--mode", m]
       for m in ("validating", "entailing")},
    "compare": ["compare", "--problem", path],
}
sys.setrecursionlimit(100)
for verb, argv in commands.items():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    print(json.dumps([verb, code, err.getvalue()]))
"""


def test_every_verb_runs_under_a_low_recursion_limit():
    proc = subprocess.run([sys.executable, "-c", LOW_LIMIT_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [verb for verb, _, _ in rows] == [
        "check", "residual", "enumerate dpll", "enumerate tableaux", "enumerate obdd",
        "cnfize", "shannon", "predabs validating", "predabs entailing", "compare"]
    assert [(code, err) for _, code, err in rows] == [(0, "")] * len(rows)


def _callee_name(call):
    """`f` for a call `f(...)` or `self.f(...)`, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
        return func.attr
    return getattr(func, "id", None)


def _self_calls(tree):
    """Names of the functions whose body calls them by name."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and _callee_name(node) == fn.name
                for node in ast.walk(fn)):
            yield fn.name


def test_no_function_calls_itself():
    found = {path.name: sorted(set(_self_calls(ast.parse(path.read_text()))))
             for path in sorted((SRC / "partialsat").glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def _constructed(tree, name):
    return any(isinstance(node, ast.Call) and _callee_name(node) == name
               for node in ast.walk(tree))


def test_limits_are_raised_in_one_place():
    """A size cap fails through `limits.check` and a work budget through
    `limits.Budget.spend`, each with its one message form."""
    sources = {path.name: path.read_text() for path in sorted((SRC / "partialsat").glob("*.py"))}
    assert [name for name, text in sources.items()
            if _constructed(ast.parse(text), "ResourceLimitError")] == ["limits.py"]
    assert [name for name, text in sources.items()
            if "exceeds the cap of" in text or "exceeded the" in text] == ["limits.py"]


def test_limits_are_resolved_in_one_place():
    """Only `limits` reads the environment, and only `limits.resolve`
    reads a PARTIALSAT_* variable."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "partialsat").glob("*.py"))}
    readers = sorted(name for name, tree in trees.items() if any(
        getattr(node, "attr", None) in ("environ", "getenv")
        or getattr(node, "id", None) in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
        for node in ast.walk(tree)))
    assert readers == ["limits.py"]
    callers = [(name, fn.name) for name, tree in trees.items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and "_from_env" in (getattr(node.func, attr, None) for attr in ("attr", "id"))]
    assert callers == [("limits.py", "resolve")]
