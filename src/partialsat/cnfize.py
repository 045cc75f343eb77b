"""Tseitin CNF-ization and detectors for the information it discards.

The conversion is satisfiability-preserving for total assignments: a total
eta satisfies the input iff some setting delta of the fresh atoms makes
eta ∪ delta satisfy the CNF.  For *partial* assignments the same is not
true of validation or entailment — a partial mu may validate (or entail)
the input while no total delta over the fresh atoms recovers that verdict
on the CNF.  `check_validation_loss` and `check_entailment_loss` sweep all
delta to exhibit exactly that gap.
"""
from __future__ import annotations

from itertools import count

from .assignment import EMPTY_ASSIGNMENT, Assignment, total_assignments
from .formula import (
    And,
    Atom,
    AtomRef,
    Const,
    FALSE,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    _cnf_literals,
    _pair,
    and_all,
    atoms,
    cnf_clauses,
    fold,
    is_literal,
    refuse_atoms,
)
from .formula import classify  # noqa: F401 (perfbench wraps it)
from .partial_sat import _entails_with_witness, entails, validates
from .record import Record
from .semantics import TruthValue3, eval3_sweep, residual
from .semantics import eval3  # noqa: F401 (perfbench wraps it)
from .semantics import brute_satisfiable  # noqa: F401 (perfbench wraps it)
from . import limits

# The shape of a binary node's position, from its connective and its
# parent's: 0 under `&`s only, 1 under `&`s then `|`s, 2 anywhere else,
# which breaks CNF (so does anything under a `!`).
_SHAPE = {And: (0, 2, 2), Or: (1, 1, 2), Implies: (2, 2, 2), Iff: (2, 2, 2)}
_VALIDATION_OUTCOME = {TruthValue3.T: "validated", TruthValue3.U: "undetermined",
                       TruthValue3.F: "falsified"}


class TseitinResult(Record):
    """CNF over original plus fresh atoms, with the defining subformula of
    each fresh atom in introduction order."""

    __slots__ = ("cnf", "fresh_atoms", "definitions")


class LossCase(Record):
    """Verdict for one total assignment over the fresh atoms."""

    __slots__ = ("delta", "outcome", "witness")
    _defaults = {"witness": None}


class LossReport(Record):
    """Outcome of sweeping every fresh-atom assignment: loss is true when
    none of them recovers the verdict that held on the original formula."""

    __slots__ = ("mode", "loss", "original", "cnf", "fresh_atoms", "cases")


def _collapse_double_negation(node: Formula, a: Formula, b: Formula | None = None) -> Formula:
    """`fold` step: a `Not` over a collapsed `Not` gives back its argument."""
    if type(node) is Not:
        return a.arg if type(a) is Not else Not(a)
    return type(node)(a, b)


def _definition_clauses(fresh: Atom, definition: Formula) -> list[Formula]:
    """CNF of fresh <-> (l1 op l2), negative-occurrence clauses first."""
    b = AtomRef(fresh)
    nb = Not(b)
    l1, l2 = definition.left, definition.right
    n1, n2 = (lit.arg if type(lit) is Not else Not(lit) for lit in (l1, l2))
    if isinstance(definition, And):
        return [Or(nb, l1), Or(nb, l2), Or(Or(b, n1), n2)]
    if isinstance(definition, Or):
        return [Or(Or(nb, l1), l2), Or(b, n1), Or(b, n2)]
    if isinstance(definition, Implies):
        return [Or(Or(nb, n1), l2), Or(b, l1), Or(b, n2)]
    assert isinstance(definition, Iff)
    return [
        Or(Or(nb, n1), l2),
        Or(Or(nb, l1), n2),
        Or(Or(b, l1), l2),
        Or(Or(b, n1), n2),
    ]


def _operand_key(x: Formula, number: dict[int, int]):
    """An operand in a node's form: a literal by its `(atom, positive)`
    pair, a numbered node by its number (~number under a `Not`)."""
    pair = _pair(x)
    if pair is not None:
        return pair
    return ~number[id(x.arg)] if type(x) is Not else number[id(x)]


def tseitin(f: Formula) -> TseitinResult:
    """Rewrite f into CNF by labelling binary connectives with fresh atoms,
    deepest first and ties leftmost, equal subformulas sharing one label,
    until what is left is CNF.

    Constants are folded and double negations collapsed first; a formula
    that is already a literal or constant passes through unchanged.  Fresh
    atoms are named B1, B2, ... skipping names the input already uses.
    """
    g = fold(residual(f, EMPTY_ASSIGNMENT), _collapse_double_negation)
    if isinstance(g, Const) or is_literal(g):
        return TseitinResult(cnf=g, fresh_atoms=(), definitions=())
    levels: dict[int, list] = {}  # depth -> (binary node, breaks CNF), in preorder
    todo = [(g, 0, 0)]
    while todo:
        node, depth, shape = todo.pop()
        kind = type(node)
        if kind is Not:
            todo.append((node.arg, depth + 1, 2))
        elif kind in _SHAPE:
            shape = _SHAPE[kind][shape]
            levels.setdefault(depth, []).append((node, shape == 2))
            todo += ((node.right, depth + 1, shape), (node.left, depth + 1, shape))
    # Number the distinct forms in labelling order; every form up to the
    # last one that sits where CNF does not allow it gets a label.
    number: dict[int, int] = {}  # id(node) -> the number of its form
    forms: dict[tuple, int] = {}
    last = -1
    for depth in sorted(levels, reverse=True):
        for node, breaks in levels[depth]:
            form = (type(node), _operand_key(node.left, number), _operand_key(node.right, number))
            n = number[id(node)] = forms.setdefault(form, len(forms))
            if breaks and n > last:
                last = n
    used = atoms(g)
    names = (f"B{i}" for i in count(1) if f"B{i}" not in used)
    fresh = tuple(Atom(next(names)) for _ in range(last + 1))
    definitions: list = [None] * len(fresh)

    def label(node: Formula, a: Formula, b: Formula | None = None) -> Formula:
        if type(node) is Not:
            return node if a is node.arg else Not(a)
        n = number[id(node)]
        if n > last:
            return node if a is node.left and b is node.right else type(node)(a, b)
        definitions[n] = (fresh[n], type(node)(a, b))
        return AtomRef(fresh[n])

    clauses = cnf_clauses(fold(g, label) if fresh else g)
    assert clauses is not None
    for atom, definition in definitions:
        clauses.extend(_definition_clauses(atom, definition))
    return TseitinResult(cnf=and_all(clauses), fresh_atoms=fresh,
                         definitions=tuple(definitions))


_FRESH_BOUND = "assignment binds fresh atom(s): "
_SWEEPING = "sweeping {} fresh atoms"


def check_validation_loss(
    mu: Assignment, f: Formula, sweep_cap: int | None = None
) -> LossReport:
    """Given mu validating f, sweep every total delta over the fresh atoms
    and report whether any mu ∪ delta validates the CNF."""
    if not validates(mu, f):
        raise ValueError("precondition violated: mu does not validate f")
    result = tseitin(f)
    refuse_atoms(_FRESH_BOUND, mu.domain.intersection(result.fresh_atoms))
    limits.check(len(result.fresh_atoms), limits.resolve("SWEEP_CAP", sweep_cap), _SWEEPING)
    values = eval3_sweep(result.cnf, list(result.fresh_atoms), mu)
    cases = tuple(LossCase(delta=delta, outcome=_VALIDATION_OUTCOME[value])
                  for delta, value in zip(total_assignments(result.fresh_atoms), values))
    return LossReport(
        mode="validating",
        loss=all(case.outcome != "validated" for case in cases),
        original=f,
        cnf=result.cnf,
        fresh_atoms=result.fresh_atoms,
        cases=cases,
    )


def check_entailment_loss(
    mu: Assignment,
    f: Formula,
    sweep_cap: int | None = None,
    atom_cap: int | None = None,
    branch_budget: int | None = None,
) -> LossReport:
    """Given mu entailing f, sweep every total delta over the fresh atoms
    and report whether any mu ∪ delta entails the CNF.

    Failing deltas are split into "inconsistent" (no extension satisfies
    the CNF) and "falsified" (some do, but not all); both carry a concrete
    falsifying total extension.
    """
    atom_cap = limits.resolve("MAX_ATOMS", atom_cap)
    branch_budget = limits.resolve("BRANCH_BUDGET", branch_budget)
    if not entails(mu, f, atom_cap=atom_cap, branch_budget=branch_budget):
        raise ValueError("precondition violated: mu does not entail f")
    result = tseitin(f)
    refuse_atoms(_FRESH_BOUND, mu.domain.intersection(result.fresh_atoms))
    limits.check(len(result.fresh_atoms), limits.resolve("SWEEP_CAP", sweep_cap), _SWEEPING)
    cases: list[LossCase] = []
    recovered = False
    for delta in total_assignments(result.fresh_atoms):
        extended = mu.union(delta)
        r = residual(result.cnf, extended)  # one walk of the CNF per delta
        ok, witness = _entails_with_witness(
            extended, result.cnf, atom_cap=atom_cap, branch_budget=branch_budget, r=r
        )
        if ok:
            outcome = "entailed"
            recovered = True
        else:
            unsat = entails(EMPTY_ASSIGNMENT, Not(r), atom_cap=atom_cap,
                            branch_budget=branch_budget)
            outcome = "inconsistent" if unsat else "falsified"
        cases.append(LossCase(delta=delta, outcome=outcome, witness=witness))
    return LossReport(
        mode="entailing",
        loss=not recovered,
        original=f,
        cnf=result.cnf,
        fresh_atoms=result.fresh_atoms,
        cases=tuple(cases),
    )


def to_dimacs(f: Formula) -> str:
    """Render CNF in DIMACS format; atoms are numbered in first-occurrence
    order and the mapping is emitted as comment lines."""
    if f == TRUE:
        return "p cnf 0 0\n"
    if f == FALSE:
        return "p cnf 0 1\n0\n"
    clauses = _cnf_literals(f)
    if clauses is None:
        raise ValueError("formula is not in CNF")
    numbering: dict[Atom, int] = {}
    rows: list[list[int]] = []
    for _, pairs in clauses:
        row = []
        for atom, positive in pairs:
            code = numbering.setdefault(atom, len(numbering) + 1)
            row.append(code if positive else -code)
        rows.append(row)
    lines = [f"c {idx} {atom}" for atom, idx in numbering.items()]
    lines.append(f"p cnf {len(numbering)} {len(rows)}")
    lines.extend(" ".join(str(v) for v in row) + " 0" for row in rows)
    return "\n".join(lines) + "\n"
