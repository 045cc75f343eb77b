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

from .assignment import Assignment, total_assignments
from .errors import ResourceLimitError
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
    and_all,
    atoms,
    classify,
    cnf_clauses,
    fold,
    is_literal,
)
from .partial_sat import _entails_with_witness, entails, validates
from .record import Record
from .semantics import TruthValue3, eval3_sweep, residual
from .semantics import eval3  # noqa: F401 (perfbench wraps it)
from .semantics import brute_satisfiable  # noqa: F401 (perfbench wraps it)
from . import limits

_BINARY_TYPES = (And, Or, Implies, Iff)
_VALIDATION_OUTCOME = {TruthValue3.T: "validated", TruthValue3.U: "undetermined",
                       TruthValue3.F: "falsified"}


class TseitinResult(Record):
    """CNF over original plus fresh atoms, with the defining subformula of
    each fresh atom in introduction order."""

    __slots__ = ("cnf", "fresh_atoms", "definitions")

    def __init__(self, cnf: Formula, fresh_atoms: tuple[Atom, ...],
                 definitions: tuple[tuple[Atom, Formula], ...]):
        self._set(cnf, fresh_atoms, definitions)


class LossCase(Record):
    """Verdict for one total assignment over the fresh atoms."""

    __slots__ = ("delta", "outcome", "witness")

    def __init__(self, delta: Assignment, outcome: str,
                 witness: Assignment | None = None):
        self._set(delta, outcome, witness)


class LossReport(Record):
    """Outcome of sweeping every fresh-atom assignment: loss is true when
    none of them recovers the verdict that held on the original formula."""

    __slots__ = ("mode", "loss", "original", "cnf", "fresh_atoms", "cases")

    def __init__(self, mode: str, loss: bool, original: Formula, cnf: Formula,
                 fresh_atoms: tuple[Atom, ...], cases: tuple[LossCase, ...]):
        self._set(mode, loss, original, cnf, fresh_atoms, cases)


def _collapse_double_negation(node: Formula, a: Formula, b: Formula | None = None) -> Formula:
    """`fold` step: a `Not` over a collapsed `Not` gives back its argument."""
    if type(node) is Not:
        return a.arg if type(a) is Not else Not(a)
    return type(node)(a, b)


def _negate_literal(lit: Formula) -> Formula:
    if isinstance(lit, Not):
        return lit.arg
    return Not(lit)


def _definition_clauses(fresh: Atom, definition: Formula) -> list[Formula]:
    """CNF of fresh <-> (l1 op l2), negative-occurrence clauses first."""
    b = AtomRef(fresh)
    nb = Not(b)
    l1, l2 = definition.left, definition.right
    n1, n2 = _negate_literal(l1), _negate_literal(l2)
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


def _labelable_occurrences(f: Formula) -> list[tuple[int, int, Formula]]:
    """All binary-connective-over-literals subformulas as
    (depth, preorder index, node)."""
    found: list[tuple[int, int, Formula]] = []
    todo = [(f, 0)]
    index = 0
    while todo:
        node, depth = todo.pop()
        index += 1
        if isinstance(node, Not):
            todo.append((node.arg, depth + 1))
        elif isinstance(node, _BINARY_TYPES):
            if is_literal(node.left) and is_literal(node.right):
                found.append((depth, index, node))
            todo += ((node.right, depth + 1), (node.left, depth + 1))
    return found


def _substitute(f: Formula, target: Formula, replacement: Formula) -> Formula:
    """f with every occurrence of the binary node `target` replaced.  A node
    whose operands come back unchanged is kept, not rebuilt; only such a
    node can equal the target, which cannot contain itself."""
    def swap(node: Formula, a: Formula, b: Formula | None = None) -> Formula:
        if type(node) is Not:
            return node if a is node.arg else Not(a)
        if a is node.left and b is node.right:
            return replacement if type(node) is type(target) and node == target else node
        return type(node)(a, b)

    return fold(f, swap)


def tseitin(f: Formula) -> TseitinResult:
    """Rewrite f into CNF by labeling innermost literal-over-literal
    connectives with fresh atoms, bottom-up (deepest first, ties leftmost).

    Constants are folded and double negations collapsed first; a formula
    that is already a literal or constant passes through unchanged.  Fresh
    atoms are named B1, B2, ... skipping names the input already uses.
    """
    g = fold(residual(f, Assignment({})), _collapse_double_negation)
    if isinstance(g, Const) or is_literal(g):
        return TseitinResult(cnf=g, fresh_atoms=(), definitions=())
    used = {a.name for a in atoms(g)}
    fresh_list: list[Atom] = []
    definitions: list[tuple[Atom, Formula]] = []
    counter = 1
    while not classify(g).is_cnf:
        occurrences = _labelable_occurrences(g)
        assert occurrences, "non-CNF formula must contain a labelable node"
        _, _, target = max(occurrences, key=lambda t: (t[0], -t[1]))
        while f"B{counter}" in used:
            counter += 1
        fresh = Atom(f"B{counter}")
        used.add(fresh.name)
        fresh_list.append(fresh)
        definitions.append((fresh, target))
        g = _substitute(g, target, AtomRef(fresh))
    clauses = cnf_clauses(g)
    assert clauses is not None
    for fresh, definition in definitions:
        clauses.extend(_definition_clauses(fresh, definition))
    return TseitinResult(
        cnf=and_all(clauses),
        fresh_atoms=tuple(fresh_list),
        definitions=tuple(definitions),
    )


def strip_tautologies(f: Formula) -> Formula:
    """Drop clauses containing a complementary literal pair; an all-tautology
    input collapses to true."""
    if isinstance(f, Const):
        return f
    pairs = _cnf_literals(f)
    if pairs is None:
        raise ValueError("formula is not in CNF")
    kept: list[Formula] = []
    for clause, lits in pairs:
        signed = {(lit.atom, lit.positive) for lit in lits}
        if any((atom, not pos) in signed for atom, pos in signed):
            continue
        kept.append(clause)
    if not kept:
        return TRUE
    return and_all(kept)


def _fresh_sweep(
    fresh: tuple[Atom, ...], cap: int | None
):
    if len(fresh) > limits.sweep_cap(cap):
        raise ResourceLimitError(
            f"sweeping {len(fresh)} fresh atoms exceeds the cap of "
            f"{limits.sweep_cap(cap)}"
        )
    return total_assignments(fresh)


def _guard_fresh_collision(mu: Assignment, fresh: tuple[Atom, ...]) -> None:
    clash = sorted(a.name for a in mu.domain & set(fresh))
    if clash:
        raise ValueError(
            "assignment binds fresh atom(s): " + ", ".join(clash)
        )


def check_validation_loss(
    mu: Assignment, f: Formula, sweep_cap: int | None = None
) -> LossReport:
    """Given mu validating f, sweep every total delta over the fresh atoms
    and report whether any mu ∪ delta validates the CNF."""
    if not validates(mu, f):
        raise ValueError("precondition violated: mu does not validate f")
    result = tseitin(f)
    _guard_fresh_collision(mu, result.fresh_atoms)
    deltas = _fresh_sweep(result.fresh_atoms, sweep_cap)
    values = eval3_sweep(result.cnf, list(result.fresh_atoms), mu)
    cases = tuple(LossCase(delta=delta, outcome=_VALIDATION_OUTCOME[value])
                  for delta, value in zip(deltas, values))
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
    if not entails(mu, f, atom_cap=atom_cap, branch_budget=branch_budget):
        raise ValueError("precondition violated: mu does not entail f")
    result = tseitin(f)
    _guard_fresh_collision(mu, result.fresh_atoms)
    cases: list[LossCase] = []
    recovered = False
    for delta in _fresh_sweep(result.fresh_atoms, sweep_cap):
        extended = mu.union(delta)
        ok, witness = _entails_with_witness(
            extended, result.cnf, atom_cap=atom_cap, branch_budget=branch_budget
        )
        if ok:
            outcome = "entailed"
            recovered = True
        else:
            unsat = entails(extended, Not(result.cnf), atom_cap=atom_cap,
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
    pairs = _cnf_literals(f)
    if pairs is None:
        raise ValueError("formula is not in CNF")
    numbering: dict[Atom, int] = {}
    rows: list[list[int]] = []
    for _, lits in pairs:
        row = []
        for lit in lits:
            if lit.atom not in numbering:
                numbering[lit.atom] = len(numbering) + 1
            code = numbering[lit.atom]
            row.append(code if lit.positive else -code)
        rows.append(row)
    lines = [f"c {idx} {atom.name}" for atom, idx in numbering.items()]
    lines.append(f"p cnf {len(numbering)} {len(rows)}")
    lines.extend(" ".join(str(v) for v in row) + " 0" for row in rows)
    return "\n".join(lines) + "\n"
