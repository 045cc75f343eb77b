"""The two notions of partial-assignment satisfiability as decision procedures.

An assignment `validates` a formula when three-valued evaluation returns
true (equivalently, the residual is the constant `true`); it `entails` the
formula when every total extension satisfies it (equivalently, the residual
is valid).  Validation implies entailment; the converse fails, e.g.
mu = {A1} entails but does not validate (A1 & A2) | (A1 & !A2).
"""
from __future__ import annotations

from .assignment import Assignment
from .formula import (
    Atom,
    AtomRef,
    FALSE,
    Formula,
    Not,
    TRUE,
    atoms,
    fold,
)
from .record import Record
from .semantics import TruthValue3, eval3, first_falsifying, residual
from . import enumeration, limits


class SatVerdict(Record):
    """Bundle of both checks; witness is a falsifying total extension,
    present exactly when entails is false."""

    __slots__ = ("validates", "entails", "witness")
    _defaults = {"witness": None}


def validates(mu: Assignment, f: Formula) -> bool:
    """True iff mu makes f evaluate to true under three-valued semantics.

    Polynomial in the size of f.
    """
    return eval3(f, mu) is TruthValue3.T


def _fill_false(universe: set[Atom], bound: Assignment) -> Assignment:
    rest = {a: False for a in universe if a not in bound}
    return bound.union(Assignment(rest))


def _entails_with_witness(
    mu: Assignment,
    f: Formula,
    atom_cap: int | None = None,
    branch_budget: int | None = None,
    r: Formula | None = None,
) -> tuple[bool, Assignment | None]:
    """mu ⊨ f, decided on r = f|mu (taken here when not given), with the
    first falsifying extension when it fails."""
    limits.refuse_negative(MAX_ATOMS=atom_cap, BRANCH_BUDGET=branch_budget)
    if r is None:
        r = residual(f, mu)
    if r is TRUE:
        return True, None
    rho = None
    if r is not FALSE:
        found = atoms(r)
        cap = limits.resolve("MAX_ATOMS", atom_cap)  # read once
        if len(found) <= cap:
            rho = first_falsifying(r, cap, _atoms=found)
        else:
            # a validating cube of ¬r binds only atoms of r and falsifies r
            negated = r.arg if isinstance(r, Not) else Not(r)
            rho = enumeration.dpll_first_assignment(negated, branch_budget)
        if rho is None:
            return True, None
    return False, _fill_false(set(atoms(f) | mu.domain), mu if rho is None else mu.union(rho))


def entails(
    mu: Assignment,
    f: Formula,
    atom_cap: int | None = None,
    branch_budget: int | None = None,
) -> bool:
    """True iff every total extension of mu satisfies f.

    Decided by checking validity of the residual f|mu: an exhaustive sweep
    when the residual has at most `atom_cap` atoms, otherwise by refuting
    its negation with the DPLL engine.  A blown budget raises ResourceLimitError, never
    returns false.
    """
    return _entails_with_witness(mu, f, atom_cap, branch_budget)[0]


def verdict(
    mu: Assignment,
    f: Formula,
    atom_cap: int | None = None,
    branch_budget: int | None = None,
) -> SatVerdict:
    """Both checks at once, on one residual f|mu, with a falsifying
    extension when entails fails."""
    r = residual(f, mu)
    e, witness = _entails_with_witness(mu, f, atom_cap, branch_budget, r)
    assert e or r is not TRUE, "validation must imply entailment"
    return SatVerdict(validates=r is TRUE, entails=e, witness=witness)


def _most_frequent_atom(f: Formula) -> Atom | None:
    """The most frequently occurring atom of f, ties broken lexicographically."""
    counts: dict[Atom, int] = {}

    def count(node: Formula) -> None:
        if isinstance(node, AtomRef):
            counts[node.atom] = counts.get(node.atom, 0) + 1

    fold(f, lambda node, *operands: None, count)
    if not counts:
        return None
    return min(counts, key=lambda a: (-counts[a], a))


def extend_to_validating(
    mu: Assignment,
    f: Formula,
    atom_cap: int | None = None,
    branch_budget: int | None = None,
) -> Assignment:
    """Greedily extend an entailing mu to a validating superset, e.g. {A1}
    to {A1, A2} for (A1 & A2) | (A1 & !A2); ValueError when mu does not
    entail f.

    At each step the most frequent atom of the residual is bound true: the
    residual is valid, and binding an atom keeps it valid, so it never goes
    false.  The result is minimal only by construction (the extension stops
    as soon as the residual reaches `true`); no global minimality is attempted.
    """
    r = residual(f, mu)
    if not _entails_with_witness(mu, f, atom_cap, branch_budget, r)[0]:
        raise ValueError("precondition violated: mu does not entail f")
    while r != TRUE:
        atom = _most_frequent_atom(r)
        mu, r = mu.bind(atom, True), residual(r, Assignment({atom: True}))
    return mu
