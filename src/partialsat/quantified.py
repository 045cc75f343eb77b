"""Existentially quantified formulas: Shannon expansion and the lifted
partial-assignment checks.

A partial mu over the free atoms exists-validates `exists B . psi` when one
total delta over B makes mu ∪ delta validate psi; it exists-entails when
every total eta ⊇ mu over the free atoms admits some delta (possibly a
different one per eta) with eta ∪ delta satisfying psi.  Both agree with
the plain checks applied to the Shannon expansion.
"""
from __future__ import annotations

from .assignment import Assignment, total_assignments
from .formula import (
    Atom,
    FALSE,
    Formula,
    _cnf_literals,
    and_all,
    atoms,
    expect,
    minimal,
    name_ref,
    or_all,
    parse_error,
    parse_formula_body,
    refuse_atoms,
    tokenize,
)
from .partial_sat import validates  # noqa: F401 (perfbench wraps it)
from .record import Record
from .semantics import first_block, residual, sat_total  # noqa: F401 (perfbench wraps it)
from . import limits


class ExistentialFormula(Record):
    """A matrix with an existentially bound atom set; vacuous quantification
    is permitted."""

    __slots__ = ("matrix", "quantified")
    _defaults = {"quantified": frozenset()}

    @property
    def free_atoms(self) -> frozenset[Atom]:
        return atoms(self.matrix) - self.quantified

    def __str__(self) -> str:
        if not self.quantified:
            return str(self.matrix)
        names = " ".join(sorted(self.quantified))
        return f"exists {names} . {self.matrix}"


def parse_existential(text: str) -> ExistentialFormula:
    """Parse `exists B1 B2 . <formula>`; without the prefix the bound set
    is empty."""
    tokens = tokenize(text)
    refs: dict = {}
    quantified: frozenset[Atom] = frozenset()
    i = 0
    if tokens[0][0] == "EXISTS":
        i = 1
        while tokens[i][0] == "NAME":
            i += 1
        if i == 1:
            raise parse_error(text, "expected at least one atom name after 'exists'",
                              tokens[1][2])
        i = expect(text, tokens, i, "DOT", "'.' after the quantified atoms")
        quantified = frozenset(name_ref(refs, word).atom for _, word, _ in tokens[1:i - 1])
    matrix, i = parse_formula_body(text, tokens, i, refs)
    expect(text, tokens, i, "EOF", "end of input")
    return ExistentialFormula(matrix=matrix, quantified=quantified)


_EXPANDING = "expanding {} quantified atoms"  # predabs checks this cap too
_BOUND = "assignment binds quantified atom(s): "


def _tidy_disjunct(d: Formula) -> Formula:
    """Keep the `minimal` clauses of a CNF disjunct, dropping repeated and
    subsumed ones; a non-CNF disjunct is left alone."""
    clauses = _cnf_literals(d)
    if clauses is None or len(clauses) < 2:
        return d
    kept = minimal((clause, frozenset(pairs)) for clause, pairs in clauses)
    return d if len(kept) == len(clauses) else and_all(kept)


def shannon_expand(
    ef: ExistentialFormula,
    expansion_cap: int | None = None,
    keep_bot_disjuncts: bool = False,
) -> Formula:
    """Disjoin the residuals of the matrix under every total assignment of
    the bound atoms, in lexicographic order.

    False disjuncts are dropped unless kept by flag; each remaining CNF
    disjunct has subsumed clauses removed.  An empty bound set returns the
    matrix unchanged.
    """
    limits.refuse_negative(EXPANSION_CAP=expansion_cap)
    if not ef.quantified:
        return ef.matrix
    limits.check(len(ef.quantified), limits.resolve("EXPANSION_CAP", expansion_cap), _EXPANDING)
    ordered = sorted(ef.quantified)
    disjuncts = []
    for delta in total_assignments(ordered):
        d = _tidy_disjunct(residual(ef.matrix, delta))
        if d == FALSE and not keep_bot_disjuncts:
            continue
        disjuncts.append(d)
    return or_all(disjuncts)


def exists_validates(
    mu: Assignment,
    ef: ExistentialFormula,
    expansion_cap: int | None = None,
) -> tuple[bool, Assignment | None]:
    """True with the lexicographically first witnessing delta iff some total
    delta over the bound atoms makes mu ∪ delta validate the matrix."""
    refuse_atoms(_BOUND, mu.domain & ef.quantified)
    limits.check(len(ef.quantified), limits.resolve("EXPANSION_CAP", expansion_cap), _EXPANDING)
    eta = first_block(ef.matrix, sorted(ef.quantified), [], mu, some=True)
    return (False, None) if eta is None else (True, eta.restrict(ef.quantified))


def exists_entails(
    mu: Assignment,
    ef: ExistentialFormula,
    atom_cap: int | None = None,
    expansion_cap: int | None = None,
) -> tuple[bool, Assignment | None]:
    """True iff every total eta ⊇ mu over the free atoms admits some delta
    satisfying the matrix; on failure the first counterexample eta is
    returned.

    The delta may differ per eta: in one truth table over the unassigned
    free atoms then the bound ones, eta fails iff its 2^|B|-row block is
    empty.
    """
    limits.refuse_negative(MAX_ATOMS=atom_cap)
    refuse_atoms(_BOUND, mu.domain & ef.quantified)
    limits.check(len(ef.quantified), limits.resolve("EXPANSION_CAP", expansion_cap), _EXPANDING)
    unassigned = sorted(ef.free_atoms - mu.domain)
    limits.check(len(unassigned), limits.resolve("MAX_ATOMS", atom_cap),
                 "sweeping {} unassigned free atoms")
    eta = first_block(ef.matrix, unassigned, sorted(ef.quantified), mu)
    return (True, None) if eta is None else (False, eta)
