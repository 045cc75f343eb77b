"""Propositional predicate abstraction enumerated as label cubes.

An abstraction problem maps a base formula over hidden atoms through a list
of labeled predicates; the abstraction is the existential formula
`exists hidden . (base ∧ ⋀ label_i <-> def_i)`.  It is enumerated as
mutually inconsistent cubes over the labels, either in validating mode
(cubes exists-validate) or in entailing mode (cubes exists-entail).
Entailing mode stops extending a cube as soon as it entails, so it never
produces more cubes than validating mode and usually produces fewer.
"""
from __future__ import annotations

import json

from .assignment import Assignment
from .formula import (
    Atom,
    AtomRef,
    Formula,
    Iff,
    and_all,
    atoms,
    or_all,
    parse,
    refuse_atoms,
)
from .enumeration import EnumResult, _search
from .quantified import (
    ExistentialFormula,
    _EXPANDING,
    exists_entails,
    exists_validates,
    shannon_expand,
)
from .record import Record
from .semantics import brute_equivalent, brute_satisfiable, residual
from . import limits


class PredAbsProblem(Record):
    """A base formula plus an ordered list of (label atom, definition)."""

    __slots__ = ("base", "predicates")

    def __init__(self, base: Formula, predicates: tuple[tuple[Atom, Formula], ...]):
        labels = [label for label, _ in predicates]
        if len(set(labels)) != len(labels):
            raise ValueError("label atoms must be pairwise distinct")
        hidden = set(atoms(base))
        for _, definition in predicates:
            hidden |= atoms(definition)
        refuse_atoms("label atom(s) collide with formula atoms: ", hidden.intersection(labels))
        super().__init__(base, predicates)


class ModeComparison(Record):
    """Cube counts and total literal counts of the two modes, plus whether
    their disjunctions are equivalent."""

    __slots__ = ("cube_count_validating", "cube_count_entailing",
                 "total_literals_validating", "total_literals_entailing", "equivalent")


def problem_from_json(text: str) -> PredAbsProblem:
    """Load {base: "<formula>", predicates: [{label, def}]} from JSON text."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("base"), str):
        raise ValueError("problem JSON must be an object with a string 'base'")
    base = parse(data["base"])
    entries = data.get("predicates", [])
    if not isinstance(entries, list):
        raise ValueError("problem 'predicates' must be a list")
    predicates = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
                and isinstance(entry.get("def"), str)):
            raise ValueError("each predicate must be an object with string 'label' and 'def'")
        predicates.append((Atom(entry["label"]), parse(entry["def"])))
    return PredAbsProblem(base=base, predicates=tuple(predicates))


def to_existential(p: PredAbsProblem) -> ExistentialFormula:
    """base ∧ ⋀(label <-> def), with every non-label atom bound."""
    conjuncts: list[Formula] = [p.base]
    quantified = set(atoms(p.base))
    for label, definition in p.predicates:
        conjuncts.append(Iff(AtomRef(label), definition))
        quantified |= atoms(definition)
    return ExistentialFormula(
        matrix=and_all(conjuncts), quantified=frozenset(quantified)
    )


def enumerate_abstraction(
    p: PredAbsProblem,
    mode: str,
    expansion_cap: int | None = None,
    atom_cap: int | None = None,
) -> EnumResult:
    """Enumerate the abstraction as pairwise-inconsistent label cubes.

    DPLL over the label atoms in predicate order: a branch closes when the
    matrix is unsatisfiable under the cube, yields when the cube passes the
    mode's check (exists-validates or exists-entails), and otherwise forces
    failed literals before splitting on the next unassigned label.
    """
    atom_cap = limits.resolve("MAX_ATOMS", atom_cap)
    expansion_cap = limits.resolve("EXPANSION_CAP", expansion_cap)
    ef, cubes = _label_cubes(p, mode, expansion_cap, atom_cap)
    return EnumResult("dpll", mode, shannon_expand(ef, expansion_cap), cubes)


def _label_cubes(p: PredAbsProblem, mode: str, expansion_cap: int,
                 atom_cap: int) -> tuple[ExistentialFormula, tuple[Assignment, ...]]:
    """The existential formula of p and its label cubes in `mode`, found on
    `enumeration._search` with no branch budget, under resolved caps; the
    expansion cap checked last, where `enumerate_abstraction` expands: an
    unsatisfiable matrix reaches no leaf test, which checks it too."""
    if mode not in ("validating", "entailing"):
        raise ValueError(f"unknown enumeration mode: {mode!r}")
    ef = to_existential(p)
    labels = [label for label, _ in p.predicates]

    def satisfiable_with(mu: Assignment) -> bool:
        return brute_satisfiable(residual(ef.matrix, mu), atom_cap)

    def step(mu: Assignment):
        if not satisfiable_with(mu):
            return None
        if (exists_validates(mu, ef, expansion_cap) if mode == "validating"
                else exists_entails(mu, ef, atom_cap, expansion_cap))[0]:
            return mu
        free = [label for label in labels if label not in mu]
        forced = next(((label, not value) for label in free for value in (True, False)
                       if not satisfiable_with(mu.bind(label, value))), None)
        if forced is not None:
            return (mu.bind(*forced),)
        assert free, "a total open cube must pass its leaf test"
        return mu.bind(free[0], False), mu.bind(free[0], True)

    cubes = tuple(_search(Assignment({}), step))
    if ef.quantified:
        limits.check(len(ef.quantified), expansion_cap, _EXPANDING)
    return ef, cubes


def compare_modes(
    p: PredAbsProblem,
    expansion_cap: int | None = None,
    atom_cap: int | None = None,
) -> ModeComparison:
    """Run both modes and report how much smaller the entailing result is."""
    atom_cap = limits.resolve("MAX_ATOMS", atom_cap)
    expansion_cap = limits.resolve("EXPANSION_CAP", expansion_cap)
    _, validating = _label_cubes(p, "validating", expansion_cap, atom_cap)
    _, entailing = _label_cubes(p, "entailing", expansion_cap, atom_cap)
    equivalent = brute_equivalent(*(or_all([mu.to_cube() for mu in cubes])
                                    for cubes in (validating, entailing)), atom_cap)
    return ModeComparison(
        cube_count_validating=len(validating),
        cube_count_entailing=len(entailing),
        total_literals_validating=sum(len(mu) for mu in validating),
        total_literals_entailing=sum(len(mu) for mu in entailing),
        equivalent=equivalent,
    )
