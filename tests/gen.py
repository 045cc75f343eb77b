"""Seeded random generators for formulas and partial assignments."""
from __future__ import annotations

import random

from partialsat import (
    And,
    Assignment,
    Atom,
    AtomRef,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    PartialSatError,
    and_all,
    atoms,
    or_all,
)

_BINARY = (And, Or, Implies, Iff)


def atom_pool(n: int, prefix: str = "A") -> list[Atom]:
    return [Atom(f"{prefix}{i}") for i in range(1, n + 1)]


def random_formula(
    rng: random.Random,
    pool: list[Atom],
    max_depth: int,
    const_chance: float = 0.05,
) -> Formula:
    """Random AST of depth at most max_depth over the given atoms."""
    if max_depth == 0 or rng.random() < 0.25:
        if rng.random() < const_chance:
            return Const(rng.random() < 0.5)
        return AtomRef(rng.choice(pool))
    shape = rng.randrange(5)
    if shape == 0:
        return Not(random_formula(rng, pool, max_depth - 1, const_chance))
    node = _BINARY[shape - 1]
    return node(
        random_formula(rng, pool, max_depth - 1, const_chance),
        random_formula(rng, pool, max_depth - 1, const_chance),
    )


def random_partial_assignment(
    rng: random.Random, over: Formula | list[Atom], bind_chance: float = 0.5
) -> Assignment:
    """Bind each atom independently with the given chance."""
    candidates = sorted(atoms(over)) if isinstance(over, Formula) else over
    return Assignment(
        {a: rng.random() < 0.5 for a in candidates if rng.random() < bind_chance}
    )


def random_total_assignment(
    rng: random.Random, over: Formula | list[Atom]
) -> Assignment:
    candidates = sorted(atoms(over)) if isinstance(over, Formula) else over
    return Assignment({a: rng.random() < 0.5 for a in candidates})


def random_tautology_free_cnf(
    rng: random.Random,
    pool: list[Atom],
    max_clauses: int = 4,
    max_width: int = 3,
) -> Formula:
    """Random CNF whose clauses have distinct atoms, hence no tautologies."""
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(max_width, len(pool)))
        chosen = rng.sample(pool, width)
        lits = [
            AtomRef(a) if rng.random() < 0.5 else Not(AtomRef(a))
            for a in chosen
        ]
        clauses.append(or_all(lits))
    return and_all(clauses)


def size(f: Formula) -> int:
    """AST node count."""
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, _BINARY):
            stack.append(node.left)
            stack.append(node.right)
    return count


def equivalent_variant(rng: random.Random, f: Formula) -> Formula:
    """A structurally different formula equivalent to f by construction."""
    choice = rng.randrange(4)
    if choice == 0:
        return Not(Not(f))
    if choice == 1:
        return Or(f, Const(False))
    if choice == 2:
        return And(f, Const(True))
    return And(f, f)


def deep_chain(node: type, depth: int, right_deep: bool = False) -> Formula:
    """`depth` nested `Not`s over A0, or `depth` binary `node`s over the
    leaves A0, A1, ..., A9 in turn, nested to the left or to the right."""
    leaves = [AtomRef(Atom(f"A{i}")) for i in range(10)]
    f = leaves[0]
    for i in range(1, depth + 1):
        if node is Not:
            f = Not(f)
        else:
            f = node(leaves[i % 10], f) if right_deep else node(f, leaves[i % 10])
    return f


def mutate_words(rng: random.Random, words: list[str], soup: list[str]) -> list[str]:
    """Up to two random edits of a word list: insert, delete or replace one
    word, with inserted and replacing words drawn from the soup."""
    words = list(words)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(words))
        edit = rng.randrange(3)
        if edit == 0 or not words[at:]:
            words.insert(at, rng.choice(soup))
        elif edit == 1:
            del words[at]
        else:
            words[at] = rng.choice(soup)
    return words


def outcome(fn, *args) -> tuple:
    """What fn makes of args: ("returned", result), or the library error's
    type and message, with the line and column of a ParseError."""
    try:
        return ("returned", fn(*args))
    except PartialSatError as exc:
        where = (exc.line, exc.column) if isinstance(exc, ParseError) else ()
        return ("error", type(exc), str(exc), *where)
