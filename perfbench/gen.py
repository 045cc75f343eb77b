"""Seeded input generator for the benchmark.

Formulas are built as the benchmark's own tuple AST and rendered to the
program's text syntax; the program only ever sees the text.  Node shapes:

    ("atom", name)  ("const", bool)  ("not", x)
    ("and" | "or" | "imp" | "iff", left, right)

Every generator takes a `random.Random`, so one seed gives one corpus.
"""
from __future__ import annotations

import random

BINARY = ("and", "or", "imp", "iff")
_OP_TEXT = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
# printer precedence, loosest first; mirrors the grammar of the input syntax
_LEVEL = {"iff": 1, "imp": 2, "or": 3, "and": 4, "not": 5, "atom": 6, "const": 6}


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(x: tuple) -> tuple:
    return ("not", x)


def conj(parts: list[tuple]) -> tuple:
    """Left-associated conjunction; needs at least one part."""
    acc = parts[0]
    for p in parts[1:]:
        acc = ("and", acc, p)
    return acc


def disj(parts: list[tuple]) -> tuple:
    acc = parts[0]
    for p in parts[1:]:
        acc = ("or", acc, p)
    return acc


def render(f: tuple) -> str:
    """Text with minimal parentheses; left-associated chains print flat,
    so a long conjunction does not nest the program's parser."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "const":
        return "true" if f[1] else "false"
    if kind == "not":
        inner = render(f[1])
        return "!" + (f"({inner})" if _LEVEL[f[1][0]] < _LEVEL["not"] else inner)
    lvl = _LEVEL[kind]
    left, right = render(f[1]), render(f[2])
    if kind == "imp":  # right-associative
        left_paren = _LEVEL[f[1][0]] <= lvl
        right_paren = _LEVEL[f[2][0]] < lvl
    else:  # left-associative
        left_paren = _LEVEL[f[1][0]] < lvl
        right_paren = _LEVEL[f[2][0]] <= lvl
    if left_paren:
        left = f"({left})"
    if right_paren:
        right = f"({right})"
    return f"{left} {_OP_TEXT[kind]} {right}"


def render_assignment(mu: dict[str, bool]) -> str:
    return ", ".join(n if v else "!" + n for n, v in sorted(mu.items()))


def atoms_of(f: tuple) -> set[str]:
    found: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node[0] == "atom":
            found.add(node[1])
        elif node[0] != "const":
            stack.extend(node[1:])
    return found


def size(f: tuple) -> int:
    """AST node count."""
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        if node[0] not in ("atom", "const"):
            stack.extend(node[1:])
    return count


def pool(n: int, prefix: str) -> list[str]:
    """n atom names whose lexicographic order is their index order."""
    width = len(str(n))
    return [f"{prefix}{i:0{width}d}" for i in range(1, n + 1)]


def random_formula(
    rng: random.Random, names: list[str], depth: int, const_chance: float = 0.0
) -> tuple:
    """Random AST of depth at most `depth`; constant-free by default."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < const_chance:
            return ("const", rng.random() < 0.5)
        return atom(rng.choice(names))
    shape = rng.randrange(5)
    if shape == 0:
        return neg(random_formula(rng, names, depth - 1, const_chance))
    return (
        BINARY[shape - 1],
        random_formula(rng, names, depth - 1, const_chance),
        random_formula(rng, names, depth - 1, const_chance),
    )


def random_partial(rng: random.Random, names: list[str], bind: float) -> dict[str, bool]:
    return {n: rng.random() < 0.5 for n in sorted(names) if rng.random() < bind}


def random_total(rng: random.Random, names) -> dict[str, bool]:
    return {n: rng.random() < 0.5 for n in sorted(names)}


def lit(name: str, positive: bool) -> tuple:
    return atom(name) if positive else neg(atom(name))


def random_3cnf(rng: random.Random, names: list[str], clauses: int) -> tuple:
    """Random 3-CNF; each clause has three distinct atoms."""
    out = []
    for _ in range(clauses):
        chosen = rng.sample(names, 3)
        out.append(disj([lit(n, rng.random() < 0.5) for n in chosen]))
    return conj(out)


def chain(names: list[str]) -> tuple:
    """(A1 -> A2) & ... & (An-1 -> An) -> (A1 -> An): valid by construction,
    its negation refuted by unit propagation alone."""
    steps = conj([("imp", atom(a), atom(b)) for a, b in zip(names, names[1:])])
    return ("imp", steps, ("imp", atom(names[0]), atom(names[-1])))


def cover(names: list[str]) -> tuple:
    """(A1 | A2) & (A2 | A3) & ... & (An-1 | An)."""
    return conj([("or", atom(a), atom(b)) for a, b in zip(names, names[1:])])


def combine(rng: random.Random, parts: list[tuple]) -> tuple:
    """Left-deep tree over parts with random binary connectives."""
    acc = parts[0]
    for p in parts[1:]:
        acc = (rng.choice(BINARY), acc, p)
    return acc


def tableau_bound(f: tuple) -> int:
    """Leaves of a closure-free analytic tableau for f (its DNF size after
    the not/and desugaring); a tableau's branch count stays below it."""
    return _dnf_sizes(f)[0]


def _dnf_sizes(f: tuple) -> tuple[int, int]:
    """(DNF size of f, DNF size of !f), both counted without closure."""
    kind = f[0]
    if kind in ("atom", "const"):
        return 1, 1
    if kind == "not":
        pos, negs = _dnf_sizes(f[1])
        return negs, pos
    (pa, na), (pb, nb) = _dnf_sizes(f[1]), _dnf_sizes(f[2])
    if kind == "and":
        return pa * pb, na + nb
    if kind == "or":
        return pa + pb, na * nb
    if kind == "imp":
        return na + pb, pa * nb
    return (na + pb) * (nb + pa), pa * nb + pb * na


def random_sized(rng: random.Random, names: list[str], binary: int) -> tuple:
    """Random formula with exactly `binary` binary connectives over
    literal leaves, some subformulas negated."""
    if binary == 0:
        return lit(rng.choice(names), rng.random() < 0.5)
    left = rng.randint(0, binary - 1)
    node = (rng.choice(BINARY), random_sized(rng, names, left),
            random_sized(rng, names, binary - 1 - left))
    return neg(node) if rng.random() < 0.15 else node
