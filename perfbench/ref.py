"""The benchmark's own reference semantics, independent of the program.

Nothing here imports `partialsat`.  Formulas are the tuple AST of
`gen.py`.  Total evaluation is bit-parallel: over an ordered atom list of
length n, a formula's truth table is a Python int of 2**n bits, where bit r
is its value on the row that sets atom i true iff bit i of r is set.
"""
from __future__ import annotations

import functools
import re

from gen import atoms_of

# ------------------------------------------------------------ truth tables


@functools.lru_cache(maxsize=None)
def _pattern(n: int, i: int) -> int:
    """Rows of an n-atom table where atom i is true."""
    half = 1 << i
    bits = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << n:
        bits |= bits << width
        width <<= 1
    return bits


class Table:
    """Truth tables over a fixed, ordered atom list."""

    def __init__(self, names):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.rows = 1 << len(self.names)
        self.full = (1 << self.rows) - 1

    def pattern(self, name: str) -> int:
        return _pattern(len(self.names), self.index[name])

    def of(self, f: tuple, fixed: dict[str, bool] | None = None) -> int:
        """Truth table of f; atoms in `fixed` are constants, every other
        atom of f must be in the table."""
        kind = f[0]
        if kind == "atom":
            if fixed and f[1] in fixed:
                return self.full if fixed[f[1]] else 0
            return self.pattern(f[1])
        if kind == "const":
            return self.full if f[1] else 0
        if kind == "not":
            return self.full ^ self.of(f[1], fixed)
        a, b = self.of(f[1], fixed), self.of(f[2], fixed)
        if kind == "and":
            return a & b
        if kind == "or":
            return a | b
        if kind == "imp":
            return (self.full ^ a) | b
        return self.full ^ (a ^ b)

    def of3(self, f: tuple, fixed: dict[str, bool]) -> tuple[int, int]:
        """Kleene three-valued table: (rows where f is true, rows where f
        is false).  Atoms in `fixed` are constants, table atoms range over
        the rows, any other atom is unknown."""
        kind = f[0]
        if kind == "atom":
            name = f[1]
            if name in fixed:
                return (self.full, 0) if fixed[name] else (0, self.full)
            if name in self.index:
                p = self.pattern(name)
                return p, self.full ^ p
            return 0, 0
        if kind == "const":
            return (self.full, 0) if f[1] else (0, self.full)
        if kind == "not":
            t, fl = self.of3(f[1], fixed)
            return fl, t
        (at, af), (bt, bf) = self.of3(f[1], fixed), self.of3(f[2], fixed)
        if kind == "imp":
            at, af, kind = af, at, "or"
        if kind == "and":
            return at & bt, af | bf
        if kind == "or":
            return at | bt, af & bf
        return (at & bt) | (af & bf), (at & bf) | (af & bt)

    def cube(self, mu: dict[str, bool]) -> int:
        """Rows that extend the partial assignment mu."""
        rows = self.full
        for n, v in mu.items():
            p = self.pattern(n)
            rows &= p if v else self.full ^ p
        return rows

    def fold_low(self, bits: int, low: int) -> int:
        """OR together the 2**low-row blocks of `bits`: bit j of the result
        is set iff some row whose first `low` atoms read j is set."""
        width = 1 << low
        mask = (1 << width) - 1
        out = 0
        while bits:
            out |= bits & mask
            bits >>= width
        return out

    def blocks_nonempty(self, bits: int, low: int) -> int:
        """Existentially quantify the first `low` atoms: bit j of the result
        is set iff block j (rows whose remaining atoms read j) has a set
        row."""
        width = 1 << low
        mask = (1 << width) - 1
        out = 0
        for j in range(self.rows >> low):
            if (bits >> (j * width)) & mask:
                out |= 1 << j
        return out


def bit(bits_le: bytes, row: int) -> bool:
    """Row `row` of a table serialised with `to_bytes(..., 'little')`."""
    return bool(bits_le[row >> 3] >> (row & 7) & 1)


def bytes_le(bits: int, atoms: int) -> bytes:
    """A table over `atoms` atoms as little-endian bytes, for `bit`."""
    return bits.to_bytes(((1 << atoms) + 7) // 8, "little")


def row_of(t: Table, values: dict[str, bool]) -> int:
    return sum(1 << t.index[n] for n, v in values.items() if v and n in t.index)


def count_models(f: tuple, names) -> int:
    return Table(names).of(f).bit_count()


def entails_under(mu: dict[str, bool], f: tuple) -> bool:
    """Every total extension of mu satisfies f (mu may bind any atoms)."""
    t = Table(sorted(atoms_of(f) - set(mu)))
    return t.of(f, mu) == t.full


def disjoint(cubes: list[dict[str, bool]], names: list[str]) -> bool:
    """Pairwise inconsistency of cubes, by splitting on atoms in order:
    cubes that leave an atom free must be disjoint from both sides."""
    work = [(list(range(len(cubes))), 0)]
    while work:
        members, at = work.pop()
        while len(members) > 1:
            if at == len(names):
                return False
            name = names[at]
            at += 1
            pos = [i for i in members if cubes[i].get(name) is True]
            negs = [i for i in members if cubes[i].get(name) is False]
            if not pos and not negs:
                continue
            free = [i for i in members if name not in cubes[i]]
            work.append((negs + free, at))
            members = pos + free
    return True


# --------------------------------------------------------- partial / total


_NOT3 = {"T": "F", "F": "T", "U": "U"}


def eval3(f: tuple, mu: dict[str, bool]) -> str:
    """Kleene three-valued value, 'T' / 'F' / 'U'."""
    kind = f[0]
    if kind == "atom":
        v = mu.get(f[1])
        return "U" if v is None else ("T" if v else "F")
    if kind == "const":
        return "T" if f[1] else "F"
    if kind == "not":
        return _NOT3[eval3(f[1], mu)]
    a = eval3(f[1], mu)
    if kind == "and":
        if a == "F":
            return "F"
        b = eval3(f[2], mu)
        return "F" if b == "F" else ("T" if a == b == "T" else "U")
    if kind == "or" or kind == "imp":
        if kind == "imp":
            a = _NOT3[a]
        if a == "T":
            return "T"
        b = eval3(f[2], mu)
        return "T" if b == "T" else ("F" if a == b == "F" else "U")
    b = eval3(f[2], mu)
    if "U" in (a, b):
        return "U"
    return "T" if a == b else "F"


def eval_total(f: tuple, eta: dict[str, bool]) -> bool:
    value = eval3(f, eta)
    if value == "U":
        raise ValueError("assignment is not total for the formula")
    return value == "T"


# ------------------------------------------------------------------ parser

_TOKEN = re.compile(r"\s*(<->|->|!|&|\||\(|\)|[A-Za-z][A-Za-z0-9_]*)")
_BIN = (("<->", "iff"), ("->", "imp"), ("|", "or"), ("&", "and"))


def parse(text: str) -> tuple:
    """Parse the program's printed formula syntax into the tuple AST."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text at {pos}: {text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        tok = tokens[at[0]]
        at[0] += 1
        return tok

    def level(k: int) -> tuple:
        if k == len(_BIN):
            return unary()
        sym, kind = _BIN[k]
        left = level(k + 1)
        if kind == "imp":
            if peek() == sym:
                take()
                return ("imp", left, level(k))
            return left
        while peek() == sym:
            take()
            left = (kind, left, level(k + 1))
        return left

    def unary() -> tuple:
        tok = take()
        if tok == "!":
            return ("not", unary())
        if tok == "(":
            inner = level(0)
            if take() != ")":
                raise ValueError("expected ')'")
            return inner
        if tok in ("true", "false"):
            return ("const", tok == "true")
        if tok and tok[0].isalpha():
            return ("atom", tok)
        raise ValueError(f"unexpected token {tok!r}")

    f = level(0)
    if peek() != "":
        raise ValueError(f"trailing token {peek()!r}")
    return f


def literals_to_dict(lits) -> dict[str, bool]:
    """['A1', '!A2'] -> {'A1': True, 'A2': False}; rejects a clash."""
    out: dict[str, bool] = {}
    for text in lits:
        positive = not text.startswith("!")
        name = text.lstrip("!")
        if out.get(name, positive) != positive:
            raise ValueError(f"inconsistent literals on {name}")
        out[name] = positive
    return out


def parse_dimacs(text: str) -> tuple[dict[int, str], int, list[list[int]]]:
    """(variable names from the comment lines, declared variable count,
    clauses) of a DIMACS file as the program writes it."""
    names: dict[int, str] = {}
    declared = None
    clauses: list[list[int]] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "c":
            names[int(parts[1])] = parts[2]
        elif parts[0] == "p":
            declared = (int(parts[2]), int(parts[3]))
        else:
            nums = [int(p) for p in parts]
            if nums[-1] != 0:
                raise ValueError("clause line does not end in 0")
            clauses.append(nums[:-1])
    if declared is None or declared[1] != len(clauses):
        raise ValueError("DIMACS header does not match the clause count")
    return names, declared[0], clauses
