"""Formula AST, atoms, parsing, printing, and structural predicates.

Grammar (infix, `#` starts a line comment):

    iff     := implies ( "<->" implies )*          left-associative
    implies := or ( "->" implies )?                right-associative
    or      := and ( "|" and )*                    left-associative
    and     := not ( "&" not )*                    left-associative
    not     := "!" not | atom | "true" | "false" | "(" iff ")"
    atom    := [A-Za-z][A-Za-z0-9_]*               except reserved words

Precedence, tightest first: ! > & > | > -> > <->.
`true`, `false`, and `exists` are reserved words, not atom names.
"""
from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator

from .errors import ParseError
from .record import Record, _init

_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = {"true": "TRUE", "false": "FALSE", "exists": "EXISTS"}  # word: token kind


class Atom(str):
    """A propositional atom: its name, a `str`, so that hashing, equality and
    the lexicographic order are `str`'s and an atom and its name are the
    same dict key.  Built only through the name checks, pickles included."""

    __slots__ = ()

    def __new__(cls, name: str):
        if not _ATOM_NAME.fullmatch(name):
            raise ValueError(f"invalid atom name: {name!r}")
        if name in _RESERVED:
            raise ValueError(f"reserved word cannot be an atom name: {name!r}")
        return str.__new__(cls, name)

    @property
    def name(self) -> str:  # a plain str, interned: one object per name
        return sys.intern(str(self))

    def __repr__(self) -> str:
        return f"Atom(name={str(self)!r})"

    def __reduce__(self):
        return Atom, (str(self),)


class Formula(Record):
    """Base class for formula AST nodes; instances are immutable trees.

    `==` compares and `hash` hashes the printed form, which is canonical
    (the printer is injective: parse(format_formula(f)) == f), so equality
    and hash agree and neither is bounded by the recursion limit."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or format_formula(self) == format_formula(other)

    def __hash__(self) -> int:
        return hash(format_formula(self))


class Const(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        _init(self, "value", value)


class AtomRef(Formula):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        _init(self, "atom", atom)


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        _init(self, "arg", arg)


class _Binary(Formula):  # the one body of And, Or, Implies and Iff
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _init(self, "left", left)
        _init(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


TRUE = Const(True)
FALSE = Const(False)

_BINARY = (And, Or, Implies, Iff)


def atoms(f: Formula) -> frozenset[Atom]:
    """The set of atoms occurring in f."""
    found: set[Atom] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is AtomRef:
            found.add(node.atom)
        elif kind is Not:
            stack.append(node.arg)
        elif kind in _BINARY:
            stack += (node.left, node.right)
    return frozenset(found)


def refuse_atoms(prefix: str, found: Iterable[Atom]) -> None:
    """The one atom-set refusal: raise ValueError(prefix + the sorted,
    comma-joined names) unless found is empty."""
    names = sorted(found)
    if names:
        raise ValueError(prefix + ", ".join(names))


def fold(f: Formula, combine, leaf=None):
    """Post-order fold of f with an explicit stack, so depth is not bounded
    by the recursion limit.  A constant or atom becomes `leaf(node)` (itself
    when `leaf` is None); a `Not` becomes `combine(node, a)` and a binary
    node `combine(node, a, b)`, from its operands' results, left first."""
    values: list = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:  # (node,): its operands' results are on top
            node = node[0]
            if type(node) is Not:
                values[-1] = combine(node, values[-1])
            else:
                b = values.pop()
                values[-1] = combine(node, values[-1], b)
        elif kind is Not:
            todo += ((node,), node.arg)
        elif kind in _BINARY:
            todo += ((node,), node.right, node.left)
        else:
            values.append(node if leaf is None else leaf(node))
    return values[0]


def and_all(parts: Iterable[Formula], empty: Formula = TRUE) -> Formula:
    """Left-associated conjunction of parts; `empty` when parts is empty."""
    result: Formula | None = None
    for p in parts:
        result = p if result is None else And(result, p)
    return empty if result is None else result


def or_all(parts: Iterable[Formula], empty: Formula = FALSE) -> Formula:
    """Left-associated disjunction of parts; `empty` when parts is empty."""
    result: Formula | None = None
    for p in parts:
        result = p if result is None else Or(result, p)
    return empty if result is None else result


# ------------------------------------------------------------------ lexer

# A lexeme after any blanks (`<->` before `->`; a newline is one, which
# the lexer drops), a comment, or any other character, which is unknown.
# Trailing blanks match nothing.
_TOKEN = re.compile(r"([ \t\r]*)(?:(<->|->|[!&|().,\n]|[A-Za-z][A-Za-z0-9_]*)|(#.*)|([^ \t\r\n]))")
_KIND = {"<->": "IFF", "->": "IMPLIES", "!": "NOT", "&": "AND", "|": "OR", "(": "LPAREN",
         ")": "RPAREN", ".": "DOT", ",": "COMMA", "\n": None, **_RESERVED}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split text into (kind, lexeme, offset) tuples, the last of kind EOF;
    used by the formula, assignment, and quantified-formula parsers."""
    tokens = []
    at = 0
    for blank, word, comment, unknown in _TOKEN.findall(text):
        at += len(blank)
        if word:
            kind = _KIND.get(word, "NAME")
            if kind:
                tokens.append((kind, word, at))
            at += len(word)
        elif unknown:
            raise parse_error(text, f"unknown token {unknown!r}", at)
        else:
            at += len(comment)
    start = text.rfind("\n") + 1  # a comment does not advance the end's column
    tokens.append(("EOF", "", start + len(text[start:].partition("#")[0])))
    return tokens


def parse_error(text: str, message: str, at: int) -> ParseError:
    """A ParseError at offset `at` of text, with its line and column."""
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def expected(text: str, what: str, token: tuple) -> ParseError:
    """The ParseError for `token` where `what` was expected."""
    kind, word, at = token
    found = "end of input" if kind == "EOF" else word
    return parse_error(text, f"expected {what}, found {found!r}", at)


def expect(text: str, tokens: list, i: int, kind: str, what: str) -> int:
    """The index after tokens[i], which must be of `kind`."""
    if tokens[i][0] != kind:
        raise expected(text, what, tokens[i])
    return i + 1


def name_ref(refs: dict, name: str) -> AtomRef:
    """The AtomRef for a NAME token's text, one per name in `refs` (one
    parse).  The lexer already made it a valid, unreserved atom name."""
    ref = refs.get(name)
    if ref is None:
        refs[name] = ref = AtomRef(str.__new__(Atom, name))
    return ref


# Per connective: its operator, its precedence level (loosest first; atoms
# and constants are 6) and the least level each operand may have without
# parentheses.  The printer and the parser both read it.  A same-level
# right operand of a left-associative connective, and a same-level left
# operand of ->, are parenthesized to survive the parse.
_SYNTAX = {
    Iff: (" <-> ", 1, 1, 2),
    Implies: (" -> ", 2, 3, 2),
    Or: (" | ", 3, 3, 4),
    And: (" & ", 4, 4, 5),
    Not: ("!", 5, None, 5),
}
_LEAF_SYNTAX = ("", 6, None, None)
_INFIX = {op.strip(): (kind, left) for kind, (op, _, left, _) in _SYNTAX.items() if left}


def parse_formula_body(text: str, tokens: list, i: int, refs: dict) -> tuple[Formula, int]:
    """Parse one formula from tokens[i:], returning it with the index of the
    first token after it.

    One loop over operand and operator stacks (None marks an open
    parenthesis), so depth is not bounded by the recursion limit.  Stacked
    connectives that may stand unparenthesized as an infix connective's
    left operand (per `_SYNTAX`) are applied before it is pushed."""
    operands: list[Formula] = []
    pending: list = []
    while True:
        kind, word, _ = tokens[i]
        if kind == "NAME":
            operands.append(name_ref(refs, word))
        elif kind == "NOT" or kind == "LPAREN":
            pending.append(Not if kind == "NOT" else None)
            i += 1
            continue
        elif kind == "TRUE" or kind == "FALSE":
            operands.append(TRUE if kind == "TRUE" else FALSE)
        else:
            raise expected(text, "a formula", tokens[i])
        i += 1
        while True:  # after an operand: an infix connective, ')' or the end
            op, least = _INFIX.get(tokens[i][1], (None, 0))
            while pending and pending[-1] is not None and _SYNTAX[pending[-1]][1] >= least:
                top = pending.pop()
                arg = operands.pop()
                operands.append(Not(arg) if top is Not else top(operands.pop(), arg))
            if op is not None:
                pending.append(op)
                i += 1
                break
            if not pending:
                return operands[0], i
            i = expect(text, tokens, i, "RPAREN", "')'")
            pending.pop()


def parse(text: str) -> Formula:
    """Parse a formula string into an AST.

    Raises ParseError (with line and column) on malformed input.
    """
    tokens = tokenize(text)
    f, i = parse_formula_body(text, tokens, 0, {})
    expect(text, tokens, i, "EOF", "end of input")
    return f


# ---------------------------------------------------------------- printer

def _operand(f: Formula, least: int) -> tuple:
    """f in stack order (last out first), parenthesized if its level is
    below `least`."""
    return (")", f, "(") if _SYNTAX.get(type(f), _LEAF_SYNTAX)[1] < least else (f,)


def format_formula(f: Formula) -> str:
    """Render f with minimal parentheses; parse(format_formula(f)) == f.
    Iterative, so depth is not bounded by the recursion limit."""
    out: list[str] = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind is AtomRef:
            out.append(node.atom)
        elif kind is Const:
            out.append("true" if node.value else "false")
        elif kind is Not:
            todo += (*_operand(node.arg, 5), "!")
        elif kind in _SYNTAX:
            op, _, left, right = _SYNTAX[kind]
            todo += (*_operand(node.right, right), op, *_operand(node.left, left))
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


# ----------------------------------------------------- structural queries

class StructureReport(Record):
    __slots__ = ("is_literal", "is_clause", "is_cube", "is_cnf", "is_tautology_free_cnf")


def _pair(f: Formula) -> tuple[Atom, bool] | None:
    """The one literal test: a literal's `(atom, positive)` pair, else None."""
    kind = type(f)
    if kind is AtomRef:
        return f.atom, True
    if kind is Not and type(f.arg) is AtomRef:
        return f.arg.atom, False
    return None


def is_literal(f: Formula) -> bool:
    return _pair(f) is not None


def _flatten(f: Formula, node_type: type) -> Iterator[Formula]:
    """Leaves of a tree of `node_type` nodes, left to right, any association."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            stack += (node.right, node.left)
        else:
            yield node


def _cnf_literals(f: Formula) -> list[tuple[Formula, list[tuple[Atom, bool]]]] | None:
    """Each clause of a CNF formula (any association) with its literal pairs,
    else None."""
    clauses = []
    for clause in _flatten(f, And):
        pairs = []
        for leaf in _flatten(clause, Or):
            pair = _pair(leaf)
            if pair is None:
                return None
            pairs.append(pair)
        clauses.append((clause, pairs))
    return clauses


def cnf_clauses(f: Formula) -> list[Formula] | None:
    """The clauses of a CNF formula (any association), else None.  The
    constants are not handled here; callers treat them separately."""
    clauses = _cnf_literals(f)
    return None if clauses is None else [clause for clause, _ in clauses]


def minimal(items: Iterable[tuple[object, frozenset]]) -> list:
    """The subsumption rule: of `(item, set)` pairs, the first item of each distinct set that
    has no other set as a strict subset; a strict subset is smaller, so only those are tried."""
    first: dict[frozenset, object] = {}
    by_size: dict[int, list[frozenset]] = {}
    for item, key in items:
        if key not in first:
            first[key] = item
            by_size.setdefault(len(key), []).append(key)
    return [item for key, item in first.items()
            if not any(other < key for n, group in by_size.items() if n < len(key)
                       for other in group)]


def classify(f: Formula) -> StructureReport:
    """Structure report for f: literal / clause / cube / CNF / tautology-free CNF.

    The constants count as degenerate CNF (and trivially tautology-free)
    but are not literals, clauses, or cubes.  One pass over the clauses: f
    is a clause when it is CNF with one clause (itself), and a cube when it
    is CNF with only unit clauses.  A clause is a tautology when some atom
    occurs in it with both signs: it has more distinct pairs than atoms.
    """
    if isinstance(f, Const):
        return StructureReport(False, False, False, True, True)
    clauses = _cnf_literals(f)
    if clauses is None:
        return StructureReport(False, False, False, False, False)
    taut_free = not any(len(set(pairs)) > len(dict(pairs)) for _, pairs in clauses)
    units = all(len(pairs) == 1 for _, pairs in clauses)
    return StructureReport(is_literal(f), len(clauses) == 1, units, True, taut_free)
