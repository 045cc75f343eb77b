"""Recursive reference implementations of the package's formula walkers.

Each recurses once per nesting level, as the walkers they stand for once
did; the tests compare the iterative walkers with them on seeded corpora
shallow enough for the interpreter stack."""
from __future__ import annotations

from partialsat import (
    And,
    Assignment,
    Atom,
    AtomRef,
    Const,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TRUE,
    TseitinResult,
    and_all,
    atoms,
    classify,
    is_literal,
    residual,
)
from partialsat.cnfize import _definition_clauses
from partialsat.enumeration import _Budget
from partialsat.formula import TokenStream, cnf_clauses, tokenize
from partialsat.record import Record
from partialsat import limits

_BINARY = (And, Or, Implies, Iff)


# ---------------------------------------------------------------- parser

def ref_parse(text):
    """Recursive-descent parse of the grammar in `partialsat.formula`."""
    stream = TokenStream(tokenize(text))
    f = _parse_iff(stream)
    stream.expect("EOF", "end of input")
    return f


def _parse_iff(s):
    left = _parse_implies(s)
    while s.peek().kind == "IFF":
        s.next()
        left = Iff(left, _parse_implies(s))
    return left


def _parse_implies(s):
    left = _parse_or(s)
    if s.peek().kind == "IMPLIES":
        s.next()
        return Implies(left, _parse_implies(s))
    return left


def _parse_or(s):
    left = _parse_and(s)
    while s.peek().kind == "OR":
        s.next()
        left = Or(left, _parse_and(s))
    return left


def _parse_and(s):
    left = _parse_not(s)
    while s.peek().kind == "AND":
        s.next()
        left = And(left, _parse_not(s))
    return left


def _parse_not(s):
    tok = s.peek()
    if tok.kind == "NOT":
        s.next()
        return Not(_parse_not(s))
    if tok.kind == "TRUE":
        s.next()
        return TRUE
    if tok.kind == "FALSE":
        s.next()
        return FALSE
    if tok.kind == "NAME":
        s.next()
        return AtomRef(Atom(tok.text))
    if tok.kind == "LPAREN":
        s.next()
        inner = _parse_iff(s)
        s.expect("RPAREN", "')'")
        return inner
    shown = tok.text if tok.kind != "EOF" else "end of input"
    raise ParseError(f"expected a formula, found {shown!r}", tok.line, tok.column)


# ------------------------------------------------------- fold and repr

def ref_fold(f, combine, leaf=None):
    """Recursive post-order fold, left operand first."""
    if isinstance(f, Not):
        return combine(f, ref_fold(f.arg, combine, leaf))
    if isinstance(f, _BINARY):
        return combine(f, ref_fold(f.left, combine, leaf), ref_fold(f.right, combine, leaf))
    return f if leaf is None else leaf(f)


def ref_repr(value):
    """`Name(field=value, ...)` for records, recursing into their fields."""
    if not isinstance(value, Record):
        return repr(value)
    shown = ", ".join(f"{name}={ref_repr(getattr(value, name))}" for name in value.__slots__)
    return f"{type(value).__qualname__}({shown})"


# ---------------------------------------------------------------- tseitin

def _collapse_double_negation(f):
    if isinstance(f, Not):
        inner = _collapse_double_negation(f.arg)
        if isinstance(inner, Not):
            return inner.arg
        return Not(inner)
    if isinstance(f, _BINARY):
        return type(f)(_collapse_double_negation(f.left), _collapse_double_negation(f.right))
    return f


def _labelable_occurrences(f):
    found = []
    index = 0

    def walk(node, depth):
        nonlocal index
        index += 1
        if isinstance(node, Not):
            walk(node.arg, depth + 1)
        elif isinstance(node, _BINARY):
            if is_literal(node.left) and is_literal(node.right):
                found.append((depth, index, node))
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(f, 0)
    return found


def _substitute(f, target, replacement):
    if f == target:
        return replacement
    if isinstance(f, Not):
        return Not(_substitute(f.arg, target, replacement))
    if isinstance(f, _BINARY):
        return type(f)(
            _substitute(f.left, target, replacement),
            _substitute(f.right, target, replacement),
        )
    return f


def ref_tseitin(f):
    """`partialsat.tseitin` with recursive collapsing, labeling and
    substitution."""
    g = _collapse_double_negation(residual(f, Assignment({})))
    if isinstance(g, Const) or is_literal(g):
        return TseitinResult(cnf=g, fresh_atoms=(), definitions=())
    used = {a.name for a in atoms(g)}
    fresh_list, definitions = [], []
    counter = 1
    while not classify(g).is_cnf:
        _, _, target = max(_labelable_occurrences(g), key=lambda t: (t[0], -t[1]))
        while f"B{counter}" in used:
            counter += 1
        fresh = Atom(f"B{counter}")
        used.add(fresh.name)
        fresh_list.append(fresh)
        definitions.append((fresh, target))
        g = _substitute(g, target, AtomRef(fresh))
    clauses = cnf_clauses(g)
    for fresh, definition in definitions:
        clauses.extend(_definition_clauses(fresh, definition))
    return TseitinResult(and_all(clauses), tuple(fresh_list), tuple(definitions))


# --------------------------------------------------------------- tableaux

def _desugar(f):
    if isinstance(f, (Const, AtomRef)):
        return f
    if isinstance(f, Not):
        return Not(_desugar(f.arg))
    left, right = _desugar(f.left), _desugar(f.right)
    if isinstance(f, And):
        return And(left, right)
    if isinstance(f, Or):
        return Not(And(Not(left), Not(right)))
    if isinstance(f, Implies):
        return Not(And(left, Not(right)))
    return And(Not(And(left, Not(right))), Not(And(right, Not(left))))


def ref_tableaux(f, branch_budget=None):
    """The listing of `tableaux_enumerate(f, branch_budget)` (without
    dedup), expanding one recursive call per split."""
    budget = _Budget(limits.branch_budget(branch_budget), "tableaux branching")
    collected = []

    def expand(pending, literals):
        pending = list(pending)
        literals = dict(literals)
        while pending:
            x = pending.pop(0)
            if isinstance(x, Const):
                if x.value:
                    continue
                return
            if isinstance(x, AtomRef):
                if literals.get(x.atom) is False:
                    return
                literals[x.atom] = True
                continue
            if isinstance(x, And):
                pending += (x.left, x.right)
                continue
            inner = x.arg
            if isinstance(inner, Const):
                if inner.value:
                    return
                continue
            if isinstance(inner, AtomRef):
                if literals.get(inner.atom) is True:
                    return
                literals[inner.atom] = False
                continue
            if isinstance(inner, Not):
                pending.append(inner.arg)
                continue
            budget.spend()
            expand(pending + [Not(inner.left)], literals)
            expand(pending + [Not(inner.right)], literals)
            return
        collected.append(Assignment(literals))

    expand([_desugar(f)], {})
    return tuple(collected)
