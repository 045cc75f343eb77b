"""Reference implementations of the package's formula walkers and sweeps.

The walkers recurse once per nesting level, as the ones they stand for
once did; the tests compare the iterative walkers with them on seeded
corpora shallow enough for the interpreter stack.  The validation sweeps
call `validates` or `eval3` once per delta, as the lifted checks did
before they read a single interval table.  The OBDD build and walks
recurse once per diagram level, with `apply`'s terminal cases written out
as a ladder of their own.  `ref_residual` is the iterative residual as it
was before it looked atoms up by name and tracked the least one.  The lexer builds one `Token` record per token
with its line and column, and the parsers read it through a `TokenStream`,
as they did before the lexer yielded bare tuples; `ref_verdict` takes the
residual once for validation and again for entailment, and
`ref_tidy_disjunct` and `ref_dedup` compare every pair of a disjunct's
clauses or of a listing's cubes.  `extensions` lists the total extensions
of an assignment, which the semantic property tests sweep."""
from __future__ import annotations

import re
from typing import NamedTuple

from partialsat import (
    And,
    Assignment,
    Atom,
    AtomRef,
    Const,
    FALSE,
    Iff,
    Implies,
    InconsistentAssignmentError,
    LossCase,
    LossReport,
    Not,
    Or,
    ParseError,
    SatVerdict,
    TRUE,
    TruthValue3,
    TseitinResult,
    and_all,
    atoms,
    classify,
    eval3,
    exists_entails,
    exists_validates,
    is_literal,
    residual,
    to_existential,
    tseitin,
    validates,
)
from partialsat.assignment import total_assignments
from partialsat.cnfize import _definition_clauses
from partialsat.enumeration import Obdd
from partialsat.formula import StructureReport, _cnf_literals, cnf_clauses, fold
from partialsat.partial_sat import _entails_with_witness
from partialsat.quantified import ExistentialFormula
from partialsat.semantics import _FOLD, _KEEP, _NEGATE
from partialsat.record import Record
from partialsat import limits, predabs

_BINARY = (And, Or, Implies, Iff)


# ----------------------------------------------------------------- lexer

class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<IFF><->)|(?P<IMPLIES>->)|(?P<NOT>!)|(?P<AND>&)|(?P<OR>\|)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<DOT>\.)|(?P<COMMA>,)"
    r"|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<NEWLINE>\n)|(?P<COMMENT>#.*)|(?P<UNKNOWN>[^ \t\r\n]))"
)
_RESERVED = {"true": "TRUE", "false": "FALSE", "exists": "EXISTS"}


def ref_tokenize(text):
    """One `Token` per lexeme, counting lines and columns as it goes."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind != "COMMENT":
            word = m.group(kind)
            column = m.start(kind) - line_start + 1
            if kind == "UNKNOWN":
                raise ParseError(f"unknown token {word!r}", line, column)
            tokens.append(Token(_RESERVED.get(word, kind) if kind == "NAME" else kind,
                                word, line, column))
    last = text[line_start:].partition("#")[0]  # a comment does not advance the column
    tokens.append(Token("EOF", "", line, len(last) + 1))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def peek(self):
        return self._tokens[self._pos]

    def next(self):
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", tok.line, tok.column)
        return self.next()


# ---------------------------------------------------------------- parser

def ref_parse(text):
    """Recursive-descent parse of the grammar in `partialsat.formula`."""
    stream = TokenStream(ref_tokenize(text))
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


def ref_parse_assignment(text):
    """`parse_assignment` on a `TokenStream`."""
    stream = TokenStream(ref_tokenize(text))
    pairs = []
    if stream.peek().kind != "EOF":
        while True:
            positive = True
            if stream.peek().kind == "NOT":
                stream.next()
                positive = False
            tok = stream.expect("NAME", "an atom name")
            pairs.append((Atom(tok.text), positive))
            if stream.peek().kind != "COMMA":
                break
            stream.next()
    tok = stream.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
    bindings = {}
    for atom, positive in pairs:
        if bindings.get(atom, positive) != positive:
            raise InconsistentAssignmentError(
                f"inconsistent literal set: both {atom} and !{atom}")
        bindings[atom] = positive
    return Assignment(bindings)


def ref_parse_existential(text):
    """`parse_existential` on a `TokenStream`, its matrix parsed by
    recursive descent."""
    stream = TokenStream(ref_tokenize(text))
    quantified = frozenset()
    if stream.peek().kind == "EXISTS":
        stream.next()
        names = []
        while stream.peek().kind == "NAME":
            names.append(Atom(stream.next().text))
        if not names:
            tok = stream.peek()
            raise ParseError("expected at least one atom name after 'exists'",
                             tok.line, tok.column)
        stream.expect("DOT", "'.' after the quantified atoms")
        quantified = frozenset(names)
    matrix = _parse_iff(stream)
    stream.expect("EOF", "end of input")
    return ExistentialFormula(matrix=matrix, quantified=quantified)


# ------------------------------------------------------------- shannon

def ref_tidy_disjunct(d):
    """`quantified._tidy_disjunct` comparing every pair of clauses."""
    pairs = _cnf_literals(d)
    if pairs is None or len(pairs) < 2:
        return d
    literal_sets = [frozenset(lits) for _, lits in pairs]
    kept = []
    for i, ((clause, _), lits) in enumerate(zip(pairs, literal_sets)):
        if not any(other < lits or (other == lits and j < i)
                   for j, other in enumerate(literal_sets) if j != i):
            kept.append(clause)
    return d if len(kept) == len(pairs) else and_all(kept)


# -------------------------------------------------------------- residual

def ref_residual(f, mu):
    """`residual` as it was before it tracked the least atom: bound atoms
    looked up through `Assignment.value`, one stack of values."""
    value = mu.value
    values = []
    todo = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is AtomRef:
            v = value(node.atom)
            values.append(node if v is None else TRUE if v else FALSE)
        elif kind is tuple:  # (node, its right operand or None), operands on top
            node, right = node
            kind = type(node)
            if right is not None:  # only the left residual is in
                a = values[-1]
                rule = _FOLD[kind][a is FALSE] if a is TRUE or a is FALSE else None
                if type(rule) is Const:
                    values[-1] = rule
                else:
                    todo += ((node, None), right)
                continue
            if kind is Not:
                rule, other = _NEGATE, values[-1]
            else:
                b = values.pop()
                a = values[-1]
                if a is TRUE or a is FALSE:
                    rule, other = _FOLD[kind][a is FALSE], b
                elif b is TRUE or b is FALSE:
                    rule, other = _FOLD[kind][2 + (b is FALSE)], a
                else:
                    same = a is node.left and b is node.right
                    values[-1] = node if same else kind(a, b)
                    continue
            if rule is _KEEP:
                values[-1] = other
            elif rule is not _NEGATE:
                values[-1] = rule
            elif other is TRUE or other is FALSE:
                values[-1] = FALSE if other is TRUE else TRUE
            else:
                values[-1] = node if kind is Not and other is node.arg else Not(other)
        elif kind in _FOLD:
            todo += ((node, node.right), node.left)
        elif kind is Not:
            todo += ((node, None), node.arg)
        elif kind is Const:
            values.append(TRUE if node.value else FALSE)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


# --------------------------------------------------------------- verdict

def ref_verdict(mu, f, atom_cap=None, branch_budget=None):
    """`verdict` with the residual taken by `validates` and again by the
    entailment check."""
    return SatVerdict(validates(mu, f),
                      *_entails_with_witness(mu, f, atom_cap, branch_budget))


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
    names = [name for klass in reversed(type(value).__mro__)
             for name in klass.__dict__.get("__slots__", ())]
    shown = ", ".join(f"{name}={ref_repr(getattr(value, name))}" for name in names)
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
    budget = limits.Budget(limits.resolve("BRANCH_BUDGET", branch_budget), "tableaux branching")
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


def ref_dedup(listing):
    """`tableaux_enumerate(..., dedup=True)` of a listing as it was: the
    first copy of each cube, unless another cube's bindings are a proper
    subset of its own, every pair of cubes compared."""
    unique = list(dict.fromkeys(listing))
    views = [mu._bindings.items() for mu in unique]
    return tuple(mu for mu, view in zip(unique, views)
                 if not any(other < view for other in views))


# ------------------------------------------------------------- structure

def _literal_pairs(f, node_type):
    """The (atom, positive) pairs of the literals under a tree of
    `node_type` nodes, left to right, or None when a leaf is no literal."""
    if isinstance(f, node_type):
        left, right = _literal_pairs(f.left, node_type), _literal_pairs(f.right, node_type)
        return None if left is None or right is None else left + right
    if isinstance(f, Not) and isinstance(f.arg, AtomRef):
        return [(f.arg.atom, False)]
    return [(f.atom, True)] if isinstance(f, AtomRef) else None


def ref_classify(f):
    """`classify` as it was: the clauses' literals taken once for CNF-ness,
    again for the tautology check, and f walked twice more."""
    if isinstance(f, Const):
        return StructureReport(False, False, False, True, True)
    clauses = cnf_clauses(f)
    is_cnf = clauses is not None
    taut_free = is_cnf
    if is_cnf:
        for c in clauses:
            seen = set(_literal_pairs(c, Or))
            if any((a, not pos) in seen for a, pos in seen):
                taut_free = False
                break
    return StructureReport(
        is_literal=is_literal(f),
        is_clause=_literal_pairs(f, Or) is not None,
        is_cube=_literal_pairs(f, And) is not None,
        is_cnf=is_cnf,
        is_tautology_free_cnf=taut_free,
    )


# ------------------------------------------------------ validation sweeps

def extensions(mu, atom_set):
    """All total assignments over atom_set extending mu, true before false
    per atom, atoms in lexicographic order."""
    universe = set(atom_set)
    outside = sorted(mu.domain - universe)
    if outside:
        raise ValueError("assignment binds atoms outside the universe: " + ", ".join(outside))
    for rest in total_assignments(sorted(universe - mu.domain)):
        yield mu.union(rest)


def ref_exists_validates(mu, ef):
    """One `validates` per total delta over the bound atoms, in order."""
    for delta in total_assignments(sorted(ef.quantified)):
        if validates(mu.union(delta), ef.matrix):
            return True, delta
    return False, None


_OUTCOME = {TruthValue3.T: "validated", TruthValue3.U: "undetermined",
            TruthValue3.F: "falsified"}


def ref_check_validation_loss(mu, f):
    """One `eval3` of the CNF per total delta over the fresh atoms."""
    result = tseitin(f)
    cases = tuple(LossCase(delta, _OUTCOME[eval3(result.cnf, mu.union(delta))])
                  for delta in total_assignments(result.fresh_atoms))
    return LossReport("validating", all(c.outcome != "validated" for c in cases), f,
                      result.cnf, result.fresh_atoms, cases)


# ------------------------------------------------------------------ OBDD

def ref_build_obdd(f, order=None, node_budget=None):
    """`build_obdd` with recursive `negate` and `apply`, and a terminal-case
    ladder per connective."""
    order = tuple(sorted(atoms(f))) if order is None else tuple(order)
    budget = limits.Budget(limits.resolve("NODE_BUDGET", node_budget),
                           "OBDD construction", "node budget")
    bdd = Obdd(order)
    level_of = {atom: i for i, atom in enumerate(order)}
    not_memo, apply_memo = {}, {}

    def negate(u):
        if u < 2:
            return 1 - u
        cached = not_memo.get(u)
        if cached is not None:
            return cached
        level, low, high = bdd.node(u)
        result = bdd._mk(level, negate(low), negate(high), budget)
        not_memo[u] = result
        return result

    def apply(op, u, v):
        if op is And:
            if u == 0 or v == 0:
                return 0
            if u == 1:
                return v
            if v == 1:
                return u
        elif op is Or:
            if u == 1 or v == 1:
                return 1
            if u == 0:
                return v
            if v == 0:
                return u
        elif op is Implies:
            if u == 0 or v == 1:
                return 1
            if u == 1:
                return v
            if v == 0:
                return negate(u)
        else:
            if u == 1:
                return v
            if u == 0:
                return negate(v)
            if v == 1:
                return u
            if v == 0:
                return negate(u)
        key = (op, u, v)
        cached = apply_memo.get(key)
        if cached is not None:
            return cached
        lu, lowu, highu = bdd.node(u)
        lv, lowv, highv = bdd.node(v)
        level = min(lu, lv)
        u_low, u_high = (lowu, highu) if lu == level else (u, u)
        v_low, v_high = (lowv, highv) if lv == level else (v, v)
        result = bdd._mk(
            level, apply(op, u_low, v_low), apply(op, u_high, v_high), budget
        )
        apply_memo[key] = result
        return result

    def leaf(node):
        if isinstance(node, Const):
            return 1 if node.value else 0
        return bdd._mk(level_of[node.atom], 0, 1, budget)

    def combine(node, u, v=None):
        return negate(u) if v is None else apply(type(node), u, v)

    bdd.root = fold(f, combine, leaf)
    return bdd


def ref_signature(bdd):
    """The nested fingerprint: `(atom name, low, high)` per node, with the
    children's fingerprints inlined and "F"/"T" for the terminals."""
    memo = {0: "F", 1: "T"}

    def walk(node_id):
        if node_id not in memo:
            level, low, high = bdd.node(node_id)
            memo[node_id] = (bdd.order[level].name, walk(low), walk(high))
        return memo[node_id]

    return walk(bdd.root)


def ref_obdd_cubes(bdd):
    """One assignment per root-to-true path, the high branch first."""
    collected = []

    def walk(node_id, bound):
        if node_id == 1:
            collected.append(Assignment(bound))
        elif node_id > 1:
            level, low, high = bdd.node(node_id)
            atom = bdd.order[level]
            walk(high, {**bound, atom: True})
            walk(low, {**bound, atom: False})

    walk(bdd.root, {})
    return tuple(collected)


def ref_obdd_to_formula(bdd):
    """The if-then-else reading, one recursive call per node."""
    memo = {0: FALSE, 1: TRUE}

    def walk(node_id):
        if node_id not in memo:
            level, low, high = bdd.node(node_id)
            ref = AtomRef(bdd.order[level])
            memo[node_id] = Or(And(ref, walk(high)), And(Not(ref), walk(low)))
        return memo[node_id]

    return walk(bdd.root)


# --------------------------------------------------------------- predabs

def ref_enumerate_abstraction(p, mode):
    """The label cubes of `enumerate_abstraction`, one recursive call per
    split; satisfiability is read through `predabs.brute_satisfiable`."""
    ef = to_existential(p)
    labels = [label for label, _ in p.predicates]

    def satisfiable_with(mu):
        return predabs.brute_satisfiable(residual(ef.matrix, mu))

    def leaf_test(mu):
        if mode == "validating":
            return exists_validates(mu, ef)[0]
        return exists_entails(mu, ef)[0]

    collected = []

    def rec(mu):
        while True:
            if not satisfiable_with(mu):
                return
            if leaf_test(mu):
                collected.append(mu)
                return
            forced = None
            for label in labels:
                if label in mu:
                    continue
                for value in (True, False):
                    if not satisfiable_with(mu.bind(label, value)):
                        forced = (label, not value)
                        break
                if forced:
                    break
            if forced is None:
                break
            mu = mu.bind(*forced)
        unassigned = [label for label in labels if label not in mu]
        assert unassigned, "a total open cube must pass its leaf test"
        rec(mu.bind(unassigned[0], True))
        rec(mu.bind(unassigned[0], False))

    rec(Assignment({}))
    return tuple(collected)
