"""Residuals, three-valued evaluation, total-assignment satisfaction, and
brute-force validity/equivalence oracles.

One walker evaluates under one partial assignment: residual_least
substitutes bound atoms and propagates constants through the connectives,
nothing more (no simplification of e.g. A | A, which would silently change
validation outcomes).  residual and eval3, which treats unbound atoms as
unknown (U), are its projections: T iff the residual is `true`, F iff `false`.

One kernel evaluates a formula on every row of a sweep at once, for both
notions: an interval table, one Python int with the rows where it is
surely true in its low half and those where it is possibly true in its
high half.  Atoms neither swept nor fixed are unknown; with none, the
halves coincide in a two-valued table, a bit per row.
"""
from __future__ import annotations

import enum
import functools
from typing import Iterator

from .assignment import EMPTY_ASSIGNMENT, Assignment, total_assignments
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
    atoms,
    refuse_atoms,
)
from . import limits


class TruthValue3(enum.Enum):
    T = "T"
    F = "F"
    U = "U"

    def __str__(self) -> str:
        return self.value


_T, _F, _U = TruthValue3.T, TruthValue3.F, TruthValue3.U


# How a binary node folds when an operand residual is a constant, indexed
# (left true, left false, right true, right false): to that constant, to
# the other operand (_KEEP) or to its negation (_NEGATE).  A constant under
# "left" decides the node before its right operand is walked.
_KEEP, _NEGATE = "keep", "negate"
_FOLD = {
    And: (_KEEP, FALSE, _KEEP, FALSE),
    Or: (TRUE, _KEEP, TRUE, _KEEP),
    Implies: (_KEEP, TRUE, TRUE, _NEGATE),
    Iff: (_KEEP, _NEGATE, _KEEP, _NEGATE),
}


def residual(f: Formula, mu: Assignment) -> Formula:
    """The residual f|mu: bound atoms replaced by constants, which are then
    propagated through the connectives exhaustively bottom-up, so it has no
    bound atom, and a constant only when it is itself `true` or `false`."""
    return residual_least(f, mu._bindings)[0]


def _consed(cons: dict, kind: type, *operands: Formula) -> Formula:
    """kind(*operands), made once per key (kind, *operand ids) in `cons`,
    packed in one int: an id fits in 64 bits, and a kind has one arity."""
    key = id(kind)
    for operand in operands:
        key = key << 64 | id(operand)
    return cons.get(key) or cons.setdefault(key, kind(*operands))


def residual_least(f: Formula, value: dict[Atom, bool],
                   cons: dict | None = None) -> tuple[Formula, Atom | None]:
    """The residual of f under the atoms bound in `value`, with its least
    atom (None for a constant), kept per operand on a stack beside the
    values, so an operand folded away never gives one.  Iterative, so depth
    is not bounded by the recursion limit; a right operand is skipped once
    the left residual decides the node (`false` under & and ->, `true`
    under |), and a node whose operands come back unchanged is not rebuilt.
    Calls that share a `cons` dict hash-cons the nodes they rebuild, so a
    residual rebuilt from the same operands is one object."""
    get = value.get
    values: list[Formula] = []
    least: list = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is AtomRef:
            v = get(node.atom)
            values.append(node if v is None else TRUE if v else FALSE)
            least.append(node.atom if v is None else None)
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
                rule, other, low = _NEGATE, values[-1], least[-1]
            else:
                b, low = values.pop(), least.pop()
                a = values[-1]
                if a is TRUE or a is FALSE:
                    rule, other = _FOLD[kind][a is FALSE], b
                elif b is TRUE or b is FALSE:
                    rule, other, low = _FOLD[kind][2 + (b is FALSE)], a, least[-1]
                else:
                    same = a is node.left and b is node.right
                    values[-1] = (node if same else kind(a, b) if cons is None
                                  else _consed(cons, kind, a, b))
                    if low < least[-1]:
                        least[-1] = low
                    continue
            if rule is _KEEP:
                values[-1] = other
            elif rule is not _NEGATE:
                values[-1], low = rule, None
            elif other is TRUE or other is FALSE:
                values[-1] = FALSE if other is TRUE else TRUE
            else:
                values[-1] = (node if kind is Not and other is node.arg else Not(other)
                              if cons is None else _consed(cons, Not, other))
            least[-1] = low  # None when values[-1] is a constant
        elif kind in _FOLD:
            todo += ((node, node.right), node.left)
        elif kind is Not:
            todo += ((node, None), node.arg)
        elif kind is Const:
            values.append(TRUE if node.value else FALSE)
            least.append(None)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0], least[0]


def eval3(f: Formula, mu: Assignment) -> TruthValue3:
    """Three-valued (Kleene) value of f under the partial assignment mu, the
    projection of its residual: T iff it is `true`, F iff it is `false`."""
    r = residual(f, mu)
    return _T if r is TRUE else _F if r is FALSE else _U


# Widest table the kernel builds: 2^16 rows, 8 KiB per int.  Sweeps over
# more atoms fix the leading ones in an outer lexicographic loop.
_CHUNK_ATOMS = 16


def _tile(bits: int, width: int, rows: int) -> int:
    """Repeat the low `width` bits of `bits` up to `rows` bits by
    shift-doubling (big-int division is quadratic in CPython)."""
    while width < rows:
        bits |= bits << width
        width <<= 1
    return bits


@functools.lru_cache(maxsize=_CHUNK_ATOMS + 1)
def _row_masks(n: int) -> tuple[int, ...]:
    """Per atom i of an n-atom sweep, the rows r with bit n-1-i clear, where
    it is true: rows run lexicographic, true first."""
    halves = (1 << (n - 1 - i) for i in range(n))
    return tuple(_tile((1 << h) - 1, h << 1, 1 << n) for h in halves)


def _table(f: Formula, leaf: dict[Atom, int], full: int) -> int:
    """Interval table of f from its atoms' tables: the rows where f is
    surely true in the low half, those where it is possibly true in the
    high half.  While every atom met is in `leaf` the half-width is 0 and
    this is the two-valued table; the first atom missing from it widens
    the tables so far and is unknown (low half 0, high half full).
    Iterative, so depth is not bounded by the recursion limit; a right
    operand is skipped when a left table of `full` or 0 decides the node
    by `_FOLD`, as in `residual_least`."""
    values: list[int] = []
    todo: list = [f]
    half = 0  # the half-width
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is AtomRef:
            try:
                values.append(leaf[node.atom])
            except KeyError:  # neither swept nor fixed: unknown
                if not half:
                    half = full.bit_length()
                    leaf = {k: v | v << half for k, v in leaf.items()}
                    values = [v | v << half for v in values]
                    full |= full << half
                values.append(leaf.setdefault(node.atom, full >> half << half))
        elif kind is tuple:  # (connective, right operand), left value on top
            a = values[-1]
            rule = _FOLD[node[0]][a == 0] if a == full or a == 0 else None
            if type(rule) is Const:
                values[-1] = full if rule is TRUE else 0
            else:
                todo += node
        elif kind is type:  # a connective class, its operands on top of values
            b = 0 if node is Not else values.pop()
            a = values[-1]
            if node is And:
                values[-1] = a & b
            elif node is Or:
                values[-1] = a | b
            else:  # !a swaps the halves of a ^ full; a -> b is !a | b
                na, nb = a ^ full, b ^ full
                if half:
                    na = (na >> half | na << half) & full
                    nb = (nb >> half | nb << half) & full
                values[-1] = (na | b) & (nb | a) if node is Iff else na | b
        elif kind is Not:
            todo += (Not, node.arg)
        elif kind is Const:
            values.append(full if node.value else 0)
        elif kind in _FOLD:
            todo += ((kind, node.right), node.left)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


def _sweep(f: Formula, avs: list[Atom], fixed: Assignment, b: int = 0) -> Iterator:
    """(prefix, chunk, table) for every total prefix over all but the last
    max(b, _CHUNK_ATOMS) atoms of avs, the chunk: lexicographic, true
    first, with the interval table of f under `fixed` over the chunk."""
    split = max(0, len(avs) - max(b, _CHUNK_ATOMS))
    chunk = avs[split:]
    full = (1 << (1 << len(chunk))) - 1
    leaf = dict(zip(chunk, _row_masks(len(chunk))))
    for prefix in total_assignments(avs[:split]) if split else (EMPTY_ASSIGNMENT,):
        for a, v in (*fixed._bindings.items(), *prefix._bindings.items()):
            leaf[a] = full if v else 0
        yield prefix, chunk, _table(f, leaf, full)


def first_block(
    f: Formula,
    leading: list[Atom],
    trailing: list[Atom],
    fixed: Assignment = EMPTY_ASSIGNMENT,
    some: bool = False,
) -> Assignment | None:
    """The first total eta over `leading`, lexicographic and true first,
    under which some (by default no) total assignment over `trailing`
    validates f with `fixed`, united with `fixed` (which binds none of
    them).  Atoms of f that none of them binds are unknown, so a row counts
    when f is surely true on it (with none, when it satisfies f).  Each eta
    owns a block of 2^len(trailing) rows of a table over the last
    max(len(trailing), _CHUNK_ATOMS) atoms."""
    b = len(trailing)
    for prefix, chunk, t in _sweep(f, [*leading, *trailing], fixed, b):
        shift = 1
        while shift < 1 << b:  # OR each block onto its first row
            t |= t >> shift
            shift <<= 1
        # a block's first row takes bits of its own block only: the surely-true half
        hits = _tile(1, 1 << b, 1 << len(chunk)) & (t if some else ~t)
        if hits:
            r = ((hits & -hits).bit_length() - 1) >> b
            n = len(chunk) - b
            rest = {a: not (r >> (n - 1 - i)) & 1 for i, a in enumerate(chunk[:n])}
            return Assignment({**fixed._bindings, **prefix._bindings, **rest})
    return None


def eval3_sweep(f: Formula, avs: list[Atom], fixed: Assignment) -> Iterator[TruthValue3]:
    """eval3(f, fixed ∪ eta) for every total eta over avs, lexicographic and
    true first, read off one interval table per chunk: T where the low bit
    is set, F where the high bit is clear, U elsewhere."""
    for _, chunk, t in _sweep(f, avs, fixed):
        rows = 1 << len(chunk)
        bits = f"{t:0{2 * rows}b}"[::-1]  # bit r of t is bits[r]
        for r in range(rows):
            yield _T if bits[r] == "1" else _U if bits[rows + r] == "1" else _F


def sat_total(f: Formula, eta: Assignment) -> bool:
    """Classical satisfaction by a total assignment over atoms(f)."""
    needed = atoms(f)
    refuse_atoms("assignment is not total for the formula: missing ", needed - eta.domain)
    return _table(f, {a: int(eta.value(a)) for a in needed}, 1) == 1


def _sweep_atoms(f: Formula, atom_cap: int | None, found=None) -> list[Atom]:
    avs = sorted(atoms(f) if found is None else found)
    limits.check(len(avs), limits.resolve("MAX_ATOMS", atom_cap), "brute-force sweep over {} atoms")
    return avs


def brute_valid(f: Formula, atom_cap: int | None = None) -> bool:
    """True iff every total assignment over atoms(f) satisfies f."""
    return first_falsifying(f, atom_cap) is None


def brute_satisfiable(f: Formula, atom_cap: int | None = None) -> bool:
    """True iff some total assignment over atoms(f) satisfies f."""
    return first_satisfying(f, atom_cap) is not None


def first_falsifying(f: Formula, atom_cap: int | None = None, *,
                     _atoms: frozenset[Atom] | None = None) -> Assignment | None:
    """The lexicographically first total assignment falsifying f, or None;
    `_atoms` is atoms(f) when the caller already has it."""
    return first_block(f, _sweep_atoms(f, atom_cap, _atoms), [])


def first_satisfying(f: Formula, atom_cap: int | None = None) -> Assignment | None:
    """The lexicographically first total assignment satisfying f, or None."""
    return first_block(f, _sweep_atoms(f, atom_cap), [], some=True)


def brute_equivalent(f: Formula, g: Formula, atom_cap: int | None = None) -> bool:
    """True iff f and g agree on every total assignment over their atoms."""
    return brute_valid(Iff(f, g), atom_cap)
