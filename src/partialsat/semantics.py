"""Three-valued evaluation, residuals, total-assignment satisfaction, and
brute-force validity/equivalence oracles, which evaluate a formula on every
row of a sweep at once as a truth table: one Python int, a bit per row.

eval3 treats unbound atoms as unknown (U); residual substitutes bound atoms
and propagates constants through the connectives, nothing more (no
simplification of e.g. A | A, which would silently change validation
outcomes).
"""
from __future__ import annotations

import enum
import functools

from .assignment import EMPTY_ASSIGNMENT, Assignment, total_assignments
from .errors import ResourceLimitError
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
)
from . import limits


class TruthValue3(enum.Enum):
    T = "T"
    F = "F"
    U = "U"

    def __str__(self) -> str:
        return self.value


_T, _F, _U = TruthValue3.T, TruthValue3.F, TruthValue3.U


def _not3(a: TruthValue3) -> TruthValue3:
    if a is _T:
        return _F
    if a is _F:
        return _T
    return _U


def _and3(a: TruthValue3, b: TruthValue3) -> TruthValue3:
    if a is _F or b is _F:
        return _F
    if a is _T and b is _T:
        return _T
    return _U


def _or3(a: TruthValue3, b: TruthValue3) -> TruthValue3:
    if a is _T or b is _T:
        return _T
    if a is _F and b is _F:
        return _F
    return _U


def _implies3(a: TruthValue3, b: TruthValue3) -> TruthValue3:
    if a is _F:
        return _T
    if b is _T:
        return _T
    if a is _T:
        return b
    return _U


def _iff3(a: TruthValue3, b: TruthValue3) -> TruthValue3:
    if a is _U or b is _U:
        return _U
    return _T if a is b else _F


def eval3(f: Formula, mu: Assignment) -> TruthValue3:
    """Three-valued value of f under the partial assignment mu."""
    if isinstance(f, Const):
        return _T if f.value else _F
    if isinstance(f, AtomRef):
        v = mu.value(f.atom)
        if v is None:
            return _U
        return _T if v else _F
    if isinstance(f, Not):
        return _not3(eval3(f.arg, mu))
    if isinstance(f, And):
        return _and3(eval3(f.left, mu), eval3(f.right, mu))
    if isinstance(f, Or):
        return _or3(eval3(f.left, mu), eval3(f.right, mu))
    if isinstance(f, Implies):
        return _implies3(eval3(f.left, mu), eval3(f.right, mu))
    if isinstance(f, Iff):
        return _iff3(eval3(f.left, mu), eval3(f.right, mu))
    raise TypeError(f"not a formula: {f!r}")


def _negate_folded(f: Formula) -> Formula:
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    return Not(f)


def residual(f: Formula, mu: Assignment) -> Formula:
    """The residual f|mu: bound atoms replaced by constants, which are then
    propagated through the connectives exhaustively bottom-up.

    The result contains no bound atom, and contains a constant only when it
    is itself `true` or `false`.
    """
    if isinstance(f, Const):
        return f
    if isinstance(f, AtomRef):
        v = mu.value(f.atom)
        if v is None:
            return f
        return TRUE if v else FALSE
    if isinstance(f, Not):
        return _negate_folded(residual(f.arg, mu))
    if isinstance(f, And):
        left, right = residual(f.left, mu), residual(f.right, mu)
        if left == FALSE or right == FALSE:
            return FALSE
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        return And(left, right)
    if isinstance(f, Or):
        left, right = residual(f.left, mu), residual(f.right, mu)
        if left == TRUE or right == TRUE:
            return TRUE
        if left == FALSE:
            return right
        if right == FALSE:
            return left
        return Or(left, right)
    if isinstance(f, Implies):
        left, right = residual(f.left, mu), residual(f.right, mu)
        if left == FALSE:
            return TRUE
        if right == TRUE:
            return TRUE
        if left == TRUE:
            return right
        if right == FALSE:
            return _negate_folded(left)
        return Implies(left, right)
    if isinstance(f, Iff):
        left, right = residual(f.left, mu), residual(f.right, mu)
        if left == TRUE:
            return right
        if left == FALSE:
            return _negate_folded(right)
        if right == TRUE:
            return left
        if right == FALSE:
            return _negate_folded(left)
        return Iff(left, right)
    raise TypeError(f"not a formula: {f!r}")


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


_NOT, _AND, _OR, _IMPLIES, _IFF = range(5)
_BINARY_OPCODE = {And: _AND, Or: _OR, Implies: _IMPLIES, Iff: _IFF}


def _table(f: Formula, leaf: dict[str, int], full: int) -> int:
    """Truth table of f from its atoms' tables, keyed by name (an Atom's
    dataclass hash is recomputed per lookup).  Iterative, so depth is not
    bounded by the recursion limit; a right operand is skipped when the
    left one decides the node (0 under & and ->, full under |)."""
    values: list[int] = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is AtomRef:
            values.append(leaf[node.atom.name])
        elif kind is tuple:  # (opcode, right operand), left value on top
            op, a = node[0], values[-1]
            if op == _OR and a == full or op in (_AND, _IMPLIES) and a == 0:
                values[-1] = full if op == _IMPLIES else a
            else:
                todo += node
        elif kind is int:  # an opcode, its operands on top of values
            b = full if node == _NOT else values.pop()
            a = values[-1]
            if node == _AND:
                values[-1] = a & b
            elif node == _OR:
                values[-1] = a | b
            elif node == _IMPLIES:
                values[-1] = (a ^ full) | b
            else:  # _NOT is a ^ full, _IFF is a ^ b ^ full
                values[-1] = a ^ b ^ (full if node == _IFF else 0)
        elif kind is Not:
            todo += (_NOT, node.arg)
        elif kind is Const:
            values.append(full if node.value else 0)
        elif kind in _BINARY_OPCODE:
            todo += ((_BINARY_OPCODE[kind], node.right), node.left)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


def first_block(
    f: Formula,
    leading: list[Atom],
    trailing: list[Atom],
    fixed: Assignment = EMPTY_ASSIGNMENT,
    some: bool = False,
) -> Assignment | None:
    """The first total eta over `leading`, lexicographic and true first,
    under which some (by default no) total assignment over `trailing`
    satisfies f with `fixed`, united with `fixed`.  Each eta owns a block of
    2^len(trailing) rows of a table over the last max(len(trailing),
    _CHUNK_ATOMS) atoms."""
    avs = [*leading, *trailing]
    b = len(trailing)
    split = max(0, len(avs) - max(b, _CHUNK_ATOMS))
    low = avs[split:]
    full = (1 << (1 << len(low))) - 1
    starts = _tile(1, 1 << b, 1 << len(low))
    leaf = {a.name: mask for a, mask in zip(low, _row_masks(len(low)))}
    for prefix in total_assignments(avs[:split]):
        for lit in (*fixed.literals(), *prefix.literals()):
            leaf[lit.atom.name] = full if lit.positive else 0
        t = _table(f, leaf, full)
        shift = 1
        while shift < 1 << b:  # OR each block onto its first row
            t |= t >> shift
            shift <<= 1
        hits = starts & (t if some else ~t)
        if hits:
            r = ((hits & -hits).bit_length() - 1) >> b
            n = len(low) - b
            rest = {a: not (r >> (n - 1 - i)) & 1 for i, a in enumerate(low[:n])}
            return fixed.union(prefix).union(Assignment(rest))
    return None


def sat_total(f: Formula, eta: Assignment) -> bool:
    """Classical satisfaction by a total assignment over atoms(f)."""
    needed = atoms(f)
    if not eta.is_total_for(needed):
        missing = ", ".join(sorted(a.name for a in needed if a not in eta))
        raise ValueError(f"assignment is not total for the formula: missing {missing}")
    return _table(f, {a.name: int(eta.value(a)) for a in needed}, 1) == 1


def _sweep_atoms(f: Formula, atom_cap: int | None) -> list[Atom]:
    avs = sorted(atoms(f))
    cap = limits.max_atoms(atom_cap)
    if len(avs) > cap:
        raise ResourceLimitError(
            f"brute-force sweep over {len(avs)} atoms exceeds the cap of {cap}"
        )
    return avs


def brute_valid(f: Formula, atom_cap: int | None = None) -> bool:
    """True iff every total assignment over atoms(f) satisfies f."""
    return first_falsifying(f, atom_cap) is None


def brute_satisfiable(f: Formula, atom_cap: int | None = None) -> bool:
    """True iff some total assignment over atoms(f) satisfies f."""
    return first_satisfying(f, atom_cap) is not None


def first_falsifying(f: Formula, atom_cap: int | None = None) -> Assignment | None:
    """The lexicographically first total assignment falsifying f, or None."""
    return first_block(f, _sweep_atoms(f, atom_cap), [])


def first_satisfying(f: Formula, atom_cap: int | None = None) -> Assignment | None:
    """The lexicographically first total assignment satisfying f, or None."""
    return first_block(f, _sweep_atoms(f, atom_cap), [], some=True)


def brute_equivalent(f: Formula, g: Formula, atom_cap: int | None = None) -> bool:
    """True iff f and g agree on every total assignment over their atoms."""
    return brute_valid(Iff(f, g), atom_cap)
