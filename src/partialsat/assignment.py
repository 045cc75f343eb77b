"""Total and partial truth assignments.

An assignment has three interchangeable views: a map from atoms to
booleans, a set of literals, written as their texts (``A1``, ``!A3``), and
a cube (conjunction-of-literals formula).  Text syntax for the literal-set
view: comma-separated literals, e.g. ``A1, !A3``.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InconsistentAssignmentError
from .formula import (
    Atom,
    AtomRef,
    Formula,
    Not,
    and_all,
    expect,
    name_ref,
    parse_error,
    tokenize,
)


class Assignment:
    """An immutable partial (or total) map from atoms to booleans."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[Atom, bool] | Iterable[tuple[Atom, bool]] = ()):
        self._bindings = dict(bindings)

    @property
    def domain(self) -> frozenset[Atom]:
        return frozenset(self._bindings)

    def value(self, atom: Atom) -> bool | None:
        return self._bindings.get(atom)

    def literals(self) -> tuple[str, ...]:
        """The set-of-literals view as literal texts, atom-lexicographic:
        ``("A1", "!A3")``."""
        return tuple(str(a) if v else "!" + a for a, v in sorted(self._bindings.items()))

    def to_cube(self) -> Formula:
        """The cube view; the empty assignment maps to ``true``."""
        return and_all(AtomRef(a) if v else Not(AtomRef(a))
                       for a, v in sorted(self._bindings.items()))

    def union(self, other: "Assignment") -> "Assignment":
        merged = dict(self._bindings)
        for atom, val in other._bindings.items():
            if merged.get(atom, val) != val:
                raise InconsistentAssignmentError(
                    f"conflicting bindings for {atom}"
                )
            merged[atom] = val
        return Assignment(merged)

    def bind(self, atom: Atom, val: bool) -> "Assignment":
        if self._bindings.get(atom, val) != val:
            raise InconsistentAssignmentError(f"conflicting bindings for {atom}")
        merged = dict(self._bindings)
        merged[atom] = val
        return Assignment(merged)

    def restrict(self, atom_set: Iterable[Atom]) -> "Assignment":
        keep = set(atom_set)
        return Assignment({a: v for a, v in self._bindings.items() if a in keep})

    def conflicts_with(self, other: "Assignment") -> bool:
        """True iff some atom is bound to opposite values by the two."""
        small, large = self._bindings, other._bindings
        if len(small) > len(large):
            small, large = large, small
        return any(large.get(a, v) != v for a, v in small.items())

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __str__(self) -> str:
        return ", ".join(self.literals())

    def __repr__(self) -> str:
        return f"Assignment({{{self}}})"


EMPTY_ASSIGNMENT = Assignment()


def total_assignments(ordered: Sequence[Atom]) -> Iterator[Assignment]:
    """All total assignments over `ordered`, lexicographic in the order
    given: the first atom varies slowest, true before false per atom."""
    for values in product((True, False), repeat=len(ordered)):
        yield Assignment(dict(zip(ordered, values)))


def parse_assignment(text: str) -> Assignment:
    """Parse the literal-set syntax, e.g. ``A1, !A3``; blank means empty."""
    tokens = tokenize(text)
    refs: dict = {}
    pairs: list[tuple[Atom, bool]] = []
    i = 0
    while tokens[0][0] != "EOF":  # one literal per turn, unless the text is blank
        positive = tokens[i][0] != "NOT"
        i = expect(text, tokens, i + (not positive), "NAME", "an atom name")
        pairs.append((name_ref(refs, tokens[i - 1][1]).atom, positive))
        if tokens[i][0] != "COMMA":
            break
        i += 1
    kind, word, at = tokens[i]
    if kind != "EOF":
        raise parse_error(text, f"unexpected {word!r}", at)
    bindings: dict[Atom, bool] = {}
    for atom, positive in pairs:  # a conflict counts only in a text that parses
        if bindings.setdefault(atom, positive) != positive:
            raise InconsistentAssignmentError(f"inconsistent literal set: both {atom} and !{atom}")
    return Assignment(bindings)
