"""Propositional formulas and their Boolean-algebra semantics.

Formulas are immutable trees.  The full connective set (negation,
disjunction, conjunction, implication, biconditional, plus the two
constants) is first class, and :func:`evaluate` interprets each
connective directly.

A valuation is a plain mapping from symbol names to 0/1.  Names absent
from the mapping read as 0, so every partial map is total by convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

__all__ = [
    "And",
    "Atom",
    "Falsum",
    "Formula",
    "Iff",
    "Implies",
    "Not",
    "Or",
    "Valuation",
    "Verum",
    "evaluate",
    "satisfies",
    "symbols",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Words the textual grammar treats as constants; they can never name atoms.
_RESERVED = frozenset({"false", "bot", "true", "top"})


@dataclass(frozen=True)
class Falsum:
    """The always-false constant."""


@dataclass(frozen=True)
class Verum:
    """The always-true constant (abbreviates ``not falsum``)."""


@dataclass(frozen=True)
class Atom:
    """A propositional symbol; two atoms are equal iff their names are."""

    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid atom name {self.name!r}")
        if self.name in _RESERVED:
            raise ValueError(f"{self.name!r} is a reserved constant, not an atom name")


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Falsum, Verum, Atom, Not, Or, And, Implies, Iff]

Valuation = Mapping[str, int]


def symbols(phi: Formula) -> set[str]:
    """The set of propositional symbol names occurring in ``phi``."""
    found: set[str] = set()
    stack: list[Formula] = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            found.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (Or, And, Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
    return found


def evaluate(phi: Formula, valuation: Valuation) -> int:
    """Interpret ``phi`` under ``valuation``, yielding 0 or 1.

    Disjunction is addition saturating at 1, conjunction is
    multiplication, and implication is ``(1 - a) + b`` under the same
    saturation; on 0/1 these are the bitwise operations of
    :func:`_evaluate_rows` with a one-row mask.  Symbols missing from
    ``valuation`` read as 0.
    """
    return _evaluate_rows(phi, lambda name: 1 if valuation.get(name, 0) else 0, 1)


def _evaluate_rows(phi: Formula, column: Callable[[str], int], mask: int) -> int:
    """Evaluate ``phi`` on every row of a truth table at once.

    Bit ``r`` of an int is a value in row ``r``; ``mask`` has one bit set
    per row and ``column(name)`` gives an atom's values.  Each connective
    is one bitwise operation over all rows, so bit ``r`` of the result is
    ``phi``'s value in row ``r``.
    """
    # Iterative post-order walk: clause-list readbacks can be thousands of
    # connectives deep, well past the interpreter recursion limit.
    todo: list[tuple[Formula, bool]] = [(phi, False)]
    values: list[int] = []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Atom):
            values.append(column(node.name))
        elif isinstance(node, Falsum):
            values.append(0)
        elif isinstance(node, Verum):
            values.append(mask)
        elif not ready:
            todo.append((node, True))
            if isinstance(node, Not):
                todo.append((node.operand, False))
            elif isinstance(node, (Or, And, Implies, Iff)):
                todo.append((node.right, False))
                todo.append((node.left, False))
            else:
                raise TypeError(f"not a formula: {node!r}")
        elif isinstance(node, Not):
            values.append(mask ^ values.pop())
        else:
            right = values.pop()
            left = values.pop()
            if isinstance(node, Or):
                values.append(left | right)
            elif isinstance(node, And):
                values.append(left & right)
            elif isinstance(node, Implies):
                values.append((mask ^ left) | right)
            else:
                values.append(mask ^ left ^ right)
    return values[0]


def satisfies(valuation: Valuation, phi: Formula) -> bool:
    """True iff ``phi`` evaluates to 1 under ``valuation``."""
    return evaluate(phi, valuation) == 1

