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
from dataclasses import FrozenInstanceError, dataclass
from functools import reduce
from typing import Callable, Iterable, Mapping, Union

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

# The atom grammar: what the parser reads as an atom is what Atom accepts.
_IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_IDENTIFIER + r"\Z")

# Words the textual grammar treats as constants; they can never name atoms.
_RESERVED = frozenset({"false", "bot", "true", "top"})


def _record(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)``: a record without an instance
    dict, which keeps an ``__init__`` that the class or a base writes; one
    that ``dataclass`` generated for a base is generated anew.  The
    generated ``__setattr__`` and ``__delattr__`` stay tied to the class
    that the slotted one replaces, so they raise TypeError for a name that
    is not a field (CPython 3.11); these two raise FrozenInstanceError for
    every name, as an unslotted frozen one does."""
    init = not any(
        "__init__" in vars(c) and not getattr(vars(c).get("__dataclass_params__"), "init", False)
        for c in cls.__mro__[:-1]
    )
    cls = dataclass(frozen=True, slots=True, init=init)(cls)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls


def _frozen_setattr(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@_record
class Falsum:
    """The always-false constant."""


@_record
class Verum:
    """The always-true constant (abbreviates ``not falsum``)."""


# The nodes that parsing and CNF conversion build in bulk take a written
# ``__init__`` that stores each field through its slot descriptor's setter,
# bound once below each class, which costs less than the generic call per
# field of a generated frozen one.
@_record
class Atom:
    """A propositional symbol; two atoms are equal iff their names are."""

    name: str

    def __init__(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid atom name {name!r}")
        if name in _RESERVED:
            raise ValueError(f"{name!r} is a reserved constant, not an atom name")
        _set_atom_name(self, name)


_set_atom_name = Atom.name.__set__


@_record
class Not:
    operand: "Formula"

    def __init__(self, operand: Formula) -> None:
        _set_not_operand(self, operand)


_set_not_operand = Not.operand.__set__


@_record
class _Binary:
    """The fields and constructor the four binary connectives share.  The
    subclasses reuse these two slots: since Python 3.11, a slotted dataclass
    leaves out the slots its base already has."""

    left: "Formula"
    right: "Formula"

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)


_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


@_record
class Or(_Binary):
    pass


@_record
class And(_Binary):
    pass


@_record
class Implies(_Binary):
    pass


@_record
class Iff(_Binary):
    pass


Formula = Union[Falsum, Verum, Atom, Not, Or, And, Implies, Iff]

Valuation = Mapping[str, int]


def _join(
    connective: Callable[[Formula, Formula], Formula], parts: Iterable[Formula], empty: Formula
) -> Formula:
    """``parts`` folded left to right with ``connective``; no parts read
    as ``empty``."""
    parts = iter(parts)
    first = next(parts, None)
    return empty if first is None else reduce(connective, parts, first)


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

