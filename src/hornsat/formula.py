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
from collections.abc import Callable, Iterable, Mapping
from functools import reduce

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


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _record(cls: type) -> type:
    """``cls`` as a frozen record without an instance dict, built once.

    Its fields are its bases' fields, then one slot per name it annotates,
    so a class attribute is assigned without an annotation.  A field whose
    name starts with ``_`` is hidden: no default constructor takes it, and
    ``repr``, equality and hash leave it out; copies and pickles carry
    every field.
    ``__match_args__`` names the other fields, and ``_fields`` all of them.
    A record keeps an ``__init__`` that it or a base writes, and otherwise
    takes one that sets its fields from positional or keyword arguments.
    Every other method is shared by all records."""
    own = tuple(cls.__annotations__)
    fields = getattr(cls, "_fields", ()) + own
    # The slotted class takes everything of this one but its dict and
    # weakref descriptors.
    namespace = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    namespace.update(
        __slots__=own,
        _fields=fields,
        __match_args__=tuple(name for name in fields if not name.startswith("_")),
        __eq__=_record_eq,
        __hash__=_record_hash,
        __repr__=_record_repr,
        __setattr__=_frozen_setattr,
        __delattr__=_frozen_delattr,
        __reduce__=_record_reduce,
    )
    if cls.__init__ is object.__init__:
        namespace["__init__"] = _default_init
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    cls._setters = {name: getattr(cls, name).__set__ for name in fields}
    return cls


def _default_init(self, *values: object, **named: object) -> None:
    """Set each public field, by position or by keyword."""
    fields = type(self).__match_args__
    values += tuple(named.pop(name) for name in fields[len(values) :] if name in named)
    if named or len(values) != len(fields):
        raise TypeError(f"{type(self).__name__}() takes each of {fields} once")
    setters = type(self)._setters
    for name, value in zip(fields, values):
        setters[name](self, value)


def _values(record: object) -> tuple:
    """The record's fields that ``repr``, equality and hash read."""
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _record_eq(self, other: object) -> bool:
    if type(other) is not type(self):
        return NotImplemented
    return _values(self) == _values(other)


def _record_hash(self) -> int:
    return hash(_values(self))


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _record_reduce(self) -> tuple:
    return _rebuild, (type(self), tuple(getattr(self, name) for name in self._fields))


def _rebuild(cls: type, values: tuple) -> object:
    """A copy or unpickled record: its fields set as they were, past any
    checked constructor, since the original passed it."""
    record = cls.__new__(cls)
    for setter, value in zip(cls._setters.values(), values):
        setter(record, value)
    return record


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
    """The fields and constructor the four binary connectives share."""

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


Formula = Falsum | Verum | Atom | Not | Or | And | Implies | Iff

Valuation = Mapping[str, int]


def _join(
    connective: Callable[[Formula, Formula], Formula], parts: Iterable[Formula], empty: Formula
) -> Formula:
    """``parts`` folded left to right with ``connective``; no parts read
    as ``empty``."""
    parts = iter(parts)
    first = next(parts, None)
    return empty if first is None else reduce(connective, parts, first)


# Each binary connective as one bitwise operation over all rows of a truth
# table; a complement is left unmasked, for the caller to mask once.
_ROWS: dict[type, Callable[[int, int], int]] = {
    Or: int.__or__,
    And: int.__and__,
    Implies: lambda left, right: ~left | right,
    Iff: lambda left, right: ~(left ^ right),
}


def symbols(phi: Formula) -> set[str]:
    """The set of propositional symbol names occurring in ``phi``."""
    found: set[str] = set()
    stack: list[Formula] = [phi]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            found.add(node.name)
        elif kind in _ROWS:
            stack += node.left, node.right
        elif kind is Not:
            stack.append(node.operand)
        elif kind is not Falsum and kind is not Verum:
            raise TypeError(f"not a formula: {node!r}")
    return found


def evaluate(phi: Formula, valuation: Valuation) -> int:
    """Interpret ``phi`` under ``valuation``, yielding 0 or 1.

    Disjunction is addition saturating at 1, conjunction is
    multiplication, and implication is ``(1 - a) + b`` under the same
    saturation; on 0/1 these are the bitwise operations of
    :func:`_evaluate_rows` on a one-row table.  Symbols missing from
    ``valuation`` read as 0.
    """
    return _evaluate_rows(phi, lambda name: 1 if valuation.get(name, 0) else 0) & 1


def _evaluate_rows(phi: Formula, column: Callable[[str], int]) -> int:
    """Evaluate ``phi`` on every row of a truth table at once.

    Bit ``r`` of an int is a value in row ``r``, and ``column(name)`` gives
    an atom's values.  Each connective is one bitwise operation over all
    rows: falsum is 0, verum all ones (-1), and negation ``~``.  So bit
    ``r`` of the result is ``phi``'s value in row ``r``, and the bits above
    the table are junk, which the caller masks off.
    """
    # Iterative post-order walk: clause-list readbacks can be thousands of
    # connectives deep, well past the interpreter recursion limit.
    todo: list[tuple[Formula, bool]] = [(phi, False)]
    values: list[int] = []
    while todo:
        node, ready = todo.pop()
        kind = type(node)
        if ready:
            right = values.pop()
            values.append(~right if kind is Not else _ROWS[kind](values.pop(), right))
        elif kind is Atom:
            values.append(column(node.name))
        elif kind in _ROWS:
            todo += (node, True), (node.right, False), (node.left, False)
        elif kind is Not:
            todo += (node, True), (node.operand, False)
        elif kind is Falsum:
            values.append(0)
        elif kind is Verum:
            values.append(-1)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return values[0]


def satisfies(valuation: Valuation, phi: Formula) -> bool:
    """True iff ``phi`` evaluates to 1 under ``valuation``."""
    return evaluate(phi, valuation) == 1

