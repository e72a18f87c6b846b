"""Textual syntax: the formula grammar and DIMACS CNF input.

Grammar (loosest to tightest): ``<->`` and ``->`` are right-associative,
``|`` and ``&`` are left-associative, ``~`` is prefix, parentheses
override.  Atoms are identifiers; ``false``/``bot`` and ``true``/``top``
(or the symbols for falsum/verum) are constants.

:func:`parse_formula` reads the text as a list of lexemes with one regular
expression, then builds the tree in one loop over an operator stack and an
operand stack, so nesting depth is bounded only by memory.  Positions are
worked out only for an error: line and column of the failing lexeme, or of
the first character in the text that starts no token.
"""

from __future__ import annotations

import re
from typing import Sequence

from .formula import _IDENTIFIER, And, Atom, Falsum, Formula, Iff, Implies, Not, Or, Verum
from .normalform import BOT_LITERAL, Clause, CnfFormula, Literal

__all__ = [
    "DimacsError",
    "ParseError",
    "parse_dimacs",
    "parse_formula",
]


class ParseError(ValueError):
    """Syntax error with source position and the tokens expected there."""

    def __init__(self, message: str, line: int, column: int, expected: Sequence[str] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += "; expected " + " or ".join(self.expected)
        super().__init__(detail)


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


# Binding level per operator; higher binds tighter.  The parser's operator
# stack holds these levels, and this marker for an open parenthesis, which
# also sits at the bottom of the stack.
_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_NOT = 5
_OPEN = 0

_BINARY = {
    "<->": _LEVEL_IFF, "↔": _LEVEL_IFF,
    "->": _LEVEL_IMPLIES, "→": _LEVEL_IMPLIES,
    "|": _LEVEL_OR, "\\/": _LEVEL_OR, "∨": _LEVEL_OR,
    "&": _LEVEL_AND, "/\\": _LEVEL_AND, "∧": _LEVEL_AND,
}
_PREFIX = {"~": _LEVEL_NOT, "!": _LEVEL_NOT, "¬": _LEVEL_NOT, "(": _OPEN}
_FALSUM, _VERUM = Falsum(), Verum()
_CONSTANTS = {"false": _FALSUM, "bot": _FALSUM, "⊥": _FALSUM, "true": _VERUM, "top": _VERUM, "⊤": _VERUM}
_BUILD = (None, Iff, Implies, Or, And)
# An incoming operator reduces the operators on the stack that bind at
# least this tightly: an equal one too when it is left-associative.
_REDUCES_FROM = (None, _LEVEL_IFF + 1, _LEVEL_IMPLIES + 1, _LEVEL_OR, _LEVEL_AND)

_is_identifier = re.compile(_IDENTIFIER).match
_SPELLINGS = tuple(sorted([*_BINARY, *_PREFIX, ")", "⊥", "⊤"], key=len, reverse=True))
# One lexeme per match: an identifier, an operator or constant spelling, or
# any other single character, which is an error.
_LEXEME_RE = re.compile(r"\s*(" + "|".join([_IDENTIFIER, *map(re.escape, _SPELLINGS)]) + r"|\S)")

_OPERAND = ("an atom", "'false'", "'true'", "'~'", "'('")
_AFTER_OPERAND = ("end of input", "a binary operator")
_CLOSE = ("')'",)


def _is_token(lexeme: str) -> bool:
    return lexeme in _SPELLINGS or _is_identifier(lexeme) is not None


def _error(text: str, offset: int, message: str, expected: Sequence[str] = ()) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(message, line, column, expected)


def _fail(text: str, index: int, expected: Sequence[str]) -> ParseError:
    """The error for lexeme ``index`` of ``text`` (end of input if there is
    none), or for the first character that starts no token, wherever it is:
    the whole text is a token sequence before any of it is a formula."""
    offset, found = len(text), "end of input"
    for number, match in enumerate(_LEXEME_RE.finditer(text)):
        lexeme = match.group(1)
        if not _is_token(lexeme):
            return _error(text, match.start(1), f"unexpected character {lexeme!r}")
        if number == index:
            offset, found = match.start(1), repr(lexeme)
    return _error(text, offset, f"unexpected {found}", expected)


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises :class:`ParseError` with position info.

    Operator precedence with explicit stacks (Dijkstra's shunting yard),
    so nesting depth is bounded only by memory.  Each distinct atom name
    becomes one :class:`Atom`.
    """
    lexemes = _LEXEME_RE.findall(text)
    operands: dict[str, Formula] = dict(_CONSTANTS)
    ops = [_OPEN]
    values: list[Formula] = []
    depth = 0
    index, count = 0, len(lexemes)
    while True:
        # Operand position: any '~' and '(' before an atom or a constant.
        while True:
            if index == count:
                raise _fail(text, index, _OPERAND)
            lexeme = lexemes[index]
            index += 1
            operand = operands.get(lexeme)
            if operand is not None:
                break
            marker = _PREFIX.get(lexeme)
            if marker is not None:
                ops.append(marker)
                if marker == _OPEN:
                    depth += 1
            elif _is_identifier(lexeme):
                operand = operands[lexeme] = Atom(lexeme)
                break
            else:
                raise _fail(text, index - 1, _OPERAND)
        # Operator position: apply the negations, close parentheses, and
        # reduce what binds at least as tightly as the next operator.
        while True:
            while ops[-1] == _LEVEL_NOT:
                ops.pop()
                operand = Not(operand)
            if index == count:
                if depth:
                    raise _fail(text, index, _CLOSE)
                while len(ops) > 1:
                    operand = _BUILD[ops.pop()](values.pop(), operand)
                return operand
            lexeme = lexemes[index]
            index += 1
            operator = _BINARY.get(lexeme)
            if operator is not None:
                floor = _REDUCES_FROM[operator]
                while ops[-1] >= floor:
                    operand = _BUILD[ops.pop()](values.pop(), operand)
                ops.append(operator)
                values.append(operand)
                break
            if lexeme != ")" or not depth:
                raise _fail(text, index - 1, _CLOSE if depth else _AFTER_OPERAND)
            while ops[-1] != _OPEN:
                operand = _BUILD[ops.pop()](values.pop(), operand)
            ops.pop()
            depth -= 1


def parse_dimacs(text: str) -> CnfFormula:
    """Read DIMACS CNF text into a clause list.

    Variable k maps to the symbol ``x<k>``; a bare ``0`` line is the empty
    clause and maps to the single-falsum clause.  A literal repeated in a
    clause counts once, at its first occurrence.  Comment lines start with
    ``c``.  The header is ``p cnf VARS CLAUSES`` with two non-negative
    ints.  Raises :class:`DimacsError` on a malformed header, a literal
    outside the declared range, or a clause without its 0 terminator.
    """
    declared_vars: int | None = None
    clauses: list[Clause] = []
    # One Literal per signed variable, checked when first seen.
    literals: dict[int, Literal] = {}
    literal_of = literals.__getitem__
    pending: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if declared_vars is not None:
                raise DimacsError(f"line {line_no}: duplicate header")
            fields = stripped.split()
            try:
                declared_vars, declared_clauses = map(int, fields[2:])
            except ValueError:  # not exactly two ints
                declared_vars = declared_clauses = -1
            if fields[:2] != ["p", "cnf"] or min(declared_vars, declared_clauses) < 0:
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}")
            continue
        if declared_vars is None:
            raise DimacsError(f"line {line_no}: clause data before the header")
        for field in stripped.split():
            try:
                value = int(field)
            except ValueError:
                raise DimacsError(f"line {line_no}: bad literal token {field!r}") from None
            if value == 0:
                if pending:
                    clauses.append(Clause(tuple(map(literal_of, dict.fromkeys(pending)))))
                    pending = []
                else:
                    clauses.append(Clause((BOT_LITERAL,)))
                continue
            if value not in literals:
                if abs(value) > declared_vars:
                    raise DimacsError(
                        f"line {line_no}: literal {value} out of range (1..{declared_vars})"
                    )
                literals[value] = Literal(f"x{abs(value)}", positive=value > 0)
            pending.append(value)
    if declared_vars is None:
        raise DimacsError("missing header")
    if pending:
        raise DimacsError("missing 0 terminator on the last clause")
    return CnfFormula(tuple(clauses))
