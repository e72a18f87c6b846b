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

:func:`parse_dimacs` sorts the lines in one loop, converts the clause
tokens of the whole file in one ``map(int, ...)``, checks their range with
one ``max`` and one ``min`` and maps them to literal codes in one more
``map``; it too works out line numbers only for an error, by reading the
lines again.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import count
from operator import neg

from .formula import _IDENTIFIER, _NAME_RE, And, Atom, Falsum, Formula, Iff, Implies, Not, Or, Verum
from .normalform import _BOT_CODE, BOT, CnfFormula

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

_SPELLINGS = tuple(sorted([*_BINARY, *_PREFIX, ")", "⊥", "⊤"], key=len, reverse=True))
# One lexeme per match: an identifier, an operator or constant spelling, or
# any other single character, which is an error.  The identifier comes first
# and is greedy, so an identifier lexeme is whole, as ``_NAME_RE`` reads it.
_LEXEME_RE = re.compile(r"\s*(" + "|".join([_IDENTIFIER, *map(re.escape, _SPELLINGS)]) + r"|\S)")

_OPERAND = ("an atom", "'false'", "'true'", "'~'", "'('")
_AFTER_OPERAND = ("end of input", "a binary operator")
_CLOSE = ("')'",)


def _is_token(lexeme: str) -> bool:
    return lexeme in _SPELLINGS or _NAME_RE.match(lexeme) is not None


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
            elif _NAME_RE.match(lexeme):
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
    ints; every int is ASCII digits with an optional sign.  Raises
    :class:`DimacsError` on a malformed header, a bad token, a literal
    outside the declared range, or a clause without its 0 terminator.

    One loop sorts the lines and gathers the clause tokens; one ``int``
    conversion, one range check and one mapping to literal codes then cover
    the whole file, and the clauses are cut at the zeros.  No
    :class:`Clause` is built here.  Line numbers are worked out only for an
    error, by reading the lines again (:func:`_dimacs_error`).
    """
    declared_vars: int | None = None
    data: list[str] = []
    keep = data.append
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and stripped[0] not in "cp":  # neither blank, a comment nor a header
            keep(stripped)
        elif stripped.startswith("p"):
            if data or declared_vars is not None or (declared_vars := _declared_vars(stripped)) < 0:
                raise _dimacs_error(text)
    if declared_vars is None:
        raise _dimacs_error(text)
    joined = " ".join(data)
    # Unless the data is plain ASCII without ``_``, each token is checked.
    convert = int if joined.isascii() and "_" not in joined else _dimacs_int
    tokens = joined.split()
    del joined
    try:
        values = list(map(convert, tokens))
    except ValueError:
        raise _dimacs_error(text) from None
    del tokens  # kept beside the clauses, the strings would set the peak memory
    numbers = set(values)
    if numbers and (max(numbers) > declared_vars or min(numbers) < -declared_vars):
        raise _dimacs_error(text)
    # Atom k of the table is the k-th variable that occurs, by number; a 0
    # terminator maps to code 0, which is falsum only in an empty clause.
    variables = sorted(set(map(abs, numbers)).difference((0,)))
    code_of = dict(zip(variables, count(2, 2)))
    code_of.update(zip(map(neg, variables), count(3, 2)))
    code_of[0] = _BOT_CODE
    values = list(map(code_of.__getitem__, values))  # codes, terminators included
    codes: list[int] = []
    sizes: list[int] = []
    find_zero = values.index
    start = 0
    for _ in range(values.count(0)):
        end = find_zero(0, start)
        clause = values[start : end + 1] if end == start else values[start:end]
        if len(set(clause)) < len(clause):  # cheaper than a dict per clause
            clause = dict.fromkeys(clause)
        codes += clause
        sizes.append(len(clause))
        start = end + 1
    if start < len(values):
        raise _dimacs_error(text)
    return CnfFormula(coded=((BOT, *map("x{}".format, variables)), tuple(codes), tuple(sizes)))


def _dimacs_int(token: str) -> int:
    """``int(token)`` for ASCII digits with an optional sign; ``int`` alone
    would also take ``1_0`` and digits of other scripts."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a DIMACS int: {token!r}")
    return int(token)


def _declared_vars(header: str) -> int:
    """The variable count of a ``p cnf VARS CLAUSES`` header, or -1 for any
    other line."""
    fields = header.split()
    try:
        declared_vars, declared_clauses = map(_dimacs_int, fields[2:])
    except ValueError:  # not exactly two ints
        return -1
    if fields[:2] != ["p", "cnf"] or min(declared_vars, declared_clauses) < 0:
        return -1
    return declared_vars


def _dimacs_error(text: str) -> DimacsError:
    """The error :func:`parse_dimacs` raises for ``text``, which has one:
    the first in reading order, with its line number."""
    declared_vars: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if declared_vars is not None:
                return DimacsError(f"line {line_no}: duplicate header")
            declared_vars = _declared_vars(stripped)
            if declared_vars < 0:
                return DimacsError(f"line {line_no}: malformed header {stripped!r}")
            continue
        if declared_vars is None:
            return DimacsError(f"line {line_no}: clause data before the header")
        for field in stripped.split():
            try:
                value = _dimacs_int(field)
            except ValueError:
                return DimacsError(f"line {line_no}: bad literal token {field!r}")
            if abs(value) > declared_vars:
                return DimacsError(
                    f"line {line_no}: literal {value} out of range (1..{declared_vars})"
                )
    if declared_vars is None:
        return DimacsError("missing header")
    return DimacsError("missing 0 terminator on the last clause")
