"""Textual syntax: the formula grammar, a renderer, and DIMACS CNF input.

Grammar (loosest to tightest): ``<->`` and ``->`` are right-associative,
``|`` and ``&`` are left-associative, ``~`` is prefix, parentheses
override.  Atoms are identifiers; ``false``/``bot`` and ``true``/``top``
(or the symbols for falsum/verum) are constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .formula import And, Atom, Falsum, Formula, Iff, Implies, Not, Or, Verum
from .normalform import BOT_LITERAL, Clause, CnfFormula, Literal, _clause

__all__ = [
    "DimacsError",
    "ParseError",
    "parse_dimacs",
    "parse_formula",
    "render",
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


_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
      | (?P<IFF><->|↔)
      | (?P<IMPLIES>->|→)
      | (?P<AND>&|/\\|∧)
      | (?P<OR>\||\\/|∨)
      | (?P<NOT>~|!|¬)
      | (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<FALSE>⊥)
      | (?P<TRUE>⊤)
    """,
    re.VERBOSE,
)

_CONSTANT_WORDS = {"false": "FALSE", "bot": "FALSE", "true": "TRUE", "top": "TRUE"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column, pos = 1, 1, 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        kind = match.lastgroup or ""
        lexeme = match.group()
        if kind == "IDENT":
            kind = _CONSTANT_WORDS.get(lexeme, kind)
        if kind != "WS":
            tokens.append(_Token(kind, lexeme, line, column))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            column = len(lexeme) - lexeme.rfind("\n")
        else:
            column += len(lexeme)
        pos = match.end()
    tokens.append(_Token("EOF", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def _current(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._current
        self._index += 1
        return token

    def _fail(self, expected: Sequence[str]) -> None:
        token = self._current
        found = "end of input" if token.kind == "EOF" else repr(token.text)
        raise ParseError(f"unexpected {found}", token.line, token.column, expected)

    def parse(self) -> Formula:
        phi = self._iff()
        if self._current.kind != "EOF":
            self._fail(("end of input", "a binary operator"))
        return phi

    def _iff(self) -> Formula:
        left = self._implies()
        if self._current.kind == "IFF":
            self._advance()
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._current.kind == "IMPLIES":
            self._advance()
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        node = self._and()
        while self._current.kind == "OR":
            self._advance()
            node = Or(node, self._and())
        return node

    def _and(self) -> Formula:
        node = self._unary()
        while self._current.kind == "AND":
            self._advance()
            node = And(node, self._unary())
        return node

    def _unary(self) -> Formula:
        if self._current.kind == "NOT":
            self._advance()
            return Not(self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        token = self._current
        if token.kind == "IDENT":
            self._advance()
            return Atom(token.text)
        if token.kind == "FALSE":
            self._advance()
            return Falsum()
        if token.kind == "TRUE":
            self._advance()
            return Verum()
        if token.kind == "LPAREN":
            self._advance()
            phi = self._iff()
            if self._current.kind != "RPAREN":
                self._fail(("')'",))
            self._advance()
            return phi
        self._fail(("an atom", "'false'", "'true'", "'~'", "'('"))
        raise AssertionError("unreachable")


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises :class:`ParseError` with position info."""
    return _Parser(_tokenize(text)).parse()


# Binding strength per node; higher binds tighter.  A child is wrapped in
# parentheses when its own level is below what its context requires.
_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_NOT = 5
_LEVEL_ATOM = 6


def _render(phi: Formula, min_level: int) -> str:
    if isinstance(phi, Falsum):
        return "false"
    if isinstance(phi, Verum):
        return "true"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        text, level = "~" + _render(phi.operand, _LEVEL_NOT), _LEVEL_NOT
    elif isinstance(phi, And):
        text = f"{_render(phi.left, _LEVEL_AND)} & {_render(phi.right, _LEVEL_AND + 1)}"
        level = _LEVEL_AND
    elif isinstance(phi, Or):
        text = f"{_render(phi.left, _LEVEL_OR)} | {_render(phi.right, _LEVEL_OR + 1)}"
        level = _LEVEL_OR
    elif isinstance(phi, Implies):
        text = f"{_render(phi.left, _LEVEL_IMPLIES + 1)} -> {_render(phi.right, _LEVEL_IMPLIES)}"
        level = _LEVEL_IMPLIES
    elif isinstance(phi, Iff):
        text = f"{_render(phi.left, _LEVEL_IFF + 1)} <-> {_render(phi.right, _LEVEL_IFF)}"
        level = _LEVEL_IFF
    else:
        raise TypeError(f"not a formula: {phi!r}")
    return f"({text})" if level < min_level else text


def render(phi: Formula) -> str:
    """ASCII text for ``phi``; reparsing yields a structurally equal tree."""
    return _render(phi, _LEVEL_IFF)


def parse_dimacs(text: str) -> CnfFormula:
    """Read DIMACS CNF text into a clause list.

    Variable k maps to the symbol ``x<k>``; a bare ``0`` line is the empty
    clause and maps to the single-falsum clause.  A literal repeated in a
    clause counts once, at its first occurrence.  Comment lines start with
    ``c``.  Raises :class:`DimacsError` on a malformed header, a literal
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
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}")
            try:
                declared_vars = int(fields[2])
                int(fields[3])
            except ValueError:
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}") from None
            if declared_vars < 0:
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
                    clauses.append(_clause(tuple(map(literal_of, dict.fromkeys(pending)))))
                    pending = []
                else:
                    clauses.append(_clause((BOT_LITERAL,)))
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
