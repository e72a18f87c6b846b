"""Brute-force truth-table semantics.

Deliberately naive ground truth: every question is answered from the
full truth table over the relevant symbols, all 2^k rows of it, and
shares no code with the solver.  The table is held one bit per row: each
atom is a 2^k-bit int whose bit ``r`` is its value in row ``r``, and one
walk over the formula turns every connective into a bitwise operation
over all rows at once (the truth-table-as-bit-vector encoding of Knuth,
TAOCP 7.1.1).  A symbol cap (default 20, about a million rows, 128 KiB
per table) keeps each call sub-second.  The row order is stable (binary
counting over sorted names, the first-sorted name most significant), so
failures are reproducible.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable

from .formula import Formula, _evaluate_rows, symbols

__all__ = [
    "Classification",
    "DEFAULT_SYMBOL_CAP",
    "SymbolCapError",
    "classify",
    "enumerate_valuations",
    "equivalent",
    "models",
    "semantic_consequence",
]

DEFAULT_SYMBOL_CAP = 20


class SymbolCapError(ValueError):
    """A truth table would exceed the symbol cap, or the size of any int."""


class Classification(Enum):
    VALID = "valid"
    SATISFIABLE = "satisfiable"
    CONTRADICTORY = "contradictory"


def _capped_names(syms: Iterable[str], cap: int) -> list[str]:
    names = sorted(set(syms))
    if len(names) > cap:
        raise SymbolCapError(f"{len(names)} symbols exceed the cap of {cap}")
    return names


def enumerate_valuations(
    syms: Iterable[str], cap: int = DEFAULT_SYMBOL_CAP
) -> list[dict[str, int]]:
    """All 2^k total valuations over ``syms``, counting in binary over the
    sorted names (the first-sorted name is the most significant bit)."""
    names = _capped_names(syms, cap)
    return [dict(zip(names, bits)) for bits in itertools.product((0, 1), repeat=len(names))]


class _Table:
    """The rows of :func:`enumerate_valuations` over ``syms``, one bit each:
    ``column[name]`` has bit ``r`` set iff ``name`` is 1 in row ``r``."""

    def __init__(self, syms: Iterable[str], cap: int) -> None:
        self.names = _capped_names(syms, cap)
        k = len(self.names)
        self.rows = 1 << k
        try:
            self.mask = (1 << self.rows) - 1
        except OverflowError:  # more bits than any int can hold
            raise SymbolCapError(f"the truth table over {k} symbols is too large") from None
        self.column: dict[str, int] = {}
        for position, name in enumerate(self.names):
            # Name ``position`` is 1 in the upper half of every block of
            # 2 * half rows; copy that block up to fill all rows.
            half = 1 << (k - 1 - position)
            bits, width = ((1 << half) - 1) << half, 2 * half
            while width < self.rows:
                bits |= bits << width
                width *= 2
            self.column[name] = bits

    def of(self, phi: Formula) -> int:
        """``phi``'s truth table: bit ``r`` is its value in row ``r``."""
        return _evaluate_rows(phi, self.column.__getitem__, self.mask)

    def valuation(self, row: int) -> dict[str, int]:
        last = len(self.names) - 1
        return {name: (row >> (last - i)) & 1 for i, name in enumerate(self.names)}


def classify(phi: Formula, cap: int = DEFAULT_SYMBOL_CAP) -> Classification:
    """VALID if every valuation satisfies ``phi``, CONTRADICTORY if none
    does, SATISFIABLE otherwise."""
    table = _Table(symbols(phi), cap)
    truth = table.of(phi)
    if truth == table.mask:
        return Classification.VALID
    if truth == 0:
        return Classification.CONTRADICTORY
    return Classification.SATISFIABLE


def semantic_consequence(
    premises: Iterable[Formula], phi: Formula, cap: int = DEFAULT_SYMBOL_CAP
) -> bool:
    """True iff every valuation satisfying all premises satisfies ``phi``."""
    premises = list(premises)
    syms = symbols(phi)
    for premise in premises:
        syms |= symbols(premise)
    table = _Table(syms, cap)
    premises_hold = table.mask
    for premise in premises:
        premises_hold &= table.of(premise)
    return premises_hold & ~table.of(phi) == 0


def equivalent(phi: Formula, psi: Formula, cap: int = DEFAULT_SYMBOL_CAP) -> bool:
    """True iff both formulas have identical truth tables over the union
    of their symbols."""
    table = _Table(symbols(phi) | symbols(psi), cap)
    return table.of(phi) == table.of(psi)


def models(phi: Formula, cap: int = DEFAULT_SYMBOL_CAP) -> list[dict[str, int]]:
    """All satisfying valuations over the symbols of ``phi``, stable order."""
    table = _Table(symbols(phi), cap)
    # Binary digits most significant first, so row 0 is the last character.
    digits = format(table.of(phi), f"0{table.rows}b")[::-1]
    return [table.valuation(row) for row, digit in enumerate(digits) if digit == "1"]
