"""Recognition of basic Horn clauses and their rewriting into implications.

A clause with at most one positive literal can always be written as an
implication whose antecedent is verum or a conjunction of atoms and whose
consequent is a single atom (falsum included on both sides).  A Horn
formula is an ordered conjunction of such implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .formula import And, Atom, Falsum, Formula, Implies, Verum
from .normalform import BOT, TOP, TOP_LITERAL, Clause, CnfFormula, to_cnf

__all__ = [
    "Antecedent",
    "Conj",
    "HornFormula",
    "HornImplication",
    "NotHornError",
    "Top",
    "basic_to_implication",
    "horn_from_clauses",
    "horn_from_formula",
    "horn_symbols",
    "horn_to_formula",
    "implication_to_formula",
    "is_basic_horn",
]


class NotHornError(ValueError):
    """Some clause has two or more positive literals."""

    def __init__(self, index: int, clause: Clause):
        self.index = index
        self.clause = clause
        super().__init__(f"clause {index} has more than one positive literal")


@dataclass(frozen=True)
class Top:
    """The verum antecedent of a unit implication."""


@dataclass(frozen=True)
class Conj:
    """A nonempty conjunction of atoms (symbol names, falsum allowed)."""

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.atoms))
        if not deduped:
            raise ValueError("empty antecedent conjunction; use Top() instead")
        if TOP in deduped:
            raise ValueError("verum cannot occur inside an antecedent conjunction")
        object.__setattr__(self, "atoms", deduped)


Antecedent = Union[Top, Conj]


@dataclass(frozen=True)
class HornImplication:
    antecedent: Antecedent
    consequent: str  # symbol name or BOT

    def __post_init__(self) -> None:
        if self.consequent == TOP:
            raise ValueError("consequents are positive literals; verum is not one")


@dataclass(frozen=True)
class HornFormula:
    """An ordered conjunction of implications.

    The empty sequence marks the trivially true formula that remains when
    every clause of the source was dropped as valid.
    """

    implications: tuple[HornImplication, ...]

    @property
    def n(self) -> int:
        return len(self.implications)


def is_basic_horn(clause: Clause) -> bool:
    """True iff at most one literal of the clause occurs positively."""
    return sum(1 for lit in clause.literals if lit.positive) <= 1


def basic_to_implication(clause: Clause) -> HornImplication:
    """Rewrite a basic Horn clause as an implication.

    A single positive literal L becomes ``true -> L``; negatives-only
    clauses become ``conjunction -> false``; negatives plus one positive
    become ``conjunction -> L``.  Clauses containing the verum literal are
    rejected: the caller must drop valid clauses first.  A clause with two
    or more positive literals raises :class:`NotHornError` (index 0).
    """
    if TOP_LITERAL in clause.literals:
        raise ValueError("clause contains the verum literal; drop valid clauses first")
    return horn_from_clauses(CnfFormula((clause,))).implications[0]


# Shared by every unit implication that horn_from_clauses builds.
_TOP = Top()


def _conj(atoms: list[str]) -> Conj:
    """A conjunction built without the constructor's checks, for callers
    that guarantee ``atoms`` is nonempty and free of verum."""
    conj = object.__new__(Conj)
    object.__setattr__(conj, "atoms", tuple(dict.fromkeys(atoms)))
    return conj


def _implication(antecedent: Antecedent, consequent: str) -> HornImplication:
    """An implication built without the constructor's check, for callers
    whose consequent is an atom of a literal and so never verum."""
    implication = object.__new__(HornImplication)
    object.__setattr__(implication, "antecedent", antecedent)
    object.__setattr__(implication, "consequent", consequent)
    return implication


def horn_from_clauses(cnf: CnfFormula) -> HornFormula:
    """Map each clause to an implication, preserving clause order.

    Clauses containing the verum literal are valid conjuncts and are
    dropped first; removal preserves equivalence.  Raises
    :class:`NotHornError` with the position (in ``cnf``) of the first
    clause that has two or more positive literals.

    Each clause is read once: its positive atoms and its negative atoms
    are collected until a verum literal (negative falsum) drops it.
    """
    implications: list[HornImplication] = []
    for index, clause in enumerate(cnf.clauses):
        positives: list[str] = []
        negatives: list[str] = []
        for lit in clause.literals:
            if lit.positive:
                positives.append(lit.atom)
            elif lit.atom == BOT:
                break
            else:
                negatives.append(lit.atom)
        else:
            if len(positives) > 1:
                raise NotHornError(index, clause)
            implications.append(
                _implication(
                    _conj(negatives) if negatives else _TOP,
                    positives[0] if positives else BOT,
                )
            )
    return HornFormula(tuple(implications))


def horn_from_formula(phi: Formula, max_clauses: int | None = None) -> HornFormula:
    """Convert an arbitrary formula: CNF conversion, then clause rewriting."""
    return horn_from_clauses(to_cnf(phi, max_clauses))


def horn_symbols(phi: HornFormula) -> set[str]:
    """Propositional symbol names occurring in ``phi`` (constants excluded)."""
    found = {imp.consequent for imp in phi.implications}
    for imp in phi.implications:
        if isinstance(imp.antecedent, Conj):
            found.update(imp.antecedent.atoms)
    found.discard(BOT)
    return found


def _atom_formula(atom: str) -> Formula:
    return Falsum() if atom == BOT else Atom(atom)


def implication_to_formula(imp: HornImplication) -> Formula:
    if isinstance(imp.antecedent, Top):
        left: Formula = Verum()
    else:
        left = _atom_formula(imp.antecedent.atoms[0])
        for atom in imp.antecedent.atoms[1:]:
            left = And(left, _atom_formula(atom))
    return Implies(left, _atom_formula(imp.consequent))


def horn_to_formula(phi: HornFormula) -> Formula:
    """The formula reading of ``phi``; the empty formula reads as verum."""
    if not phi.implications:
        return Verum()
    result = implication_to_formula(phi.implications[0])
    for imp in phi.implications[1:]:
        result = And(result, implication_to_formula(imp))
    return result
