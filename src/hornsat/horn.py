"""Recognition of basic Horn clauses and their rewriting into implications.

A clause with at most one positive literal can always be written as an
implication whose antecedent is a conjunction of atoms and whose
consequent is a single atom (falsum included on both sides).  Verum is
the empty conjunction: :class:`Top` has no atoms, so every reader takes
an antecedent's ``atoms`` without asking which kind it is.  Antecedents
keep their clause's negative atoms in order, repeats included.  A Horn
formula is an ordered conjunction of such implications.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, Union

from .formula import And, Formula, Implies, Verum, _join, _record
from .normalform import BOT, TOP, TOP_LITERAL, Clause, CnfFormula, _token_formula, to_cnf

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
    """Some clause has two or more distinct positive literals."""

    def __init__(self, index: int, clause: Clause):
        self.index = index
        self.clause = clause
        super().__init__(f"clause {index} has more than one positive literal")


@_record
class Top:
    """The verum antecedent of a unit implication: the empty conjunction."""

    atoms: ClassVar[tuple[str, ...]] = ()


@_record
class Conj:
    """A nonempty conjunction of atoms (names or falsum), repeats kept."""

    atoms: tuple[str, ...]

    def __init__(self, atoms: Iterable[str]) -> None:
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("empty antecedent conjunction; use Top() instead")
        if TOP in atoms:
            raise ValueError("verum cannot occur inside an antecedent conjunction")
        _set_conj_atoms(self, atoms)


_set_conj_atoms = Conj.atoms.__set__

Antecedent = Union[Top, Conj]


@_record
class HornImplication:
    antecedent: Antecedent
    consequent: str  # symbol name or BOT

    def __init__(self, antecedent: Antecedent, consequent: str) -> None:
        if consequent == TOP:
            raise ValueError("consequents are positive literals; verum is not one")
        _set_antecedent(self, antecedent)
        _set_consequent(self, consequent)


_set_antecedent = HornImplication.antecedent.__set__
_set_consequent = HornImplication.consequent.__set__


@_record
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
    """True iff at most one atom of the clause occurs positively; a
    repeated positive literal counts once."""
    return len({lit.atom for lit in clause.literals if lit.positive}) <= 1


def basic_to_implication(clause: Clause) -> HornImplication:
    """Rewrite a basic Horn clause as an implication.

    A single positive literal L becomes ``true -> L``; negatives-only
    clauses become ``conjunction -> false``; negatives plus one positive
    become ``conjunction -> L``.  Clauses containing the verum literal are
    rejected: the caller must drop valid clauses first.  A clause with two
    or more distinct positive literals raises :class:`NotHornError`
    (index 0).
    """
    if TOP_LITERAL in clause.literals:
        raise ValueError("clause contains the verum literal; drop valid clauses first")
    return horn_from_clauses(CnfFormula((clause,))).implications[0]


# Shared by every unit implication that horn_from_clauses builds.
_TOP = Top()


def horn_from_clauses(cnf: CnfFormula) -> HornFormula:
    """Map each clause to an implication, preserving clause order.

    Clauses containing the verum literal are valid conjuncts and are
    dropped first; removal preserves equivalence.  Raises
    :class:`NotHornError` with the position (in ``cnf``) of the first
    clause that has two or more distinct positive literals; a repeated
    positive literal counts once, as it does in :func:`to_cnf`.

    Each clause is read once and its negative atoms are taken as they are,
    repeats included: its positive and negative atoms are collected until
    a verum literal drops it.
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
            if len(positives) > 1 and len(set(positives)) > 1:
                raise NotHornError(index, clause)
            implications.append(
                HornImplication(
                    Conj(negatives) if negatives else _TOP,
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
        found.update(imp.antecedent.atoms)
    found.discard(BOT)
    return found


def implication_to_formula(imp: HornImplication) -> Formula:
    left = _join(And, map(_token_formula, imp.antecedent.atoms), Verum())
    return Implies(left, _token_formula(imp.consequent))


def horn_to_formula(phi: HornFormula) -> Formula:
    """The formula reading of ``phi``; the empty formula reads as verum."""
    return _join(And, map(implication_to_formula, phi.implications), Verum())
