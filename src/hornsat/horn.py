"""Recognition of basic Horn clauses and their rewriting into implications.

A clause with at most one positive literal can always be written as an
implication whose antecedent is a conjunction of atoms and whose
consequent is a single atom (falsum included on both sides).  Verum is
the empty conjunction: :class:`Top` has no atoms, so every reader takes
an antecedent's ``atoms`` without asking which kind it is.  Antecedents
keep their clause's negative atoms in order, repeats included.  A Horn
formula is an ordered conjunction of such implications.

A :class:`HornFormula` holds its implications as atom codes on a name
table, as a :class:`CnfFormula` holds its clauses, and builds the
:class:`HornImplication` objects only when ``implications`` is read;
:func:`horn_from_clauses` reads clause codes and writes implication codes.
"""

from __future__ import annotations

from dataclasses import field
from itertools import islice
from typing import ClassVar, Iterable, Union

from .formula import And, Formula, Implies, Verum, _join, _record
from .normalform import (
    _BOT_ATOM,
    _TOP_CODE,
    BOT,
    TOP,
    TOP_LITERAL,
    Clause,
    CnfFormula,
    _token_formula,
    to_cnf,
)

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

    ``_coded`` holds them as codes on an atom table, where atom 0 is
    falsum: the table, each consequent's atom, the antecedents' atoms end
    to end, and each antecedent's length, 0 for :class:`Top`.  The formula
    is built from ``implications``, which it encodes once, or by the
    package's own passes from ``coded``, when ``implications`` is built the
    first time it is read.  Equality, hash, copies and pickles go by
    ``implications``.
    """

    implications: tuple[HornImplication, ...]
    _coded: tuple[tuple, tuple[int, ...], tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __init__(
        self, implications: tuple[HornImplication, ...] | None = None, *, coded: tuple | None = None
    ) -> None:
        if coded is None:
            code_of = {BOT: _BOT_ATOM}
            heads = [code_of.setdefault(imp.consequent, len(code_of)) for imp in implications]
            body = [
                code_of.setdefault(atom, len(code_of))
                for imp in implications
                for atom in imp.antecedent.atoms
            ]
            sizes = tuple(len(imp.antecedent.atoms) for imp in implications)
            coded = tuple(code_of), tuple(heads), tuple(body), sizes
            _set_implications(self, implications)
        _set_horn_coded(self, coded)

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``implications`` of a formula
        # built from codes, until it is first read.
        if name != "implications":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names, heads, body, sizes = self._coded
        atom, body = names.__getitem__, iter(body)
        implications = tuple(
            HornImplication(Conj(map(atom, islice(body, size))) if size else _TOP, names[head])
            for head, size in zip(heads, sizes)
        )
        _set_implications(self, implications)
        return implications

    @property
    def n(self) -> int:
        return len(self._coded[1])  # the consequents


_set_implications = HornFormula.implications.__set__
_set_horn_coded = HornFormula._coded.__set__


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


# Shared by every unit implication built from codes.
_TOP = Top()


def horn_from_clauses(cnf: CnfFormula) -> HornFormula:
    """Map each clause to an implication, preserving clause order.

    Clauses containing the verum literal are valid conjuncts and are
    dropped first; removal preserves equivalence.  Raises
    :class:`NotHornError` with the position (in ``cnf``) of the first
    clause that has two or more distinct positive literals; a repeated
    positive literal counts once, as it does in :func:`to_cnf`.

    Clause codes become implication codes on the same atom table: a
    clause's negative atoms are its antecedent as they are, repeats
    included, and its positive atom, or falsum, is the consequent.
    """
    names, codes, clause_sizes = cnf._coded
    heads: list[int] = []
    sizes: list[int] = []
    dropped: list[tuple[int, int]] = []  # where the clauses dropped as valid lie
    end = 0
    for index, size in enumerate(clause_sizes):
        start, end = end, end + size
        clause = codes[start:end]
        if _TOP_CODE in clause:
            dropped.append((start, end))
            continue
        head = -1  # the positive literal's code, once one is read
        positives = 0
        for code in clause:
            if not code & 1:
                positives += 1
                if head < 0:
                    head = code
                elif code != head:
                    raise NotHornError(index, cnf._clause(index))
        heads.append(head >> 1 if head > 0 else _BOT_ATOM)
        sizes.append(size - positives)
    if dropped:
        codes = list(codes)
        for start, end in dropped:
            codes[start:end] = bytes(end - start)  # even codes: no negative literal
    # The antecedents, end to end, in one pass: a list grown atom by atom
    # and then copied left the formula_cnf benchmark's peak RSS 8% higher.
    body = tuple(code >> 1 for code in codes if code & 1)
    return HornFormula(coded=(names, tuple(heads), body, tuple(sizes)))


def horn_from_formula(phi: Formula, max_clauses: int | None = None) -> HornFormula:
    """Convert an arbitrary formula: CNF conversion, then clause rewriting."""
    return horn_from_clauses(to_cnf(phi, max_clauses))


def horn_symbols(phi: HornFormula) -> set[str]:
    """Propositional symbol names occurring in ``phi`` (constants excluded)."""
    names, heads, body, _ = phi._coded
    atoms = set(heads)
    atoms.update(body)
    atoms.discard(_BOT_ATOM)
    return set(map(names.__getitem__, atoms))


def implication_to_formula(imp: HornImplication) -> Formula:
    left = _join(And, map(_token_formula, imp.antecedent.atoms), Verum())
    return Implies(left, _token_formula(imp.consequent))


def horn_to_formula(phi: HornFormula) -> Formula:
    """The formula reading of ``phi``; the empty formula reads as verum."""
    return _join(And, map(implication_to_formula, phi.implications), Verum())
