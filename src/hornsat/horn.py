"""Recognition of basic Horn clauses and their rewriting into implications.

A clause with at most one positive literal can always be written as an
implication whose antecedent is a conjunction of atoms and whose
consequent is a single atom (falsum included on both sides).  Verum is
the empty conjunction: :class:`Top` has no atoms, so every reader takes
an antecedent's ``atoms`` without asking which kind it is.  Antecedents
keep their clause's negative atoms in order, repeats included.  A Horn
formula is an ordered conjunction of such implications.

A :class:`HornFormula` holds its implications as literal codes on a name
table, as a :class:`CnfFormula` holds its clauses, and builds the
:class:`HornImplication` objects only when ``implications`` is read.  A
basic Horn clause already is its implication, so the implication form of
a CNF shares its clauses' codes: a negated code is an antecedent atom,
and every reader skips the positive ones, which are the consequent.
:func:`horn_from_clauses` finds the consequents and the antecedents'
lengths: a parity mask, made in C, marks each literal positive or
negated, and Python code runs once per positive literal.  It copies no
literal unless a clause holds verum.  The readers of the antecedents take
their codes through the same mask, so none makes a Python call per code.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, compress, islice
from struct import Struct

from .formula import And, Formula, Implies, Verum, _join, _record
from .normalform import (
    _BOT_ATOM,
    _TOP_CODE,
    BOT,
    TOP,
    TOP_LITERAL,
    Clause,
    CnfFormula,
    _literal,
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

    atoms = ()  # a class attribute, not a field


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

Antecedent = Top | Conj


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

    ``_coded`` holds them as literal codes on an atom table, where atom 0
    is falsum: the table, each consequent's atom, a run of codes per
    implication end to end, each run's length, and each antecedent's
    length, 0 for :class:`Top`.  A run's negated codes ``2a + 1`` are its
    antecedent's atoms ``a`` in order; a positive code is its consequent,
    which every reader skips.  From :func:`horn_from_clauses` the runs are
    the clauses, in the very tuples of the :class:`CnfFormula`'s codes and
    lengths unless a clause was dropped; encoded from ``implications``, a
    run holds just the antecedent, so the two lengths agree.  The formula
    is built from ``implications``, which it encodes once, or by the
    package's own passes from ``coded``, when ``implications`` is built the
    first time it is read.  Equality, hash, copies and pickles go by
    ``implications``.
    """

    implications: tuple[HornImplication, ...]
    _coded: tuple[tuple, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __init__(
        self, implications: tuple[HornImplication, ...] | None = None, *, coded: tuple | None = None
    ) -> None:
        if coded is None:
            code_of = {BOT: _BOT_ATOM}
            heads = [code_of.setdefault(imp.consequent, len(code_of)) for imp in implications]
            codes = [
                2 * code_of.setdefault(atom, len(code_of)) + 1
                for imp in implications
                for atom in imp.antecedent.atoms
            ]
            sizes = tuple(len(imp.antecedent.atoms) for imp in implications)
            coded = tuple(code_of), tuple(heads), tuple(codes), sizes, sizes
            _set_implications(self, implications)
        _set_horn_coded(self, coded)

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``implications`` of a formula
        # built from codes, until it is first read.
        if name != "implications":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names, heads, codes, _, sizes = self._coded
        atom, body = _by_code(names).__getitem__, _negated(codes)
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


def _by_code(names: tuple[str, ...], negation: str = "") -> list[str]:
    """``names`` indexed by literal code: each atom's name at its positive
    code, and after ``negation`` at its negated code."""
    by_code = [*names, *names]
    by_code[::2] = names
    by_code[1::2] = map(negation.__add__, names) if negation else names
    return by_code


def _negated(codes: tuple[int, ...]) -> Iterator[int]:
    """The negated codes of ``codes``, in order: the antecedents' atoms, as
    codes, end to end, selected by the parity mask."""
    return compress(codes, _low_bytes(codes).translate(_PARITY))


# A byte table for ``bytes.translate``: a low byte's parity, 1 for a
# negated literal.
_PARITY = bytes(range(2)) * 128


def _low_bytes(codes: tuple[int, ...]) -> bytes:
    """The low byte of each code, in order."""
    # A bound ``pack`` takes the codes tuple as it is; ``struct.pack(format,
    # *codes)`` copies it into a new argument tuple first, and its cache of
    # compiled formats would keep one for each length it meets.
    return Struct(f"<{len(codes)}I").pack(*codes)[::4]


def horn_from_clauses(cnf: CnfFormula) -> HornFormula:
    """Map each clause to an implication, preserving clause order.

    Clauses containing the verum literal are valid conjuncts and are
    dropped first; removal preserves equivalence.  Raises
    :class:`NotHornError` with the position (in ``cnf``) of the first
    clause that has two or more distinct positive literals; a repeated
    positive literal counts once, as it does in :func:`to_cnf`.

    Each clause is read as its implication, on the same atom table and
    from the same codes: its negated atoms are the antecedent as they are,
    repeats included, and its positive atom, or falsum, is the consequent.
    So only the consequents and the antecedents' lengths are new.

    A code's parity is its low byte's, so the low bytes through a parity
    table make a mask, in C: 0 for a positive literal, 1 for a negated
    one.  Python code runs once per positive literal, found with ``find``:
    a walk over the clause lengths reaches its clause, whose first positive
    code is its head, and each positive occurrence shortens the antecedent
    by one.  Dropping the verum clauses is the only copy of the codes.
    """
    names, codes, spans = cnf._coded
    low = _low_bytes(codes)
    positions = range(len(spans))  # each clause's index in ``cnf``
    # A low byte is 1 only for the codes 256k + 1, so the first test, one
    # ``memchr``, clears most inputs without verum before a scan of the codes.
    if _TOP_CODE in low and _TOP_CODE in codes:
        literals = iter(codes)
        clauses = [tuple(islice(literals, span)) for span in spans]
        positions = [index for index, clause in enumerate(clauses) if _TOP_CODE not in clause]
        codes = tuple(chain.from_iterable(clauses[index] for index in positions))
        spans = tuple(spans[index] for index in positions)
        low = _low_bytes(codes)
    heads = [_BOT_ATOM] * len(spans)
    sizes = list(spans)
    index, end, last = -1, 0, -1  # ``last``: the clause whose head is set
    find = low.translate(_PARITY).find
    at = find(0)
    while at >= 0:
        while end <= at:
            index += 1
            end += spans[index]
        code = codes[at]
        if index != last:
            last, head = index, code
            heads[index] = code >> 1
        elif code != head:
            literals = tuple(_literal(names, code) for code in codes[end - spans[index] : end])
            raise NotHornError(positions[index], Clause(literals))
        sizes[index] -= 1
        at = find(0, at + 1)
    return HornFormula(coded=(names, tuple(heads), codes, spans, tuple(sizes)))


def horn_from_formula(phi: Formula, max_clauses: int | None = None) -> HornFormula:
    """Convert an arbitrary formula: CNF conversion, then clause rewriting."""
    return horn_from_clauses(to_cnf(phi, max_clauses))


def implication_to_formula(imp: HornImplication) -> Formula:
    left = _join(And, map(_token_formula, imp.antecedent.atoms), Verum())
    return Implies(left, _token_formula(imp.consequent))


def horn_to_formula(phi: HornFormula) -> Formula:
    """The formula reading of ``phi``; the empty formula reads as verum."""
    return _join(And, map(implication_to_formula, phi.implications), Verum())
