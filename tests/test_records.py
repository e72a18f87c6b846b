"""The value contract of every public record: slotted, frozen, and equal to
its own copies, replacements and pickles; checked on construction."""

import copy
import dataclasses
import pickle

import pytest

from hornsat import (
    BOT,
    TOP,
    And,
    Atom,
    Clause,
    CnfFormula,
    Conj,
    Falsum,
    HornFormula,
    HornImplication,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Top,
    Verum,
    horn_from_formula,
    parse_formula,
    solve,
)
from hornsat.cli import TraceDocument, build_trace_document
from hornsat.formula import _Binary, _record

from helpers import UNSAT_CHAIN_TEXT

P, Q = Atom("p"), Atom("q")
CLAUSE = Clause((Literal("p", positive=False), Literal("q")))
IMPLICATION = HornImplication(Conj(("p", "r")), "q")
HORN = horn_from_formula(parse_formula(UNSAT_CHAIN_TEXT))
OUTCOME = solve(HORN)

RECORDS = [
    Falsum(),
    Verum(),
    P,
    Not(P),
    Or(P, Q),
    And(P, Not(Q)),
    Implies(P, Falsum()),
    Iff(Verum(), Q),
    Literal(BOT, positive=False),
    CLAUSE,
    CnfFormula((CLAUSE, Clause((Literal("p"),)))),
    Top(),
    Conj(("p", "q")),
    HornImplication(Top(), BOT),
    IMPLICATION,
    HornFormula((IMPLICATION,)),
    OUTCOME,
    # Unsatisfiable, so ``model`` is None and the document hashes.
    build_trace_document(UNSAT_CHAIN_TEXT, HORN, OUTCOME, None, None),
]


def _id(record):
    return type(record).__name__


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_are_frozen(record):
    # Every name, not only the fields: Top's ``atoms`` is a class attribute.
    for name in [field.name for field in dataclasses.fields(record)] + ["atoms", "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


def _held_records(record):
    """``record`` and every record among its field values, recursively."""
    yield record
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if dataclasses.is_dataclass(value):
            yield from _held_records(value)


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_hold_no_mutable_containers(record):
    for held in _held_records(record):
        for field in dataclasses.fields(held):
            # A trace document's model is a documented dict.
            if (type(held), field.name) != (TraceDocument, "model"):
                assert not isinstance(getattr(held, field.name), (list, dict, set)), field.name


@pytest.mark.parametrize(
    "duplicate",
    [dataclasses.replace, copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["replace", "copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_equal_their_duplicates(record, duplicate):
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)


def test_keyword_construction():
    assert Literal(atom="p", positive=False) == Literal("p", False)
    assert Literal(atom="p").positive is True
    assert Conj(atoms=("a", "a")).atoms == ("a", "a")
    assert Atom(name="p") == P
    assert Not(operand=P) == Not(P)
    assert Or(left=P, right=Q) == Or(P, Q) != And(P, Q)
    assert Clause(literals=(Literal("p"),)).literals == (Literal("p"),)
    assert HornImplication(antecedent=Top(), consequent="q") == HornImplication(Top(), "q")
    assert dataclasses.replace(Conj(("a", "b")), atoms=("c", "c")).atoms == ("c", "c")
    assert dataclasses.replace(Literal("p"), positive=False) == Literal("p", False)


def test_a_record_keeps_only_a_written_constructor():
    # Or takes the one _Binary writes; a record over a base whose
    # constructor dataclass generated gets one that sets its own fields too.
    assert "__init__" not in vars(Or) and "__init__" in vars(_Binary)

    @_record
    class Base:
        a: int

    @_record
    class Sub(Base):
        b: int

    assert (Sub(1, 2).a, Sub(1, 2).b) == (1, 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Atom("1x"), "invalid atom name '1x'"),
        (lambda: Atom(""), "invalid atom name ''"),
        (lambda: Atom("top"), "'top' is a reserved constant, not an atom name"),
        (lambda: Literal(TOP), "verum is not atomic; use the negative falsum literal"),
        (lambda: Literal(""), "literal atom must be nonempty"),
        (lambda: Clause(()), "clauses are nonempty; the empty clause is (bot)"),
        (lambda: Conj(()), "empty antecedent conjunction; use Top() instead"),
        (lambda: Conj(("p", TOP)), "verum cannot occur inside an antecedent conjunction"),
        (lambda: HornImplication(Top(), TOP), "consequents are positive literals; verum is not one"),
        (
            lambda: dataclasses.replace(Literal("p"), atom=TOP),
            "verum is not atomic; use the negative falsum literal",
        ),
    ],
)
def test_checked_constructors_reject_with_their_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
