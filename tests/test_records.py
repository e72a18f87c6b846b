"""The value contract of every public record: slotted, frozen, and equal to
its own copies, replacements and pickles; checked on construction."""

import copy
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
    horn_from_clauses,
    horn_from_formula,
    parse_formula,
    solve,
    to_cnf,
)
from hornsat.formula import FrozenInstanceError, _Binary, _record

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
]


def _id(record):
    return type(record).__name__


def _replace(record, **changes):
    """``record`` built anew from its public fields by keyword, with
    ``changes`` applied."""
    return type(record)(**{name: getattr(record, name) for name in record.__match_args__} | changes)


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_are_frozen(record):
    # Every name, not only the fields: Top's ``atoms`` is a class attribute.
    for name in record._fields + ("atoms", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


def _held_records(record):
    """``record`` and every record among its field values, recursively."""
    yield record
    for name in record._fields:
        value = getattr(record, name)
        if hasattr(value, "_fields"):
            yield from _held_records(value)


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_hold_no_mutable_containers(record):
    for held in _held_records(record):
        for name in held._fields:
            assert not isinstance(getattr(held, name), (list, dict, set)), name


def test_repr_and_hash_read_the_public_fields():
    # The text and hash values the records had as dataclasses; ``_coded``
    # is in neither.
    assert repr(Or(P, Not(Q))) == "Or(left=Atom(name='p'), right=Not(operand=Atom(name='q')))"
    assert repr(to_cnf(parse_formula("p"))) == (
        "CnfFormula(clauses=(Clause(literals=(Literal(atom='p', positive=True),)),))"
    )
    for record in RECORDS:
        assert hash(record) == hash(tuple(getattr(record, name) for name in record.__match_args__))


DUPLICATES = [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))]
DUPLICATE_IDS = ["copy", "deepcopy", "pickle"]


@pytest.mark.parametrize(
    "duplicate",
    [_replace, *DUPLICATES],
    ids=["replace", *DUPLICATE_IDS],
)
@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_records_equal_their_duplicates(record, duplicate):
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("duplicate", DUPLICATES, ids=DUPLICATE_IDS)
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("lazy", ["clauses", "implications"])
def test_code_built_formulas_equal_their_duplicates(lazy, read_first, duplicate):
    # ``to_cnf`` and ``horn_from_clauses`` build their formulas from codes,
    # and ``clauses`` or ``implications`` fills its slot on first read.
    cnf = to_cnf(parse_formula("(p -> q) & ~(q & r) & p & (s | ~s)"))
    formula = cnf if lazy == "clauses" else horn_from_clauses(cnf)
    if read_first:
        getattr(formula, lazy)
    assert _slot_is_set(getattr(type(formula), lazy), formula) == read_first
    twin = duplicate(formula)
    assert type(twin) is type(formula)
    assert twin._coded == formula._coded
    assert twin == formula and hash(twin) == hash(formula)


def _slot_is_set(slot, record):
    """True iff ``slot`` holds a value in ``record``; reading it through its
    descriptor does not reach the record's ``__getattr__``."""
    try:
        slot.__get__(record)
    except AttributeError:
        return False
    return True


def test_keyword_construction():
    assert Literal(atom="p", positive=False) == Literal("p", False)
    assert Literal(atom="p").positive is True
    assert Conj(atoms=("a", "a")).atoms == ("a", "a")
    assert Atom(name="p") == P
    assert Not(operand=P) == Not(P)
    assert Or(left=P, right=Q) == Or(P, Q) != And(P, Q)
    assert Clause(literals=(Literal("p"),)).literals == (Literal("p"),)
    assert HornImplication(antecedent=Top(), consequent="q") == HornImplication(Top(), "q")
    assert _replace(Conj(("a", "b")), atoms=("c", "c")).atoms == ("c", "c")
    assert _replace(Literal("p"), positive=False) == Literal("p", False)


def test_a_default_constructor_takes_each_field_once():
    outcome = type(OUTCOME)(True, frozenset(), steps=1, trace=OUTCOME.trace)
    assert (outcome.satisfiable, outcome.steps, outcome.trace) == (True, 1, OUTCOME.trace)
    for args, kwargs in [
        ((True, frozenset(), OUTCOME.trace), {}),
        ((True, frozenset(), OUTCOME.trace, 1, 2), {}),
        ((True, frozenset(), OUTCOME.trace, 1), {"steps": 1}),
        ((True, frozenset(), OUTCOME.trace), {"steps": 1, "other": 2}),
    ]:
        with pytest.raises(TypeError):
            type(OUTCOME)(*args, **kwargs)
    assert Top() == Top()
    with pytest.raises(TypeError):
        Top(())


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
            lambda: _replace(Literal("p"), atom=TOP),
            "verum is not atomic; use the negative falsum literal",
        ),
    ],
)
def test_checked_constructors_reject_with_their_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
