"""Formula core: symbol collection, evaluation, desugaring."""

import pytest
from hypothesis import given

from hornsat import (
    And,
    Atom,
    Falsum,
    Iff,
    Implies,
    Not,
    Or,
    Verum,
    classify,
    enumerate_valuations,
    equivalent,
    evaluate,
    models,
    parse_formula,
    satisfies,
    symbols,
)

from helpers import SAT_CHAIN_TEXT, UNSAT_CHAIN_TEXT, desugar, formula_strategy


def test_symbols_of_constants():
    assert symbols(Falsum()) == set()
    assert symbols(Verum()) == set()


def test_symbols_of_benchmark_formula():
    assert symbols(parse_formula(UNSAT_CHAIN_TEXT)) == {"p", "q", "r", "s"}


def test_symbols_of_implication():
    assert symbols(Implies(Atom("p"), Atom("q"))) == {"p", "q"}


class _NamedAtom(Atom):
    pass


# Every walker dispatches on the exact type, as ``to_cnf`` does: a subclass
# of a record, or any other object, is not a formula.
def test_non_formulas_raise():
    for phi in (And(Atom("p"), object()), _NamedAtom("p")):
        for call in (
            lambda: symbols(phi),
            lambda: evaluate(phi, {"p": 1}),
            lambda: classify(phi),
            lambda: equivalent(phi, Atom("p")),
            lambda: models(phi),
        ):
            with pytest.raises(TypeError, match="not a formula"):
                call()


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("1x")
    with pytest.raises(ValueError):
        Atom("top")


def test_desugar_verum():
    assert desugar(Verum()) == Implies(Falsum(), Falsum())


def test_desugar_disjunction():
    assert desugar(Or(Atom("p"), Atom("q"))) == Implies(
        Implies(Atom("p"), Falsum()), Atom("q")
    )


def test_desugar_conjunction_preserves_evaluation():
    phi = And(Atom("p"), Atom("q"))
    core = desugar(phi)
    for valuation in enumerate_valuations({"p", "q"}):
        assert evaluate(phi, valuation) == evaluate(core, valuation)


def test_evaluate_falsum_is_zero():
    assert evaluate(Falsum(), {}) == 0
    assert evaluate(Falsum(), {"p": 1}) == 0
    assert evaluate(Implies(Verum(), Falsum()), {}) == 0
    assert evaluate(Not(Verum()), {}) == 0
    assert evaluate(Iff(Falsum(), Falsum()), {}) == 1


def test_evaluate_negation_via_implication():
    assert evaluate(Implies(Atom("p"), Falsum()), {"p": 1}) == 0


def test_evaluate_benchmark_model():
    phi = parse_formula(SAT_CHAIN_TEXT)
    assert evaluate(phi, {"p": 1, "q": 0, "r": 0, "s": 0}) == 1


def test_unmapped_symbols_read_as_zero():
    assert evaluate(Atom("p"), {}) == 0
    assert evaluate(Not(Atom("p")), {}) == 1


@pytest.mark.parametrize(
    "text, expected",
    [
        ("p | q", [0, 1, 1, 1]),
        ("p & q", [0, 0, 0, 1]),
        ("p -> q", [1, 1, 0, 1]),
        ("p <-> q", [1, 0, 0, 1]),
        ("~p", [1, 0]),
    ],
)
def test_connective_truth_tables(text, expected):
    phi = parse_formula(text)
    rows = [evaluate(phi, valuation) for valuation in enumerate_valuations(symbols(phi))]
    assert rows == expected


def test_satisfies():
    assert satisfies({}, Verum())
    assert not satisfies({}, Falsum())
    assert satisfies({}, Not(Falsum()))
    assert not satisfies({}, Not(Verum()))
    assert satisfies({"p": 1}, parse_formula(SAT_CHAIN_TEXT))


@given(formula_strategy())
def test_desugar_preserves_evaluation(phi):
    core = desugar(phi)
    for valuation in enumerate_valuations(symbols(phi)):
        assert evaluate(phi, valuation) == evaluate(core, valuation)


@given(formula_strategy())
def test_desugar_preserves_symbols(phi):
    assert symbols(desugar(phi)) == symbols(phi)
