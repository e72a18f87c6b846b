"""Basic-Horn recognition and clause-to-implication rewriting."""

import dataclasses
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hornsat import (
    BOT,
    TOP,
    Atom,
    Clause,
    CnfFormula,
    Conj,
    HornFormula,
    HornImplication,
    Implies,
    Literal,
    NotHornError,
    Top,
    Verum,
    basic_to_implication,
    equivalent,
    horn_from_clauses,
    horn_from_formula,
    horn_symbols,
    horn_to_formula,
    implication_to_formula,
    is_basic_horn,
    parse_dimacs,
    parse_formula,
)
from hornsat.cli import _implication_lines

from helpers import (
    GOLDEN_SHORT,
    GOLDEN_UNSAT,
    SAT_CHAIN_TEXT,
    UNSAT_CHAIN_TEXT,
    UNSAT_SHORT_TEXT,
    clause,
    formula_strategy,
    outcome,
    random_cnf,
    random_dimacs_text,
    reference_basic_to_implication,
    reference_horn_from_clauses,
    rule,
    unit,
)


def test_basic_horn_recognition():
    assert is_basic_horn(clause("bot"))
    assert is_basic_horn(clause("p", "~q"))
    assert is_basic_horn(clause("~p", "~q"))
    assert not is_basic_horn(clause("bot", "p"))
    assert not is_basic_horn(clause("p", "q"))


def test_unit_clause_rewrites_to_unit_implication():
    assert basic_to_implication(clause("p")) == unit("p")


def test_all_negative_clause_targets_falsum():
    assert basic_to_implication(clause("~r", "~s")) == rule(("r", "s"), BOT)


def test_mixed_clause_keeps_positive_as_consequent():
    assert basic_to_implication(clause("r", "~p", "~q")) == rule(("p", "q"), "r")


def test_falsum_only_clause_becomes_unit():
    assert basic_to_implication(clause("bot")) == unit(BOT)


def test_verum_literal_rejected():
    with pytest.raises(ValueError):
        basic_to_implication(clause("top", "p"))


_CLAUSES = st.lists(
    st.sampled_from(("p", "~p", "q", "~q", "bot", "top")), min_size=1, max_size=4
).map(lambda texts: clause(*texts))


@given(_CLAUSES)
@example(clause("bot"))
@example(clause("top"))
@example(clause("~p", "~p", "q", "q"))
@example(clause("p", "q"))
@example(clause("bot", "p"))
def test_basic_to_implication_matches_reference(basic):
    try:
        expected = reference_basic_to_implication(basic)
    except ValueError:
        with pytest.raises(ValueError):
            basic_to_implication(basic)
    else:
        assert basic_to_implication(basic) == expected


def test_benchmark_conversion():
    assert horn_from_formula(parse_formula(UNSAT_CHAIN_TEXT)) == GOLDEN_UNSAT


def test_short_benchmark_conversion():
    assert horn_from_formula(parse_formula(UNSAT_SHORT_TEXT)) == GOLDEN_SHORT


def test_non_horn_reports_first_offending_clause():
    with pytest.raises(NotHornError) as excinfo:
        horn_from_formula(parse_formula("p | q"))
    assert excinfo.value.index == 0

    with pytest.raises(NotHornError) as excinfo:
        horn_from_formula(parse_formula("p & (q | r)"))
    assert excinfo.value.index == 1


def test_repeated_positive_literal_counts_once():
    doubled = Clause((Literal("p"), Literal("p")))
    assert is_basic_horn(doubled)
    assert horn_from_clauses(_cnf(doubled)) == horn_from_formula(parse_formula("p | p"))
    assert horn_from_clauses(_cnf(doubled)).implications == (unit("p"),)
    assert basic_to_implication(clause("~q", "p", "~r", "p")) == rule(("q", "r"), "p")
    assert not is_basic_horn(clause("p", "p", "q"))
    with pytest.raises(NotHornError) as excinfo:
        horn_from_clauses(_cnf(clause("q"), doubled, clause("p", "~r", "p", "q")))
    assert excinfo.value.index == 2
    assert str(excinfo.value) == "clause 2 has more than one positive literal"


def test_all_clauses_dropped_yields_trivially_true():
    horn = horn_from_formula(parse_formula("true & (p | true)"))
    assert horn.n == 0
    assert horn_to_formula(horn) == Verum()


def test_order_is_preserved():
    horn = horn_from_formula(parse_formula("(~p | q) & r & (~q | ~r)"))
    assert horn.implications == (rule(("p",), "q"), unit("r"), rule(("q", "r"), BOT))


def test_conj_keeps_repeats_and_rejects_verum():
    assert Conj(("p", "p", "q")).atoms == ("p", "p", "q")
    with pytest.raises(ValueError):
        Conj(())
    with pytest.raises(ValueError):
        Conj((TOP,))


_ATOM_NAMES = st.sampled_from(("p", "q", "r", BOT))


@given(st.one_of(st.lists(_ATOM_NAMES, min_size=1), st.lists(_ATOM_NAMES, min_size=1, unique=True)))
def test_conj_keeps_its_atoms_as_given(atoms):
    assert Conj(atoms).atoms == tuple(atoms)


@given(st.lists(_ATOM_NAMES), st.data())
def test_conj_rejects_empty_and_verum_input(atoms, data):
    if not atoms:
        with pytest.raises(ValueError, match=r"^empty antecedent conjunction; use Top\(\) instead$"):
            Conj(atoms)
    atoms.insert(data.draw(st.integers(0, len(atoms))), TOP)
    with pytest.raises(ValueError, match="^verum cannot occur inside an antecedent conjunction$"):
        Conj(atoms)


def test_consequent_must_be_positive():
    with pytest.raises(ValueError):
        HornImplication(Top(), TOP)


def test_top_is_a_fieldless_empty_conjunction():
    # ``atoms`` is a class attribute, so Top keeps no fields and compares,
    # hashes and prints as before.
    assert dataclasses.fields(Top()) == ()
    assert Top() == Top() and hash(Top()) == hash(Top())
    assert repr(Top()) == "Top()"
    assert Top().atoms == ()
    assert list(_implication_lines(HornFormula((unit("p"),)))) == ["top -> p"]
    assert implication_to_formula(unit("p")) == Implies(Verum(), Atom("p"))


def test_horn_symbols():
    assert horn_symbols(GOLDEN_UNSAT) == {"p", "q", "r", "s"}
    assert horn_symbols(HornFormula((rule((BOT, "a"), BOT),))) == {"a"}


def test_horn_readback_matches_source():
    phi = parse_formula(SAT_CHAIN_TEXT)
    assert equivalent(horn_to_formula(horn_from_formula(phi)), phi)


@given(formula_strategy(max_leaves=8))
def test_conversion_preserves_equivalence_when_it_succeeds(phi):
    try:
        horn = horn_from_formula(phi)
    except NotHornError:
        return
    assert equivalent(horn_to_formula(horn), phi)


def _all_basic_clauses(names=("p", "q", "r"), max_len=3):
    literals = [
        Literal(atom, positive)
        for atom in list(names) + [BOT]
        for positive in (True, False)
    ]
    literals = [l for l in literals if not (l.atom == BOT and not l.positive)]
    for length in (1, 2, max_len):
        for combo in itertools.product(literals, repeat=length):
            candidate = Clause(combo)
            if is_basic_horn(candidate):
                yield candidate


def test_rewrite_is_equivalent_for_all_small_clauses():
    checked = 0
    for basic in _all_basic_clauses():
        imp = basic_to_implication(basic)
        assert equivalent(basic.to_formula(), implication_to_formula(imp))
        checked += 1
    assert checked > 100


def test_implication_merge_law():
    # (a -> c) | (b -> c) has the same truth table as (a & b) -> c
    for a, b, c in itertools.product("pqr", repeat=3):
        split = parse_formula(f"({a} -> {c}) | ({b} -> {c})")
        merged = parse_formula(f"({a} & {b}) -> {c}")
        assert equivalent(split, merged)


_LITERALS = st.builds(Literal, st.sampled_from(("p", "q", "r", BOT)), st.booleans())
_CNFS = st.lists(st.lists(_LITERALS, min_size=1, max_size=4), max_size=5).map(
    lambda clauses: CnfFormula(tuple(Clause(tuple(literals)) for literals in clauses))
)


def _cnf(*clauses):
    return CnfFormula(tuple(clauses))


@given(_CNFS)
@example(_cnf())
@example(_cnf(clause("top", "p", "q")))
@example(_cnf(clause("p", "top", "q")))
@example(_cnf(clause("p", "q", "top")))
@example(_cnf(clause("p"), clause("bot", "p")))
@example(_cnf(clause("bot"), clause("~bot", "~p")))
@example(_cnf(clause("~p", "q", "~p", "~r", "~q")))
@example(_cnf(clause("q", "~p", "q"), clause("p", "p", "q")))
def test_horn_from_clauses_matches_reference(cnf):
    assert outcome(horn_from_clauses, cnf) == outcome(reference_horn_from_clauses, cnf)


def test_horn_from_clauses_matches_reference_on_seeded_inputs():
    rng = random.Random(6)
    for _ in range(1_000):
        cnf = random_cnf(rng)
        assert outcome(horn_from_clauses, cnf) == outcome(reference_horn_from_clauses, cnf)
        parsed = outcome(parse_dimacs, random_dimacs_text(rng))
        if parsed[0] == "returned":
            cnf = parsed[1]
            assert outcome(horn_from_clauses, cnf) == outcome(reference_horn_from_clauses, cnf)
