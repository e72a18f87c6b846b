"""Truth-table oracle: enumeration, classification, consequence, models."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given

from hornsat import (
    And,
    Atom,
    Classification,
    Falsum,
    Iff,
    Implies,
    Not,
    Or,
    SymbolCapError,
    Verum,
    classify,
    enumerate_valuations,
    equivalent,
    models,
    parse_formula,
    symbols,
    to_cnf,
)

from hornsat.cli import cli_main

from helpers import (
    SAT_CHAIN_TEXT,
    UNSAT_CHAIN_TEXT,
    desugar,
    formula_strategy,
    random_formula,
    reference_classify,
    reference_equivalent,
    reference_models,
    reference_semantic_consequence,
    semantic_consequence,
)


def test_enumerate_valuations_empty():
    assert enumerate_valuations(set()) == [{}]


def test_enumerate_valuations_single():
    assert enumerate_valuations({"p"}) == [{"p": 0}, {"p": 1}]


def test_enumerate_valuations_counts_in_binary_over_sorted_names():
    assert enumerate_valuations({"q", "p"}) == [
        {"p": 0, "q": 0},
        {"p": 0, "q": 1},
        {"p": 1, "q": 0},
        {"p": 1, "q": 1},
    ]


def test_symbol_cap():
    assert len(enumerate_valuations({f"v{i}" for i in range(4)}, cap=4)) == 16
    with pytest.raises(SymbolCapError):
        enumerate_valuations({f"v{i}" for i in range(21)})
    with pytest.raises(SymbolCapError):
        classify(parse_formula(" | ".join(f"v{i}" for i in range(25))))


def test_classify():
    assert classify(Verum()) is Classification.VALID
    assert classify(Not(Verum())) is Classification.CONTRADICTORY
    assert classify(Iff(Falsum(), Falsum())) is Classification.VALID
    assert classify(parse_formula(UNSAT_CHAIN_TEXT)) is Classification.CONTRADICTORY
    assert classify(parse_formula(SAT_CHAIN_TEXT)) is Classification.SATISFIABLE


def test_semantic_consequence():
    p, q = Atom("p"), Atom("q")
    assert semantic_consequence([Falsum()], parse_formula("p & ~q"))
    assert semantic_consequence([And(p, q)], p)
    assert semantic_consequence([And(p, q)], q)
    assert not semantic_consequence([p], q)


def test_equivalent():
    assert equivalent(Atom("p"), parse_formula("true -> p"))
    assert equivalent(parse_formula("~p | ~q"), parse_formula("(p & q) -> false"))
    assert not equivalent(Atom("p"), Atom("q"))
    assert equivalent(Not(Not(Atom("p"))), Atom("p"))


def test_models():
    assert models(Falsum()) == []
    assert models(Verum()) == models(Not(Falsum())) == [{}]
    assert models(Atom("p")) == [{"p": 1}]
    assert {"p": 1, "q": 0, "r": 0, "s": 0} in models(parse_formula(SAT_CHAIN_TEXT))


@given(formula_strategy())
def test_negation_swaps_valid_and_contradictory(phi):
    verdict = classify(phi)
    negated = classify(Not(phi))
    assert (verdict is Classification.CONTRADICTORY) == (negated is Classification.VALID)
    assert (verdict is Classification.VALID) == (negated is Classification.CONTRADICTORY)


@given(formula_strategy(max_leaves=6), formula_strategy(max_leaves=6))
def test_consequence_matches_implication_validity(premise, phi):
    expected = classify(Implies(premise, phi)) is Classification.VALID
    assert semantic_consequence([premise], phi) == expected


@given(formula_strategy(max_leaves=6))
def test_equivalent_relation_properties(phi):
    core = desugar(phi)
    conjunctive = to_cnf(phi).to_formula()
    assert equivalent(phi, phi)
    assert equivalent(phi, core) and equivalent(core, phi)
    assert equivalent(core, conjunctive) and equivalent(phi, conjunctive)


@given(formula_strategy(max_leaves=5), formula_strategy(max_leaves=5))
def test_equivalent_is_a_congruence(phi, other):
    rewritten = desugar(phi)
    assert equivalent(phi, rewritten)
    assert equivalent(Not(phi), Not(rewritten))
    for connective in (And, Or, Implies):
        assert equivalent(connective(phi, other), connective(rewritten, other))
        assert equivalent(connective(other, phi), connective(other, rewritten))


def _assert_matches_reference(phi, other, premise):
    assert classify(phi) is reference_classify(phi)
    assert [list(m.items()) for m in models(phi)] == [
        list(m.items()) for m in reference_models(phi)
    ]
    for psi in (other, desugar(phi)):
        assert equivalent(phi, psi) == reference_equivalent(phi, psi)
    for premises in ([], [premise], [premise, other]):
        assert semantic_consequence(premises, phi) == reference_semantic_consequence(
            premises, phi
        )


# The premise draws on symbols ``phi`` lacks, so the consequence table
# spans more symbols than ``phi``'s own.
@given(
    formula_strategy(),
    formula_strategy(max_leaves=6),
    formula_strategy(names=("r", "s", "t", "u"), max_leaves=6),
)
def test_oracle_matches_per_row_reference(phi, other, premise):
    _assert_matches_reference(phi, other, premise)


def test_oracle_matches_per_row_reference_on_seeded_formulas():
    rng = random.Random(4)
    for _ in range(1000):
        names = [f"x{i}" for i in range(rng.randint(1, 10))]
        own = names[: max(1, len(names) - 2)]
        phi = random_formula(rng, own, depth=rng.randint(0, 5))
        other = random_formula(rng, own, depth=rng.randint(0, 3))
        premise = random_formula(rng, names, depth=rng.randint(0, 3))
        _assert_matches_reference(phi, other, premise)


# Twenty symbols, the default cap: a ring of implications plus a clause
# over all of them, true exactly when every symbol is 1.
_CAP_TEXT = " & ".join(f"(v{i} -> v{(i + 1) % 20})" for i in range(20)) + (
    " & (" + " | ".join(f"v{i}" for i in range(20)) + ")"
)


def test_classify_at_the_symbol_cap_is_sub_second():
    phi = parse_formula(_CAP_TEXT)
    assert len(symbols(phi)) == 20
    start = time.perf_counter()
    assert classify(phi) is Classification.SATISFIABLE
    assert time.perf_counter() - start < 1.0
    assert models(phi) == [{f"v{i}": 1 for i in range(20)}]
    tracemalloc.start()
    try:
        classify(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_classify_at_the_symbol_cap_end_to_end(tmp_path, capsys):
    path = tmp_path / "cap.txt"
    path.write_text(_CAP_TEXT + "\n", encoding="utf-8")
    assert cli_main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == "Satisfiable\n"
