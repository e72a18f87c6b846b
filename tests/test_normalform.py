"""CNF conversion and clause-level checks."""

import gc
import random
import time
import tracemalloc
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hornsat import (
    BOT,
    TOP,
    And,
    Atom,
    Clause,
    ClauseBudgetError,
    Falsum,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Verum,
    enumerate_valuations,
    equivalent,
    evaluate,
    horn_from_clauses,
    parse_formula,
    symbols,
    to_cnf,
)
from hornsat.cli import cli_main
from hornsat.formula import _RESERVED
from hornsat.normalform import _clause_lists

from helpers import (
    UNSAT_CHAIN_TEXT,
    clause,
    formula_strategy,
    largest_blowup,
    random_formula,
    read_once_strategy,
    reference_to_cnf,
)


def test_single_atom_is_already_cnf():
    assert to_cnf(parse_formula("p")).clauses == (clause("p"),)


def test_constants_are_the_reserved_words():
    # No atom can take the words the grammar keeps for the constants, so
    # they are the constants' tokens, and a literal that names one means
    # the constant.
    assert (BOT, TOP) == ("bot", "top")
    assert {BOT, TOP} <= _RESERVED
    for text in ("false", "bot", "⊥"):
        assert to_cnf(parse_formula(text)).clauses == (Clause((Literal(BOT),)),)
    assert Literal("bot").to_formula() == Falsum()
    with pytest.raises(ValueError, match="verum is not atomic"):
        Literal("top")


def test_negated_disjunction_splits():
    assert to_cnf(parse_formula("~(p | q)")).clauses == (clause("~p"), clause("~q"))


def test_benchmark_formula_maps_to_its_own_clause_list():
    cnf = to_cnf(parse_formula(UNSAT_CHAIN_TEXT))
    assert cnf.clauses == (
        clause("p"),
        clause("~r", "s"),
        clause("r", "~p", "~q"),
        clause("~r", "~s"),
        clause("q"),
    )


def test_verum_clauses_are_dropped():
    assert to_cnf(parse_formula("p & true")).clauses == (clause("p"),)
    assert to_cnf(parse_formula("p | true")).clauses == (clause("top"),)


def test_duplicate_and_falsum_literals_are_dropped():
    assert to_cnf(parse_formula("p | p")).clauses == (clause("p"),)
    assert to_cnf(parse_formula("p | false")).clauses == (clause("p"),)
    assert to_cnf(parse_formula("false | false")).clauses == (clause("bot"),)
    assert to_cnf(parse_formula("p | false | p")).clauses == (clause("p"),)
    assert to_cnf(parse_formula("false | p | p")).clauses == (clause("p"),)
    assert to_cnf(parse_formula("p | ~false")).clauses == (clause("top"),)
    assert to_cnf(parse_formula("~((a | b) & (a | c))")).clauses == (
        clause("~a"),
        clause("~a", "~c"),
        clause("~b", "~a"),
        clause("~b", "~c"),
    )


def test_complementary_pairs_are_kept():
    assert to_cnf(parse_formula("p | ~p")).clauses == (clause("p", "~p"),)


def test_to_cnf_builds_one_literal_per_distinct_pair():
    cnf = to_cnf(parse_formula(" | ".join(f"(a{i} & b{i})" for i in range(15))))
    assert len(cnf.clauses) == 2**15
    literals = [lit for clause in cnf.clauses for lit in clause.literals]
    assert len({id(lit) for lit in literals}) == len({(lit.atom, lit.positive) for lit in literals}) == 30


def test_clause_budget():
    phi = parse_formula("(a & b) | (c & d) | (e & f)")
    assert len(to_cnf(phi).clauses) == 8
    with pytest.raises(ClauseBudgetError):
        to_cnf(phi, max_clauses=3)


def test_empty_clause_rejected():
    with pytest.raises(ValueError):
        Clause(())


def test_literal_rejects_verum_atom():
    with pytest.raises(ValueError):
        Literal(TOP)


@given(formula_strategy())
@example(parse_formula("p | true"))  # p is only in a clause dropped as valid
def test_cnf_is_equivalent_to_source(phi):
    cnf = to_cnf(phi)
    assert cnf.symbols() == symbols(phi)
    for valuation in enumerate_valuations(symbols(phi)):
        value = evaluate(phi, valuation)
        assert cnf.evaluate(valuation) == value
        assert evaluate(cnf.to_formula(), valuation) == value


@given(formula_strategy(max_leaves=8))
def test_cnf_idempotent_up_to_equivalence(phi):
    once = to_cnf(phi)
    twice = to_cnf(once.to_formula())
    assert equivalent(once.to_formula(), twice.to_formula())


def _conversion(convert, phi, budget):
    """The clause list, or the budget error's message."""
    try:
        return convert(phi, budget).clauses
    except ClauseBudgetError as exc:
        return str(exc)


p, q = Atom("p"), Atom("q")

_FACTS_AND_RULES = "p & (p & q -> r) & (true -> s) & (r -> false) & (q & q -> s) & (p -> true) & q"


@given(formula_strategy(max_leaves=12), st.one_of(st.none(), st.integers(0, 8)))
@example(Iff(p, Not(q)), None)
@example(Not(Iff(p, Not(q))), None)
@example(Iff(Verum(), Falsum()), None)
@example(Not(Iff(Falsum(), Verum())), None)
@example(Implies(Not(Verum()), Not(Falsum())), None)
@example(Not(Implies(Verum(), Falsum())), None)
@example(parse_formula("(a & b) | (c & d) | (e & f)"), 3)
@example(Not(Or(And(p, q), And(q, p))), 1)
@example(p, 0)
@example(Not(Not(p)), 0)
@example(Verum(), 0)
# Facts and rules, one run of seven clauses: a fact, a rule, a true
# antecedent, a false head, a repeated antecedent atom and a valid clause;
# its budget fits the seven clauses, and then falls one short of them.
@example(parse_formula(_FACTS_AND_RULES), None)
@example(parse_formula(_FACTS_AND_RULES), 7)
@example(parse_formula(_FACTS_AND_RULES), 6)
@example(parse_formula("c & ~(a & b) & d"), None)
@example(parse_formula("(a & (b & c) -> d)"), None)
@example(parse_formula("(a & (b & c) -> d)"), 1)
@example(parse_formula("(a & (b & c) -> d)"), 0)
@example(parse_formula("a & (b -> c) & (c <-> d) & (d -> e) & f"), None)
@example(parse_formula("a & (b -> c) & (c <-> d) & (d -> e) & f"), 6)
@example(parse_formula("a & (b -> c) & (c <-> d) & (d -> e) & f"), 5)
# Deferred products: factors of 3, 1 and 2 clauses; a product that a
# conjunction reads; one nested through a negated biconditional, whose
# sides are a product of their own; and budgets at the product's 6 clauses
# and one below.
@example(parse_formula("(a & b & c) | d | (e & f)"), None)
@example(parse_formula("(a & b & c) | d | (e & f)"), 6)
@example(parse_formula("(a & b & c) | d | (e & f)"), 5)
@example(parse_formula("(a & b | c & d) & e"), None)
@example(parse_formula("(a & b | c & d) & e"), 4)
@example(parse_formula("(a & b | c & d) & e"), 5)
@example(parse_formula("~(p <-> q) | (r & s)"), None)
@example(parse_formula("~(p <-> q) | (r & s)"), 8)
@example(parse_formula("~(p <-> q) | (r & s)"), 7)
# The last product level, written into the codes: 2, 3 and 5 factors of
# unequal clause counts and lengths, so each half is uneven; two products
# that a conjunction reads; and a product that is not read-once, so it is
# built and cleaned of a valid clause, repeats and falsum first.
@example(parse_formula("(a & b & c) | ((d | e) & f)"), None)
@example(parse_formula("(a & b) | ((c | d) & e & f) | (g & (h | i | j))"), None)
@example(parse_formula("(a & b) | c | (d & (e | f) & g) | (h | i) | (j & (k | l) & m)"), None)
@example(parse_formula("(a & b) | c | (d & (e | f) & g) | (h | i) | (j & (k | l) & m)"), 18)
@example(parse_formula("(a & b) | c | (d & (e | f) & g) | (h | i) | (j & (k | l) & m)"), 17)
@example(parse_formula("(a & b | c & d) & (e | f & (g | h))"), None)
@example(parse_formula("(a & b) | (~a & c) | (true & false) | (c | b)"), None)
def test_to_cnf_matches_reference_passes(phi, budget):
    converted = _conversion(to_cnf, phi, budget)
    assert converted == _conversion(reference_to_cnf, phi, budget)
    # Without a biconditional, atoms take their codes in the order they
    # are first read, left to right, whichever clauses they end up in.
    leaves = _leaves(phi)
    if leaves is not None and not isinstance(converted, str):
        names = (leaf.name for leaf in leaves if isinstance(leaf, Atom))
        assert to_cnf(phi, budget)._coded[0] == (BOT, *dict.fromkeys(names))


def _leaves(phi):
    """The leaves of ``phi`` from left to right, or None if it holds a
    biconditional, whose sides CNF conversion reads twice."""
    if isinstance(phi, Iff):
        return None
    if isinstance(phi, Not):
        return _leaves(phi.operand)
    if isinstance(phi, (And, Or, Implies)):
        left, right = _leaves(phi.left), _leaves(phi.right)
        return None if left is None or right is None else left + right
    return [phi]


@given(read_once_strategy(), st.one_of(st.none(), st.integers(0, 16)))
@example(parse_formula("p | p"), None)
@example(parse_formula("p | false"), None)
@example(parse_formula("true | p"), None)
@example(parse_formula("p <-> q"), None)
@example(parse_formula("~(p <-> p)"), None)
def test_read_once_copy_matches_reference(phi, budget):
    # Read-once is every leaf a distinct atom; only then are the clauses
    # copied out without clean-up.
    leaves = _leaves(phi)
    read_once = (
        leaves is not None
        and all(isinstance(leaf, Atom) for leaf in leaves)
        and len(set(leaves)) == len(leaves)
    )
    assert _clause_lists(phi, None)[2] == read_once
    assert _conversion(to_cnf, phi, budget) == _conversion(reference_to_cnf, phi, budget)


@pytest.mark.parametrize("cleaned", [False, True], ids=["read-once", "cleaned"])
def test_the_one_copy_drops_each_clause_list_as_it_copies(cleaned):
    # ``& a0`` reads a0 twice, so the clauses go through the clean-up first.
    phi = And(largest_blowup(), Atom("a0")) if cleaned else largest_blowup()
    tracemalloc.start()
    try:
        cnf = to_cnf(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _clause_lists(phi, None)[2] is not cleaned
    assert cnf._coded[2] == (15,) * 2**15 + ((1,) if cleaned else ())
    # On CPython 3.11, 8.00 MiB read-once, whose last product level is
    # written straight into the codes, and 8.16 MiB cleaned; 10.24 MiB when
    # the clause lists are kept alive until the copy ends.
    assert peak < 9.25 * 2**20


def test_budget_refuses_a_blowup_before_building_any_product():
    # 2^20 clauses against the default budget: the product's clause count
    # passes it at the 17th operand, and no product below it is built.
    phi = Not(reduce(And, [Or(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(20)]))
    tracemalloc.start()
    try:
        with pytest.raises(ClauseBudgetError, match="budget of 100000 clauses"):
            to_cnf(phi, max_clauses=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3 KiB on CPython 3.11; 17.8 MiB when each product below the budget
    # was built as its operand was read.
    assert peak < 2**20


def test_horn_from_clauses_peak_memory_on_the_largest_blowup():
    cnf = to_cnf(largest_blowup())
    tracemalloc.start()
    try:
        horn = horn_from_clauses(cnf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert horn._coded[4] == (15,) * 2**15
    assert horn._coded[2] is cnf._coded[1]
    # 2.34 MiB on CPython 3.11: the packed codes, their low bytes and the
    # parity mask, then the heads and lengths; the implications share the
    # clauses' codes.  5.22 MiB when the antecedents were copied into a
    # tuple of their own, and 7.5 MiB before that, when
    # ``struct.pack(format, *codes)`` also copied the codes.
    assert peak < 3 * 2**20


def test_to_cnf_matches_reference_passes_on_seeded_formulas():
    rng = random.Random(20)
    for _ in range(2000):
        phi = random_formula(rng, ("p", "q", "r", "s", "t"), depth=rng.randint(1, 6))
        budget = rng.choice((1, 2, 4, 16, 64, 1024))
        assert _conversion(to_cnf, phi, budget) == _conversion(reference_to_cnf, phi, budget)


def _atoms(count):
    return [Atom(f"p{i}") for i in range(count)]


def test_left_deep_conjunction_converts_in_linear_time():
    # 100,000 facts, and 50,000 rules ``(a_i & b_i -> c_i)``: one run of
    # clauses each, which a quadratic join would make too slow.
    facts = [(atom, (Literal(atom.name),)) for atom in _atoms(100_000)]
    rules = [
        (
            Implies(And(Atom(f"a{i}"), Atom(f"b{i}")), Atom(f"c{i}")),
            (Literal(f"a{i}", False), Literal(f"b{i}", False), Literal(f"c{i}")),
        )
        for i in range(50_000)
    ]
    for operands in (facts, rules):
        phi = reduce(And, [operand for operand, _ in operands])
        started = time.perf_counter()
        clauses = to_cnf(phi).clauses
        assert time.perf_counter() - started < 10
        assert [c.literals for c in clauses] == [literals for _, literals in operands]


def test_left_deep_disjunction_converts_in_linear_time():
    atoms = _atoms(100_000)
    phi = reduce(Or, [Not(atom) for atom in atoms])
    started = time.perf_counter()
    clauses = to_cnf(phi).clauses
    assert time.perf_counter() - started < 10
    assert clauses == (Clause(tuple(Literal(a.name, False) for a in atoms)),)


def test_deep_negation_chain():
    phi = p
    for _ in range(100_000):
        phi = Not(phi)
    assert to_cnf(phi).clauses == (clause("p"),)
    assert to_cnf(Not(phi)).clauses == (clause("~p"),)


def test_right_nested_conjunction():
    atoms = _atoms(10_000)
    phi = atoms[-1]
    for atom in reversed(atoms[:-1]):
        phi = And(atom, phi)
    assert [c.literals[0].atom for c in to_cnf(phi).clauses] == [a.name for a in atoms]


def _best_seconds(*formulas, runs=5):
    """The best time of each formula over ``runs`` rounds; the formulas
    take turns, so a slow spell of the machine costs them alike.  The
    cyclic collector is paused, as ``cli_main`` pauses it: a full scan of
    the test process's heap can take longer than a conversion."""
    best = [float("inf")] * len(formulas)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            for index, phi in enumerate(formulas):
                started = time.perf_counter()
                to_cnf(phi)
                best[index] = min(best[index], time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


def test_right_nested_chains_convert_as_fast_as_left_nested():
    # Left-nested implication is no baseline: its clause list is quadratic
    # in size.
    atoms = _atoms(20_000)
    for connective, baseline in ((And, And), (Or, Or), (Implies, Or)):
        phi = atoms[-1]
        for atom in reversed(atoms[:-1]):
            phi = connective(atom, phi)
        right, left = _best_seconds(phi, reduce(baseline, atoms))
        assert right < 2 * left, connective.__name__


def test_budget_stops_a_chain_at_the_first_operand_over_it():
    # Each operand is a blowup of 8 clauses; the budget is exceeded when
    # the second is added, before the third operand is read.
    blowup = Not(reduce(And, [Or(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(3)]))
    with pytest.raises(ClauseBudgetError):
        to_cnf(And(And(blowup, blowup), object()), max_clauses=10)
    with pytest.raises(ClauseBudgetError):
        to_cnf(And(blowup, And(blowup, object())), max_clauses=10)
    with pytest.raises(ClauseBudgetError):
        to_cnf(Or(Or(blowup, blowup), object()), max_clauses=10)
    # Literals and rules are read a run at a time; a run still stops at
    # the first clause over the budget, and one literal alone never does.
    r = Atom("r")
    for phi, budget in (
        (Or(Or(Not(p), q), object()), 0),  # one clause of two literals
        (And(And(p, q), object()), 0),  # two unit clauses
        (And(And(Implies(And(p, q), r), Implies(p, q)), object()), 1),  # two rules
    ):
        with pytest.raises(ClauseBudgetError):
            to_cnf(phi, max_clauses=budget)
    for phi in (And(p, object()), Or(p, object())):
        with pytest.raises(TypeError, match="not a formula"):
            to_cnf(phi, max_clauses=0)


def test_solve_flat_conjunction_end_to_end(tmp_path, capsys):
    path = tmp_path / "facts.txt"
    path.write_text(" & ".join(f"p{i}" for i in range(20_000)) + "\n", encoding="utf-8")
    assert cli_main(["solve", str(path)]) == 10
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SAT"
    assert sorted(out[1].split()) == sorted(f"p{i}=1" for i in range(20_000))
