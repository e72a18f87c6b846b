"""Saturation engine: traces, shortcuts, models, and the core set laws."""

import copy
import pickle
import random
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hornsat import (
    BOT,
    SHORTCUT_NO_BOT_CONSEQUENT,
    SHORTCUT_NO_TOP_ANTECEDENT,
    TOP,
    Classification,
    CnfFormula,
    Conj,
    HornFormula,
    HornImplication,
    Top,
    classify,
    extract_model,
    horn_from_clauses,
    horn_from_formula,
    horn_to_formula,
    models,
    parse_dimacs,
    parse_formula,
    precheck,
    satisfies,
    saturate,
    solve,
    to_cnf,
)
from hornsat.cli import cli_main

from helpers import (
    GOLDEN_SAT,
    GOLDEN_SHORT,
    GOLDEN_UNSAT,
    SAT_CHAIN_TEXT,
    antecedent_atoms,
    clause,
    doubled_chain,
    fan_out,
    largest_blowup,
    long_antecedent,
    outcome,
    planted_horn_dimacs,
    planted_unsat_dimacs,
    random_cnf,
    random_horn,
    reference_saturate,
    reverse_chain,
    rule,
    unit,
)


def test_antecedent_atoms():
    assert antecedent_atoms(Top()) == {TOP}
    assert antecedent_atoms(Conj(("p", "q"))) == {"p", "q"}
    assert antecedent_atoms(Conj(("p", "p"))) == {"p"}


# A small pool makes repeated consequents and shared antecedent atoms common.
_POOL = ("p", "q", "r", "s")
_ANTECEDENTS = st.one_of(
    st.just(Top()),
    st.lists(st.sampled_from(_POOL + (BOT,)), min_size=1, max_size=3).map(
        lambda atoms: Conj(tuple(atoms))
    ),
)
_IMPLICATIONS = st.builds(HornImplication, _ANTECEDENTS, st.sampled_from(_POOL + (BOT,)))


def assert_same_run(horn, start, early_stop):
    final, trace = saturate(horn, start, early_stop)
    expected_final, expected_trace = reference_saturate(horn, start, early_stop)
    assert final == expected_final
    assert len(trace) == len(expected_trace)
    for got, want in zip(trace, expected_trace):
        assert got.fired_index == want.fired_index
        assert got.consequent_added == want.consequent_added
        assert got.set_before == want.set_before
        assert got.set_after == want.set_after
        assert got.remaining_after == want.remaining_after


@given(
    implications=st.lists(_IMPLICATIONS, max_size=12),
    extra=st.sets(st.sampled_from(_POOL + (BOT,)), max_size=3),
    early_stop=st.booleans(),
)
@example(implications=[], extra=set(), early_stop=False)
@example(
    implications=[unit("p"), unit("p"), rule(("p", BOT), "q"), unit(BOT), rule((BOT,), "r")],
    extra={"s"},
    early_stop=False,
)
@example(implications=[], extra={BOT}, early_stop=True)
# An antecedent that repeats an atom counts each occurrence.
@example(implications=[unit("p"), rule(("p", "p"), "q")], extra=set(), early_stop=False)
@example(implications=[unit("p"), rule(("s", "s", "p"), "q")], extra=set(), early_stop=False)
@example(implications=[unit(BOT), rule((BOT, BOT), "r")], extra=set(), early_stop=False)
@example(implications=[unit(BOT), rule((BOT, BOT), "r")], extra=set(), early_stop=True)
# No fact, but the start set completes an antecedent, so the run counts.
@example(implications=[rule((BOT,), "p")], extra={BOT}, early_stop=False)
@example(implications=[rule(("q",), "p")], extra={"q"}, early_stop=False)
def test_saturate_matches_leftmost_rescan(implications, extra, early_stop):
    assert_same_run(HornFormula(tuple(implications)), frozenset({TOP} | extra), early_stop)


# Implications read off their clauses as they stand, with the head first
# or repeated, and the implications they must run as.
_CLAUSE_FORMS = (
    (CnfFormula((clause("p", "~q"), clause("q"))), (rule(("q",), "p"), unit("q"))),
    (CnfFormula((clause("p", "~q", "p"), clause("q"))), (rule(("q",), "p"), unit("q"))),
    (parse_dimacs("p cnf 2 2\n2 -1 0\n1 0\n"), (rule(("x1",), "x2"), unit("x1"))),
)


def test_saturate_matches_leftmost_rescan_on_longer_runs():
    rng = random.Random(37)
    for _ in range(300):
        horn = random_horn(rng, "pqrstu", rng.randint(0, 30), bot_antecedent_rate=0.2)
        start = frozenset((TOP, *rng.sample("pqrstu", rng.randint(0, 2))))
        assert_same_run(horn, start, early_stop=rng.random() < 0.5)
    for cnf, implications in _CLAUSE_FORMS:
        horn = horn_from_clauses(cnf)
        for early_stop in (False, True):
            assert_same_run(horn, frozenset((TOP,)), early_stop)
            expected = saturate(HornFormula(implications), frozenset((TOP,)), early_stop)
            assert saturate(horn, frozenset((TOP,)), early_stop) == expected
    # Clauses with heads anywhere, repeated literals and dropped clauses.
    for _ in range(300):
        result = outcome(horn_from_clauses, random_cnf(rng, ("p", "q", "r", "s", BOT)))
        if result[0] == "returned":
            start = frozenset((TOP, *rng.sample("pqrs", rng.randint(0, 2))))
            assert_same_run(result[1], start, early_stop=rng.random() < 0.5)


def test_saturate_matches_leftmost_rescan_at_benchmark_size():
    rng = random.Random(400)
    horns = [fan_out(300)]
    for _ in range(10):
        text, model = planted_horn_dimacs(rng, 200, 400)
        horns.append(horn_from_clauses(parse_dimacs(text)))
        horns.append(horn_from_clauses(parse_dimacs(planted_unsat_dimacs(rng, text, model))))
    for horn in horns:
        for early_stop in (False, True):
            assert_same_run(horn, frozenset((TOP,)), early_stop)


def test_saturate_full_chain():
    final, trace = saturate(GOLDEN_UNSAT, {TOP})
    assert final == {TOP, "p", "q", "r", "s", BOT}
    assert [entry.fired_index for entry in trace] == [0, 4, 2, 1, 3, None]


def test_saturate_fixpoint_without_falsum():
    final, trace = saturate(GOLDEN_SAT, {TOP})
    assert final == {TOP, "p"}
    assert len(trace) == 2


def test_saturate_early_stop_keeps_required_atoms():
    final, trace = saturate(GOLDEN_SHORT, {TOP}, early_stop=True)
    assert final >= {TOP, "p", "r", BOT}
    assert trace[-2].consequent_added == BOT


def test_saturate_requires_verum_in_start_set():
    with pytest.raises(ValueError):
        saturate(GOLDEN_SAT, frozenset())


def test_trace_sets_grow_by_at_most_one():
    outcome = solve(GOLDEN_UNSAT)
    for entry in outcome.trace:
        assert entry.set_before <= entry.set_after
        assert len(entry.set_after - entry.set_before) <= 1


def test_trace_reads_like_a_tuple_of_its_steps():
    outcome = solve(GOLDEN_UNSAT)
    trace, steps = outcome.trace, tuple(outcome.trace)
    assert len(trace) == len(steps) == outcome.steps
    assert trace[-1] == steps[-1] and trace[-len(trace)] == steps[0]
    assert trace[1:3] == steps[1:3] and type(trace[1:3]) is tuple
    assert trace[::-1] == steps[::-1]
    assert [trace[k] for k in range(len(trace))] == list(trace) == list(steps)
    with pytest.raises(IndexError):
        trace[len(trace)]
    with pytest.raises(IndexError):
        trace[-len(trace) - 1]
    assert trace.fired == tuple(step.fired_index for step in steps[:-1])
    assert steps[-1].fired_index is None


def test_trace_indexing_agrees_with_iteration():
    # Repeated consequents make firings that add nothing; extra start atoms
    # make consequents that are already members from the start.
    rng = random.Random(41)
    shared = 0
    for _ in range(200):
        horn = random_horn(rng, "pqrs", rng.randint(0, 16), bot_antecedent_rate=0.2)
        start = frozenset((TOP, *rng.sample("pqrs", rng.randint(0, 2))))
        for early_stop in (False, True):
            trace = saturate(horn, start, early_stop)[1]
            steps = tuple(trace)
            for k in range(-len(steps), len(steps)):
                assert trace[k] == steps[k]
            bounds = (None, *range(-len(steps) - 1, len(steps) + 2))
            for _ in range(5):
                key = slice(rng.choice(bounds), rng.choice(bounds), rng.choice((None, 2, -1, -3)))
                assert trace[key] == steps[key]
            for step in steps[:-1]:
                if step.consequent_added in step.set_before:
                    assert step.set_after is step.set_before
                    shared += 1
                else:
                    assert step.set_after == step.set_before | {step.consequent_added}
            assert steps[0].set_before == start
            assert steps[-1].set_after is steps[-1].set_before
    assert shared > 100


def test_outcome_compares_hashes_and_pickles_by_its_fields():
    # A trace compares and hashes its three fields, not its steps: building
    # every step's two sets would take quadratic time and memory.
    outcome = solve(reverse_chain(4_000))

    def duplicate_and_compare():
        hash(outcome)
        assert outcome == copy.deepcopy(outcome)
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    started = time.perf_counter()
    duplicate_and_compare()
    assert time.perf_counter() - started < 1.0
    tracemalloc.start()
    try:
        duplicate_and_compare()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_reversed_trace_replays_the_run_once():
    trace = solve(HornFormula((unit("p"),) * 20_000)).trace
    started = time.perf_counter()
    assert list(reversed(trace)) == list(trace)[::-1]
    assert time.perf_counter() - started < 1.0


def test_trace_firings_are_immutable():
    outcome = solve(HornFormula((unit("p"), rule(("p",), "q"))))
    assert len(outcome.trace) == 3
    with pytest.raises(AttributeError):
        outcome.trace.fired.append(0)


def test_solve_verdicts():
    assert not solve(GOLDEN_UNSAT).satisfiable
    assert solve(GOLDEN_SAT).satisfiable
    assert not solve(GOLDEN_SHORT).satisfiable


def test_solve_trivially_true_formula():
    outcome = solve(HornFormula(()))
    assert outcome.satisfiable
    assert outcome.final_set == {TOP}
    assert outcome.steps == 1


def test_precheck_reasons():
    chain = HornFormula((rule(("p",), "q"), rule(("q",), "r")))
    assert precheck(chain) == (SHORTCUT_NO_BOT_CONSEQUENT, SHORTCUT_NO_TOP_ANTECEDENT)
    assert precheck(GOLDEN_SAT) == ()
    lone = HornFormula((rule(("p", "q"), BOT),))
    assert precheck(lone) == (SHORTCUT_NO_TOP_ANTECEDENT,)
    outcome = solve(lone)
    assert outcome.final_set == {TOP}
    assert outcome.steps == 1


def test_precheck_is_sound():
    rng = random.Random(7)
    for _ in range(200):
        horn = random_horn(rng, "pqrst", rng.randint(1, 8))
        reasons = precheck(horn)
        if reasons:
            assert solve(horn).satisfiable
        if SHORTCUT_NO_TOP_ANTECEDENT in reasons:
            assert solve(horn).trace.fired == ()


def test_solve_counts_nothing_when_no_antecedent_is_top():
    # The 2^15 blowup's implications all end in bot and none is a fact, so
    # {top} is already the fixpoint: no implication is counted or waits.
    horn = horn_from_clauses(to_cnf(largest_blowup()))
    tracemalloc.start()
    try:
        outcome = solve(horn, early_stop=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.trace.fired == ()
    assert len(outcome.trace) == 1
    assert outcome.final_set == {TOP}
    # 1.0 KiB on CPython 3.11; 272 KiB when every implication was counted.
    assert peak < 16 * 2**10


def test_extract_model_golden():
    outcome = solve(GOLDEN_SAT)
    model = extract_model(GOLDEN_SAT, outcome.final_set)
    assert model == {"p": 1, "q": 0, "r": 0, "s": 0}
    assert satisfies(model, horn_to_formula(GOLDEN_SAT))
    assert satisfies(model, parse_formula(SAT_CHAIN_TEXT))


def test_extract_model_trivially_true():
    assert extract_model(HornFormula(()), frozenset((TOP,))) == {}
    # p is only in a clause dropped as valid, and still named.
    horn = horn_from_formula(parse_formula("p | true"))
    assert extract_model(horn, frozenset((TOP,))) == {"p": 0}


def test_extract_model_is_least():
    horn = HornFormula((unit("p"), rule(("p",), "q")))
    outcome = solve(horn)
    model = extract_model(horn, outcome.final_set)
    assert model == {"p": 1, "q": 1}
    ones = {name for name, bit in model.items() if bit == 1}
    oracle_models = models(horn_to_formula(horn))
    assert oracle_models
    for other in oracle_models:
        assert all(other[name] == 1 for name in ones)


def test_extract_model_rejects_falsum():
    with pytest.raises(ValueError):
        extract_model(GOLDEN_UNSAT, frozenset((TOP, BOT)))


def test_growth_bounds():
    rng = random.Random(11)
    pool = "pqrst"
    for _ in range(200):
        horn = random_horn(rng, pool, rng.randint(1, 10))
        start = frozenset((TOP, *rng.sample(pool, rng.randint(0, 3))))
        final, _ = saturate(horn, start)
        consequents = {imp.consequent for imp in horn.implications}
        assert start <= final <= start | consequents


def test_monotone_in_start_set():
    rng = random.Random(13)
    pool = "pqrst"
    for _ in range(200):
        horn = random_horn(rng, pool, rng.randint(1, 10))
        big = frozenset((TOP, *rng.sample(pool, rng.randint(0, 4))))
        small_extra = rng.sample(sorted(big - {TOP}), rng.randint(0, len(big) - 1))
        small = frozenset((TOP, *small_extra))
        assert saturate(horn, small)[0] <= saturate(horn, big)[0]


def test_rerun_reaches_the_same_fixpoint():
    rng = random.Random(17)
    for _ in range(100):
        horn = random_horn(rng, "pqrst", rng.randint(1, 10))
        final, _ = saturate(horn, {TOP})
        again, _ = saturate(horn, final)
        assert again == final


def test_final_set_is_order_invariant():
    rng = random.Random(19)
    for _ in range(100):
        horn = random_horn(rng, "pqrst", rng.randint(1, 10))
        baseline = solve(horn).final_set
        implications = list(horn.implications)
        for _ in range(3):
            rng.shuffle(implications)
            assert solve(HornFormula(tuple(implications))).final_set == baseline


def test_termination_bound():
    rng = random.Random(23)
    for _ in range(200):
        horn = random_horn(rng, "pqrst", rng.randint(1, 12))
        assert solve(horn).steps <= horn.n + 1


def test_non_consequents_never_enter():
    rng = random.Random(29)
    for _ in range(200):
        horn = random_horn(rng, "pqrst", rng.randint(1, 10))
        final, _ = saturate(horn, {TOP})
        consequents = {imp.consequent for imp in horn.implications}
        assert final - {TOP} <= consequents


def test_early_stop_agrees_on_verdict():
    rng = random.Random(31)
    for _ in range(200):
        horn = random_horn(rng, "pqrst", rng.randint(1, 10))
        assert solve(horn).satisfiable == solve(horn, early_stop=True).satisfiable


def test_early_stop_set_is_subset_of_full_fixpoint():
    horn = HornFormula((unit(BOT), unit("p")))
    full = solve(horn).final_set
    early = solve(horn, early_stop=True).final_set
    assert early == {TOP, BOT}
    assert early < full


def test_solver_matches_oracle_on_sixteen_symbols():
    rng = random.Random(16)
    pool = [f"v{i}" for i in range(16)]
    start = time.perf_counter()
    verdicts = set()
    for _ in range(200):
        horn = random_horn(rng, pool, rng.randint(16, 40), bot_consequent_rate=0.1)
        phi = horn_to_formula(horn)
        outcome = solve(horn)
        assert outcome.satisfiable == (classify(phi) is not Classification.CONTRADICTORY)
        if outcome.satisfiable:
            assert satisfies(extract_model(horn, outcome.final_set), phi)
        verdicts.add(outcome.satisfiable)
    assert verdicts == {True, False}
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize(
    "shape, first_fired",
    [
        (reverse_chain, [100_000, 99_999, 99_998]),
        (long_antecedent, [1, 2, 3]),
        (fan_out, [100_000, 0, 1]),
        (doubled_chain, [100_000, 99_999, 99_998]),
    ],
    ids=["reverse_chain", "long_antecedent", "fan_out", "doubled_chain"],
)
def test_reverse_chain_scales_linearly(shape, first_fired):
    links = 100_000
    horn = shape(links)
    started = time.perf_counter()
    outcome = solve(horn)
    elapsed = time.perf_counter() - started
    tracemalloc.start()
    try:
        solve(horn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.satisfiable
    assert len(outcome.final_set) == links + 2
    assert outcome.steps == links + 2
    assert [step.fired_index for step in outcome.trace[:3]] == first_fired
    assert elapsed < 10.0
    assert peak < 18 * 2**20


def test_reverse_chain_end_to_end(tmp_path, capsys):
    links = 5_000
    clauses = [f"-{k} {k + 1} 0" for k in reversed(range(1, links + 1))] + ["1 0"]
    path = tmp_path / "chain.cnf"
    path.write_text(f"p cnf {links + 1} {len(clauses)}\n" + "\n".join(clauses) + "\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "--dimacs"]) == 10
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SAT"
    assert sorted(out[1].split()) == sorted(f"x{k}=1" for k in range(1, links + 2))
