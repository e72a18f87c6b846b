"""Basic-Horn recognition and clause-to-implication rewriting."""

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
    horn_to_formula,
    implication_to_formula,
    is_basic_horn,
    parse_dimacs,
    parse_formula,
    to_cnf,
)
from hornsat.cli import _implication_lines
from hornsat.normalform import _TOP_CODE

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
    assert Top()._fields == Top.__match_args__ == ()
    assert Top() == Top() and hash(Top()) == hash(Top())
    assert repr(Top()) == "Top()"
    assert Top().atoms == ()
    assert list(_implication_lines(HornFormula((unit("p"),)))) == ["top -> p"]
    assert implication_to_formula(unit("p")) == Implies(Verum(), Atom("p"))


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


def _cnfs(atoms, leads=((),)):
    """Up to five clauses of one to four literals over ``atoms``, after one
    of the clause tuples in ``leads``."""
    literal = st.builds(Literal, st.sampled_from(atoms), st.booleans())
    literals = st.lists(literal, min_size=1, max_size=4)
    clauses = st.lists(literals.map(lambda lits: Clause(tuple(lits))), max_size=5)
    return st.builds(lambda lead, rest: CnfFormula((*lead, *rest)), st.sampled_from(leads), clauses)


# A leading clause of the negations of a1 ... a300 makes ``a<k>`` atom k,
# with literal codes 2k and 2k + 1: a128's are 256 and 257, a256's 512 and
# 513, whose low bytes are those of 0 and 1.  The lead is dropped as valid
# when it also holds the verum literal.
_WIDE_NEGATIONS = [f"~a{k}" for k in range(1, 301)]
_WIDE_LEAD = clause(*_WIDE_NEGATIONS)
_WIDE_LEADS = ((_WIDE_LEAD,), (clause(*_WIDE_NEGATIONS, "top"),))
_WIDE_ATOMS = ("a1", "a127", "a128", "a255", "a256", "a257", BOT)
_CNFS = _cnfs(("p", "q", "r", BOT)) | _cnfs(_WIDE_ATOMS, _WIDE_LEADS)


def _cnf(*clauses):
    return CnfFormula(tuple(clauses))


def _wide(*clauses):
    return _cnf(_WIDE_LEAD, *clauses)


@given(_CNFS)
@example(_cnf())
@example(_cnf(clause("top", "p", "q")))
@example(_cnf(clause("p", "top", "q")))
@example(_cnf(clause("p", "q", "top")))
@example(_cnf(clause("p", "q", "top"), clause("~r", "p", "r")))
@example(_cnf(clause("p"), clause("bot", "p")))
@example(_cnf(clause("bot"), clause("~bot", "~p")))
@example(_cnf(clause("~p", "q", "~p", "~r", "~q")))
@example(_cnf(clause("q", "~p", "q"), clause("p", "p", "q")))
@example(to_cnf(parse_formula("p | true")))
@example(_wide(clause("a128", "~a256", "a128"), clause("~a128", "a256")))
@example(_wide(clause("~a128", "~a256", "a1"), clause("~a1", "a128", "bot")))
@example(_wide(clause("~a1", "a128", "a256")))
@example(_wide(clause("a128", "top", "a256"), clause("~a256", "a128"), clause("a256", "a1")))
# A dropped clause before a non-Horn one, which keeps its input position,
# and between kept ones, which the implications skip.
@example(_cnf(clause("~p", "q"), clause("~q", "top"), clause("p", "~r", "q")))
@example(_cnf(clause("~p", "q"), clause("~q", "top", "r"), clause("~r", "p"), clause("q", "~p")))
@example(to_cnf(parse_formula("(p -> q) & (q | ~r | q) & r")))
# Every clause dropped, which leaves the empty formula; two dropped clauses
# before a non-Horn one, whose index skips neither; and a non-Horn clause
# before a dropped clause with two positive literals of its own.
@example(_cnf(clause("top"), clause("~p", "top", "q"), clause("p", "q", "top")))
@example(_cnf(clause("top", "p"), clause("q", "top"), clause("~r", "p", "q")))
@example(_cnf(clause("~r", "p", "q"), clause("p", "top", "q")))
def test_horn_from_clauses_matches_reference(cnf):
    _assert_matches_reference(cnf)


def test_horn_from_clauses_matches_reference_on_seeded_inputs():
    rng = random.Random(6)
    for _ in range(1_000):
        _assert_matches_reference(random_cnf(rng))
        _assert_matches_reference(
            CnfFormula((*rng.choice(_WIDE_LEADS), *random_cnf(rng, _WIDE_ATOMS).clauses))
        )
        parsed = outcome(parse_dimacs, random_dimacs_text(rng))
        if parsed[0] == "returned":
            _assert_matches_reference(parsed[1])


def _assert_matches_reference(cnf):
    """``horn_from_clauses`` agrees with the reference; when no clause is
    dropped, its implications hold the clauses' own codes and lengths."""
    result = outcome(horn_from_clauses, cnf)
    assert result == outcome(reference_horn_from_clauses, cnf)
    _, codes, spans = cnf._coded
    if result[0] == "returned" and _TOP_CODE not in codes:
        assert result[1]._coded[2] is codes
        assert result[1]._coded[3] is spans
