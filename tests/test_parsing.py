"""Formula grammar, rendering, and DIMACS input."""

import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from hornsat import (
    And,
    Atom,
    BOT_LITERAL,
    Clause,
    DimacsError,
    Falsum,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    ParseError,
    Verum,
    parse_dimacs,
    parse_formula,
)

from helpers import (
    formula_strategy,
    outcome,
    planted_horn_dimacs,
    random_dimacs_text,
    random_formula,
    reference_parse_dimacs,
    reference_parse_formula,
    render,
    same_tree,
)

P, Q, R, S = Atom("p"), Atom("q"), Atom("r"), Atom("s")


def test_grammar_examples():
    assert parse_formula("p & (~r | s)") == And(P, Or(Not(R), S))
    assert parse_formula("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse_formula("p & ~r | s") == Or(And(P, Not(R)), S)


def test_implication_and_iff_are_right_associative():
    assert parse_formula("p <-> q <-> r") == Iff(P, Iff(Q, R))


def test_and_or_are_left_associative():
    assert parse_formula("p & q & r") == And(And(P, Q), R)
    assert parse_formula("p | q | r") == Or(Or(P, Q), R)


def test_iff_binds_loosest():
    assert parse_formula("p -> q <-> r") == Iff(Implies(P, Q), R)
    assert parse_formula("p | q -> r") == Implies(Or(P, Q), R)


def test_negation_binds_tightest():
    assert parse_formula("~p & q") == And(Not(P), Q)
    assert parse_formula("~~p") == Not(Not(P))


def test_alternate_operator_spellings():
    baseline = parse_formula("~p & (q | false) -> true")
    assert parse_formula("¬p ∧ (q ∨ ⊥) → ⊤") == baseline
    assert parse_formula(r"p /\ q \/ r") == parse_formula("p & q | r")
    assert parse_formula("!p") == Not(P)
    assert parse_formula("p ↔ q") == Iff(P, Q)


@pytest.mark.parametrize("text", ["false", "bot", "⊥"])
def test_falsum_spellings(text):
    assert parse_formula(text) == Falsum()


@pytest.mark.parametrize("text", ["true", "top", "⊤"])
def test_verum_spellings(text):
    assert parse_formula(text) == Verum()


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse_formula("p &\n& q")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 1
    assert excinfo.value.expected


def test_parse_error_on_unknown_character():
    with pytest.raises(ParseError) as excinfo:
        parse_formula("p @ q")
    assert excinfo.value.line == 1
    assert excinfo.value.column == 3


def test_parse_error_on_unbalanced_paren():
    with pytest.raises(ParseError) as excinfo:
        parse_formula("(p | q")
    assert "')'" in excinfo.value.expected


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse_formula("p q")


def test_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("   ")


def test_render_uses_minimal_parentheses():
    assert render(parse_formula("p & ~r | s")) == "p & ~r | s"
    assert render(parse_formula("(p | q) & r")) == "(p | q) & r"
    assert render(parse_formula("~(p & q)")) == "~(p & q)"
    assert render(parse_formula("p -> q -> r")) == "p -> q -> r"
    assert render(parse_formula("(p -> q) -> r")) == "(p -> q) -> r"
    assert render(parse_formula("p & (q & r)")) == "p & (q & r)"


@given(formula_strategy())
def test_render_round_trip(phi):
    assert parse_formula(render(phi)) == phi


# Every spelling of each token that ``render`` writes, and what may stand
# between two tokens.
_RESPELLINGS = {
    "<->": ("<->", "↔"),
    "->": ("->", "→"),
    "|": ("|", "\\/", "∨"),
    "&": ("&", "/\\", "∧"),
    "~": ("~", "!", "¬"),
    "false": ("false", "bot", "⊥"),
    "true": ("true", "top", "⊤"),
}
_GAPS = ("", " ", " ", "  ", "\n", "\t", " \n  ", "\r\n", "\u2028")
_RENDERED_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|<->|->|[|&~()]")
# Inserted into texts: tokens, stray characters, and prefixes of operators.
_INSERTS = ("p", "q1", "(", ")", "~", "&", "|", "->", "<->", "-", "<", ">", "/", "\\", "\n", " ", "@", "1", "_", "é", "true")


def _respelled(phi, choose) -> str:
    """``render(phi)`` with each token in a spelling, and each gap, that
    ``choose`` picks from the sequence it is given."""
    parts = []
    for token in _RENDERED_TOKEN_RE.findall(render(phi)):
        parts += (choose(_GAPS), choose(_RESPELLINGS.get(token, (token,))))
    parts.append(choose(_GAPS))
    return "".join(parts)


def _mutated(text, edits) -> str:
    """``text`` after ``edits``: (kind, fraction of the length, insert)."""
    for kind, where, insert in edits:
        at = round(where * len(text))
        if kind == "truncate":
            text = text[:at]
        elif kind == "insert":
            text = text[:at] + insert + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    return text


def _parsed(parse, text):
    try:
        return "tree", parse(text)
    except ParseError as exc:
        return "error", (str(exc), exc.line, exc.column, exc.expected)


def _assert_parses_like_reference(text):
    kind, result = _parsed(parse_formula, text)
    reference_kind, reference = _parsed(reference_parse_formula, text)
    assert kind == reference_kind
    assert same_tree(result, reference) if kind == "tree" else result == reference


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("truncate", "insert", "delete")),
        st.floats(0, 1),
        st.sampled_from(_INSERTS),
    ),
    max_size=2,
)


@st.composite
def _formula_texts(draw):
    text = _respelled(draw(formula_strategy()), lambda choices: draw(st.sampled_from(choices)))
    return _mutated(text, draw(_EDITS))


@settings(max_examples=300)
@given(_formula_texts())
@example("p @ q")
@example("p ->\n(q")
@example("(p\n&\tq)) | r")
@example("(p q)")
def test_parse_formula_matches_reference(text):
    _assert_parses_like_reference(text)


def test_parse_formula_matches_reference_on_seeded_texts():
    rng = random.Random(7)
    for _ in range(2_000):
        phi = random_formula(rng, ("p", "q", "r", "s", "t1", "x_y"), depth=rng.randint(0, 6))
        text = _respelled(phi, rng.choice)
        if rng.random() < 0.5:
            edits = [
                (rng.choice(("truncate", "insert", "delete")), rng.random(), rng.choice(_INSERTS))
                for _ in range(rng.randint(1, 2))
            ]
            text = _mutated(text, edits)
        _assert_parses_like_reference(text)


def test_parse_formula_interns_one_atom_per_name():
    rng = random.Random(8)
    names = [f"a{i}" for i in range(300)]
    text = " & ".join(
        "(" + " | ".join(["~" + rng.choice(names), "~" + rng.choice(names), rng.choice(names)]) + ")"
        for _ in range(2_000)
    )
    atoms, pending = [], [parse_formula(text)]
    while pending:
        node = pending.pop()
        if isinstance(node, Atom):
            atoms.append(node)
        elif isinstance(node, Not):
            pending.append(node.operand)
        else:
            pending += (node.left, node.right)
    assert len(atoms) == 6_000
    assert len({id(atom) for atom in atoms}) == len({atom.name for atom in atoms})


def test_parse_dimacs_single_clause():
    cnf = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert cnf.clauses == (Clause((Literal("x1"), Literal("x2", positive=False))),)


def test_parse_dimacs_two_unit_clauses():
    cnf = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert cnf.clauses == (
        Clause((Literal("x1"),)),
        Clause((Literal("x1", positive=False),)),
    )


def test_parse_dimacs_empty_clause():
    assert parse_dimacs("p cnf 1 1\n0\n").clauses == (Clause((BOT_LITERAL,)),)


def test_parse_dimacs_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 2\n-3 0\n3 0\n"
    cnf = parse_dimacs(text)
    assert len(cnf.clauses) == 2
    assert len(cnf.clauses[0].literals) == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 0\n",
        "p dnf 1 1\n1 0\n",
        "pizza cnf 1 1\n1 0\n",
        "p cnf x 1\n1 0\n",
        "p cnf 1 -1\n1 0\n",
        "p cnf 1\n1 0\n",
        "p cnf 1 1\np cnf 1 1\n1 0\n",
    ],
)
def test_parse_dimacs_header_errors(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


def test_parse_dimacs_literal_out_of_range():
    with pytest.raises(DimacsError) as excinfo:
        parse_dimacs("p cnf 2 1\n3 0\n")
    assert "out of range" in str(excinfo.value)


def test_parse_dimacs_missing_terminator():
    with pytest.raises(DimacsError) as excinfo:
        parse_dimacs("p cnf 2 1\n1 -2\n")
    assert "terminator" in str(excinfo.value)


def test_parse_dimacs_bad_token():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


def test_parse_dimacs_drops_repeated_literals():
    x1, not_x1, x2 = Literal("x1"), Literal("x1", positive=False), Literal("x2")
    cnf = parse_dimacs("p cnf 2 3\n1 1 0\n-1 2 -1 2 0\n1 -1 0\n")
    assert cnf.clauses == (Clause((x1,)), Clause((not_x1, x2)), Clause((x1, not_x1)))


# Tokens ``int`` reads in more than one spelling, tokens it rejects (a ``c``
# starts a comment only at the start of a line), and separators that split
# clauses across lines, around comment lines and around a second header,
# with line breaks that ``str.splitlines`` knows besides ``\n``.
_DIMACS_TOKENS = (
    "0", "-0", "00", "1", "-1", "+1", "01", "2", "-2", "+2", "3", "-3", "03", "x", "1.5", "c",
    # ``int`` takes these, DIMACS does not.
    "1_0", "-0_1", "\u0661", "-\u0663", "\uff12",
)
_DIMACS_BREAKS = (
    " ", " ", " ", "\t", "\n", "\nc a comment\n", "\n\n  ", "\np cnf 3 1\n",
    "\x0c", "\x1c", "\u2028", "\r\n", "\u2028c a comment\r\n", "\u00a0",
)


@st.composite
def dimacs_texts(draw):
    n_vars = draw(st.integers(0, 3))
    header = draw(
        st.sampled_from(
            (f"p cnf {n_vars} 4",) * 6
            + ("", "p cnf 1", "p dnf 1 1", "p cnf -1 1", "pizza cnf 1 1", "p cnf 1 -1")
            + ("p cnf 1_0 4", "p cnf \u0663 4", "p cnf 3 4_0")
        )
    )
    parts = [draw(st.sampled_from(("", "c leading comment\n"))), header, "\n"]
    for token in draw(st.lists(st.sampled_from(_DIMACS_TOKENS), max_size=14)):
        parts += (token, draw(st.sampled_from(_DIMACS_BREAKS)))
    if draw(st.booleans()):
        parts.append("0\n")
    return "".join(parts)


@given(dimacs_texts())
@example("p cnf 3 2\n+3 03 3 -03 0\n1 -0\n")
@example("c x\np cnf 3 2\n1 -2\nc inside\n3 0 2\n\n-1 0\n")
@example("p cnf 2 2\n1 -2 0\n-2 3 0\n")
@example("p cnf 2 2\n1 -2 0\n-2 x 3 0\n")
@example("p cnf 2 1\n1 -2\n")
@example("p cnf 2 2\n1 1 2 0\n-1 -1 -2 0\n")
@example("p cnf 2 1\n1 x 0\np cnf 2 1\n")
@example("p cnf 2 1\n1 3 x 0\n")
@example("p cnf 2 1\n1 x 3 0\n")
@example("p cnf 10 1\n1_0 0\n")
@example("p cnf 3 1\n1\u00a0-\u0663 0\n")
@example("p cnf 3 1\n1\u00a0-3 0\n")
@example("p cnf 1_0 1\n1 0\n")
def test_parse_dimacs_matches_reference(text):
    """The reference is the old parser with one fix on top: a literal
    repeated in a clause counts once."""
    assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)


def test_parse_dimacs_matches_reference_on_seeded_texts():
    rng = random.Random(6)
    for _ in range(1_000):
        text = random_dimacs_text(rng)
        assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)


def test_parse_dimacs_interns_one_literal_per_signed_variable():
    n_vars = 5_000
    text, _ = planted_horn_dimacs(random.Random(20), n_vars, 20_000)
    cnf = parse_dimacs(text)
    assert len(cnf.clauses) == 20_000
    assert len({id(lit) for clause in cnf.clauses for lit in clause.literals}) <= 2 * n_vars
