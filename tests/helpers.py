"""Shared builders for the test suite: golden inputs and random generators."""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
from dataclasses import dataclass
from functools import cache, reduce
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple, Sequence

import hypothesis.strategies as st

from hornsat import (
    BOT,
    BOT_LITERAL,
    DEFAULT_SYMBOL_CAP,
    TOP,
    TOP_LITERAL,
    And,
    Antecedent,
    Atom,
    Classification,
    Clause,
    ClauseBudgetError,
    CnfFormula,
    Conj,
    DimacsError,
    Falsum,
    Formula,
    HornFormula,
    HornImplication,
    Iff,
    Implies,
    Literal,
    Not,
    NotHornError,
    Or,
    ParseError,
    SolveOutcome,
    Top,
    Verum,
    enumerate_valuations,
    evaluate,
    extract_model,
    horn_to_formula,
    is_basic_horn,
    precheck,
    symbols,
)
from hornsat.cli import (
    DEFAULT_CLAUSE_BUDGET,
    _cmd_classify,
    _cmd_convert,
    _cmd_solve,
    _cmd_trace,
    _model_line,
)
from hornsat.oracle import _Table

# The three benchmark inputs exercised end to end.
UNSAT_CHAIN_TEXT = "p & (~r | s) & (r | ~p | ~q) & (~r | ~s) & q"
SAT_CHAIN_TEXT = "p & (~r | s) & (r | ~p | ~q) & (~r | ~s)"
UNSAT_SHORT_TEXT = "p & (~r | s) & (r | ~p) & ~r"


def unit(consequent: str) -> HornImplication:
    return HornImplication(Top(), consequent)


def rule(atoms, consequent: str) -> HornImplication:
    return HornImplication(Conj(tuple(atoms)), consequent)


GOLDEN_UNSAT = HornFormula(
    (unit("p"), rule(("r",), "s"), rule(("p", "q"), "r"), rule(("r", "s"), BOT), unit("q"))
)
GOLDEN_SAT = HornFormula(
    (unit("p"), rule(("r",), "s"), rule(("p", "q"), "r"), rule(("r", "s"), BOT))
)
GOLDEN_SHORT = HornFormula(
    (unit("p"), rule(("r",), "s"), rule(("p",), "r"), rule(("r",), BOT))
)


class ReferenceStep(NamedTuple):
    fired_index: int | None
    consequent_added: str | None
    set_before: frozenset
    set_after: frozenset
    remaining_after: int


def antecedent_atoms(antecedent) -> frozenset[str]:
    """The atom set of an antecedent; the verum antecedent yields {TOP}."""
    if isinstance(antecedent, Top):
        return frozenset((TOP,))
    return frozenset(antecedent.atoms)


def reference_saturate(phi: HornFormula, start, early_stop: bool = False):
    """The selection rule read literally: rescan the remaining implications
    for the leftmost one whose antecedent atoms are all in the current set,
    fire it, and copy the set at every step.  Quadratic; the reference that
    ``saturate`` must match step for step."""
    current = frozenset(start)
    remaining = list(enumerate(phi.implications))
    trace = []
    while True:
        position = None
        if not (early_stop and BOT in current):
            for candidate, (_, imp) in enumerate(remaining):
                if antecedent_atoms(imp.antecedent) <= current:
                    position = candidate
                    break
        if position is None:
            trace.append(ReferenceStep(None, None, current, current, len(remaining)))
            return current, tuple(trace)
        original_index, imp = remaining.pop(position)
        updated = current | {imp.consequent}
        trace.append(ReferenceStep(original_index, imp.consequent, current, updated, len(remaining)))
        current = updated


def reverse_chain(links: int) -> HornFormula:
    """``x0 -> x1``, ..., ``x<links-1> -> x<links>`` listed last link first,
    then the fact ``top -> x0``: the leftmost scan's worst case, where each
    firing is found at the end of the remaining sequence."""
    implications = [rule((f"x{k}",), f"x{k + 1}") for k in reversed(range(links))]
    implications.append(unit("x0"))
    return HornFormula(tuple(implications))


def doubled_chain(links: int) -> HornFormula:
    """:func:`reverse_chain` with every link naming its atom twice,
    ``x<k> & x<k> -> x<k+1>``: each link waits on two occurrences of one
    atom, and its count drops by two when that atom enters."""
    implications = [rule((f"x{k}", f"x{k}"), f"x{k + 1}") for k in reversed(range(links))]
    implications.append(unit("x0"))
    return HornFormula(tuple(implications))


def long_antecedent(size: int) -> HornFormula:
    """One implication ``x0 & ... & x<size-1> -> goal``, then the facts
    ``top -> x<k>`` listed last atom first: one antecedent as long as the
    whole run."""
    atoms = tuple(f"x{k}" for k in range(size))
    return HornFormula((rule(atoms, "goal"), *(unit(atom) for atom in reversed(atoms))))


def fan_out(size: int) -> HornFormula:
    """``x0 -> y0``, ..., ``x0 -> y<size-1>``, then the fact ``top -> x0``:
    one atom in every antecedent, so its entry makes all the rules fireable
    at once."""
    return HornFormula((*(rule(("x0",), f"y{k}") for k in range(size)), unit("x0")))


def largest_blowup() -> Formula:
    """``~((a0 | b0) & ... & (a14 | b14))``: 2^15 clauses of 15 negations,
    the largest blowup the formula_cnf benchmark converts."""
    return Not(reduce(And, [Or(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(15)]))


def lit(text: str) -> Literal:
    """Literal from "p"/"~p" text; "bot" and "top" name the constants."""
    if text == "top":
        return Literal(BOT, positive=False)
    positive = not text.startswith("~")
    name = text.lstrip("~")
    return Literal(BOT if name == "bot" else name, positive)


def clause(*texts: str) -> Clause:
    return Clause(tuple(lit(text) for text in texts))


def random_horn(
    rng: random.Random,
    names,
    n_implications: int,
    top_antecedent_rate: float = 0.35,
    bot_consequent_rate: float = 0.2,
    bot_antecedent_rate: float = 0.05,
    max_antecedent: int = 3,
) -> HornFormula:
    names = list(names)
    implications = []
    for _ in range(n_implications):
        if rng.random() < top_antecedent_rate:
            antecedent = Top()
        else:
            pool = names + ([BOT] if rng.random() < bot_antecedent_rate else [])
            size = rng.randint(1, min(max_antecedent, len(pool)))
            antecedent = Conj(tuple(rng.sample(pool, size)))
        consequent = BOT if rng.random() < bot_consequent_rate else rng.choice(names)
        implications.append(HornImplication(antecedent, consequent))
    return HornFormula(tuple(implications))


# Nested biconditionals blow up equivalence-preserving distribution, so the
# draw is weighted toward the other connectives.
_CONNECTIVES = (Not, Or, Or, And, And, Implies, Implies, Iff)


def random_formula(rng: random.Random, names, depth: int):
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.08:
            return Falsum()
        if roll < 0.16:
            return Verum()
        return Atom(rng.choice(names))
    connective = rng.choice(_CONNECTIVES)
    if connective is Not:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return connective(left, right)


def horn_family(names=("p", "q", "r"), max_implications=3, max_antecedent=2):
    """Every Horn formula whose implications draw antecedents from the
    verum antecedent plus all nonempty subsets of ``names`` up to
    ``max_antecedent`` atoms, and consequents from ``names`` plus falsum."""
    antecedents = [Top()]
    for size in range(1, max_antecedent + 1):
        for combo in itertools.combinations(names, size):
            antecedents.append(Conj(combo))
    implications = [
        HornImplication(antecedent, consequent)
        for antecedent in antecedents
        for consequent in list(names) + [BOT]
    ]
    for count in range(1, max_implications + 1):
        for chosen in itertools.product(implications, repeat=count):
            yield HornFormula(chosen)


def formula_strategy(names=("p", "q", "r", "s"), max_leaves=10):
    leaves = st.one_of(
        st.sampled_from([Atom(name) for name in names]),
        st.just(Falsum()),
        st.just(Verum()),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(Or, children, children),
            st.builds(And, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        ),
        max_leaves=max_leaves,
    )


def _fresh_atoms(shape, names: Iterator[str]) -> Formula:
    """The formula of a nested-tuple ``shape``, each ``None`` leaf the next
    of ``names``."""
    if shape is None:
        return Atom(next(names))
    connective, *operands = shape
    return connective(*(_fresh_atoms(operand, names) for operand in operands))


def read_once_strategy(max_leaves=14):
    """Read-once formulas: ``~``, ``&``, ``|`` and ``->`` over leaves that
    are distinct atoms, ``a0``, ``a1``, ... from left to right."""
    shapes = st.recursive(
        st.none(),
        lambda children: st.one_of(
            st.tuples(st.just(Not), children),
            st.tuples(st.sampled_from((And, Or, Implies)), children, children),
        ),
        max_leaves=max_leaves,
    )
    return shapes.map(lambda shape: _fresh_atoms(shape, map("a{}".format, itertools.count())))


# Formula helpers that only the tests use: ``render`` for parser round
# trips, ``desugar`` for oracle equivalences.  Both recurse once per
# nesting level, so they are only for shallow formulas.

# Binding strength per node; higher binds tighter.  A child is wrapped in
# parentheses when its own level is below what its context requires.
_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_NOT = 5


def _render(phi: Formula, min_level: int) -> str:
    if isinstance(phi, Falsum):
        return "false"
    if isinstance(phi, Verum):
        return "true"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        text, level = "~" + _render(phi.operand, _LEVEL_NOT), _LEVEL_NOT
    elif isinstance(phi, And):
        text = f"{_render(phi.left, _LEVEL_AND)} & {_render(phi.right, _LEVEL_AND + 1)}"
        level = _LEVEL_AND
    elif isinstance(phi, Or):
        text = f"{_render(phi.left, _LEVEL_OR)} | {_render(phi.right, _LEVEL_OR + 1)}"
        level = _LEVEL_OR
    elif isinstance(phi, Implies):
        text = f"{_render(phi.left, _LEVEL_IMPLIES + 1)} -> {_render(phi.right, _LEVEL_IMPLIES)}"
        level = _LEVEL_IMPLIES
    elif isinstance(phi, Iff):
        text = f"{_render(phi.left, _LEVEL_IFF + 1)} <-> {_render(phi.right, _LEVEL_IFF)}"
        level = _LEVEL_IFF
    else:
        raise TypeError(f"not a formula: {phi!r}")
    return f"({text})" if level < min_level else text


def render(phi: Formula) -> str:
    """ASCII text for ``phi``; reparsing yields a structurally equal tree."""
    return _render(phi, _LEVEL_IFF)


def desugar(phi: Formula) -> Formula:
    """Expand ``phi`` into the minimal core {falsum, atoms, implication}.

    Expansion follows the abbreviation table: ``~a`` becomes ``a -> false``,
    ``true`` becomes ``~false``, ``a | b`` becomes ``~a -> b``, ``a & b``
    becomes ``~(~a | ~b)``, and ``a <-> b`` becomes the conjunction of both
    implications, all expanded recursively.  Evaluation is preserved.
    """
    if isinstance(phi, (Falsum, Atom)):
        return phi
    if isinstance(phi, Verum):
        return Implies(Falsum(), Falsum())
    if isinstance(phi, Not):
        return Implies(desugar(phi.operand), Falsum())
    if isinstance(phi, Implies):
        return Implies(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, Or):
        return Implies(Implies(desugar(phi.left), Falsum()), desugar(phi.right))
    if isinstance(phi, And):
        return desugar(Not(Or(Not(phi.left), Not(phi.right))))
    if isinstance(phi, Iff):
        return desugar(And(Implies(phi.left, phi.right), Implies(phi.right, phi.left)))
    raise TypeError(f"not a formula: {phi!r}")


# The recursive-descent parser as it was before ``parse_formula`` became one
# loop over explicit stacks: a frozen ``_Token`` per token with its line and
# column, then one method per precedence level.  It recurses once per
# nesting level, so it is only for shallow texts.  The reference
# ``parse_formula`` must match in trees and in every ``ParseError``.
_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
      | (?P<IFF><->|↔)
      | (?P<IMPLIES>->|→)
      | (?P<AND>&|/\\|∧)
      | (?P<OR>\||\\/|∨)
      | (?P<NOT>~|!|¬)
      | (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<FALSE>⊥)
      | (?P<TRUE>⊤)
    """,
    re.VERBOSE,
)

_CONSTANT_WORDS = {"false": "FALSE", "bot": "FALSE", "true": "TRUE", "top": "TRUE"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column, pos = 1, 1, 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        kind = match.lastgroup or ""
        lexeme = match.group()
        if kind == "IDENT":
            kind = _CONSTANT_WORDS.get(lexeme, kind)
        if kind != "WS":
            tokens.append(_Token(kind, lexeme, line, column))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            column = len(lexeme) - lexeme.rfind("\n")
        else:
            column += len(lexeme)
        pos = match.end()
    tokens.append(_Token("EOF", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def _current(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._current
        self._index += 1
        return token

    def _fail(self, expected: Sequence[str]) -> None:
        token = self._current
        found = "end of input" if token.kind == "EOF" else repr(token.text)
        raise ParseError(f"unexpected {found}", token.line, token.column, expected)

    def parse(self) -> Formula:
        phi = self._iff()
        if self._current.kind != "EOF":
            self._fail(("end of input", "a binary operator"))
        return phi

    def _iff(self) -> Formula:
        left = self._implies()
        if self._current.kind == "IFF":
            self._advance()
            return Iff(left, self._iff())
        return left

    def _implies(self) -> Formula:
        left = self._or()
        if self._current.kind == "IMPLIES":
            self._advance()
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        node = self._and()
        while self._current.kind == "OR":
            self._advance()
            node = Or(node, self._and())
        return node

    def _and(self) -> Formula:
        node = self._unary()
        while self._current.kind == "AND":
            self._advance()
            node = And(node, self._unary())
        return node

    def _unary(self) -> Formula:
        if self._current.kind == "NOT":
            self._advance()
            return Not(self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        token = self._current
        if token.kind == "IDENT":
            self._advance()
            return Atom(token.text)
        if token.kind == "FALSE":
            self._advance()
            return Falsum()
        if token.kind == "TRUE":
            self._advance()
            return Verum()
        if token.kind == "LPAREN":
            self._advance()
            phi = self._iff()
            if self._current.kind != "RPAREN":
                self._fail(("')'",))
            self._advance()
            return phi
        self._fail(("an atom", "'false'", "'true'", "'~'", "'('"))
        raise AssertionError("unreachable")


def reference_parse_formula(text: str) -> Formula:
    return _Parser(_tokenize(text)).parse()


def same_tree(phi: Formula, psi: Formula) -> bool:
    """Structural equality without recursion: the dataclass ``==`` recurses
    once per level, so it cannot compare deep trees."""
    pending = [(phi, psi)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            if a.name != b.name:
                return False
        elif isinstance(a, Not):
            pending.append((a.operand, b.operand))
        elif isinstance(a, (And, Or, Implies, Iff)):
            pending += ((a.left, b.left), (a.right, b.right))
    return True


# The two recursive passes that ``to_cnf`` used before it became a single
# iterative walk: a negation normal form tree, then distribution over it.
# They recurse once per connective, so they are only for shallow formulas.
def _nnf(phi: Formula) -> Formula:
    """Negation normal form: expand -> and <->, push ~ down to literals."""
    if isinstance(phi, (Falsum, Verum, Atom)):
        return phi
    if isinstance(phi, Or):
        return Or(_nnf(phi.left), _nnf(phi.right))
    if isinstance(phi, And):
        return And(_nnf(phi.left), _nnf(phi.right))
    if isinstance(phi, Implies):
        return Or(_nnf(Not(phi.left)), _nnf(phi.right))
    if isinstance(phi, Iff):
        return And(
            Or(_nnf(Not(phi.left)), _nnf(phi.right)),
            Or(_nnf(Not(phi.right)), _nnf(phi.left)),
        )
    if isinstance(phi, Not):
        sub = phi.operand
        if isinstance(sub, Falsum):
            return Verum()
        if isinstance(sub, Verum):
            return Falsum()
        if isinstance(sub, Atom):
            return phi
        if isinstance(sub, Not):
            return _nnf(sub.operand)
        if isinstance(sub, Or):
            return And(_nnf(Not(sub.left)), _nnf(Not(sub.right)))
        if isinstance(sub, And):
            return Or(_nnf(Not(sub.left)), _nnf(Not(sub.right)))
        if isinstance(sub, Implies):
            return And(_nnf(sub.left), _nnf(Not(sub.right)))
        if isinstance(sub, Iff):
            return _nnf(Or(And(sub.left, Not(sub.right)), And(Not(sub.left), sub.right)))
    raise TypeError(f"not a formula: {phi!r}")


# Distribution works on plain (atom, positive) pairs: tuple hashing and
# equality run at C speed, which matters when a formula blows up into
# hundreds of thousands of clauses.
_BOT_PAIR = (BOT, True)
_TOP_PAIR = (BOT, False)


def _leaf_pair(phi: Formula) -> tuple[str, bool]:
    if isinstance(phi, Falsum):
        return _BOT_PAIR
    if isinstance(phi, Verum):
        return _TOP_PAIR
    if isinstance(phi, Atom):
        return (phi.name, True)
    if isinstance(phi, Not) and isinstance(phi.operand, Atom):
        return (phi.operand.name, False)
    raise TypeError(f"not a literal after NNF: {phi!r}")


def _distribute(phi: Formula, budget: int | None) -> list[list[tuple[str, bool]]]:
    if isinstance(phi, And):
        lists = _distribute(phi.left, budget) + _distribute(phi.right, budget)
        if budget is not None and len(lists) > budget:
            raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
        return lists
    if isinstance(phi, Or):
        lefts = _distribute(phi.left, budget)
        rights = _distribute(phi.right, budget)
        if budget is not None and len(lefts) * len(rights) > budget:
            raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
        return [lc + rc for lc in lefts for rc in rights]
    return [[_leaf_pair(phi)]]


def reference_to_cnf(phi: Formula, max_clauses: int | None = None) -> CnfFormula:
    """``to_cnf`` through the recursive reference passes, with the
    simplification its docstring states."""
    raw = _distribute(_nnf(phi), max_clauses)
    if max_clauses is not None and len(raw) > max_clauses:
        raise ClauseBudgetError(f"conversion exceeds the budget of {max_clauses} clauses")
    clauses = []
    for pairs in raw:
        if _TOP_PAIR in pairs:
            continue
        kept = list(dict.fromkeys(pairs))
        if len(kept) > 1:
            kept = [pair for pair in kept if pair != _BOT_PAIR]
        clauses.append(Clause(tuple(Literal(*pair) for pair in kept)))
    return CnfFormula(tuple(clauses) or (Clause((TOP_LITERAL,)),))


# The bit-parallel consequence test; only the tests ask it, so it lives here.
def semantic_consequence(
    premises: Iterable[Formula], phi: Formula, cap: int = DEFAULT_SYMBOL_CAP
) -> bool:
    """True iff every valuation satisfying all premises satisfies ``phi``."""
    premises = list(premises)
    syms = symbols(phi)
    for premise in premises:
        syms |= symbols(premise)
    table = _Table(syms, cap)
    premises_hold = table.mask
    for premise in premises:
        premises_hold &= table.of(premise)
    return premises_hold & ~table.of(phi) == 0


# The truth-table oracle as it was before it held one bit per row: every
# question walks the formula once per valuation dict.  The reference the
# bit-parallel ``hornsat.oracle`` must match.
def reference_classify(phi: Formula, cap: int = DEFAULT_SYMBOL_CAP) -> Classification:
    rows = [evaluate(phi, v) for v in enumerate_valuations(symbols(phi), cap)]
    if all(rows):
        return Classification.VALID
    if not any(rows):
        return Classification.CONTRADICTORY
    return Classification.SATISFIABLE


def reference_semantic_consequence(
    premises: Iterable[Formula], phi: Formula, cap: int = DEFAULT_SYMBOL_CAP
) -> bool:
    premises = list(premises)
    syms = symbols(phi)
    for premise in premises:
        syms |= symbols(premise)
    for valuation in enumerate_valuations(syms, cap):
        if all(evaluate(p, valuation) for p in premises) and not evaluate(phi, valuation):
            return False
    return True


def reference_equivalent(phi: Formula, psi: Formula, cap: int = DEFAULT_SYMBOL_CAP) -> bool:
    for valuation in enumerate_valuations(symbols(phi) | symbols(psi), cap):
        if evaluate(phi, valuation) != evaluate(psi, valuation):
            return False
    return True


def reference_models(phi: Formula, cap: int = DEFAULT_SYMBOL_CAP) -> list[dict[str, int]]:
    return [v for v in enumerate_valuations(symbols(phi), cap) if evaluate(phi, v)]


# The trace renderer as it was before each set was rendered once: every
# step re-sorts both of its sets, and the JSON goes through
# ``json.dumps(..., indent=2)``.  ``cli._trace_json`` and ``cli._trace_text``
# must match it byte for byte.
def reference_trace_document(text: str, outcome: SolveOutcome) -> SimpleNamespace:
    """The fields the reference renderers read, for the run ``outcome`` of
    ``text``: each implication written out from its atoms, the model and
    the shortcut note derived here with ``extract_model`` and
    ``precheck``."""
    horn = outcome.trace.formula
    return SimpleNamespace(
        input_formula=text.strip(),
        horn_form=tuple(
            f"{' & '.join(imp.antecedent.atoms) or TOP} -> {imp.consequent}" for imp in horn.implications
        ),
        steps=outcome.trace,
        final_set=tuple(sorted(outcome.final_set)),
        verdict="SAT" if outcome.satisfiable else "UNSAT",
        model=extract_model(horn, outcome.final_set) if outcome.satisfiable else None,
        step_count=outcome.steps,
        shortcut="; ".join(precheck(horn)) or None,
    )


def _displayed_steps(steps):
    before = sorted(steps[0].set_before) if steps else []
    for step in steps:
        after = sorted(step.set_after)
        yield step, before, after
        before = after


def _render_set(displayed: list[str]) -> str:
    return "{" + ", ".join(displayed) + "}"


def reference_trace_json(document) -> str:
    payload = {
        "input_formula": document.input_formula,
        "horn_form": list(document.horn_form),
        "steps": [
            {
                "fired_index": step.fired_index,
                "consequent_added": step.consequent_added,
                "set_before": before,
                "set_after": after,
                "remaining_after": step.remaining_after,
            }
            for step, before, after in _displayed_steps(document.steps)
        ],
        "final_set": list(document.final_set),
        "verdict": document.verdict,
        "model": None if document.model is None else dict(sorted(document.model.items())),
        "step_count": document.step_count,
        "shortcut": document.shortcut,
    }
    return json.dumps(payload, indent=2)


def reference_trace_text(document) -> str:
    lines = [f"input:    {document.input_formula}"]
    lines.append("horn:")
    for index, implication in enumerate(document.horn_form):
        lines.append(f"  [{index}] {implication}")
    if document.shortcut:
        lines.append(f"shortcut: {document.shortcut}")
    lines.append("trace:")
    for number, (step, before, after) in enumerate(_displayed_steps(document.steps), start=1):
        if step.fired_index is None:
            lines.append(
                f"  {number}. stop ({step.remaining_after} remaining): {_render_set(after)}"
            )
        else:
            lines.append(
                f"  {number}. fire [{step.fired_index}] {document.horn_form[step.fired_index]}: "
                f"{_render_set(before)} => {_render_set(after)}"
            )
    lines.append("final:    {" + ", ".join(document.final_set) + "}")
    lines.append(f"steps:    {document.step_count}")
    lines.append(f"verdict:  {document.verdict}")
    if document.model is not None:
        lines.append(f"model:    {_model_line(document.model)}")
    return "\n".join(lines)


# The front half as it was before each clause was read once: ``parse_dimacs``
# built a checked Literal per occurrence, and ``horn_from_clauses`` scanned
# each clause three times.  The references the one-pass versions must match.
# ``reference_parse_dimacs`` has two changes on top: a literal repeated in a
# clause counts once, as it does in ``to_cnf`` (the old code kept every copy,
# so a clause such as ``1 1 0`` was rejected as non-Horn); and an int is
# ASCII digits with an optional sign, where ``int`` alone also takes ``1_0``
# and digits of other scripts.
def _reference_int(field: str) -> int:
    if not field.isascii() or "_" in field:  # the second change
        raise ValueError(field)
    return int(field)


def reference_parse_dimacs(text: str) -> CnfFormula:
    declared_vars: int | None = None
    clauses: list[Clause] = []
    pending: list[Literal] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if declared_vars is not None:
                raise DimacsError(f"line {line_no}: duplicate header")
            fields = stripped.split()
            try:
                declared_vars, declared_clauses = map(_reference_int, fields[2:])
            except ValueError:  # not exactly two ints
                declared_vars = declared_clauses = -1
            if fields[:2] != ["p", "cnf"] or min(declared_vars, declared_clauses) < 0:
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}")
            continue
        if declared_vars is None:
            raise DimacsError(f"line {line_no}: clause data before the header")
        for field in stripped.split():
            try:
                value = _reference_int(field)
            except ValueError:
                raise DimacsError(f"line {line_no}: bad literal token {field!r}") from None
            if value == 0:
                if pending:
                    clauses.append(Clause(tuple(dict.fromkeys(pending))))  # the one change
                    pending = []
                else:
                    clauses.append(Clause((BOT_LITERAL,)))
                continue
            if abs(value) > declared_vars:
                raise DimacsError(
                    f"line {line_no}: literal {value} out of range (1..{declared_vars})"
                )
            pending.append(Literal(f"x{abs(value)}", positive=value > 0))
    if declared_vars is None:
        raise DimacsError("missing header")
    if pending:
        raise DimacsError("missing 0 terminator on the last clause")
    return CnfFormula(tuple(clauses))


# ``basic_to_implication`` as it was before it became one call to
# ``horn_from_clauses``, so that neither reference calls the code under test,
# with one change on top: a repeated positive literal counts once.
def reference_basic_to_implication(clause: Clause) -> HornImplication:
    if TOP_LITERAL in clause.literals:
        raise ValueError("clause contains the verum literal; drop valid clauses first")
    positives = list(dict.fromkeys(lit.atom for lit in clause.literals if lit.positive))
    negatives = [lit.atom for lit in clause.literals if not lit.positive]
    if len(positives) > 1:
        raise ValueError("not a basic Horn clause: more than one positive literal")
    consequent = positives[0] if positives else BOT
    antecedent: Antecedent = Conj(tuple(negatives)) if negatives else Top()
    return HornImplication(antecedent, consequent)


def reference_horn_from_clauses(cnf: CnfFormula) -> HornFormula:
    implications: list[HornImplication] = []
    for index, clause in enumerate(cnf.clauses):
        if TOP_LITERAL in clause.literals:
            continue
        if not is_basic_horn(clause):
            raise NotHornError(index, clause)
        implications.append(reference_basic_to_implication(clause))
    return HornFormula(tuple(implications))


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type and message of what it
    raises with the ``index`` and ``clause`` a ``NotHornError`` carries."""
    try:
        return "returned", function(*args)
    except Exception as exc:  # every exception is part of the compared result
        return "raised", type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "clause", None)


def random_cnf(rng: random.Random, atoms=("p", "q", "r", BOT)) -> CnfFormula:
    """Up to five clauses of one to four literals over ``atoms`` (falsum
    included, so verum literals occur), repeats and complements allowed."""
    return CnfFormula(
        tuple(
            Clause(
                tuple(
                    Literal(rng.choice(atoms), rng.random() < 0.5)
                    for _ in range(rng.randint(1, 4))
                )
            )
            for _ in range(rng.randint(0, 5))
        )
    )


def random_dimacs_text(rng: random.Random) -> str:
    """A short DIMACS text, usually well formed: literals spelled ``+3`` or
    ``03`` as well, repeated literals, comment lines, clauses split across
    lines; now and then a literal out of range, a bad token, a ``-0``
    terminator or a last clause without its terminator."""
    n_vars = rng.randint(1, 5)
    lines = ["c generated"] if rng.random() < 0.3 else []
    lines.append(f"p cnf {n_vars} 0")
    for _ in range(rng.randint(0, 6)):
        fields = []
        for _ in range(rng.randint(0, 4)):
            value = rng.randint(1, n_vars + (1 if rng.random() < 0.05 else 0))
            sign = "-" if rng.random() < 0.6 else rng.choice(("", "", "+"))
            fields.append(sign + ("0" if rng.random() < 0.05 else "") + str(value))
        if rng.random() < 0.03:
            fields.insert(rng.randint(0, len(fields)), rng.choice(("x", "1.0")))
        fields.append("-0" if rng.random() < 0.05 else "0")
        if len(fields) > 2 and rng.random() < 0.2:
            cut = rng.randint(1, len(fields) - 1)
            lines += (" ".join(fields[:cut]), "c inside a clause", " ".join(fields[cut:]))
        else:
            lines.append(" ".join(fields))
    if rng.random() < 0.05:
        lines.append(str(rng.randint(1, n_vars)))
    return "\n".join(lines) + "\n"


def planted_horn_dimacs(rng: random.Random, n_vars: int, n_clauses: int) -> tuple[str, frozenset]:
    """DIMACS text of a satisfiable Horn 3-CNF and the names of its least
    model: half of the variables, each a fact or derived by one rule from
    ones derived before it; every other clause is a rule or goal that the
    planted half satisfies."""
    order = rng.sample(range(1, n_vars + 1), n_vars)
    planted = order[: n_vars // 2]
    facts = max(1, len(planted) // 10)
    clauses = [[v] for v in planted[:facts]]
    clauses += [[-planted[rng.randrange(i)], planted[i]] for i in range(facts, len(planted))]
    model = set(planted)
    while len(clauses) < n_clauses:
        a, b, c = rng.sample(order, 3)
        if rng.random() < 0.7:
            if not (a in model and b in model and c not in model):
                clauses.append([-a, -b, c])
        elif not (a in model and b in model and c in model):
            clauses.append([-a, -b, -c])
    rng.shuffle(clauses)
    lines = [f"p cnf {n_vars} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n", frozenset(f"x{v}" for v in planted)


def planted_unsat_dimacs(rng: random.Random, text: str, model: frozenset) -> str:
    """``text`` and ``model`` from :func:`planted_horn_dimacs` plus one
    all-negative clause over two planted atoms, which makes it UNSAT."""
    header, body = text.split("\n", 1)
    _, _, n_vars, n_clauses = header.split()
    goal = " ".join(f"-{name[1:]}" for name in rng.sample(sorted(model), min(2, len(model))))
    return f"p cnf {n_vars} {int(n_clauses) + 1}\n{body}{goal} 0\n"


def repeated_literal_text(rng: random.Random) -> str:
    """A negated conjunction of two or three short disjunctions over two or
    three overlapping names, such as ``~((a | b) & (a | c))``, so that the
    product repeats literals within a clause; leaves are sometimes
    negated, ``false`` or ``true``, and some of the names may follow as
    facts."""
    names = rng.sample(("a", "b", "c"), rng.randint(2, 3))

    def leaf() -> str:
        roll = rng.random()
        if roll < 0.12:
            return "false"
        if roll < 0.2:
            return "true"
        name = rng.choice(names)
        return name if roll < 0.85 else "~" + name

    disjunctions = (" | ".join(leaf() for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(2, 3)))
    negated = "~(" + " & ".join(f"({d})" for d in disjunctions) + ")"
    return " & ".join([negated, *rng.sample(names, rng.randint(0, len(names)))])


# Every other spelling the lexer accepts for each ASCII token that
# ``render`` writes.
_RESPELLINGS = {
    "<->": ("↔",),
    "->": ("→",),
    "|": ("∨", "\\/"),
    "&": ("∧", "/\\"),
    "~": ("¬", "!"),
    "false": ("⊥", "bot"),
    "true": ("⊤", "top"),
}
_RENDERED_TOKEN_RE = re.compile(r"<->|->|[|&~]|\b(?:false|true)\b")


def respelled(rng: random.Random, text: str) -> str:
    """``text`` as ``render`` writes it, with each operator and constant
    replaced by one of its other spellings, drawn per occurrence."""
    return _RENDERED_TOKEN_RE.sub(lambda match: rng.choice(_RESPELLINGS[match.group()]), text)


_LEXEME_RE = re.compile(r"[A-Za-z_]\w*|<->|->|[|&~()]")
_BINARY_LEXEMES = ("<->", "->", "|", "&")


def malformed(rng: random.Random, text: str, kind: str) -> str:
    """``text`` as ``render`` writes it, broken in one place by ``kind``:
    ``drop`` removes an operand, ``double`` repeats an operand or binary
    operator, and ``$``, ``)`` and ``(`` insert that character before a
    lexeme or at the end.  A well-formed formula has one operand more than
    it has binary operators and balanced parentheses, so each result is
    malformed."""
    spans = [(match.start(), match.end(), match.group()) for match in _LEXEME_RE.finditer(text)]
    if kind in ("drop", "double"):
        operands = [span for span in spans if span[2][0].isalpha() or span[2][0] == "_"]
        if kind == "double":
            operands += [span for span in spans if span[2] in _BINARY_LEXEMES]
        start, end, lexeme = rng.choice(operands)
        return text[:start] + ("" if kind == "drop" else f"{lexeme} {lexeme}") + text[end:]
    at = rng.choice([start for start, _, _ in spans] + [len(text)])
    return text[:at] + kind + text[at:]


def golden_cli_inputs() -> list[tuple[str, str, bool]]:
    """The fixed corpus of the golden CLI test: ``(name, text, dimacs)``
    for 397 inputs.  Horn formula texts, random formula texts
    (non-Horn and constant-only ones included), small planted Horn DIMACS
    files with and without one all-negative clause over planted atoms,
    which makes them UNSAT, short, sometimes malformed DIMACS texts,
    formula texts whose clauses repeat a literal, 20 of the Horn texts
    and 10 of the random ones with ``<->`` spelled with the other
    operators, 22 malformed formula texts: 20 Horn or random texts
    broken by :func:`malformed`, one empty and one whitespace-only, and
    5 deep formula texts: 2,000 nested parentheses, 2,000 ``~``, a
    2,000-link ``->`` chain, a 2,000-conjunct CNF and a 10-link ``<->``
    chain."""
    rng = random.Random(2024)
    inputs = []
    for k in range(100):
        names = [f"a{i}" for i in range(rng.randint(1, 8))]
        horn = random_horn(rng, names, rng.randint(0, 25), bot_consequent_rate=0.08)
        inputs.append((f"horn-{k:03}", render(horn_to_formula(horn)), False))
    for k in range(60):
        phi = random_formula(rng, ("p", "q", "r", "s"), rng.randint(0, 4))
        inputs.append((f"formula-{k:03}", render(phi), False))
    for k in range(40):
        n_vars = rng.randint(4, 40)
        text, model = planted_horn_dimacs(rng, n_vars, rng.randint(n_vars, 3 * n_vars))
        inputs.append((f"planted-{k:03}", text, True))
        inputs.append((f"planted-unsat-{k:03}", planted_unsat_dimacs(rng, text, model), True))
    for k in range(60):
        inputs.append((f"dimacs-{k:03}", random_dimacs_text(rng), True))
    for k in range(40):
        inputs.append((f"repeat-{k:03}", repeated_literal_text(rng), False))
    with_iff = [k for k in range(100, 160) if "<->" in inputs[k][1]]
    chosen = rng.sample(range(100), 20) + rng.sample(with_iff, 10)
    for k, index in enumerate(chosen):
        inputs.append((f"spelled-{k:03}", respelled(rng, inputs[index][1]), False))
    kinds = ("drop", "double", "$", ")", "(") * 4
    broken = [malformed(rng, inputs[rng.randrange(160)][1], kind) for kind in kinds]
    for k, text in enumerate(broken + ["", " \n\t \n"]):
        inputs.append((f"malformed-{k:03}", text, False))
    inputs += [
        ("deep-parentheses", "(" * 2_000 + "p" + ")" * 2_000, False),
        ("deep-negations", "~" * 2_000 + "p", False),
        ("deep-implications", " -> ".join(f"p{k}" for k in range(2_001)), False),
        ("deep-cnf", " & ".join(f"(~a{k} | b{k})" for k in range(2_000)), False),
        ("deep-biconditionals", " <-> ".join(f"p{k}" for k in range(11)), False),
    ]
    return inputs


# The command line as argparse read it, before the CLI read argv itself;
# the reader it is checked against in ``tests/test_cli.py``.
def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="input file, or - for standard input")
    parser.add_argument(
        "--dimacs", action="store_true", help="read DIMACS CNF instead of formula text"
    )
    parser.add_argument(
        "--max-clauses",
        type=_non_negative,
        default=DEFAULT_CLAUSE_BUDGET,
        metavar="N",
        help="abort CNF conversion beyond N clauses (default %(default)s)",
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call; every
    ``parse_args`` fills a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="hornsat",
        description="Decide Horn-clause satisfiability with step traces and least models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="decide satisfiability (exit 10 SAT, 20 UNSAT)")
    _add_input_options(solve_p)
    solve_p.add_argument(
        "--no-precheck",
        action="store_true",
        help="do not report the syntactic satisfiability shortcuts",
    )
    solve_p.set_defaults(handler=_cmd_solve)

    trace_p = sub.add_parser("trace", help="solve and emit the full run as text or JSON")
    _add_input_options(trace_p)
    trace_p.add_argument("--json", action="store_true", help="emit one JSON object")
    trace_p.set_defaults(handler=_cmd_trace)

    convert_p = sub.add_parser("convert", help="print the clause list and the implication form")
    _add_input_options(convert_p)
    convert_p.set_defaults(handler=_cmd_convert)

    classify_p = sub.add_parser("classify", help="truth-table verdict: Valid/Satisfiable/Contradictory")
    classify_p.add_argument("path", help="input file, or - for standard input")
    classify_p.add_argument(
        "--max-symbols",
        type=_non_negative,
        default=DEFAULT_SYMBOL_CAP,
        metavar="N",
        help="refuse enumeration beyond N symbols (default %(default)s)",
    )
    classify_p.set_defaults(handler=_cmd_classify)

    return parser


def reference_parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed as the CLI parsed it with argparse: the namespace
    holds ``command`` and ``handler`` beside each argument."""
    return _build_parser().parse_args(argv)
