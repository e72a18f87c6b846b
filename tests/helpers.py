"""Shared builders for the test suite: golden inputs and random generators."""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

import hypothesis.strategies as st

from hornsat import (
    BOT,
    And,
    Atom,
    Clause,
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
    antecedent_atoms,
)

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


def clause_strategy(names=("p", "q", "r")):
    literal = st.builds(Literal, st.sampled_from(list(names) + [BOT]), st.booleans())
    return st.builds(Clause, st.lists(literal, min_size=1, max_size=4).map(tuple))
