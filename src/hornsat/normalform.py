"""Literals, clauses, and equivalence-preserving CNF conversion.

Conversion distributes disjunction over conjunction (no auxiliary
variables), so the result is logically equivalent to the input, at the
cost of a possible exponential blowup.  An optional clause budget guards
against that blowup.

It is a single pass with explicit stacks, so formula depth is bounded
only by memory.  Each node is read with a polarity: a negative node
stands for the negation normal form of its negation, ``~`` flips the
polarity, and an implication reads its left side flipped.  A node that
is a conjunction under its polarity concatenates its children's clause
lists; a disjunction takes their product.  A chain of such nodes, of
any nesting, is flattened and combined left to right, so that a
right-nested chain costs no more than a left-nested one.  A
biconditional is read as the conjunction of both implications, or when
negative as ``(a & ~b) | (~a & b)``.  No negation normal form tree is
built, and clauses are lists of int literal codes until the final
simplification maps each code to its ``Literal``.

The falsum constant is an atomic formula here, so it may appear inside
literals; the verum literal is the negation of falsum.
"""

from __future__ import annotations

from .formula import And, Atom, Falsum, Formula, Iff, Implies, Not, Or, Valuation, Verum, _join, _record

__all__ = [
    "BOT",
    "TOP",
    "BOT_LITERAL",
    "TOP_LITERAL",
    "Clause",
    "ClauseBudgetError",
    "CnfFormula",
    "Literal",
    "to_cnf",
]

# Atom tokens for the two constants.  Neither is a legal atom name, so they
# can share the namespace of symbol names inside literals and solver sets.
BOT = "⊥"
TOP = "⊤"


def _token_formula(atom: str) -> Formula:
    """The formula reading of an atom token: falsum or a named atom."""
    return Falsum() if atom == BOT else Atom(atom)


class ClauseBudgetError(ValueError):
    """CNF conversion would exceed the configured clause budget."""


@_record(init=False)
class Literal:
    """A possibly negated atom; ``atom`` is a symbol name or ``BOT``."""

    atom: str
    positive: bool = True

    def __init__(self, atom: str, positive: bool = True) -> None:
        if atom == TOP:
            raise ValueError("verum is not atomic; use the negative falsum literal")
        if not atom:
            raise ValueError("literal atom must be nonempty")
        Literal.atom.__set__(self, atom)
        Literal.positive.__set__(self, positive)

    def to_formula(self) -> Formula:
        base = _token_formula(self.atom)
        return base if self.positive else Not(base)


BOT_LITERAL = Literal(BOT, positive=True)
TOP_LITERAL = Literal(BOT, positive=False)


@_record(init=False)
class Clause:
    """A disjunction of literals, in source order."""

    literals: tuple[Literal, ...]

    def __init__(self, literals: tuple[Literal, ...]) -> None:
        if not literals:
            raise ValueError("clauses are nonempty; the empty clause is (bot)")
        Clause.literals.__set__(self, literals)

    def evaluate(self, valuation: Valuation) -> int:
        for lit in self.literals:
            value = 0 if lit.atom == BOT else (1 if valuation.get(lit.atom, 0) else 0)
            if not lit.positive:
                value = 1 - value
            if value:
                return 1
        return 0

    def to_formula(self) -> Formula:
        return _join(Or, map(Literal.to_formula, self.literals), Falsum())


@_record()
class CnfFormula:
    """A conjunction of clauses, in source order."""

    clauses: tuple[Clause, ...]

    # Clause by clause, not ``evaluate(self.to_formula(), ...)``: building
    # the readback for every row took the 500-formula CNF equivalence check
    # (acceptance criterion 9) from 3.6 s to 318 s, against its 10 s bound
    # (CPython 3.11, 2-vCPU VM).
    def evaluate(self, valuation: Valuation) -> int:
        for clause in self.clauses:
            if not clause.evaluate(valuation):
                return 0
        return 1

    def symbols(self) -> set[str]:
        return {lit.atom for clause in self.clauses for lit in clause.literals if lit.atom != BOT}

    def to_formula(self) -> Formula:
        return _join(And, map(Clause.to_formula, self.clauses), Verum())


# Clauses are built as lists of small int literal codes, one per distinct
# (atom, positive) pair, interned once per leaf occurrence: a blowup repeats
# the same few literals across hundreds of thousands of clauses, and ints
# hash and compare cheaper than tuples.  Code 0 is ``BOT_LITERAL`` and
# code 1 ``TOP_LITERAL``.
_BOT_CODE = 0
_TOP_CODE = 1

# Work-stack markers: combine the two clause lists on top of the value stack.
_CONCAT = object()
_PRODUCT = object()


def _chain_operands(node: Formula, positive: bool) -> list[tuple[Formula, bool]]:
    """The operands, left to right, of the largest chain of connectives
    below ``node`` that are conjunctions under their polarity, or of the
    largest chain that are disjunctions, negations included.

    Concatenation and the product of clause lists are associative, so the
    chain has the clause list of its binary tree whatever the nesting;
    folding it left to right copies each operand once, which keeps
    right-nested chains linear.
    """
    conjunctive = isinstance(node, And) == positive
    operands: list[tuple[Formula, bool]] = []
    pending: list[tuple[Formula, bool]] = [(node, positive)]
    while pending:
        sub, sign = pending.pop()
        while isinstance(sub, Not):
            sub, sign = sub.operand, not sign
        if isinstance(sub, (And, Or, Implies)) and (isinstance(sub, And) == sign) == conjunctive:
            pending.append((sub.right, sign))
            pending.append((sub.left, not sign if isinstance(sub, Implies) else sign))
        else:
            operands.append((sub, sign))
    return operands


def _clause_lists(phi: Formula, budget: int | None) -> tuple[list[list[int]], list[Literal]]:
    """The clauses of ``phi`` as lists of literal codes, in source order,
    and the literal of each code.

    Every clause list on the value stack, and every clause in it, has
    exactly one owner, so concatenation and a product with a single
    right-hand clause extend in place.
    """
    literals = [BOT_LITERAL, TOP_LITERAL]
    code_of: dict[tuple[str, bool], int] = {}
    todo: list[tuple[object, bool]] = [(phi, True)]
    values: list[list[list[int]]] = []
    while todo:
        node, positive = todo.pop()
        if node is _CONCAT:
            right = values.pop()
            left = values[-1]
            left.extend(right)
            if budget is not None and len(left) > budget:
                raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
        elif node is _PRODUCT:
            right = values.pop()
            left = values.pop()
            if budget is not None and len(left) * len(right) > budget:
                raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
            if len(right) == 1:
                # Keeps a disjunction of literals linear.
                for left_clause in left:
                    left_clause.extend(right[0])
                values.append(left)
            else:
                values.append([lc + rc for lc in left for rc in right])
        elif isinstance(node, Atom):
            key = (node.name, positive)
            code = code_of.get(key)
            if code is None:
                code = code_of[key] = len(literals)
                literals.append(Literal(*key))
            values.append([[code]])
        elif isinstance(node, Falsum):
            values.append([[_BOT_CODE if positive else _TOP_CODE]])
        elif isinstance(node, Verum):
            values.append([[_TOP_CODE if positive else _BOT_CODE]])
        elif isinstance(node, Not):
            todo.append((node.operand, not positive))
        elif isinstance(node, Iff):
            a, b = node.left, node.right
            if positive:
                todo.append((And(Implies(a, b), Implies(b, a)), True))
            else:
                todo.append((Or(And(a, Not(b)), And(Not(a), b)), True))
        elif isinstance(node, (And, Or, Implies)):
            # Operand 1, operand 2, marker, operand 3, marker, ...: the
            # budget is checked as soon as each operand is combined.
            combine = (_CONCAT if isinstance(node, And) == positive else _PRODUCT, positive)
            operands = _chain_operands(node, positive)
            for operand in reversed(operands[1:]):
                todo.append(combine)
                todo.append(operand)
            todo.append(operands[0])
        else:
            raise TypeError(f"not a formula: {node!r}")
    # A single leaf, however negated, never reaches a combine marker.
    if budget is not None and len(values[0]) > budget:
        raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
    return values[0], literals


def to_cnf(phi: Formula, max_clauses: int | None = None) -> CnfFormula:
    """Convert ``phi`` into an equivalent conjunction of clauses.

    Clause and literal order follow the source formula left to right.
    Simplification is minimal: clauses containing the verum literal are
    dropped, duplicate literals are dropped, and falsum literals are
    dropped from clauses that have other literals.  If every clause is
    dropped, the single verum clause remains.
    """
    raw, literals = _clause_lists(phi, max_clauses)
    literal_at = literals.__getitem__
    clauses: list[Clause] = []
    for codes in raw:
        if _TOP_CODE in codes:
            continue
        # Rebuilt only when there is something to drop: on the seed-1
        # formula_cnf pool no clause of 146,655 repeats a literal and 1.9%
        # carry falsum beside another literal, and skipping the dict took
        # this loop from 0.40 s to 0.31 s (collector off, 2-vCPU VM).
        if _BOT_CODE in codes or len(set(codes)) < len(codes):
            kept = dict.fromkeys(codes)
            if len(kept) > 1:
                kept.pop(_BOT_CODE, None)
            codes = kept
        clauses.append(Clause(tuple(map(literal_at, codes))))
    if not clauses:
        clauses.append(Clause((TOP_LITERAL,)))
    return CnfFormula(tuple(clauses))
