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
right-nested chain costs no more than a left-nested one.  Facts and
rules already are clauses, so each run of literals in a chain, and of
literals and rules in a conjunctive one, is read in one step, and the
clause budget is checked as each run or other operand is added.  A
product is deferred: its operands' clause counts are multiplied and
checked against the budget, and its factors are kept until a
conjunction needs its clauses, when it is built once, pairwise and
balanced.  So a formula over the budget is refused before any product is
built.  A biconditional is read as the conjunction of both implications,
or when negative as ``(a & ~b) | (~a & b)``.  No negation normal form
tree is built.

Clauses are int literal codes throughout, as in MiniSat (Een and
Sorensson, "An Extensible SAT-solver", SAT 2003): atom ``k`` of a
formula's name table is the code ``2k`` as a positive literal and
``2k + 1`` negated, and atom 0 is falsum.  A :class:`CnfFormula` holds the
table, the clauses' codes end to end and each clause's length, and builds
its :class:`Clause` objects only when ``clauses`` is read.

The pass counts the leaves it reads.  When there are as many as there are
distinct atoms, the formula is read-once: no constant and no atom twice,
and a biconditional, which reads its sides twice, never is.  Its clauses
then hold no verum, no falsum and no repeated literal, so they skip the
clean-up that any other formula's clauses go through one by one.  When a
read-once formula is a product of more than one factor, the product's
last level is then written straight into the codes: each half of its
factors is multiplied out, and each left clause's codes, then each right
clause's, are appended to one list, so no final clause is built as a
list.  Any other clauses, cleaned or not, are copied out in one pass,
into one list of codes.

The falsum constant is an atomic formula here, so it may appear inside
literals; the verum literal is the negation of falsum.
"""

from __future__ import annotations

from itertools import islice

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

# Atom tokens for the two constants: the words the grammar reserves for
# them.  No atom name and no DIMACS name ``x<k>`` is either word, so they
# share the namespace of symbol names inside literals and solver sets, and
# every output prints them as they are.
BOT = "bot"
TOP = "top"


def _token_formula(atom: str) -> Formula:
    """The formula reading of an atom token: falsum or a named atom."""
    return Falsum() if atom == BOT else Atom(atom)


class ClauseBudgetError(ValueError):
    """CNF conversion would exceed the configured clause budget."""


@_record
class Literal:
    """A possibly negated atom; ``atom`` is a symbol name or ``BOT``."""

    atom: str
    positive: bool

    def __init__(self, atom: str, positive: bool = True) -> None:
        if atom == TOP:
            raise ValueError("verum is not atomic; use the negative falsum literal")
        if not atom:
            raise ValueError("literal atom must be nonempty")
        _set_literal_atom(self, atom)
        _set_literal_positive(self, positive)

    def to_formula(self) -> Formula:
        base = _token_formula(self.atom)
        return base if self.positive else Not(base)


_set_literal_atom, _set_literal_positive = Literal.atom.__set__, Literal.positive.__set__


BOT_LITERAL = Literal(BOT, positive=True)
TOP_LITERAL = Literal(BOT, positive=False)


@_record
class Clause:
    """A disjunction of literals, in source order."""

    literals: tuple[Literal, ...]

    def __init__(self, literals: tuple[Literal, ...]) -> None:
        if not literals:
            raise ValueError("clauses are nonempty; the empty clause is (bot)")
        _set_clause_literals(self, literals)

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


_set_clause_literals = Clause.literals.__set__


# Literal codes: atom ``k`` of a name table is ``2k`` positive and
# ``2k + 1`` negated.  Atom 0 is falsum, so code 0 is ``BOT_LITERAL`` and
# code 1 ``TOP_LITERAL``.
_BOT_ATOM = 0
_BOT_CODE = 0
_TOP_CODE = 1


def _literal(names: tuple[str, ...], code: int) -> Literal:
    """The literal of ``code`` on the atom table ``names``."""
    return Literal(names[code >> 1], not code & 1)


@_record
class CnfFormula:
    """A conjunction of clauses, in source order.

    ``_coded`` holds them as codes: the atom table, the clauses' literal
    codes end to end, and each clause's length.  The formula is built from
    ``clauses``, which it encodes once, or by the package's own passes from
    ``coded``, when ``clauses`` is built the first time it is read.
    Equality, hash, copies and pickles go by ``clauses``.
    """

    clauses: tuple[Clause, ...]
    _coded: tuple[tuple, tuple[int, ...], tuple[int, ...]]

    def __init__(
        self, clauses: tuple[Clause, ...] | None = None, *, coded: tuple | None = None
    ) -> None:
        if coded is None:
            code_of = {BOT: _BOT_ATOM}
            codes = [
                2 * code_of.setdefault(lit.atom, len(code_of)) + (not lit.positive)
                for clause in clauses
                for lit in clause.literals
            ]
            coded = tuple(code_of), tuple(codes), tuple(len(c.literals) for c in clauses)
            _set_clauses(self, clauses)
        _set_cnf_coded(self, coded)

    def __getattr__(self, name: str):
        # Reached only for an unset slot: ``clauses`` of a formula built
        # from codes, until it is first read.
        if name != "clauses":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names, codes, sizes = self._coded
        literal_of = {code: _literal(names, code) for code in set(codes)}.__getitem__
        codes = iter(codes)
        clauses = tuple(Clause(tuple(map(literal_of, islice(codes, size)))) for size in sizes)
        _set_clauses(self, clauses)
        return clauses

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
        """The symbols of the atom table: from :func:`to_cnf`, every symbol
        of the source formula, one held only by dropped clauses included."""
        return set(self._coded[0][1:])

    def to_formula(self) -> Formula:
        return _join(And, map(Clause.to_formula, self.clauses), Verum())


_set_clauses = CnfFormula.clauses.__set__
_set_cnf_coded = CnfFormula._coded.__set__


# Work-stack markers: combine the two clause lists on top of the value stack.
_CONCAT = object()
_PRODUCT = object()

_CHAIN_TYPES = (And, Or, Implies)
# A lone leaf is read as a chain of one literal.
_READ_AS_CHAIN = frozenset({*_CHAIN_TYPES, Atom, Falsum, Verum})


def _clause_of(node: Formula, positive: bool) -> list[tuple[str, bool]] | None:
    """The literals, left to right, of ``node`` if it is a literal or a
    chain of disjunctions of literals, negations included: ``(key,
    negated)`` pairs whose key is an atom's name, or ``BOT`` for both
    constants.  Otherwise None."""
    clause = []
    pending = [(node, positive)]
    while pending:
        sub, sign = pending.pop()
        kind = type(sub)
        while kind is Not:
            sub, sign = sub.operand, not sign
            kind = type(sub)
        if kind is Atom:
            clause.append((sub.name, not sign))
        elif kind in _CHAIN_TYPES and (kind is And) != sign:
            pending.append((sub.right, sign))
            pending.append((sub.left, not sign if kind is Implies else sign))
        elif kind is Falsum:
            clause.append((BOT, not sign))
        elif kind is Verum:
            clause.append((BOT, sign))
        else:
            return None
    return clause


def _chain_operands(node: Formula, positive: bool) -> list[tuple[object, bool]]:
    """The operands, left to right, of the largest chain of connectives
    below ``node`` that are conjunctions under their polarity, or of the
    largest chain that are disjunctions, negations included, with each run
    of consecutive clause-shaped operands folded into one.

    Concatenation and the product of clause lists are associative, so the
    chain has the clause list of its binary tree whatever the nesting.
    A conjunctive chain is concatenated left to right, copying each operand
    once, which keeps right-nested chains linear; a disjunctive one is
    multiplied out once, by :func:`_product`.

    A literal is clause-shaped, and in a conjunctive chain so is a rule,
    a disjunctive chain of literals.  A run is a list of clauses as
    :func:`_clause_of` gives them: in a conjunctive chain one per literal
    or rule, in a disjunctive chain one clause of all its literals.
    """
    conjunctive = (type(node) is And) == positive
    operands: list[tuple[object, bool]] = []
    add = None  # adds a clause to the open run
    pending: list[tuple[Formula, bool]] = [(node, positive)]
    while pending:
        sub, sign = pending.pop()
        kind = type(sub)
        while kind is Not:
            sub, sign = sub.operand, not sign
            kind = type(sub)
        if kind is Atom:  # the commonest operand, read without a call
            clause = [(sub.name, not sign)]
        elif kind in _CHAIN_TYPES and ((kind is And) == sign) == conjunctive:
            pending.append((sub.right, sign))
            pending.append((sub.left, not sign if kind is Implies else sign))
            continue
        else:
            clause = _clause_of(sub, sign)
            if clause is None:
                operands.append((sub, sign))
                add = None
                continue
        if add is None:
            run = [] if conjunctive else [[]]
            operands.append((run, positive))
            add = run.append if conjunctive else run[0].extend
        add(clause)
    return operands


def _product(factors: list[list[list[int]]]) -> list[list[int]]:
    """The ordered product of clause lists: each clause of the first joined
    with each of the second, and so on, in order.

    The product is associative, so it is built pairwise and balanced: each
    clause is copied once per level, about ``log2(len(factors))`` times,
    where a left-to-right fold copies it once per factor.  No intermediate
    product is larger than the whole.
    """
    while len(factors) > 1:
        paired = [[lc + rc for lc in left for rc in right] for left, right in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def _clause_lists(phi: Formula, budget: int | None) -> tuple[list[list[list[int]]], list[str], bool]:
    """The clauses of ``phi`` as lists of literal codes, in source order,
    the name table of their atoms, and whether ``phi`` is read-once: every
    leaf a distinct atom, so no constant and no atom read twice.

    The clauses come as the factors of a deferred product: the clause
    lists whose ordered product they are, left for :func:`to_cnf` to
    build.  Each value on the stack is its clause count and such a list of
    factors.  A product marker multiplies the counts and joins the factor
    lists, and only a concatenation builds a product, with
    :func:`_product`.  So the budget is checked per operand on the clause
    count alone, and a formula over it fails before any product is built.
    Every clause list, and every clause in it, has exactly one owner, so
    concatenation extends in place.

    A run of more than one literal checks its clause count against the
    budget before the next operand is read, as the markers joining its
    literals one at a time would have; so a formula over the budget fails
    at the same operand, and a non-formula past that point is never read.
    """
    code_of = {BOT: _BOT_ATOM}
    leaves = 0  # atoms and constants read; a biconditional reads its sides twice
    todo: list[tuple[object, bool]] = [(phi, True)]
    values: list[tuple[int, list[list[list[int]]]]] = []
    while todo:
        node, positive = todo.pop()
        kind = type(node)
        if node is _CONCAT:
            right_count, right = values.pop()
            left_count, left = values.pop()
            count = left_count + right_count
            if budget is not None and count > budget:
                raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
            clauses = _product(left)
            clauses += _product(right)
            values.append((count, [clauses]))
        elif node is _PRODUCT:
            right_count, right = values.pop()
            left_count, left = values.pop()
            count = left_count * right_count
            if budget is not None and count > budget:
                raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
            left += right
            values.append((count, left))
        elif kind is list:
            # A run: each literal's atom gets the next code on first sight.
            count = sum(map(len, node))
            leaves += count
            if budget is not None and count > 1 and len(node) > budget:
                raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
            atom = code_of.setdefault
            if count == len(node):
                clauses = [[2 * atom(key, len(code_of)) + negated] for [(key, negated)] in node]
            else:
                clauses = [[2 * atom(key, len(code_of)) + negated for key, negated in clause] for clause in node]
            values.append((len(node), [clauses]))
        elif kind is Not:
            todo.append((node.operand, not positive))
        elif kind is Iff:
            a, b = node.left, node.right
            if positive:
                todo.append((And(Implies(a, b), Implies(b, a)), True))
            else:
                todo.append((Or(And(a, Not(b)), And(Not(a), b)), True))
        elif kind in _READ_AS_CHAIN:
            # Operand 1, operand 2, marker, operand 3, marker, ...: the
            # budget is checked as soon as each operand is combined.
            combine = (_CONCAT if (kind is And) == positive else _PRODUCT, positive)
            operands = _chain_operands(node, positive)
            for operand in reversed(operands[1:]):
                todo.append(combine)
                todo.append(operand)
            todo.append(operands[0])
        else:
            raise TypeError(f"not a formula: {node!r}")
    # A single leaf, however negated, never reaches a combine marker.
    count, factors = values[0]
    if budget is not None and count > budget:
        raise ClauseBudgetError(f"conversion exceeds the budget of {budget} clauses")
    return factors, list(code_of), leaves == len(code_of) - 1


def _flat_product(factors: list[list[list[int]]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ordered product of ``factors`` as codes end to end, and each of
    its clauses' lengths.

    A lone factor's clauses are copied out as they are.  Otherwise each
    half of the factors is multiplied out by :func:`_product`, and the last
    level is written straight into the codes: each clause of the left half
    followed by each clause of the right, so the clauses of the whole are
    never built as lists.  The product is associative, so the order is the
    same.
    """
    flat: list[int] = []
    if len(factors) > 1:
        half = len(factors) // 2
        left, right = _product(factors[:half]), _product(factors[half:])
        right_sizes = [*map(len, right)]
        sizes = tuple([size + other for size in map(len, left) for other in right_sizes])
        for left_clause in left:
            for right_clause in right:
                flat += left_clause
                flat += right_clause
        return tuple(flat), sizes
    clauses = factors[0]
    sizes = tuple(map(len, clauses))
    # ``iter(clauses.pop, None)`` pops the clauses in order, down to the
    # ``None`` at the bottom, so that each is dropped as soon as its codes
    # are copied and the two never hold a large formula twice over.  The
    # codes gather in a list and go into a tuple of their exact length at
    # once: a tuple built from an iterator of unknown length is regrown as
    # it fills.
    clauses.append(None)
    clauses.reverse()
    for clause in iter(clauses.pop, None):
        flat += clause
    return tuple(flat), sizes


def to_cnf(phi: Formula, max_clauses: int | None = None) -> CnfFormula:
    """Convert ``phi`` into an equivalent conjunction of clauses.

    Clause and literal order follow the source formula left to right.
    Simplification is minimal: clauses containing the verum literal are
    dropped, duplicate literals are dropped, and falsum literals are
    dropped from clauses that have other literals.  If every clause is
    dropped, the single verum clause remains.

    A read-once formula, whose leaves are distinct atoms, has nothing to
    drop: each clause takes its literals from distinct leaves, so its
    clauses skip the clean-up, and when it is a product of more than one
    factor, the product's last level is written straight into the codes.
    Any other formula's product is built, cleaned and then copied out as
    one factor.
    """
    factors, names, read_once = _clause_lists(phi, max_clauses)
    if not read_once:
        kept = []
        for clause in _product(factors):
            if _TOP_CODE in clause:
                continue
            # Rebuilt only when there is something to drop: on the seed-1
            # formula_cnf pool, 12,195 clauses come this way, none repeats a
            # literal and 22% carry falsum, and this loop takes 5.5-9.8 ms a
            # pass, against 6.7-12.0 ms when every clause goes through the
            # dict (4 runs, collector off, 2-vCPU VM).
            if _BOT_CODE in clause or len(set(clause)) < len(clause):
                clause = dict.fromkeys(clause)
                if len(clause) > 1:
                    clause.pop(_BOT_CODE, None)
            kept.append(clause)
        factors = [kept or [[_TOP_CODE]]]
    codes, sizes = _flat_product(factors)
    return CnfFormula(coded=(tuple(names), codes, sizes))
