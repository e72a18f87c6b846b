"""The satisfiability engine for Horn formulas.

Starting from the set {verum}, the engine repeatedly fires the leftmost
implication whose antecedent atoms are all in the current set, adds its
consequent, and removes the implication.  The run stops at a fixpoint;
the input is satisfiable exactly when falsum never entered the set.  Each
run is recorded as a trace of steps, and for satisfiable inputs the final
set reads off the least model.

Saturation grows the set monotonically: the final set always contains the
start set and adds nothing beyond the consequents, the result is the same
for any firing order, and a run over n implications takes at most n
firings plus one terminal step.

The engine follows the linear-time scheme of Dowling and Gallier without
rescanning, on the formula's literal codes, each implication's run read
as it stands: the set is a ``bytearray`` with a flag per atom, mirrored
at each atom's negated code in a flag per code whose positive codes are
always set, so a run's consequent is never counted.  No implication
object is built.  Its invariant: an unfired implication's count is the
number of its antecedent atoms not in the set, one per occurrence, and
each such atom lists the implications that miss it, in a list indexed by
its negated code.  Only consequents can enter the set, so counting stops
at a missing atom that is none: the count stays positive.  When an atom
enters, the counts on its list drop by one, and an implication whose
count reaches zero puts its input position on a min-heap.  As the set
only grows, the heap's minimum is always the leftmost fireable
implication.  Every antecedent atom is counted and decremented at most
once: O(total clause size + n log n) time.  A start set that completes
no antecedent, one with no atom of the table when every antecedent has
an atom, is already the fixpoint, and is returned without counting.

A run is stored as the paper's recursion determines it: each call fires
the leftmost fireable implication and adds its consequent, so the start
set and the firings' input positions, in order, are the whole run.  A
:class:`Trace` stores these and the formula, compares and hashes by those
three, and builds steps only when read (one forward replay to iterate or
reverse), so a run that reads no trace does linear work and keeps one int
per firing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from heapq import heappop, heappush
from itertools import compress, islice

from .formula import _record
from .horn import HornFormula, HornImplication
from .normalform import _BOT_ATOM, BOT, TOP

__all__ = [
    "SHORTCUT_NO_BOT_CONSEQUENT",
    "SHORTCUT_NO_TOP_ANTECEDENT",
    "SolveOutcome",
    "TraceStep",
    "extract_model",
    "precheck",
    "saturate",
    "solve",
]

SHORTCUT_NO_BOT_CONSEQUENT = "no implication has consequent bot"
SHORTCUT_NO_TOP_ANTECEDENT = "no antecedent is top"


@_record
class TraceStep:
    """One engine step.

    ``fired_index`` is the implication's position in the original input
    order, or None for the terminal step that detects the fixpoint.
    Within a run, each step's ``set_before`` equals the previous step's
    ``set_after``.
    """

    fired_index: int | None
    consequent_added: str | None
    set_before: frozenset[str]
    set_after: frozenset[str]
    remaining_after: int


@_record
class Trace:
    """One run: the formula, the start set and the input position of each
    firing, in order; equality, hash, copy and pickle cover just these.

    It reads like the tuple of its steps (:class:`TraceStep`), each built
    when read, with a terminal step after the last firing: ``len``, indexing
    (a slice is a tuple), iteration, ``in`` and ``reversed``.  Step k's
    ``set_before`` is ``start`` plus the first k firings' consequents, so
    reading step k alone costs O(|start| + k); iterating (and ``reversed``,
    one forward replay) builds each set from the one before, and shares it
    (``set_after is set_before``) when a firing adds nothing.
    """

    formula: HornFormula
    start: frozenset[str]
    fired: tuple[int, ...]

    @property
    def implications(self) -> tuple[HornImplication, ...]:
        return self.formula.implications

    def __len__(self) -> int:
        return len(self.fired) + 1

    def __getitem__(self, key):
        positions = range(len(self))[key]
        if isinstance(positions, range):
            low, high = min(positions, default=0), max(positions, default=-1)
            window = tuple(islice(self._steps(low), high + 1 - low))
            return tuple(window[k - low] for k in positions)
        return next(self._steps(positions))

    def __iter__(self) -> Iterator[TraceStep]:
        return self._steps()

    def __reversed__(self) -> Iterator[TraceStep]:
        return reversed(self[:])

    def _consequents(self) -> Iterator[str]:
        """The consequent of each firing, in order."""
        names, heads = self.formula._coded[:2]
        return (names[heads[index]] for index in self.fired)

    def _steps(self, k: int = 0) -> Iterator[TraceStep]:
        consequents = self._consequents()
        after = self.start.union(islice(consequents, k))
        remaining = self.formula.n - k
        for index, consequent in zip(islice(self.fired, k, None), consequents):
            before = after
            if consequent not in before:
                after = before | {consequent}
            remaining -= 1
            yield TraceStep(index, consequent, before, after, remaining)
        yield TraceStep(None, None, after, after, remaining)


@_record
class SolveOutcome:
    satisfiable: bool
    final_set: frozenset[str]
    trace: Trace
    steps: int  # firings plus one terminal step


def saturate(
    phi: HornFormula,
    start: Iterable[str],
    early_stop: bool = False,
) -> tuple[frozenset[str], Trace]:
    """Run the engine from ``start`` (which must contain TOP) to a fixpoint.

    Returns the accumulated set and the trace.  With ``early_stop`` the
    run halts as soon as BOT enters the set; the returned set is then a
    subset of the full fixpoint that already contains BOT, which settles
    satisfiability just as well.
    """
    start = frozenset(start)
    if TOP not in start:
        raise ValueError("the start set must contain the verum token")
    names = phi._coded[0]
    current = bytearray(map(start.__contains__, names))
    # The run's working lists are gone before the final set grows.
    fired = tuple(_fire(phi, current, early_stop))
    return start.union(compress(names, current)), Trace(phi, start, fired)


def _fire(phi: HornFormula, current: bytearray, early_stop: bool) -> list[int]:
    """Fire implications of ``phi`` on ``current``, the set as a flag per
    atom, until none is fireable (or, with ``early_stop``, falsum is in
    it); the input positions fired, in order."""
    _, heads, codes, spans, sizes = phi._coded
    if 0 not in sizes and 1 not in current:
        return []  # every antecedent has an atom, and no atom is in the set
    # Per code, 0 for a negated code whose atom is not in the set; positive
    # codes are 1, so a run's consequent is never counted.  Read only while
    # counting, before anything fires.
    present = bytearray(b"\1") * (2 * len(current))
    present[1::2] = current
    waiting: list[list[int] | None] = [None] * len(present)
    for head in set(heads):
        waiting[2 * head + 1] = []
    missing: list[int] = []  # per implication: antecedent atoms not in the set
    fireable: list[int] = []  # a min-heap of input positions
    end = 0
    for index, span in enumerate(spans):
        start, end = end, end + span
        count = 0
        for code in codes[start:end]:
            if not present[code]:
                count += 1
                waiters = waiting[code]
                if waiters is None:
                    break  # never enters the set, so this one never fires
                waiters.append(index)
        missing.append(count)
        if not count:
            fireable.append(index)  # in ascending order, so already a heap

    fired: list[int] = []
    while fireable and not (early_stop and current[_BOT_ATOM]):
        index = heappop(fireable)
        head = heads[index]
        if not current[head]:
            current[head] = 1
            for waiter in waiting[2 * head + 1]:
                missing[waiter] -= 1
                if not missing[waiter]:
                    heappush(fireable, waiter)
        fired.append(index)
    return fired


def solve(phi: HornFormula, early_stop: bool = False) -> SolveOutcome:
    """Decide satisfiability of ``phi``: saturate from {verum} and test
    whether falsum entered the final set."""
    final, trace = saturate(phi, frozenset((TOP,)), early_stop)
    return SolveOutcome(BOT not in final, final, trace, len(trace))


def precheck(phi: HornFormula) -> tuple[str, ...]:
    """Syntactic shortcuts that settle satisfiability without saturating.

    Returns the applicable reasons (possibly both), or the empty tuple
    when no shortcut applies.  Falsum can only enter the set as the
    consequent of some implication, so a formula with no falsum
    consequent is satisfiable; and with no verum antecedent nothing can
    fire from {verum}, so saturation stops immediately at {verum}, and
    :func:`solve` returns that set without counting any antecedent.
    """
    _, heads, _, _, sizes = phi._coded
    reasons = []
    if _BOT_ATOM not in heads:
        reasons.append(SHORTCUT_NO_BOT_CONSEQUENT)
    if 0 not in sizes:  # no antecedent is empty
        reasons.append(SHORTCUT_NO_TOP_ANTECEDENT)
    return tuple(reasons)


def extract_model(phi: HornFormula, final_set: frozenset[str]) -> dict[str, int]:
    """Read the least model off a falsum-free final set.

    The model names every symbol of ``phi``'s atom table, in sorted order,
    and maps it to 1 exactly when it is in the set.  The table names every
    symbol a model must name, and no other: :func:`to_cnf` tables every
    atom of its formula, even one whose clauses are all dropped, and
    :func:`parse_dimacs` every variable that occurs.  The resulting
    valuation satisfies the formula reading of ``phi``, and every model of
    ``phi`` assigns 1 wherever this one does.
    """
    if BOT in final_set:
        raise ValueError("no model: falsum is in the final set")
    return {name: int(name in final_set) for name in sorted(phi._coded[0][1:])}
