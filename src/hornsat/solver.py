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
rescanning.  Its invariant: an unfired implication's count is the number
of its antecedent atoms not in the set, one per occurrence, and each such
atom lists the implications that miss it.  Only consequents can enter the
set, so counting stops at a missing atom that is none: the count stays
positive.  When an atom enters, the counts on its list drop by one, and an
implication whose count reaches zero puts its input position on a
min-heap.  As the set only grows, the heap's minimum is always the
leftmost fireable implication.  Every antecedent atom is counted and
decremented at most once: O(total antecedent size + n log n) time.

A run is stored flat, as the paper's sequence of sets reads it: each set
is a prefix of the atom log, which holds each atom once in the order it
entered, and the fired implication decides which prefix.  So the log, the
input position of each firing and the log's length at each step are the
whole run (see :class:`Trace`).  A step and its two sets are built only
when read, so a run that reads no trace does linear work and keeps one
int per firing and per step.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from heapq import heappop, heappush

from .formula import _record
from .horn import HornFormula, HornImplication, horn_symbols
from .normalform import BOT, TOP

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


@_record()
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


@_record()
class Trace(Sequence):
    """The steps of one run, each built as a :class:`TraceStep` when read.

    ``log`` holds each atom of the final set once, in the order it entered,
    the start set first.  ``fired`` holds the input position into
    ``implications`` of each fired implication, in firing order, and
    ``sizes[k]`` is the log's length before step k, with one final entry
    for its length after the last step.  So step k's ``set_before`` and
    ``set_after`` are the first ``sizes[k]`` and ``sizes[k + 1]`` atoms of
    the log, and the step after the last firing is the terminal one.
    Equality and hash are over the steps, so a trace equals the tuple of
    its steps.
    """

    implications: Sequence[HornImplication]
    log: Sequence[str]
    fired: Sequence[int]
    sizes: Sequence[int]

    def __len__(self) -> int:
        return len(self.sizes) - 1

    def __getitem__(self, key):
        positions = range(len(self))[key]
        if isinstance(positions, range):
            return tuple(map(self._step, positions))
        return self._step(positions)

    def __iter__(self) -> Iterator[TraceStep]:
        return map(self._step, range(len(self)))

    def _step(self, k: int) -> TraceStep:
        log, sizes, fired = self.log, self.sizes, self.fired
        index = fired[k] if k < len(fired) else None
        consequent = None if index is None else self.implications[index].consequent
        remaining = len(self.implications) - min(k + 1, len(fired))
        before, after = frozenset(log[: sizes[k]]), frozenset(log[: sizes[k + 1]])
        return TraceStep(index, consequent, before, after, remaining)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Trace, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@_record()
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
    current = set(start)
    if TOP not in current:
        raise ValueError("the start set must contain the verum token")
    log = list(current)
    implications = phi.implications
    missing: list[int] = []  # per implication: antecedent atoms not in the set
    waiting: dict[str, list[int]] = {imp.consequent: [] for imp in implications}
    fireable: list[int] = []  # a min-heap of input positions
    for index, imp in enumerate(implications):
        count = 0
        for atom in imp.antecedent.atoms:
            if atom not in current:
                count += 1
                if atom not in waiting:
                    break  # never enters the set, so this one never fires
                waiting[atom].append(index)
        missing.append(count)
        if not count:
            fireable.append(index)  # in ascending order, so already a heap

    fired: list[int] = []
    sizes = [len(log)]
    while fireable and not (early_stop and BOT in current):
        index = heappop(fireable)
        consequent = implications[index].consequent
        if consequent not in current:
            current.add(consequent)
            log.append(consequent)
            for waiter in waiting.pop(consequent, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    heappush(fireable, waiter)
        fired.append(index)
        sizes.append(len(log))
    sizes.append(len(log))
    return frozenset(current), Trace(implications, log, fired, sizes)


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
    fire from {verum}, so saturation stops immediately at {verum}.
    """
    reasons = []
    if all(imp.consequent != BOT for imp in phi.implications):
        reasons.append(SHORTCUT_NO_BOT_CONSEQUENT)
    if all(imp.antecedent.atoms for imp in phi.implications):
        reasons.append(SHORTCUT_NO_TOP_ANTECEDENT)
    return tuple(reasons)


def extract_model(phi: HornFormula, final_set: frozenset[str]) -> dict[str, int]:
    """Read the least model off a falsum-free final set.

    Every symbol in the set maps to 1; every other symbol of ``phi`` maps
    to 0.  The resulting valuation satisfies the formula reading of
    ``phi``, and every model of ``phi`` assigns 1 wherever this one does.
    """
    if BOT in final_set:
        raise ValueError("no model: falsum is in the final set")
    model = {atom: 1 for atom in sorted(final_set) if atom not in (BOT, TOP)}
    for name in sorted(horn_symbols(phi)):
        model.setdefault(name, 0)
    return model
