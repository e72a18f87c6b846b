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

A run logs each atom once, in the order it entered the set, and every
trace step records two prefix lengths into that log.  ``set_before`` and
``set_after`` are built only when read, so a run that reads no trace sets
does linear work.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Sequence

from .formula import _record
from .horn import HornFormula, horn_symbols
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


class TraceStep:
    """One engine step.

    ``fired_index`` is the implication's position in the original input
    order, or None for the terminal step that detects the fixpoint.
    ``set_before`` and ``set_after`` are the first ``before`` and ``after``
    atoms of the run's log, built on each read.  Within a run, each step's
    ``set_before`` equals the previous step's ``set_after``.
    """

    # Written out by hand, not as a dataclass: equality and hash are over
    # the two derived sets, not over the stored log and prefix lengths.
    __slots__ = ("_fired_index", "_consequent_added", "_remaining_after", "_log", "_before", "_after")

    def __init__(
        self,
        fired_index: int | None,
        consequent_added: str | None,
        remaining_after: int,
        log: Sequence[str],
        before: int,
        after: int,
    ) -> None:
        self._fired_index = fired_index
        self._consequent_added = consequent_added
        self._remaining_after = remaining_after
        self._log = log
        self._before = before
        self._after = after

    @property
    def fired_index(self) -> int | None:
        return self._fired_index

    @property
    def consequent_added(self) -> str | None:
        return self._consequent_added

    @property
    def remaining_after(self) -> int:
        return self._remaining_after

    @property
    def set_before(self) -> frozenset[str]:
        return frozenset(self._log[: self._before])

    @property
    def set_after(self) -> frozenset[str]:
        return frozenset(self._log[: self._after])

    def _values(self) -> tuple:
        return (
            self.fired_index,
            self.consequent_added,
            self.set_before,
            self.set_after,
            self.remaining_after,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceStep):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = ("fired_index", "consequent_added", "set_before", "set_after", "remaining_after")
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._values()))
        return f"TraceStep({fields})"


@_record()
class SolveOutcome:
    satisfiable: bool
    final_set: frozenset[str]
    trace: tuple[TraceStep, ...]
    steps: int  # firings plus one terminal step


def saturate(
    phi: HornFormula,
    start: Iterable[str],
    early_stop: bool = False,
) -> tuple[frozenset[str], tuple[TraceStep, ...]]:
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

    remaining = len(implications)
    trace: list[TraceStep] = []
    while fireable and not (early_stop and BOT in current):
        index = heappop(fireable)
        consequent = implications[index].consequent
        before = len(log)
        remaining -= 1
        if consequent not in current:
            current.add(consequent)
            log.append(consequent)
            for waiter in waiting.pop(consequent, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    heappush(fireable, waiter)
        trace.append(TraceStep(index, consequent, remaining, log, before, len(log)))
    trace.append(TraceStep(None, None, remaining, log, len(log), len(log)))
    return frozenset(current), tuple(trace)


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
