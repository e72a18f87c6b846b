"""Command-line front end: solve, trace, convert, and classify.

Exit codes follow the usual solver convention: 10 for SAT, 20 for UNSAT,
1 for parse errors, non-Horn inputs and every other failure on input, 2
for usage errors.  Every exit 1 prints one ``error:`` line on stderr,
from the single handler in :func:`cli_main`.
"""

from __future__ import annotations

import argparse
import gc
import sys
from bisect import bisect_right
from functools import cache
from itertools import islice
from typing import Callable, Iterator, Sequence

from .formula import _record
from .horn import HornFormula, _by_code, _negated, horn_from_clauses
from .normalform import TOP, CnfFormula, to_cnf
from .oracle import DEFAULT_SYMBOL_CAP, classify
from .parsing import parse_dimacs, parse_formula
from .solver import SolveOutcome, Trace, precheck, solve

__all__ = ["TraceDocument", "build_trace_document", "cli_main", "main"]

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1

DEFAULT_CLAUSE_BUDGET = 100_000


def _clause_lines(cnf: CnfFormula) -> Iterator[str]:
    """Each clause as ``convert`` prints it, from the codes."""
    names, codes, sizes = cnf._coded
    literal, codes = _by_code(names, "~").__getitem__, iter(codes)
    for size in sizes:
        yield " | ".join(map(literal, islice(codes, size)))


def _implication_lines(horn: HornFormula) -> Iterator[str]:
    """Each implication as ``antecedent -> consequent``, with ``top`` for
    the empty antecedent, from the codes."""
    names, heads, codes, _, sizes = horn._coded
    atom, body = _by_code(names).__getitem__, _negated(codes)
    for head, size in zip(heads, sizes):
        yield f"{' & '.join(map(atom, islice(body, size))) or TOP} -> {names[head]}"


def _rendered_sets(
    trace: Trace,
    encode: Callable[[str], str],
    join: Callable[[list[str]], str],
) -> Iterator[tuple[int | None, str | None, int, str, str]]:
    """Yield each step's fired index, consequent, remaining count, and its
    ``set_before`` and ``set_after`` rendered.

    ``join`` lays out the set's atoms, each ``encode``-d once, in sorted
    order, and the caller writes the brackets around it, so each set is
    built in one copy.  A firing inserts its consequent only if that atom
    is new, so each distinct set is rendered once.  The member set answers
    that faster than a search of the sorted list when most firings repeat
    an atom.
    """
    members = set(trace.start)
    atoms = sorted(members)
    items = [encode(atom) for atom in atoms]
    after = join(items)
    remaining = trace.formula.n
    for index, consequent in zip(trace.fired, trace._consequents()):
        before = after
        if consequent not in members:
            members.add(consequent)
            position = bisect_right(atoms, consequent)
            atoms.insert(position, consequent)
            items.insert(position, encode(consequent))
            after = join(items)
        remaining -= 1
        yield index, consequent, remaining, before, after
    yield None, None, remaining, after, after


# ``to_json`` writes out the layout of ``json.dumps(document, indent=2)``
# by hand: with ``indent``, json falls back to its pure-Python encoder,
# which costs calls per value and would render every set twice.  Strings
# go straight to the C function that ``json.dumps`` calls for a ``str``,
# so they are escaped the same way.
def _json_str(text: str) -> str:
    """``text`` as a JSON string.  The first call imports ``json`` and
    rebinds this name to that C function, so only ``trace --json`` loads
    the module."""
    global _json_str
    from json.encoder import encode_basestring_ascii

    _json_str = encode_basestring_ascii
    return encode_basestring_ascii(text)


class _JsonAtoms(dict):
    """Each atom's JSON string, encoded on first read and reused."""

    __slots__ = ()

    def __missing__(self, atom: str) -> str:
        self[atom] = encoded = _json_str(atom)
        return encoded


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array (or, with ``brackets="{}"``, object) at nesting
    ``depth`` of already encoded ``items``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


@_record
class TraceDocument:
    """A full solver run, ready for text or JSON output."""

    input_formula: str
    horn_form: tuple[str, ...]
    steps: Trace
    final_set: tuple[str, ...]
    verdict: str
    model: dict[str, int] | None
    step_count: int
    shortcut: str | None

    def to_json(self) -> str:
        """The document as ``json.dumps(..., indent=2)`` prints it: keys in
        field order, each set a sorted array, the model sorted by name.
        A step's sets are laid out as non-empty arrays: every set of a run
        holds ``top``, which :func:`saturate` requires of its start set."""
        atoms = _JsonAtoms()
        parts = [
            '{\n  "input_formula": ',
            _json_str(self.input_formula),
            ',\n  "horn_form": ',
            _json_block(list(map(_json_str, self.horn_form)), 1),
            ',\n  "steps": ',
        ]
        opening = "[\n    {"
        for index, consequent, remaining, before, after in _rendered_sets(
            self.steps, atoms.__getitem__, ",\n        ".join  # document > steps > step > set
        ):
            fired = (
                '"fired_index": null,\n      "consequent_added": null'
                if index is None
                else f'"fired_index": {index},\n      "consequent_added": {atoms[consequent]}'
            )
            parts += (
                f'{opening}\n      {fired},\n      "set_before": [\n        ',
                before,
                '\n      ],\n      "set_after": [\n        ',
                after,
                f'\n      ],\n      "remaining_after": {remaining}\n    }}',
            )
            opening = ",\n    {"
        parts.append("\n  ]" if self.steps else "[]")
        model = "null"
        if self.model is not None:
            entries = [f"{atoms[name]}: {value}" for name, value in sorted(self.model.items())]
            model = _json_block(entries, 1, "{}")
        parts += (
            ',\n  "final_set": ',
            _json_block([atoms[name] for name in self.final_set], 1),
            ',\n  "verdict": ',
            _json_str(self.verdict),
            ',\n  "model": ',
            model,
            ',\n  "step_count": ',
            str(self.step_count),
            ',\n  "shortcut": ',
            "null" if self.shortcut is None else _json_str(self.shortcut),
            "\n}",
        )
        return "".join(parts)

    def to_text(self) -> str:
        parts = [f"input:    {self.input_formula}\nhorn:"]
        for index, implication in enumerate(self.horn_form):
            parts.append(f"\n  [{index}] {implication}")
        if self.shortcut:
            parts.append(f"\nshortcut: {self.shortcut}")
        parts.append("\ntrace:")
        steps = _rendered_sets(self.steps, str, ", ".join)
        for number, (index, _, remaining, before, after) in enumerate(steps, start=1):
            if index is None:
                parts += (f"\n  {number}. stop ({remaining} remaining): {{", after, "}")
            else:
                implication = self.horn_form[index]
                parts += (f"\n  {number}. fire [{index}] {implication}: {{", before, "} => {", after, "}")
        parts.append(f"\nfinal:    {{{', '.join(self.final_set)}}}")
        parts.append(f"\nsteps:    {self.step_count}\nverdict:  {self.verdict}")
        if self.model is not None:
            parts.append(f"\nmodel:    {_model_line(self.model)}")
        return "".join(parts)


def build_trace_document(
    input_text: str,
    horn: HornFormula,
    outcome: SolveOutcome,
    model: dict[str, int] | None,
    shortcut: str | None,
) -> TraceDocument:
    return TraceDocument(
        input_formula=input_text.strip(),
        horn_form=tuple(_implication_lines(horn)),
        steps=outcome.trace,
        final_set=tuple(sorted(outcome.final_set)),
        verdict="SAT" if outcome.satisfiable else "UNSAT",
        model=model,
        step_count=outcome.steps,
        shortcut=shortcut,
    )


def _model_line(model: dict[str, int]) -> str:
    return " ".join(f"{name}={model[name]}" for name in sorted(model))


def _read_input(path: str) -> str:
    if path == "-":
        if sys.stdin is None:
            raise OSError("standard input is closed")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_cnf(args: argparse.Namespace) -> tuple[str, CnfFormula]:
    """Read the input and produce its clauses."""
    text = _read_input(args.path)
    if args.dimacs:
        return text, parse_dimacs(text)
    return text, to_cnf(parse_formula(text), max_clauses=args.max_clauses)


def _run_solver(args: argparse.Namespace):
    text, cnf = _load_cnf(args)
    horn = horn_from_clauses(cnf)
    shortcut = "; ".join(precheck(horn)) or None
    outcome = solve(horn, early_stop=True)
    model = None
    if outcome.satisfiable:
        # The atom table names every symbol a model must name, and no other:
        # ``to_cnf`` tables every atom of the formula, even one whose clauses
        # are all dropped, and ``parse_dimacs`` every variable that occurs,
        # none of them in a dropped clause, since no DIMACS literal is ~bot.
        names = horn._coded[0][1:]
        model = {name: int(name in outcome.final_set) for name in sorted(names)}
    return text, horn, outcome, model, shortcut


def _cmd_solve(args: argparse.Namespace) -> int:
    _, _, outcome, model, shortcut = _run_solver(args)
    if shortcut and not args.no_precheck:
        print(f"note: shortcut: {shortcut}", file=sys.stderr)
    if outcome.satisfiable:
        print("SAT")
        if model:
            print(_model_line(model))
        return EXIT_SAT
    print("UNSAT")
    return EXIT_UNSAT


def _cmd_trace(args: argparse.Namespace) -> int:
    text, horn, outcome, model, shortcut = _run_solver(args)
    document = build_trace_document(text, horn, outcome, model, shortcut)
    print(document.to_json() if args.json else document.to_text())
    return EXIT_SAT if outcome.satisfiable else EXIT_UNSAT


def _cmd_convert(args: argparse.Namespace) -> int:
    _, cnf = _load_cnf(args)
    print("clauses:")
    for line in _clause_lines(cnf):
        print(f"  {line}")
    horn = horn_from_clauses(cnf)
    print("horn:")
    for line in _implication_lines(horn):
        print(f"  {line}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = classify(parse_formula(_read_input(args.path)), cap=args.max_symbols)
    print(verdict.value.capitalize())
    return 0


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


def cli_main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # A command builds up to millions of objects, none of them in a
    # reference cycle, so reference counting frees them all and the cyclic
    # collector's full scans of the growing heap are pure cost.  It is
    # paused for the command and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        # Every input error of the package, and UnicodeDecodeError, is a
        # ValueError.  A MemoryError usually carries no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


def main() -> None:
    # ``-`` reads what a path reads, UTF-8 with universal newlines, and
    # output is UTF-8 whatever the locale; in-process callers of
    # ``cli_main`` keep their own streams.
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(cli_main(sys.argv[1:]))
