"""Command-line front end: solve, trace, convert, and classify.

Exit codes follow the usual solver convention: 10 for SAT, 20 for UNSAT,
1 for parse errors, non-Horn inputs and every other failure on input, 2
for usage errors.  Every exit 1 prints one ``error:`` line on stderr,
from the single handler in :func:`cli_main`.
"""

from __future__ import annotations

import gc
import re
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from types import SimpleNamespace

from .formula import _record
from .horn import HornFormula, _by_code, _negated, horn_from_clauses
from .normalform import TOP, CnfFormula, to_cnf
from .oracle import DEFAULT_SYMBOL_CAP, classify
from .parsing import parse_dimacs, parse_formula
from .solver import SolveOutcome, Trace, extract_model, precheck, solve

__all__ = ["TraceDocument", "build_trace_document", "cli_main", "main"]

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1

DEFAULT_CLAUSE_BUDGET = 100_000


def _clause_lines(cnf: CnfFormula) -> Iterator[str]:
    """Each clause as ``convert`` prints it, from the codes."""
    names, codes, sizes = cnf._coded
    literals = list(map(_by_code(names, "~").__getitem__, codes))
    end = 0
    for size in sizes:
        start, end = end, end + size
        yield " | ".join(literals[start:end])


def _implication_lines(horn: HornFormula) -> Iterator[str]:
    """Each implication as ``antecedent -> consequent``, with ``top`` for
    the empty antecedent, from the codes."""
    names, heads, codes, _, sizes = horn._coded
    body = list(map(_by_code(names).__getitem__, _negated(codes)))
    end = 0
    for head, size in zip(heads, sizes):
        start, end = end, end + size
        yield f"{' & '.join(body[start:end]) or TOP} -> {names[head]}"


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
    is new, so each distinct set is rendered once.
    """
    atoms = sorted(trace.start)
    items = [encode(atom) for atom in atoms]
    after = join(items)
    remaining = trace.formula.n
    for index, consequent in zip(trace.fired, trace._consequents()):
        before = after
        position = bisect_right(atoms, consequent)
        if not position or atoms[position - 1] != consequent:
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


def _json_block(items: list[str], brackets: str = "[]") -> str:
    """A JSON array (or, with ``brackets="{}"``, object) of already encoded
    ``items``, as a value of the document's top-level object."""
    if not items:
        return brackets
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}"


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
        The steps, and each step's sets, are laid out as non-empty arrays:
        every trace ends in its terminal step, and every set of a run holds
        ``top``, which :func:`saturate` requires of its start set."""
        atoms = _JsonAtoms()
        parts = [
            '{\n  "input_formula": ',
            _json_str(self.input_formula),
            ',\n  "horn_form": ',
            _json_block(list(map(_json_str, self.horn_form))),
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
        parts.append("\n  ]")
        model = "null"
        if self.model is not None:
            entries = [f"{atoms[name]}: {value}" for name, value in sorted(self.model.items())]
            model = _json_block(entries, "{}")
        parts += (
            ',\n  "final_set": ',
            _json_block([atoms[name] for name in self.final_set]),
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
    # A text-mode stream decodes through a Python-level codec class, which
    # costs more than the read on a small file.  The file is decoded whole,
    # as that stream decodes it, and its line ends translated as universal
    # newlines translate them.  The search for "\r\n" scans the whole text,
    # about 6 ms on a 4 MB file, so it runs only when the text holds "\r".
    with open(path, "rb", buffering=0) as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_cnf(args: SimpleNamespace) -> tuple[str, CnfFormula]:
    """Read the input and produce its clauses."""
    text = _read_input(args.path)
    if args.dimacs:
        return text, parse_dimacs(text)
    return text, to_cnf(parse_formula(text), max_clauses=args.max_clauses)


def _run_solver(args: SimpleNamespace):
    text, cnf = _load_cnf(args)
    horn = horn_from_clauses(cnf)
    shortcut = "; ".join(precheck(horn)) or None
    outcome = solve(horn, early_stop=True)
    model = extract_model(horn, outcome.final_set) if outcome.satisfiable else None
    return text, horn, outcome, model, shortcut


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_trace(args: SimpleNamespace) -> int:
    text, horn, outcome, model, shortcut = _run_solver(args)
    document = build_trace_document(text, horn, outcome, model, shortcut)
    print(document.to_json() if args.json else document.to_text())
    return EXIT_SAT if outcome.satisfiable else EXIT_UNSAT


def _cmd_convert(args: SimpleNamespace) -> int:
    # Each section goes out in one call, a line at a time, so no section is
    # held whole; a non-Horn input fails after its clauses, before ``horn:``.
    _, cnf = _load_cnf(args)
    print("clauses:")
    sys.stdout.writelines(map("  {}\n".format, _clause_lines(cnf)))
    horn = horn_from_clauses(cnf)
    print("horn:")
    sys.stdout.writelines(map("  {}\n".format, _implication_lines(horn)))
    return 0


def _cmd_classify(args: SimpleNamespace) -> int:
    verdict = classify(parse_formula(_read_input(args.path)), cap=args.max_symbols)
    print(verdict.value.capitalize())
    return 0


# Each command's handler and options.  An option whose default is False is
# a flag; one with an int default takes a non-negative int N.
_INPUT_OPTIONS = {"--dimacs": False, "--max-clauses": DEFAULT_CLAUSE_BUDGET}
_COMMANDS = {
    "solve": (_cmd_solve, {**_INPUT_OPTIONS, "--no-precheck": False}),
    "trace": (_cmd_trace, {**_INPUT_OPTIONS, "--json": False}),
    "convert": (_cmd_convert, _INPUT_OPTIONS),
    "classify": (_cmd_classify, {"--max-symbols": DEFAULT_SYMBOL_CAP}),
}

_USAGE = """\
usage: hornsat solve    <file|->  [--dimacs] [--no-precheck] [--max-clauses N]
       hornsat trace    <file|->  [--json] [--dimacs] [--max-clauses N]
       hornsat convert  <file|->  [--dimacs] [--max-clauses N]
       hornsat classify <file|->  [--max-symbols N]"""

_HELP = f"""{_USAGE}

Decide Horn-clause satisfiability with step traces and least models.
The input is a file, or - for standard input.

  solve            decide satisfiability (exit 10 SAT, 20 UNSAT)
  trace            solve and emit the full run as text or JSON
  convert          print the clause list and the implication form
  classify         truth-table verdict: Valid/Satisfiable/Contradictory

  --dimacs         read DIMACS CNF instead of formula text
  --max-clauses N  abort CNF conversion beyond N clauses (default {DEFAULT_CLAUSE_BUDGET})
  --no-precheck    do not report the syntactic satisfiability shortcuts
  --json           emit one JSON object
  --max-symbols N  refuse enumeration beyond N symbols (default {DEFAULT_SYMBOL_CAP})
  -h, --help       show this help and exit

Options may be abbreviated to any unique prefix and given as --option=N."""

# Tokens read as arguments although they start with "-": each that starts
# with "-" and a digit, or "-." and a digit, as "-5", "-.5" and "-0_0".
_NEGATIVE_NUMBER = re.compile(r"-\.?\d").match


def _usage_error(message: str) -> SystemExit:
    """The exit for a usage error, its message printed under the usage."""
    print(f"{_USAGE}\nhornsat: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _option(token: str, options: dict[str, bool | int]) -> tuple[str | None, str | None]:
    """The option that ``token`` names, by its name or a unique prefix of a
    ``--`` name, and the text after its ``=`` (None without one).  The name
    is None for an argument and ``""`` for an unknown option."""
    if token[:1] != "-" or token in ("-", "--") or _NEGATIVE_NUMBER(token):
        return None, None
    name, equals, value = token.partition("=")
    if name == "-h":
        name = "--help"
    elif name not in options:
        names = [known for known in (*options, "--help") if name[:2] == "--" and known.startswith(name)]
        if len(names) > 1:
            raise _usage_error(f"ambiguous option {name}: could match {', '.join(names)}")
        name = names[0] if names else ""
    if name:
        return name, value if equals else None
    return (None if " " in token else ""), None


def _parse_args(argv: Sequence[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler of the command that ``argv`` names, and its arguments.

    ``argv`` is read from left to right.  The command comes first, after
    nothing but options; its own options may come before or after the
    path.  ``--`` ends the options, but once the path is read only right
    after it.  A repeated option keeps its last value.  Help exits 0 where
    it is read, and a bad option value exits 2 there; a missing command or
    path, an unknown option and a second path exit 2 once all of ``argv``
    is read, so a later ``-h`` still prints help.
    """
    handler, options, args = None, {}, SimpleNamespace(path=None)
    unknown, path_end, ended = [], None, False
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and handler is not None and not ended:
            if path_end not in (None, i - 1):
                unknown.append(token)
            ended = True
            continue
        name, value = (None, None) if ended else _option(token, options)
        if name == "--help":
            if value is not None:
                raise _usage_error(f"{name} takes no value")
            print(_HELP)
            raise SystemExit(0)
        if name:
            if options[name] is False:
                if value is not None:
                    raise _usage_error(f"{name} takes no value")
                value = True
            else:
                if value is None:
                    if i == len(argv) or argv[i] == "--" or _option(argv[i], options)[0] is not None:
                        raise _usage_error(f"{name} needs a value N")
                    value = argv[i]
                    i += 1
                try:
                    number = int(value)
                except ValueError:
                    raise _usage_error(f"{name}: invalid int value: {value!r}")
                if number < 0:
                    raise _usage_error(f"{name} must be non-negative, got {number}")
                value = number
            setattr(args, name[2:].replace("-", "_"), value)
        elif name == "":
            unknown.append(token)
        elif handler is None:
            if token not in _COMMANDS:
                raise _usage_error(f"invalid command {token!r}")
            handler, options = _COMMANDS[token]
            for option, default in options.items():
                setattr(args, option[2:].replace("-", "_"), default)
        elif args.path is None:
            args.path, path_end = token, i
        else:
            unknown.append(token)
    if handler is None:
        raise _usage_error("a command is required")
    if args.path is None:
        raise _usage_error("a path is required")
    if unknown:
        raise _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return handler, args


def cli_main(argv: Sequence[str] | None = None) -> int:
    handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
    # A command builds up to millions of objects, none of them in a
    # reference cycle, so reference counting frees them all and the cyclic
    # collector's full scans of the growing heap are pure cost.  It is
    # paused for the command and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
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
