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

from .horn import HornFormula, _by_code, _negated, horn_from_clauses
from .normalform import TOP, CnfFormula, to_cnf
from .oracle import DEFAULT_SYMBOL_CAP, classify
from .parsing import parse_dimacs, parse_formula
from .solver import SolveOutcome, Trace, extract_model, precheck, solve

__all__ = ["cli_main", "main"]

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


# ``_trace_json`` writes out the layout of ``json.dumps(..., indent=2)``
# by hand: with ``indent``, json falls back to its pure-Python encoder,
# which costs calls per value and would render every set twice.  Strings
# go straight to the C function that ``json.dumps`` calls for a ``str``,
# so they are escaped the same way.  Both renderers yield a run in
# pieces, without the final newline, and hold no more than a step of it.


def _json_block(items: list[str], brackets: str = "[]") -> str:
    """A JSON array (or, with ``brackets="{}"``, object) of already encoded
    ``items``, as a value of the document's top-level object."""
    if not items:
        return brackets
    return f"{brackets[0]}\n    " + ",\n    ".join(items) + f"\n  {brackets[1]}"


def _derived(outcome: SolveOutcome) -> tuple[HornFormula, dict[str, int] | None, str | None]:
    """The run's formula, its least model (None if UNSAT) and its shortcut
    note (None if no shortcut applies)."""
    horn = outcome.trace.formula
    model = extract_model(horn, outcome.final_set) if outcome.satisfiable else None
    return horn, model, "; ".join(precheck(horn)) or None


def _trace_json(text: str, outcome: SolveOutcome) -> Iterator[str]:
    """The run of ``text`` as ``json.dumps(..., indent=2)`` prints it: keys
    in a fixed order, each set a sorted array, the model sorted by name.
    The steps, and each step's sets, are laid out as non-empty arrays:
    every trace ends in its terminal step, and every set of a run holds
    ``top``, which :func:`saturate` requires of its start set."""
    from json.encoder import encode_basestring_ascii as encode  # only --json loads json

    horn, model, shortcut = _derived(outcome)
    # Every atom a run prints is in its table or its start set.
    atoms = {atom: encode(atom) for atom in (*horn._coded[0], *outcome.trace.start)}
    yield from (
        '{\n  "input_formula": ',
        encode(text.strip()),
        ',\n  "horn_form": ',
        _json_block(list(map(encode, _implication_lines(horn)))),
    )
    opening = ',\n  "steps": [\n    {'
    for index, consequent, remaining, before, after in _rendered_sets(
        outcome.trace, atoms.__getitem__, ",\n        ".join  # document > steps > step > set
    ):
        fired = (
            '"fired_index": null,\n      "consequent_added": null'
            if index is None
            else f'"fired_index": {index},\n      "consequent_added": {atoms[consequent]}'
        )
        yield from (
            f'{opening}\n      {fired},\n      "set_before": [\n        ',
            before,
            '\n      ],\n      "set_after": [\n        ',
            after,
            f'\n      ],\n      "remaining_after": {remaining}\n    }}',
        )
        opening = ",\n    {"
    model_json = "null"
    if model is not None:
        entries = [f"{atoms[name]}: {value}" for name, value in sorted(model.items())]
        model_json = _json_block(entries, "{}")
    verdict = "SAT" if outcome.satisfiable else "UNSAT"
    note = "null" if shortcut is None else encode(shortcut)
    yield from (
        '\n  ],\n  "final_set": ',
        _json_block([atoms[name] for name in sorted(outcome.final_set)]),
        f',\n  "verdict": "{verdict}",\n  "model": ',
        model_json,
        f',\n  "step_count": {outcome.steps},\n  "shortcut": {note}\n}}',
    )


def _trace_text(text: str, outcome: SolveOutcome) -> Iterator[str]:
    """The run of ``text`` as ``trace`` prints it without ``--json``."""
    horn, model, shortcut = _derived(outcome)
    horn_form = list(_implication_lines(horn))
    yield f"input:    {text.strip()}\nhorn:"
    for index, implication in enumerate(horn_form):
        yield f"\n  [{index}] {implication}"
    if shortcut:
        yield f"\nshortcut: {shortcut}"
    yield "\ntrace:"
    steps = _rendered_sets(outcome.trace, str, ", ".join)
    for number, (index, _, remaining, before, after) in enumerate(steps, start=1):
        if index is None:
            yield from (f"\n  {number}. stop ({remaining} remaining): {{", after, "}")
        else:
            implication = horn_form[index]
            yield from (f"\n  {number}. fire [{index}] {implication}: {{", before, "} => {", after, "}")
    yield f"\nfinal:    {{{', '.join(sorted(outcome.final_set))}}}"
    yield f"\nsteps:    {outcome.steps}\nverdict:  {'SAT' if outcome.satisfiable else 'UNSAT'}"
    if model is not None:
        yield f"\nmodel:    {_model_line(model)}"


def build_trace_document(
    input_text: str,
    horn: HornFormula,
    outcome: SolveOutcome,
    model: dict[str, int] | None,
    shortcut: str | None,
) -> SimpleNamespace:
    """The run's ``to_json`` and ``to_text`` as whole strings, kept only
    for the traced mode of ``perfbench/worker.py`` until ROADMAP item 1b.
    ``horn``, ``model`` and ``shortcut`` are not read: they are the values
    that the renderers derive from ``outcome`` themselves.  The worker's
    ``setdefault`` loop over the source symbols adds nothing to ``model``,
    since the atom table names every one of them."""
    return SimpleNamespace(
        to_json=lambda: "".join(_trace_json(input_text, outcome)),
        to_text=lambda: "".join(_trace_text(input_text, outcome)),
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


def _cnf(args: SimpleNamespace, text: str) -> CnfFormula:
    """The clauses of ``text``: read as DIMACS, or parsed and converted."""
    if args.dimacs:
        return parse_dimacs(text)
    return to_cnf(parse_formula(text), max_clauses=args.max_clauses)


def _solved(args: SimpleNamespace) -> tuple[str, SolveOutcome]:
    """The input text and its run, stopped early once falsum is derived."""
    text = _read_input(args.path)
    return text, solve(horn_from_clauses(_cnf(args, text)), early_stop=True)


def _cmd_solve(args: SimpleNamespace) -> int:
    _, outcome = _solved(args)
    _, model, shortcut = _derived(outcome)
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
    # The run is written as it is rendered, so it is never held whole; a
    # failure part-way leaves what was written before the ``error:`` line.
    text, outcome = _solved(args)
    sys.stdout.writelines((_trace_json if args.json else _trace_text)(text, outcome))
    print()
    return EXIT_SAT if outcome.satisfiable else EXIT_UNSAT


def _cmd_convert(args: SimpleNamespace) -> int:
    # Each section goes out in one call, a line at a time, so no section is
    # held whole; a non-Horn input fails after its clauses, before ``horn:``.
    cnf = _cnf(args, _read_input(args.path))
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
