"""Whole-CLI differential: every solving command, on formula text and on
DIMACS, prints what the composition of the ``helpers`` references prints.

The references parse, convert, rewrite and saturate by the slow, literal
readings of the rules; this file adds only how the CLI lays their results
out.  So a change anywhere between the input text and the output bytes
shows here, on inputs the golden corpus does not hold.
"""

import random
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings

from hornsat import BOT, TOP, symbols
from hornsat.cli import DEFAULT_CLAUSE_BUDGET, EXIT_ERROR, EXIT_SAT, EXIT_UNSAT

from helpers import (
    formula_strategy,
    random_dimacs_text,
    reference_horn_from_clauses,
    reference_parse_dimacs,
    reference_parse_formula,
    reference_saturate,
    reference_to_cnf,
    reference_trace_json,
    reference_trace_text,
    render,
)
from test_golden_cli import run_cli

COMMANDS = (("solve",), ("solve", "--no-precheck"), ("trace",), ("trace", "--json"), ("convert",))


def _clause_line(clause) -> str:
    return " | ".join(lit.atom if lit.positive else "~" + lit.atom for lit in clause.literals)


def _implication_line(imp) -> str:
    return f"{' & '.join(imp.antecedent.atoms) or TOP} -> {imp.consequent}"


def _shortcut(horn) -> str | None:
    reasons = []
    if all(imp.consequent != BOT for imp in horn.implications):
        reasons.append("no implication has consequent bot")
    if all(imp.antecedent.atoms for imp in horn.implications):
        reasons.append("no antecedent is top")
    return "; ".join(reasons) or None


def _model_names(horn, phi) -> set[str]:
    """The names a model lists: the formula's symbols, or for DIMACS every
    atom of the implications."""
    if phi is not None:
        return symbols(phi)
    names = {imp.consequent for imp in horn.implications}
    for imp in horn.implications:
        names.update(imp.antecedent.atoms)
    names.discard(BOT)
    return names


def reference_cli(command, text: str, dimacs: bool) -> tuple[int, str, str]:
    """The exit code, stdout and stderr that ``cli_main`` must give for
    ``command`` on ``text``, from the reference passes."""
    out: list[str] = []
    try:
        if dimacs:
            phi, cnf = None, reference_parse_dimacs(text)
        else:
            phi = reference_parse_formula(text)
            cnf = reference_to_cnf(phi, DEFAULT_CLAUSE_BUDGET)
        if command[0] == "convert":
            out.append("clauses:")
            out += ("  " + _clause_line(clause) for clause in cnf.clauses)
        horn = reference_horn_from_clauses(cnf)
    except ValueError as exc:
        return EXIT_ERROR, "".join(line + "\n" for line in out), f"error: {exc}\n"
    if command[0] == "convert":
        out.append("horn:")
        out += ("  " + _implication_line(imp) for imp in horn.implications)
        return 0, "".join(line + "\n" for line in out), ""
    shortcut = _shortcut(horn)
    final, steps = reference_saturate(horn, frozenset((TOP,)), early_stop=True)
    satisfiable = BOT not in final
    model = None
    if satisfiable:
        model = {name: int(name in final) for name in _model_names(horn, phi)}
    code = EXIT_SAT if satisfiable else EXIT_UNSAT
    if command[0] == "trace":
        document = SimpleNamespace(
            input_formula=text.strip(),
            horn_form=tuple(_implication_line(imp) for imp in horn.implications),
            steps=steps,
            final_set=tuple(sorted(final)),
            verdict="SAT" if satisfiable else "UNSAT",
            model=model,
            step_count=len(steps),
            shortcut=shortcut,
        )
        render_document = reference_trace_json if "--json" in command else reference_trace_text
        return code, render_document(document) + "\n", ""
    err = f"note: shortcut: {shortcut}\n" if shortcut and "--no-precheck" not in command else ""
    if not satisfiable:
        return code, "UNSAT\n", err
    line = " ".join(f"{name}={value}" for name, value in sorted(model.items()))
    return code, "SAT\n" + (line + "\n" if line else ""), err


def _assert_cli_matches_reference(text: str, dimacs: bool) -> None:
    for command in COMMANDS:
        argv = [*command, "-", *(["--dimacs"] if dimacs else [])]
        assert run_cli(argv, text) == reference_cli(command, text, dimacs), argv


@settings(max_examples=150, deadline=None)
@given(formula_strategy(max_leaves=12))
def test_formula_text_runs_match_the_references(phi):
    _assert_cli_matches_reference(render(phi) + "\n", dimacs=False)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dimacs_runs_match_the_references(rng):
    _assert_cli_matches_reference(random_dimacs_text(rng), dimacs=True)


def test_seeded_runs_match_the_references():
    # Reaches the rarer shapes every time: non-Horn clauses, early stops
    # with implications left, DIMACS errors of each kind.
    rng = random.Random(21)
    for _ in range(300):
        _assert_cli_matches_reference(random_dimacs_text(rng), dimacs=True)
