"""The shape of the package: its public names, and no recursion in it."""

import ast
from pathlib import Path

import hornsat

SOURCE = Path(hornsat.__file__).parent


def _self_calls(function: ast.FunctionDef) -> bool:
    """True iff ``function`` calls itself by name, or as ``self.<name>``."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == function.name:
            return True
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == function.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
        ):
            return True
    return False


def test_no_function_calls_itself():
    # Inputs nest as deep as memory allows, so a function that recurses per
    # level would hit the interpreter's recursion limit.
    recursive = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _self_calls(node)
    ]
    assert recursive == []


def test_public_names_are_exactly_these():
    assert sorted(hornsat.__all__) == [
        "And",
        "Antecedent",
        "Atom",
        "BOT",
        "BOT_LITERAL",
        "Classification",
        "Clause",
        "ClauseBudgetError",
        "CnfFormula",
        "Conj",
        "DEFAULT_SYMBOL_CAP",
        "DimacsError",
        "Falsum",
        "Formula",
        "HornFormula",
        "HornImplication",
        "Iff",
        "Implies",
        "Literal",
        "Not",
        "NotHornError",
        "Or",
        "ParseError",
        "SHORTCUT_NO_BOT_CONSEQUENT",
        "SHORTCUT_NO_TOP_ANTECEDENT",
        "SolveOutcome",
        "SymbolCapError",
        "TOP",
        "TOP_LITERAL",
        "Top",
        "TraceStep",
        "Valuation",
        "Verum",
        "basic_to_implication",
        "classify",
        "enumerate_valuations",
        "equivalent",
        "evaluate",
        "extract_model",
        "horn_from_clauses",
        "horn_from_formula",
        "horn_symbols",
        "horn_to_formula",
        "implication_to_formula",
        "is_basic_horn",
        "models",
        "parse_dimacs",
        "parse_formula",
        "precheck",
        "satisfies",
        "saturate",
        "semantic_consequence",
        "solve",
        "symbols",
        "to_cnf",
    ]
