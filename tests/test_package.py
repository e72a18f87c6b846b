"""The shape of the package: its public names, its imports, no recursion
in it, and the README's library example."""

import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import hornsat
import hornsat.cli

SOURCE = Path(hornsat.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that nothing in the module reads."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in imported.items() if name not in read]


def test_every_import_is_used():
    # ``__init__`` imports to re-export; every other module imports to use.
    unused = [
        f"{path.name}:{entry}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def test_every_record_is_slotted():
    # A record built without its checked constructor would need
    # ``object.__new__`` and ``object.__setattr__``; neither may come back.
    unslotted, records = [], []
    for path in sorted(SOURCE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for call in ("object.__new__", "object.__setattr__"):
            if call in source:
                unslotted.append(f"{path.name} {call}")
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"hornsat.{path.stem}")
        for value in vars(module).values():
            # ``_record`` gives every record it builds its field list.
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "_fields" in vars(value)
            ):
                records.append(value.__name__)
                if "__slots__" not in vars(value):
                    unslotted.append(f"{path.name} {value.__name__}")
    assert len(records) == 19, records
    assert unslotted == []


# Modules that a fresh interpreter adds to ``sys.modules`` by importing the
# CLI after ``re``, which pip's console script imports first.
_IMPORT_SCRIPT = """\
import re, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hornsat.cli
print(*sorted(set(sys.modules) - before))
"""


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # One process per input is the usual way to run the CLI, so its start-up
    # is part of every run.  Records are built without ``dataclasses``, which
    # would load ``inspect`` and ``ast``, and ``json`` waits for
    # ``trace --json``.  ``horn_from_clauses`` reads codes through
    # ``struct``; ``array`` would be one more extension module to load.
    # The CLI reads argv itself: ``argparse``, the ``gettext`` it loads and
    # the parser build were half of the set-up with cached bytecode.  Every
    # module has postponed annotations, so ``typing`` is not needed: the
    # aliases are unions of classes and the abstract types come from
    # ``collections.abc``.  ``-S`` keeps a site hook from loading modules
    # before the import, ``typing`` among them.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SCRIPT, str(SOURCE.parent)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "hornsat.cli" in loaded
    forbidden = {"dataclasses", "inspect", "ast", "json", "array", "argparse", "gettext", "typing"}
    assert loaded & forbidden == set()
    assert isinstance(hornsat.Atom("p"), hornsat.Formula)
    assert isinstance(hornsat.Top(), hornsat.Antecedent)
    assert not isinstance(hornsat.Top(), hornsat.Formula)


def test_slot_setters_are_bound_once():
    # A checked constructor stores through a setter bound at module level;
    # ``Cls.field.__set__`` inside a function looks the setter up per call.
    lookups = [
        f"{path.name}:{node.lineno} {function.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and node.attr == "__set__"
        and isinstance(node.value, ast.Attribute)
    ]
    assert lookups == []


def test_readme_library_example_runs_as_shown():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == (
        "{'p': 1, 'q': 0, 'r': 0, 's': 0}\n"
        "0 p ['p', 'top']\n"
        "None None ['p', 'top']\n"
    )


def test_console_script_is_cli_main():
    with (ROOT / "pyproject.toml").open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, name = scripts["hornsat"].partition(":")
    assert getattr(importlib.import_module(module), name) is hornsat.cli.main


def test_every_public_error_is_a_value_error():
    # ``cli_main`` turns a ValueError into one ``error:`` line; an input
    # error outside that base would escape it as a traceback.
    errors = [
        value
        for value in map(vars(hornsat).get, hornsat.__all__)
        if isinstance(value, type) and issubclass(value, BaseException)
    ]
    assert errors
    assert [error.__name__ for error in errors if not issubclass(error, ValueError)] == []


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
        "horn_to_formula",
        "implication_to_formula",
        "is_basic_horn",
        "models",
        "parse_dimacs",
        "parse_formula",
        "precheck",
        "satisfies",
        "saturate",
        "solve",
        "symbols",
        "to_cnf",
    ]


def test_cli_public_names_are_exactly_these():
    # The CLI module exports its entry points alone; its renderers and
    # pipeline stages are private to it.
    assert hornsat.cli.__all__ == ["cli_main", "main"]
