"""Command-line contract: exit codes, output formats, JSON schema."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import hornsat
from hornsat import (
    BOT,
    SHORTCUT_NO_BOT_CONSEQUENT,
    SHORTCUT_NO_TOP_ANTECEDENT,
    TOP,
    Clause,
    Conj,
    HornFormula,
    HornImplication,
    Literal,
    Top,
    extract_model,
    horn_from_clauses,
    parse_dimacs,
    parse_formula,
    precheck,
    saturate,
    solve,
    symbols,
    to_cnf,
)
from hornsat.cli import (
    DEFAULT_CLAUSE_BUDGET,
    TraceDocument,
    _build_parser,
    _implication_lines,
    build_trace_document,
    cli_main,
)

from helpers import (
    SAT_CHAIN_TEXT,
    UNSAT_CHAIN_TEXT,
    UNSAT_SHORT_TEXT,
    formula_strategy,
    planted_horn_dimacs,
    random_dimacs_text,
    random_horn,
    reference_trace_json,
    reference_trace_text,
    render,
    rule,
    unit,
)
from test_golden_cli import run_cli


@pytest.fixture
def write(tmp_path):
    def _write(text, name="input.txt"):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return _write


def test_solve_unsat(write, capsys):
    assert cli_main(["solve", write(UNSAT_CHAIN_TEXT)]) == 20
    assert capsys.readouterr().out == "UNSAT\n"


def test_solve_sat_prints_model(write, capsys):
    assert cli_main(["solve", write(SAT_CHAIN_TEXT)]) == 10
    assert capsys.readouterr().out == "SAT\np=1 q=0 r=0 s=0\n"


def test_solve_short_chain(write, capsys):
    assert cli_main(["solve", write(UNSAT_SHORT_TEXT)]) == 20
    assert capsys.readouterr().out == "UNSAT\n"


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p & (~p | q)"))
    assert cli_main(["solve", "-"]) == 10
    assert capsys.readouterr().out == "SAT\np=1 q=1\n"


def test_solve_not_horn(write, capsys):
    assert cli_main(["solve", write("p | q")]) == 1
    assert "positive literal" in capsys.readouterr().err


def test_solve_parse_error(write, capsys):
    assert cli_main(["solve", write("p &")]) == 1
    assert "expected" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert cli_main(["solve", "/no/such/file.txt"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["frobnicate"])
    assert excinfo.value.code == 2


def test_solve_dimacs(write, capsys):
    path = write("p cnf 2 2\n1 0\n-1 2 0", name="input.cnf")
    assert cli_main(["solve", path, "--dimacs"]) == 10
    assert capsys.readouterr().out == "SAT\nx1=1 x2=1\n"


@pytest.mark.parametrize("header", ["pizza cnf 2 1", "p cnf 2 -1"])
def test_solve_dimacs_rejects_a_malformed_header(write, capsys, header):
    path = write(f"{header}\n1 0", name="input.cnf")
    assert cli_main(["solve", path, "--dimacs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 1: malformed header {header!r}\n"
    assert cli_main(["solve", write("p cnf 2 1\n1 0", name="good.cnf"), "--dimacs"]) == 10
    assert capsys.readouterr().out == "SAT\nx1=1\n"


@pytest.mark.parametrize(
    "text, error",
    [
        ("p cnf 10 1\n1_0 0", "line 2: bad literal token '1_0'"),
        ("p cnf 3 1\n-\u0661 0", "line 2: bad literal token '-\u0661'"),
        ("p cnf 3 1\n\uff12 0", "line 2: bad literal token '\uff12'"),
        ("p cnf 1_0 1\n1 0", "line 1: malformed header 'p cnf 1_0 1'"),
        ("p cnf \u0663 1\n1 0", "line 1: malformed header 'p cnf \u0663 1'"),
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "header-underscore", "header-arabic-indic"],
)
def test_solve_dimacs_takes_only_ascii_digits(write, capsys, text, error):
    path = write(text, name="input.cnf")
    assert cli_main(["solve", path, "--dimacs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert cli_main(["solve", write("p cnf 2 1\n+1 0", name="signed.cnf"), "--dimacs"]) == 10
    assert capsys.readouterr().out == "SAT\nx1=1\n"


def test_solve_dimacs_repeated_literals_count_once(write, capsys):
    path = write("p cnf 2 2\n1 1 0\n-1 -1 2 0", name="input.cnf")
    assert cli_main(["solve", path, "--dimacs"]) == 10
    assert capsys.readouterr().out == "SAT\nx1=1 x2=1\n"
    assert cli_main(["convert", path, "--dimacs"]) == 0
    assert capsys.readouterr().out == "clauses:\n  x1\n  ~x1 | x2\nhorn:\n  top -> x1\n  x1 -> x2\n"


def test_solve_large_dimacs_file(tmp_path, capsys):
    text, planted = planted_horn_dimacs(random.Random(200), 100_000, 200_000)
    path = tmp_path / "planted.cnf"
    path.write_text(text, encoding="utf-8")
    del text
    started = time.perf_counter()
    assert cli_main(["solve", str(path), "--dimacs"]) == 10
    elapsed = time.perf_counter() - started
    verdict, model = capsys.readouterr().out.splitlines()
    assert verdict == "SAT"
    assert {entry[:-2] for entry in model.split() if entry.endswith("=1")} == planted
    # The solve takes 2.9-3.2 s on a 2-vCPU VM (3.9-4.4 s when clauses and
    # implications were records); generating the input takes 10-11 s more.
    # A pass quadratic in the clause count would take hours.
    assert elapsed < 60.0


def test_solve_dimacs_peak_memory(tmp_path, capsys):
    text, _ = planted_horn_dimacs(random.Random(200), 12_500, 25_000)
    path = tmp_path / "planted.cnf"
    path.write_text(text, encoding="utf-8")
    del text
    tracemalloc.start()
    try:
        assert cli_main(["solve", str(path), "--dimacs"]) == 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("SAT\n")
    # Clauses and implications as int codes: 10.3-10.5 MiB on CPython 3.11,
    # 10.1-10.5 MiB on 3.12 and 3.13, against 11.0-11.2 MiB when each was a
    # slotted record, and 16.8 MiB when each record carried an instance dict.
    assert peak < 11.5 * 2**20


@pytest.fixture
def built(monkeypatch):
    """Every ``Clause``, ``Literal``, ``Conj`` and ``HornImplication`` built
    from here on, in order."""
    records = []
    for cls in (Clause, Literal, Conj, HornImplication):

        def counted(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            records.append(self)

        monkeypatch.setattr(cls, "__init__", counted)
    return records


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "--dimacs"], "p cnf 4 4\n1 0\n-1 2 0\n-2 -3 4 0\n-4 -1 0\n"),
        (["solve", "--dimacs"], "p cnf 3 3\n1 0\n-1 2 0\n-3 -2 0\n"),
        (["solve"], "p & (p -> q) & (q & r -> s) & (s -> false)\n"),
        (["solve"], "(p -> q) & p & ~r\n"),
        (["trace"], "p & (p -> q) & (q -> false)\n"),
        (["trace", "--json", "--dimacs"], "p cnf 2 2\n1 0\n-1 2 0\n"),
        (["convert"], "(p | ~q) & ~(p & r) & true\n"),
        (["convert", "--dimacs"], "p cnf 2 3\n1 0\n-1 2 0\n0\n"),
    ],
)
def test_horn_runs_build_no_clause_or_implication(built, argv, text):
    # Clauses and implications stay codes from the parser to the output.
    code, out, _ = run_cli([*argv, "-"], text)
    assert code in (0, 10, 20) and out
    assert built == []


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "--dimacs"], "p cnf 3 3\n1 0\n-1 2 3 0\n-2 0\n"),
        (["solve"], "p & (p -> q | r)\n"),
        (["trace", "--dimacs"], "p cnf 2 1\n1 2 0\n"),
        (["convert"], "(p -> q) & (p | q)\n"),
    ],
)
def test_non_horn_runs_build_only_the_error_clause(built, argv, text):
    code, _, err = run_cli([*argv, "-"], text)
    assert code == 1 and err.endswith("has more than one positive literal\n")
    *literals, clause = built
    assert type(clause) is Clause and clause.literals == tuple(literals)
    assert all(type(lit) is Literal for lit in literals)


def test_solve_dimacs_unsat(write, capsys):
    path = write("p cnf 1 2\n1 0\n-1 0", name="input.cnf")
    assert cli_main(["solve", path, "--dimacs"]) == 20


def _extracted_model_line(text, dimacs):
    """The model line of ``solve`` as ``extract_model`` plus a 0 for each
    formula symbol that no implication names; None for UNSAT."""
    phi = None if dimacs else parse_formula(text)
    cnf = parse_dimacs(text) if dimacs else to_cnf(phi, max_clauses=DEFAULT_CLAUSE_BUDGET)
    horn = horn_from_clauses(cnf)
    outcome = solve(horn, early_stop=True)
    if not outcome.satisfiable:
        return None
    model = extract_model(horn, outcome.final_set)
    for name in () if phi is None else symbols(phi):
        model.setdefault(name, 0)
    return " ".join(f"{name}={model[name]}" for name in sorted(model))


@given(
    st.one_of(
        formula_strategy().map(lambda phi: (render(phi), False)),
        st.integers(0, 2**32).map(lambda seed: (random_dimacs_text(random.Random(seed)), True)),
    )
)
@example(("(q | ~q) & p", False))  # q is only in a clause dropped as valid
@example(("p cnf 3 2\n-1 2 0\n-2 0\n", True))  # x3 is in no clause, so unnamed
def test_solve_model_names_every_input_symbol(case):
    # The CLI names the model in one walk over the input's symbols.
    text, dimacs = case
    code, out, _ = run_cli(["solve", "-", *(["--dimacs"] if dimacs else [])], text)
    try:
        line = _extracted_model_line(text, dimacs)
    except ValueError:
        assert code == 1
        return
    if line is None:
        assert (code, out) == (20, "UNSAT\n")
    else:
        assert (code, out) == (10, "SAT\n" + (line + "\n" if line else ""))


def test_solve_clause_budget(write, capsys):
    assert cli_main(["solve", write("(a & b) | (c & d) | (e & f)"), "--max-clauses", "3"]) == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, clauses",
    [("p", "  p\nhorn:\n  top -> p\n"), ("~~p", "  p\nhorn:\n  top -> p\n"), ("true", "  ~bot\nhorn:\n")],
    ids=["atom", "double-negation", "verum"],
)
def test_single_leaf_counts_against_the_clause_budget(write, capsys, text, clauses):
    # A single leaf is one clause, though no connective combines anything.
    path = write(text)
    for command in ("solve", "trace", "convert"):
        assert cli_main([command, path, "--max-clauses", "0"]) == 1
        captured = capsys.readouterr()
        _assert_one_error_line(captured)
        assert captured.err == "error: conversion exceeds the budget of 0 clauses\n"
    assert cli_main(["convert", path, "--max-clauses", "1"]) == 0
    assert capsys.readouterr().out == "clauses:\n" + clauses


def test_solve_precheck_note_on_diagnostic_stream(write, capsys):
    path = write("(~p | q) & (~q | r)")
    assert cli_main(["solve", path]) == 10
    captured = capsys.readouterr()
    assert "shortcut" in captured.err
    assert captured.out == "SAT\np=0 q=0 r=0\n"

    assert cli_main(["solve", path, "--no-precheck"]) == 10
    assert "shortcut" not in capsys.readouterr().err


def test_trace_json_schema_and_replay(write, capsys):
    assert cli_main(["trace", write(UNSAT_CHAIN_TEXT), "--json"]) == 20
    document = json.loads(capsys.readouterr().out)
    assert document["verdict"] == "UNSAT"
    assert document["model"] is None
    assert document["final_set"] == ["bot", "p", "q", "r", "s", "top"]
    assert document["step_count"] == 6
    assert [entry["fired_index"] for entry in document["steps"]] == [0, 4, 2, 1, 3, None]

    replayed = {"top"}
    for entry in document["steps"]:
        assert set(entry["set_before"]) <= set(entry["set_after"])
        if entry["consequent_added"] is not None:
            replayed.add(entry["consequent_added"])
        assert replayed == set(entry["set_after"])
    assert sorted(replayed) == document["final_set"]


def test_trace_sat_includes_model(write, capsys):
    assert cli_main(["trace", write(SAT_CHAIN_TEXT), "--json"]) == 10
    document = json.loads(capsys.readouterr().out)
    assert document["verdict"] == "SAT"
    assert document["model"] == {"p": 1, "q": 0, "r": 0, "s": 0}
    assert document["shortcut"] is None
    assert document["horn_form"] == ["top -> p", "r -> s", "p & q -> r", "r & s -> bot"]


def test_trace_records_shortcut(write, capsys):
    assert cli_main(["trace", write("~p | q"), "--json"]) == 10
    document = json.loads(capsys.readouterr().out)
    assert "consequent bot" in document["shortcut"]


def test_trace_text_output(write, capsys):
    assert cli_main(["trace", write(UNSAT_SHORT_TEXT)]) == 20
    out = capsys.readouterr().out
    assert "fire [0] top -> p" in out
    assert "verdict:  UNSAT" in out
    assert "final:    {bot, p, r, s, top}" in out


def test_convert_prints_clauses_and_implications(write, capsys):
    assert cli_main(["convert", write(UNSAT_CHAIN_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "  r | ~p | ~q" in out
    assert "  p & q -> r" in out
    assert "  r & s -> bot" in out
    assert out.index("clauses:") < out.index("horn:")


def test_convert_not_horn_still_prints_clauses(write, capsys):
    assert cli_main(["convert", write("p | q")]) == 1
    captured = capsys.readouterr()
    assert "p | q" in captured.out
    assert "error" in captured.err


def test_classify_verdicts(write, capsys):
    assert cli_main(["classify", write(UNSAT_CHAIN_TEXT)]) == 0
    assert capsys.readouterr().out == "Contradictory\n"
    assert cli_main(["classify", write("p | ~p")]) == 0
    assert capsys.readouterr().out == "Valid\n"
    assert cli_main(["classify", write(SAT_CHAIN_TEXT)]) == 0
    assert capsys.readouterr().out == "Satisfiable\n"


def test_classify_symbol_cap(write, capsys):
    text = " & ".join(f"v{i}" for i in range(6))
    assert cli_main(["classify", write(text), "--max-symbols", "5"]) == 1
    assert "cap" in capsys.readouterr().err


def _assert_one_error_line(captured):
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["solve", "trace", "convert", "classify"])
def test_closed_standard_input_is_an_error(monkeypatch, capsys, command):
    # With file descriptor 0 closed (``hornsat solve - <&-``), Python sets
    # ``sys.stdin`` to None.
    monkeypatch.setattr("sys.stdin", None)
    assert cli_main([command, "-"]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert captured.err == "error: standard input is closed\n"


def test_undecodable_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe p")
    assert cli_main(["solve", str(path)]) == 1
    _assert_one_error_line(capsys.readouterr())


def test_deep_parentheses_solve(write, capsys):
    assert cli_main(["solve", write("(" * 600 + "p" + ")" * 600)]) == 10
    assert capsys.readouterr().out == "SAT\np=1\n"


def test_unclosed_deep_parentheses_are_an_error(write, capsys):
    assert cli_main(["solve", write("(" * 100_000 + "p")]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert captured.err.endswith("expected ')'\n")


_DEPTH = 100_000
_LAST = f"p{_DEPTH - 1}"


@pytest.mark.parametrize(
    "command, text, code, expected",
    [
        ("trace", "(" * _DEPTH + "p" + ")" * _DEPTH, 10, {"horn_form": ["top -> p"], "model": {"p": 1}}),
        ("trace", "~" * _DEPTH + "p", 10, {"horn_form": ["top -> p"], "model": {"p": 1}}),
        (
            "trace",
            " -> ".join(f"p{i}" for i in range(_DEPTH)),
            10,
            {
                "horn_form": [" & ".join(f"p{i}" for i in range(_DEPTH - 1)) + f" -> {_LAST}"],
                "model": {f"p{i}": 0 for i in range(_DEPTH)},
            },
        ),
        ("classify", " <-> ".join(["p"] * _DEPTH), 0, "Valid\n"),
    ],
    ids=["parentheses", "negations", "right-nested-implications", "biconditionals"],
)
def test_depth_is_bounded_only_by_memory(write, capsys, command, text, code, expected):
    argv = [command, write(text)] + (["--json"] if command == "trace" else [])
    started = time.perf_counter()
    assert cli_main(argv) == code
    assert time.perf_counter() - started < 10
    out = capsys.readouterr().out
    if command == "classify":
        assert out == expected
        return
    document = json.loads(out)
    assert document["input_formula"] == text
    assert document["verdict"] == "SAT"
    for key, value in expected.items():
        assert document[key] == value


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "-", "--max-symbols", "-1"],
        ["solve", "-", "--max-clauses", "-5"],
        ["trace", "-", "--max-clauses", "-1"],
        ["convert", "-", "--max-clauses", "-1"],
    ],
)
def test_negative_limits_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_classify_out_of_memory_is_an_error(write, monkeypatch, capsys):
    def exhausted(phi, cap):
        raise MemoryError

    monkeypatch.setattr("hornsat.cli.classify", exhausted)
    assert cli_main(["classify", write("p")]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert captured.err != "error: \n"


def test_classify_beyond_any_table_size_is_an_error(write, capsys):
    # A table of 2^70 bits is too large for any int; it is refused before
    # anything is allocated, with a message that names the table.
    text = " | ".join(f"v{i}" for i in range(70))
    assert cli_main(["classify", write(text), "--max-symbols", "100"]) == 1
    captured = capsys.readouterr()
    _assert_one_error_line(captured)
    assert "truth table over 70 symbols is too large" in captured.err


def _run(argv, capsys):
    """Exit code, stdout and stderr of one ``cli_main`` call."""
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_share_no_state(write, capsys):
    sat = write("(~p | q) & (~q | r)", name="sat.txt")
    wide = write("a & (b | c | d)", name="wide.txt")
    runs = [
        ["solve", sat, "--no-precheck"],
        ["solve", sat],
        ["trace", write(SAT_CHAIN_TEXT, name="chain.txt"), "--json"],
        ["trace", write(UNSAT_SHORT_TEXT, name="short.txt")],
        ["classify", wide, "--max-symbols", "3"],
        ["classify", wide],
        ["solve", sat, "--max-clauses", "x"],
        ["solve", sat, "--max-clauses", "1"],
        ["solve", sat],
    ]
    alone = []
    for argv in runs:
        _build_parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(_run(argv, capsys))
    assert [code for code, _, _ in alone] == [10, 10, 10, 20, 1, 0, 2, 1, 10]
    assert "shortcut" not in alone[0][2] and "shortcut" in alone[1][2]

    parser = _build_parser()
    for _ in range(2):
        assert [_run(argv, capsys) for argv in runs] == alone
    assert _build_parser() is parser


def test_commands_leave_no_reference_cycles(write, tmp_path, capsys):
    # ``cli_main`` pauses the cyclic collector while a command runs.  That
    # leaks nothing only while reference counting alone frees everything a
    # command builds, on success and on every error path.
    formula_sat = write(SAT_CHAIN_TEXT, name="sat.txt")
    formula_unsat = write(UNSAT_CHAIN_TEXT, name="unsat.txt")
    dimacs_sat = write("p cnf 3 3\n1 0\n-1 2 0\n-2 -3 0", name="sat.cnf")
    dimacs_unsat = write("p cnf 2 3\n1 0\n-1 2 0\n-2 0", name="unsat.cnf")
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"\xff\xfe p")
    runs = [
        (["solve", formula_sat], 10),
        (["solve", formula_unsat, "--no-precheck"], 20),
        (["solve", dimacs_sat, "--dimacs"], 10),
        (["solve", dimacs_unsat, "--dimacs"], 20),
        (["trace", formula_sat], 10),
        (["trace", formula_unsat], 20),
        (["trace", dimacs_sat, "--dimacs"], 10),
        (["trace", formula_sat, "--json"], 10),
        (["trace", formula_unsat, "--json"], 20),
        (["trace", dimacs_unsat, "--dimacs", "--json"], 20),
        (["convert", formula_sat], 0),
        (["convert", dimacs_unsat, "--dimacs"], 0),
        (["classify", formula_sat], 0),
        (["classify", formula_unsat], 0),
        (["solve", write("p & (q |", name="parse.txt")], 1),
        (["classify", write("p ->", name="parse2.txt")], 1),
        (["solve", write("p cnf 1 1\n1 x 0", name="bad.cnf"), "--dimacs"], 1),
        (["solve", write("p | q", name="wide.txt")], 1),
        (["trace", write("p cnf 2 1\n1 2 0", name="wide.cnf"), "--dimacs", "--json"], 1),
        (["convert", write("(a & b) | (c & d)", name="blowup.txt"), "--max-clauses", "3"], 1),
        (["classify", write("p | q | r", name="cap.txt"), "--max-symbols", "2"], 1),
        (["solve", str(tmp_path / "missing.txt")], 1),
        (["trace", str(undecodable)], 1),
    ]
    cli_main(["solve", formula_sat])  # builds the parser once, as in any process
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv, code in runs:
            assert cli_main(argv) == code, argv
            capsys.readouterr()
            assert gc.collect() == 0, argv
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_cli_leaves_the_collector_as_it_found_it(write, capsys, monkeypatch, collecting):
    runs = [
        (["solve", write("p & (~p | q)", name="sat.txt")], 10),
        (["trace", write("p & ~p", name="unsat.txt"), "--json"], 20),
        (["convert", write("p | q", name="wide.txt")], 1),
        (["classify", write("p &", name="parse.txt")], 1),
    ]
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in runs:
            assert cli_main(argv) == code
            assert gc.isenabled() is collecting
        capsys.readouterr()

        def unexpected(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr("hornsat.cli._load_cnf", unexpected)
        with pytest.raises(RuntimeError):
            cli_main(runs[0][0])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


_NAMES = ("p", "q", "z", "é", 'a"b')
_SHORTCUTS = (
    None,
    SHORTCUT_NO_BOT_CONSEQUENT,
    SHORTCUT_NO_TOP_ANTECEDENT,
    f"{SHORTCUT_NO_BOT_CONSEQUENT}; {SHORTCUT_NO_TOP_ANTECEDENT}",
)
_IMPLICATIONS = st.builds(
    HornImplication,
    st.one_of(
        st.just(Top()),
        st.lists(st.sampled_from(_NAMES + (BOT,)), min_size=1, max_size=3).map(
            lambda atoms: Conj(tuple(atoms))
        ),
    ),
    st.sampled_from(_NAMES + (BOT,)),
)


def _document(input_formula, horn, start, early_stop, model, shortcut):
    final, steps = saturate(horn, start, early_stop)
    return TraceDocument(
        input_formula=input_formula,
        horn_form=tuple(_implication_lines(horn)),
        steps=steps,
        final_set=tuple(sorted(final)),
        verdict="UNSAT" if BOT in final else "SAT",
        model=model,
        step_count=len(steps),
        shortcut=shortcut,
    )


def _assert_renders_like_reference(document):
    assert document.to_json() == reference_trace_json(document)
    assert document.to_text() == reference_trace_text(document)


@given(
    input_formula=st.text(max_size=8),
    implications=st.lists(_IMPLICATIONS, max_size=10),
    extra=st.sets(st.sampled_from(_NAMES + (BOT,)), max_size=3),
    early_stop=st.booleans(),
    model=st.one_of(st.none(), st.dictionaries(st.sampled_from(_NAMES), st.integers(0, 1))),
    shortcut=st.sampled_from(_SHORTCUTS),
)
@example(  # early stop with an implication left unfired
    input_formula="",
    implications=[unit(BOT), unit("p")],
    extra=set(),
    early_stop=True,
    model=None,
    shortcut=None,
)
@example(  # a consequent already in the set, and an empty model
    input_formula="p ∧ q",
    implications=[unit("p"), unit("p"), rule(("p",), "q")],
    extra={"q"},
    early_stop=False,
    model={},
    shortcut=SHORTCUT_NO_BOT_CONSEQUENT,
)
@example(  # no implications at all
    input_formula="top",
    implications=[],
    extra=set(),
    early_stop=True,
    model={},
    shortcut=_SHORTCUTS[3],
)
def test_trace_rendering_matches_reference(
    input_formula, implications, extra, early_stop, model, shortcut
):
    horn = HornFormula(tuple(implications))
    start = frozenset({TOP} | extra)
    _assert_renders_like_reference(
        _document(input_formula, horn, start, early_stop, model, shortcut)
    )


def test_trace_rendering_matches_reference_on_seeded_runs():
    rng = random.Random(53)
    for _ in range(500):
        horn = random_horn(rng, _NAMES, rng.randint(0, 25), bot_antecedent_rate=0.2)
        outcome = solve(horn, early_stop=rng.random() < 0.8)
        model = extract_model(horn, outcome.final_set) if outcome.satisfiable else None
        shortcut = rng.choice(_SHORTCUTS)
        text = rng.choice(["p & q", " p ∧ q\n", "¬p → ⊥", ""])
        _assert_renders_like_reference(build_trace_document(text, horn, outcome, model, shortcut))


@pytest.mark.parametrize(
    "text",
    [
        UNSAT_CHAIN_TEXT,  # early stop leaves nothing unfired
        "~p & p & q & (~q | r)",  # early stop with implications left
        "p & p & (~p | q) & (~q | p)",  # consequents already in the set
        "top",  # no implications, both shortcuts
        "~p | q",  # one shortcut
        "p ∧ q",  # non-ASCII input
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_trace_output_matches_reference(write, capsys, text, json_flag):
    phi = parse_formula(text)
    horn = horn_from_clauses(to_cnf(phi))
    outcome = solve(horn, early_stop=True)
    model = None
    if outcome.satisfiable:
        model = extract_model(horn, outcome.final_set)
        for name in symbols(phi):
            model.setdefault(name, 0)
    shortcut = "; ".join(precheck(horn)) or None
    document = build_trace_document(text, horn, outcome, model, shortcut)
    render = reference_trace_json if json_flag else reference_trace_text
    assert cli_main(["trace", write(text), *json_flag]) in (10, 20)
    out = capsys.readouterr().out
    assert out == render(document) + "\n"
    if text == "p ∧ q" and json_flag:
        assert '"input_formula": "p \\u2227 q"' in out


class _Sink:
    """A standard output that keeps what is written without copying it."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def test_trace_json_scales_with_output_size(tmp_path):
    links = 2_000
    clauses = [f"-{k} {k + 1} 0" for k in reversed(range(1, links + 1))] + ["1 0"]
    path = tmp_path / "chain.cnf"
    path.write_text(f"p cnf {links + 1} {len(clauses)}\n" + "\n".join(clauses) + "\n", encoding="utf-8")
    argv = ["trace", str(path), "--dimacs", "--json"]

    sink = _Sink()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        assert cli_main(argv) == 10
    elapsed = time.perf_counter() - started
    out = "".join(sink.parts)
    del sink

    traced = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(traced):
            cli_main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del traced
    assert elapsed < 1.0
    assert peak < 3 * len(out)

    # Replay each step as it is decoded, so the sets are never all held.
    replayed = set()
    steps = []

    def replay(entry):
        if "set_after" not in entry:
            return entry
        before, after = entry["set_before"], entry["set_after"]
        assert before == sorted(before) and after == sorted(after)
        if not steps:
            replayed.update(before)
        assert set(before) == replayed
        if entry["consequent_added"] is not None:
            replayed.add(entry["consequent_added"])
        assert set(after) == replayed
        steps.append(entry["fired_index"])
        return None

    document = json.loads(out, object_hook=replay)
    assert steps == [*range(links, -1, -1), None]
    assert document["step_count"] == links + 2
    assert document["final_set"] == sorted(replayed) == sorted([*(f"x{k}" for k in range(1, links + 2)), "top"])
    assert document["model"] == {f"x{k}": 1 for k in range(1, links + 2)}


# Runs each ``(argv, stdin text)`` pair through ``cli_main`` under a
# recursion limit of 60 frames, and prints each run's exit code and stderr
# as JSON; an exception that escapes ``cli_main`` is recorded as its
# traceback.
_LOW_LIMIT_SCRIPT = """
import contextlib, io, json, sys, traceback
from hornsat.cli import cli_main
runs = json.load(sys.stdin)
results = []
sys.setrecursionlimit(60)
for argv, text in runs:
    sys.stdin, err = io.StringIO(text), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception:
            sys.setrecursionlimit(1000)
            code = None
            err.write(traceback.format_exc())
            sys.setrecursionlimit(60)
    results.append([code, err.getvalue()])
sys.setrecursionlimit(1000)
json.dump(results, sys.__stdout__)
"""


def test_deep_inputs_run_under_a_low_recursion_limit():
    # Inputs nest as deep as memory allows, so no stage of any command may
    # recurse per level: 60 frames leave no room for that.
    chains = {
        "parentheses": ("(" * 20_000 + "p" + ")" * 20_000, (10, 10, 0, 0)),
        "negations": ("~" * 20_000 + "p", (10, 10, 0, 0)),
        "implications": (" -> ".join(f"p{k}" for k in range(20_001)), (10, 10, 0, 1)),
        "biconditionals": (" <-> ".join(f"p{k}" for k in range(201)), (1, 1, 1, 1)),
        "cnf": (" & ".join(f"(~a{k} | b{k})" for k in range(20_000)), (10, 10, 0, 1)),
    }
    commands = (["solve"], ["trace", "--json"], ["convert"], ["classify"])
    runs = [[[*command, "-"], text] for text, _ in chains.values() for command in commands]
    source = str(Path(hornsat.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LOW_LIMIT_SCRIPT],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = iter(json.loads(proc.stdout))
    for name, (_, codes) in chains.items():
        for command, code in zip(commands, codes):
            got, stderr = next(results)
            assert "Traceback" not in stderr and "recursion" not in stderr, (name, command, stderr)
            assert got == code, (name, command, stderr)


def test_stdin_reads_what_a_path_reads_under_any_io_encoding(tmp_path):
    # ``-`` reads UTF-8 with universal newlines, as a path does, and the
    # output is UTF-8, whatever PYTHONIOENCODING says.
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes("p ∧\r\nq\r\n".encode("utf-8"))
    undecodable = tmp_path / "ff.txt"
    undecodable.write_bytes(b"p \xff q\n")
    source = str(Path(hornsat.__file__).parents[1])
    base_env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}

    def run(argv, path, encoding, via_stdin):
        env = {**base_env, "PYTHONPATH": source}
        if encoding is not None:
            env["PYTHONIOENCODING"] = encoding
        with open(path, "rb") as handle:
            proc = subprocess.run(
                [sys.executable, "-m", "hornsat", *argv, "-" if via_stdin else str(path)],
                stdin=handle if via_stdin else subprocess.DEVNULL,
                capture_output=True,
                env=env,
                timeout=60,
            )
        assert b"Traceback" not in proc.stderr, (argv, encoding, via_stdin, proc.stderr)
        return proc.returncode, proc.stdout

    for argv, path in ((["trace"], crlf), (["trace", "--json"], crlf), (["solve"], undecodable)):
        expected = run(argv, path, None, False)
        for encoding in (None, "ascii", "latin-1"):
            for via_stdin in (False, True):
                assert run(argv, path, encoding, via_stdin) == expected, (argv, encoding, via_stdin)
    assert json.loads(run(["trace", "--json"], crlf, None, False)[1])["input_formula"] == "p ∧\nq"
