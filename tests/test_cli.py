"""Command-line contract: exit codes, output formats, JSON schema."""

import io
import json

import pytest

from hornsat.cli import cli_main

from helpers import SAT_CHAIN_TEXT, UNSAT_CHAIN_TEXT, UNSAT_SHORT_TEXT


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


def test_solve_dimacs_unsat(write, capsys):
    path = write("p cnf 1 2\n1 0\n-1 0", name="input.cnf")
    assert cli_main(["solve", path, "--dimacs"]) == 20


def test_solve_clause_budget(write, capsys):
    assert cli_main(["solve", write("(a & b) | (c & d) | (e & f)"), "--max-clauses", "3"]) == 1
    assert "budget" in capsys.readouterr().err


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


def test_undecodable_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe p")
    assert cli_main(["solve", str(path)]) == 1
    _assert_one_error_line(capsys.readouterr())


def test_deep_parentheses_are_an_error(write, capsys):
    assert cli_main(["solve", write("(" * 600 + "p" + ")" * 600)]) == 1
    _assert_one_error_line(capsys.readouterr())


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
    # A table of 2^70 bits is refused by the interpreter as too large an
    # int (OverflowError) before anything is allocated.
    text = " | ".join(f"v{i}" for i in range(70))
    assert cli_main(["classify", write(text), "--max-symbols", "100"]) == 1
    _assert_one_error_line(capsys.readouterr())
