"""The CLI contract on a fixed corpus: every run's exit code, stdout and
stderr must hash to the digest committed in ``golden_cli_digests.txt``,
and the runs of ``TEXT_RUNS`` must print the full text committed in
``golden_cli_texts/``, so that a change to them shows as a diff.  No
text run prints a traceback, and each exit 1 prints exactly one
``error:`` line on stderr.  CI runs every text run again through the
installed ``hornsat`` script and compares its bytes.

Each line of that file is ``input<TAB>command<TAB>sha256``.  Most runs
read their input from standard input; the path runs read a missing file,
a file that is not UTF-8 and a directory, so the handler's ``OSError``
and ``UnicodeDecodeError`` branches are covered too, and files with CRLF
and lone-CR line ends and a UTF-8 byte order mark.  Rewriting it
changes test data: list each changed run and its reason in CHANGES.md.
Usage errors are checked by exit code only, since the usage and help
texts are not part of the contract.  The runs of ``deep-biconditionals``,
whose CNF exceeds the default clause budget, go through a child
interpreter capped at 1 GiB of address space: should the budget stop
holding, they end in a ``MemoryError`` digest mismatch instead of
growing until the test process is killed.
Regenerate both with ``PYTHONPATH=src python tests/test_golden_cli.py``,
which prints the added, removed and changed ``input<TAB>command`` keys
against the digest file it replaces, and the name of each changed text.
A new CLI case is a ``TEXT_RUNS`` entry plus its committed text, made by
that command, which then prints only ``text<TAB><name>`` for it.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import hornsat
from hornsat.cli import cli_main

from helpers import SAT_CHAIN_TEXT, UNSAT_CHAIN_TEXT, UNSAT_SHORT_TEXT, golden_cli_inputs

DIGESTS = Path(__file__).with_name("golden_cli_digests.txt")
TEXTS = Path(__file__).with_name("golden_cli_texts")
COMMANDS = (("solve",), ("solve", "--no-precheck"), ("trace",), ("trace", "--json"), ("convert",))
# Run on formula texts only; the two limits make some runs fail with exit 1.
FORMULA_COMMANDS = (("classify",), ("solve", "--max-clauses", "8"), ("classify", "--max-symbols", "3"))
# Read from a path, inside a fresh directory so each message names only
# the relative path; ``None`` is a file that does not exist and
# ``DIRECTORY`` a directory.  A path is read with universal newlines, so
# ``trace`` prints the CRLF and lone-CR inputs with ``\n`` line ends.
DIRECTORY = "directory"
PATH_INPUTS = (
    ("missing-input.txt", None),
    ("non-utf8.txt", b"p \xff q"),
    ("crlf.txt", b"p & (~r | s)\r\n& (r | ~p | ~q)\r\n& (~r | ~s)\r\n"),
    ("lone-cr.txt", b"p &\r(p -> q)\r& ~r\r"),
    ("utf8-bom.txt", b"\xef\xbb\xbfp & (p -> q)\n"),
    ("a-directory", DIRECTORY),
)
PATH_COMMANDS = COMMANDS + (("classify",),)
# The input whose runs go through :func:`run_digests_capped`.
CAPPED_INPUT = "deep-biconditionals"
MEMORY_CAP = 2**30
USAGE_ERRORS = (
    ("solve", "-", "--max-clauses", "-1"),
    ("classify", "-", "--max-symbols", "x"),
    ("classify", "-", "--dimacs"),
    ("check", "-"),
    ("solve",),
)
# A 200-link chain x1 -> ... -> x200 -> bot: the heads from x128 on have
# literal codes of 256 and more, whose low bytes are small.  A parity mask
# that misread any of them would break the chain.
LONG_CHAIN_DIMACS = "p cnf 200 201\n1 0\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, 200)) + "-200 0\n"
# The 20-pair blowup ~((a0 | b0) & ... & (a19 | b19)) has 2^20 clauses.  The
# default budget of 100000 refuses it on the clause count alone, before any
# product is built.
BLOWUP_20_PAIRS = "~(" + " & ".join(f"(a{i} | b{i})" for i in range(20)) + ")\n"
# The runs whose full text is committed, each as ``(name, argv, standard
# input)``; ``golden_cli_texts/<name>.txt`` holds its exit code, stdout
# and stderr.
TEXT_RUNS = (
    ("trace-unsat-chain", ("trace", "-"), UNSAT_CHAIN_TEXT),
    ("trace-json-unsat-chain", ("trace", "--json", "-"), UNSAT_CHAIN_TEXT),
    ("trace-sat-chain", ("trace", "-"), SAT_CHAIN_TEXT),
    ("trace-json-sat-chain", ("trace", "--json", "-"), SAT_CHAIN_TEXT),
    ("trace-unsat-short", ("trace", "-"), UNSAT_SHORT_TEXT),
    ("trace-json-unsat-short", ("trace", "--json", "-"), UNSAT_SHORT_TEXT),
    ("trace-early-stop", ("trace", "-"), "~p & p & q & (~q | r)\n"),
    # JSON escapes every non-ASCII character, as json.dumps does.
    ("trace-json-non-ascii", ("trace", "--json", "-"), "p \u2227 (p \u2192 q)\n"),
    ("convert-true", ("convert", "-"), "true\n"),
    ("convert-false", ("convert", "-"), "false\n"),
    ("convert-or-true", ("convert", "-"), "p | true\n"),
    ("convert-not-false", ("convert", "-"), "~false & p\n"),
    ("convert-dimacs-empty-clause", ("convert", "--dimacs", "-"), "p cnf 0 1\n0\n"),
    # A read-once product, whose clauses are copied as they are.
    ("convert-product", ("convert", "-"), "~((a | b) & (c | d))\n"),
    # Three factors of 3, 2 and 1 clauses: the last product level joins the
    # first factor's clauses with the product of the other two.
    ("convert-three-factors", ("convert", "-"), "~((a | b | c) & (d | e) & f)\n"),
    # A clause cleaned of a repeated atom and of falsum.
    ("convert-repeat-and-false", ("convert", "-"), "p | p | false\n"),
    # A clause whose head comes before its antecedent.
    ("convert-head-first", ("convert", "-"), "(p | ~q) & q\n"),
    # Facts and rules, read a run at a time: a true antecedent, a false
    # head, a repeated antecedent atom and a clause dropped as valid.
    (
        "convert-facts-and-rules",
        ("convert", "-"),
        "p & (p & q -> r) & (true -> s) & (r -> false) & (q & q -> s) & (p -> true) & q\n",
    ),
    # The clauses go out before the Horn pass fails, and no ``horn:`` line.
    ("convert-not-horn", ("convert", "-"), "p | q\n"),
    ("solve-dimacs", ("solve", "--dimacs", "-"), "c three vars\np cnf 3 3\n1 0\n-1 2 0\n-2 -3 0\n"),
    ("solve-both-shortcuts", ("solve", "-"), "p -> q\n"),
    ("solve-not-horn", ("solve", "-"), "p | q\n"),
    ("solve-clause-budget", ("solve", "--max-clauses", "3", "-"), "(p & q) | (r & s)\n"),
    ("solve-parse-error", ("solve", "-"), "p |\n"),
    ("solve-fact-and-rule", ("solve", "-"), "p & (p -> q)\n"),
    # p is held only by a clause dropped as valid, and still named.
    ("solve-valid-clause", ("solve", "-"), "q & (p | true)\n"),
    # No implication is a fact, so {top} is the fixpoint, returned without
    # counting the four goal clauses.
    ("solve-no-fact", ("solve", "-"), "~((a | b) & (c | d))\n"),
    ("solve-unsat", ("solve", "-"), "p & ~p\n"),
    ("solve-blowup-over-budget", ("solve", "-"), BLOWUP_20_PAIRS),
    ("solve-dimacs-sat", ("solve", "--dimacs", "-"), "p cnf 3 2\n1 0\n-1 2 0\n"),
    ("solve-dimacs-unsat", ("solve", "--dimacs", "-"), "p cnf 1 2\n1 0\n-1 0\n"),
    ("solve-dimacs-not-horn", ("solve", "--dimacs", "-"), "p cnf 2 1\n1 2 0\n"),
    ("solve-dimacs-long-chain", ("solve", "--dimacs", "-"), LONG_CHAIN_DIMACS),
    ("classify-valid", ("classify", "-"), "p | ~p\n"),
    ("classify-satisfiable", ("classify", "-"), "p & ~q\n"),
    ("classify-contradictory", ("classify", "-"), "p & ~p\n"),
    ("classify-implication", ("classify", "-"), "p -> q\n"),
    ("classify-symbol-cap", ("classify", "--max-symbols", "1", "-"), "p & q\n"),
)


def run_cli(argv, stdin_text):
    """Exit code, stdout and stderr of ``cli_main(argv)`` with
    ``stdin_text`` on standard input."""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return code, stdout.getvalue(), stderr.getvalue()


def run_digest(argv, stdin_text):
    """Exit code of ``cli_main(argv)`` with ``stdin_text`` on standard
    input, and the sha256 of that code, stdout and stderr."""
    code, stdout, stderr = run_cli(argv, stdin_text)
    payload = json.dumps([code, stdout, stderr])
    return code, hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Runs each ``(argv, stdin text)`` pair through ``run_digest`` and prints
# the list of ``[exit code, digest]`` pairs as JSON.
_CAPPED_SCRIPT = """
import json, sys
from test_golden_cli import run_digest
json.dump([run_digest(argv, text) for argv, text in json.load(sys.stdin)], sys.stdout)
"""


def _cap_memory(cap=MEMORY_CAP):
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_digests_capped(runs):
    """``run_digest`` of each ``(argv, stdin text)`` pair in ``runs``, run
    in a child interpreter limited to ``MEMORY_CAP`` bytes of address
    space.  The caller's own ``PYTHONPATH`` follows ``src`` and ``tests``,
    so the test packages are found where they are on the path rather than
    installed."""
    paths = [str(Path(hornsat.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_SCRIPT],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        preexec_fn=_cap_memory,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(result) for result in json.loads(proc.stdout)]


def golden_text(code, stdout, stderr):
    """A run's exit code, stdout and stderr laid out as its golden text
    file is."""
    return f"exit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}"


def usage_exit_code(argv):
    """The code that ``cli_main(argv)`` exits with on a usage error, its
    usage text discarded; None if it returns instead."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli_main(argv)
        except SystemExit as exc:
            return exc.code
    return None


def golden_runs():
    """Yield ``(input name, command, exit code, digest)`` for every run of
    the corpus."""
    for name, text, dimacs in golden_cli_inputs():
        commands = COMMANDS if dimacs else COMMANDS + FORMULA_COMMANDS
        runs = [[[*command, "-", *(("--dimacs",) if dimacs else ())], text] for command in commands]
        if name == CAPPED_INPUT:
            results = run_digests_capped(runs)
        else:
            results = [run_digest(argv, stdin_text) for argv, stdin_text in runs]
        for command, result in zip(commands, results):
            yield name, " ".join(command), *result
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        for name, data in PATH_INPUTS:
            if data is DIRECTORY:
                Path(name).mkdir()
            elif data is not None:
                Path(name).write_bytes(data)
            for command in PATH_COMMANDS:
                yield name, " ".join(command), *run_digest([*command, name], "")


def committed_digests():
    """The committed digest of each ``(input name, command)``."""
    expected = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        name, command, digest = line.split("\t")
        expected[name, command] = digest
    return expected


def test_cli_output_matches_golden_digests():
    expected = committed_digests()
    seen, codes, mismatches = set(), set(), []
    for name, command, code, digest in golden_runs():
        seen.add((name, command))
        codes.add(code)
        if expected.get((name, command)) != digest:
            mismatches.append(f"{name}: hornsat {command} (exit {code})")
    assert not mismatches, "output differs from the golden digest:\n" + "\n".join(mismatches)
    assert seen == expected.keys()
    for argv in USAGE_ERRORS:
        code = usage_exit_code(argv)
        assert code == 2, f"hornsat {' '.join(argv)} exited with {code}"
        codes.add(code)
    assert codes == {0, 1, 2, 10, 20}


def test_cli_output_matches_golden_texts():
    diffs, bad_stderr = [], []
    for name, argv, stdin_text in TEXT_RUNS:
        expected = (TEXTS / f"{name}.txt").read_text(encoding="utf-8")
        code, stdout, stderr = run_cli(argv, stdin_text)
        diffs += difflib.unified_diff(
            expected.splitlines(keepends=True),
            golden_text(code, stdout, stderr).splitlines(keepends=True),
            f"{name}.txt",
            f"hornsat {' '.join(argv)}",
        )
        # Checked on the run itself, so a regenerated text cannot hide them.
        one_error_line = stderr.startswith("error:") and stderr.count("\n") == 1 and stderr.endswith("\n")
        if "Traceback" in stderr or (code == 1 and not one_error_line):
            bad_stderr.append(name)
    assert not diffs, "output differs from the golden text:\n" + "".join(diffs)
    assert not bad_stderr, f"a traceback, or an exit 1 without one error: line: {bad_stderr}"
    assert sorted(path.name for path in TEXTS.iterdir()) == sorted(f"{name}.txt" for name, _, _ in TEXT_RUNS)


if __name__ == "__main__":
    old = committed_digests() if DIGESTS.exists() else {}
    new = {(name, command): digest for name, command, _, digest in golden_runs()}
    changes = {
        "added": new.keys() - old.keys(),
        "removed": old.keys() - new.keys(),
        "changed": {key for key in new.keys() & old.keys() if new[key] != old[key]},
    }
    for label, keys in changes.items():
        for name, command in sorted(keys):
            print(f"{label}\t{name}\t{command}")
    with DIGESTS.open("w", encoding="utf-8", newline="\n") as handle:
        for (name, command), digest in new.items():
            handle.write(f"{name}\t{command}\t{digest}\n")
    TEXTS.mkdir(exist_ok=True)
    for name, argv, stdin_text in TEXT_RUNS:
        path = TEXTS / f"{name}.txt"
        text = golden_text(*run_cli(argv, stdin_text))
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            print(f"text\t{name}")
            path.write_text(text, encoding="utf-8", newline="\n")
