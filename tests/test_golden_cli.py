"""The CLI contract on a fixed corpus: every run's exit code, stdout and
stderr must hash to the digest committed in ``golden_cli_digests.txt``.

Each line of that file is ``input<TAB>command<TAB>sha256``.  Most runs
read their input from standard input; the path runs read a missing file
and a file that is not UTF-8, so the handler's ``OSError`` and
``UnicodeDecodeError`` branches are covered too.  Rewriting it
changes test data: list each changed run and its reason in CHANGES.md.
Usage errors are checked by exit code only, since argparse's usage text
changes between Python versions.
Regenerate with ``PYTHONPATH=src python tests/test_golden_cli.py``, which
prints the added, removed and changed ``input<TAB>command`` keys against
the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hornsat.cli import cli_main

from helpers import golden_cli_inputs

DIGESTS = Path(__file__).with_name("golden_cli_digests.txt")
COMMANDS = (("solve",), ("solve", "--no-precheck"), ("trace",), ("trace", "--json"), ("convert",))
# Run on formula texts only; the two limits make some runs fail with exit 1.
FORMULA_COMMANDS = (("classify",), ("solve", "--max-clauses", "8"), ("classify", "--max-symbols", "3"))
# Read from a path, inside a fresh directory so each message names only
# the relative path; ``None`` is a file that does not exist.
PATH_INPUTS = (("missing-input.txt", None), ("non-utf8.txt", b"p \xff q"))
PATH_COMMANDS = COMMANDS + (("classify",),)
USAGE_ERRORS = (
    ("solve", "-", "--max-clauses", "-1"),
    ("classify", "-", "--max-symbols", "x"),
    ("classify", "-", "--dimacs"),
    ("check", "-"),
    ("solve",),
)


def run_digest(argv, stdin_text):
    """Exit code of ``cli_main(argv)`` with ``stdin_text`` on standard
    input, and the sha256 of that code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    payload = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return code, hashlib.sha256(payload.encode("utf-8")).hexdigest()


def usage_exit_code(argv):
    """The code that ``cli_main(argv)`` exits with through argparse, its
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
        for command in COMMANDS if dimacs else COMMANDS + FORMULA_COMMANDS:
            argv = [*command, "-", *(("--dimacs",) if dimacs else ())]
            yield name, " ".join(command), *run_digest(argv, text)
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        for name, data in PATH_INPUTS:
            if data is not None:
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
