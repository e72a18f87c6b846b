"""One workload run inside a fresh process, so that its peak RSS is its own.

Usage: ``python3 worker.py JOB.json RESULT.json``.  The job names the
``src`` directory to import ``hornsat`` from, the instance pool (inputs are
already written to files) and the mode:

* ``timed``: a closed loop with one client.  The whole pool runs through
  ``hornsat.cli.cli_main`` one instance after another, pass after pass,
  for the job's ``seconds``; see :func:`timed_run`.  Outputs are checked
  between instances, outside the timed region.
* ``traced``: one pass over the pool.  Each instance runs three times:
  through ``cli_main`` untimed by layer; through the same public calls the
  CLI makes, in the same order, with a span around each; and once more
  under ``tracemalloc`` for the allocation peaks.  Spans stay in memory
  and are written out at the end.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import workloads

# A timed run starts no new pass after this long, whatever it was asked
# for, so that it ends well inside the time a benchmark run may take.
WALL_LIMIT_S = 120.0

# A timed run makes at least this many passes over its pool.
MIN_PASSES = 3

# On a shared virtual machine the CPU's speed can swing by half or more for
# spells of seconds to minutes, and process CPU time swings with it (seen
# on a 2-vCPU Xeon VM).  Timed runs therefore report times scaled to a reference
# speed, measured by a calibration that runs between instances.  This is
# the calibration's median time on that VM, quiet, under CPython 3.11.
CALIBRATION_REFERENCE_S = 1.0e-3

# The truth-table oracle cross-checks verdicts on inputs of at most this
# many symbols.
ORACLE_MAX_SYMBOLS = 12

# Spans whose summed durations the traced run reports by name.
SPAN_TOTALS = ("parse_formula", "parse_dimacs", "to_cnf", "solve", "render", "classify")


def _argv(instance):
    return [instance["path"] if arg == "{input}" else arg for arg in instance["argv"]]


def _symbol_names(clauses):
    return {lit.lstrip("~") for clause in clauses for lit in clause}


class Checker:
    """Checks outputs against what each instance's construction guarantees.

    An output already verified for an instance is recognised by its digest
    when the instance runs again; the program is deterministic, so any other
    output is checked from scratch.
    """

    def __init__(self):
        from hornsat.formula import And, Atom, Not, Or
        from hornsat.oracle import Classification, classify

        self._formula_types = (And, Atom, Not, Or)
        self._classify = classify
        self._contradictory = Classification.CONTRADICTORY
        self._verified = {}
        self.oracle_checks = 0

    def check(self, instance, rc, out, err):
        """None when the output is correct, else a one-line reason."""
        digest = hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest()
        if self._verified.get(instance["id"]) == digest:
            return None
        problem = self._check(instance, rc, out, err)
        if problem is None:
            self._verified[instance["id"]] = digest
        return problem

    def _check(self, instance, rc, out, err):
        expect = instance["expect"]
        command = instance["argv"][0]
        if "label" in expect:
            if rc != 0 or out != expect["label"] + "\n":
                return f"classify printed {out.strip()!r} (exit {rc}), expected {expect['label']}"
            return None
        verdict = expect["verdict"]
        if verdict == "ERROR":
            if rc != 1 or out or not err.startswith("error: "):
                return f"expected exit 1 with an error line, got exit {rc}"
            return None
        expected_rc = 10 if verdict == "SAT" else 20
        if rc != expected_rc:
            return f"exit {rc}, expected {expected_rc} ({verdict})"
        if command == "solve":
            lines = out.splitlines()
            if lines[:1] != [verdict] or len(lines) != (2 if verdict == "SAT" else 1):
                return f"unexpected solve output {out[:80]!r}"
            if verdict == "SAT":
                problem = workloads.model_problem(instance, workloads.parse_model_line(lines[1]))
                if problem:
                    return problem
        else:
            document = json.loads(out)
            if document["verdict"] != verdict:
                return f"trace verdict {document['verdict']}, expected {verdict}"
            if "steps" in expect and document["step_count"] != expect["steps"]:
                return f"step_count {document['step_count']}, expected {expect['steps']}"
            problem = workloads.replay_problem(document, instance)
            if problem is None and verdict == "SAT":
                problem = workloads.model_problem(instance, document["model"])
            if problem:
                return problem
        return self._oracle_problem(instance, verdict)

    def _oracle_problem(self, instance, verdict):
        """Cross-check the verdict with the truth-table oracle on small inputs."""
        clauses = workloads.instance_clauses(instance)
        if clauses is None:
            clauses = instance["terms"]
        if len(_symbol_names(clauses)) > ORACLE_MAX_SYMBOLS:
            return None
        And, Atom, Not, Or = self._formula_types

        def literal(text):
            return Not(Atom(text[1:])) if text.startswith("~") else Atom(text)

        def fold(parts, join):
            result = parts[0]
            for part in parts[1:]:
                result = join(result, part)
            return result

        inner, outer = (Or, And) if "terms" not in instance else (And, Or)
        phi = fold([fold([literal(lit) for lit in clause], inner) for clause in clauses], outer)
        self.oracle_checks += 1
        contradictory = self._classify(phi) is self._contradictory
        if contradictory != (verdict == "UNSAT"):
            return f"the oracle disagrees with verdict {verdict}"
        return None


class Outcome:
    """Attempts, failures by exception type, and wrong outputs of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.wrong = []

    def record(self, instance, exc, problem):
        self.attempted += 1
        if exc is not None:
            self.failures[type(exc).__name__] += 1
        elif problem is not None:
            self.wrong.append(f"{instance['id']} ({instance['family']}): {problem}")

    def to_json(self):
        return {"attempted": self.attempted, "failed": sum(self.failures.values()),
                "failures": dict(self.failures), "wrong": len(self.wrong), "wrong_examples": self.wrong[:5]}


def run_cli(cli_main, instance):
    """Run one instance through ``cli_main``; returns (seconds, rc, out, err, exc)."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(_argv(instance))
    except Exception as caught:  # counted as a failure; the loop goes on
        exc = caught
    elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue(), exc


class _Pair:
    __slots__ = ("number", "name")

    def __init__(self, number, name):
        self.number = number
        self.name = name


def calibration():
    """A fixed piece of pure-Python work of the kind the program does:
    small objects, attribute reads, strings, tuples, dicts, frozensets and
    sorting.  It never calls ``hornsat``."""
    table = {}
    for pair in [_Pair(i, str(i)) for i in range(1500)]:
        table[pair.name] = (pair.number, frozenset((pair.number, pair.number + 1)))
    total = 0
    for name, (number, members) in table.items():
        if number in members:
            total += len(name)
    return total + len(sorted(table, reverse=True))


def timed_calibration():
    start = time.perf_counter()
    calibration()
    return time.perf_counter() - start


def at_reference_speed(seconds, calibration_before, calibration_after):
    """``seconds`` as measured, scaled to the machine speed at which the
    calibration takes ``CALIBRATION_REFERENCE_S``.  Of the calibrations on
    either side of the measurement, the faster one is taken: a calibration
    can be slowed by an interruption of its own."""
    return seconds * CALIBRATION_REFERENCE_S / min(calibration_before, calibration_after)


def timed_run(job, cli_main, checker):
    """Run the whole pool, pass after pass, until the job's seconds are
    used up, in at least ``MIN_PASSES`` passes.  The calibration runs
    before the first instance and after every instance, once its output is
    checked and its garbage collected.  An instance's
    latency is the median over passes of its time scaled to the reference
    speed; its raw latency is the fastest of its measured times."""
    outcome = Outcome()
    scaled = {instance["id"]: [] for instance in job["pool"]}
    fastest = {}
    failed = set()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < min(job["seconds"], WALL_LIMIT_S):
        calibration_before = timed_calibration()
        for instance in job["pool"]:
            elapsed, rc, out, err, exc = run_cli(cli_main, instance)
            problem = None if exc else checker.check(instance, rc, out, err)
            outcome.record(instance, exc, problem)
            if exc is not None:
                failed.add(instance["id"])
            del out, err
            gc.collect()
            calibration_after = timed_calibration()
            scaled[instance["id"]].append(at_reference_speed(elapsed, calibration_before, calibration_after))
            fastest[instance["id"]] = min(elapsed, fastest.get(instance["id"], elapsed))
            calibration_before = calibration_after
        passes += 1
    ok = [instance for instance in job["pool"] if instance["id"] not in failed]
    return {**outcome.to_json(), "passes": passes,
            "scaled_total_s": sum(statistics.median(times) for times in scaled.values()),
            "latencies_s": [[instance["family"], statistics.median(scaled[instance["id"]])] for instance in ok],
            "raw_total_s": sum(fastest.values()),
            "raw_latencies_s": [fastest[instance["id"]] for instance in ok]}


# ------------------------------------------------------------------ tracing


class Tracer:
    """Spans kept in memory as [name, layer, start, end, parent, instance]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.instance = None

    @contextlib.contextmanager
    def span(self, name, layer):
        record = [name, layer, time.perf_counter(), None, self._open[-1] if self._open else None, self.instance]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record[3] = time.perf_counter()

    def self_times(self):
        """Seconds per layer: each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = Counter()
        for index, (name, layer, start, end, parent, _) in enumerate(self.spans):
            totals[layer] += end - start - child_time[index]
        return totals

    def span_time(self, name):
        return sum(end - start for span_name, _, start, end, _, _ in self.spans if span_name == name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, instance in self.spans:
                handle.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                         "parent": parent, "instance": instance}) + "\n")


class AllocPeaks:
    """A stand-in for :meth:`Tracer.span` that records, per span name, the
    largest tracemalloc peak above the memory held when the span opened."""

    def __init__(self):
        self.peaks = Counter()

    @contextlib.contextmanager
    def span(self, name, layer):
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1] - current
            self.peaks[name] = max(self.peaks[name], peak)


def traced_pipeline(hs, instance, span, counts):
    """The calls ``hornsat solve|trace|classify`` makes, in its order, each
    inside ``span(name, layer)``.  Prints what the CLI prints and returns
    its exit code; ``counts`` collects per-layer work counts."""
    argv = _argv(instance)
    command, path, flags = argv[0], argv[1], argv[2:]
    with span("read_input", "cli"):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    counts["input_bytes"] += len(text.encode())
    if command == "classify":
        try:
            with span("parse_formula", "parsing"):
                phi = hs.parse_formula(text)
            with span("classify", "oracle"):
                verdict = hs.classify(phi)
        except (hs.ParseError, hs.SymbolCapError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        counts["oracle_rows"] += 2 ** len(hs.symbols(phi))
        with span("render", "cli"):
            print(verdict.name.capitalize())
        return 0
    max_clauses = int(flags[flags.index("--max-clauses") + 1]) if "--max-clauses" in flags else hs.DEFAULT_CLAUSE_BUDGET
    try:
        if "--dimacs" in flags:
            with span("parse_dimacs", "parsing"):
                cnf = hs.parse_dimacs(text)
            with span("source_symbols", "cli"):
                source_symbols = cnf.symbols()
        else:
            with span("parse_formula", "parsing"):
                phi = hs.parse_formula(text)
            with span("to_cnf", "normalform"):
                cnf = hs.to_cnf(phi, max_clauses=max_clauses)
            counts["clauses_out"] += len(cnf.clauses)
            with span("source_symbols", "cli"):
                source_symbols = hs.symbols(phi)
        with span("horn_from_clauses", "horn"):
            horn = hs.horn_from_clauses(cnf)
        counts["implications"] += horn.n
        counts["clauses_dropped"] += len(cnf.clauses) - horn.n
        with span("precheck", "solver"):
            reasons = hs.precheck(horn)
        counts["prechecks"] += 1
        counts["precheck_hits"] += bool(reasons)
        shortcut = "; ".join(reasons) if reasons else None
        with span("solve", "solver"):
            outcome = hs.solve(horn, early_stop=True)
        counts["steps"] += outcome.steps
        counts["firings"] += sum(step.fired_index is not None for step in outcome.trace)
        counts["solved_implications"] += horn.n
        if not outcome.satisfiable:
            counts["unfired_at_stop"] += outcome.trace[-1].remaining_after
        model = None
        if outcome.satisfiable:
            with span("extract_model", "solver"):
                model = hs.extract_model(horn, outcome.final_set)
            with span("model_defaults", "cli"):
                for name in source_symbols:
                    model.setdefault(name, 0)
    except (hs.ParseError, hs.DimacsError, hs.NotHornError, hs.ClauseBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if command == "trace":
        with span("render", "cli"):
            document = hs.build_trace_document(text, horn, outcome, model, shortcut)
            print(document.to_json() if "--json" in flags else document.to_text())
        return 10 if outcome.satisfiable else 20
    if shortcut:
        print(f"note: shortcut: {shortcut}", file=sys.stderr)
    with span("render", "cli"):
        if outcome.satisfiable:
            print("SAT")
            if model:
                print(" ".join(f"{name}={model[name]}" for name in sorted(model)))
        else:
            print("UNSAT")
    return 10 if outcome.satisfiable else 20


def _run_traced(hs, instance, span, counts):
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = traced_pipeline(hs, instance, span, counts)
    except Exception as caught:  # the same failures the timed loop counts
        exc = caught
    return rc, out.getvalue(), exc


def traced_run(job, cli_main, checker, spans_path):
    import hornsat
    from hornsat import cli

    hs = types.SimpleNamespace(build_trace_document=cli.build_trace_document,
                               DEFAULT_CLAUSE_BUDGET=cli.DEFAULT_CLAUSE_BUDGET,
                               **{name: getattr(hornsat, name) for name in hornsat.__all__})
    outcome = Outcome()
    tracer = Tracer()
    peaks = AllocPeaks()
    counts = Counter()
    plain_time = traced_time = 0.0
    for instance in job["pool"]:
        elapsed, rc, out, err, exc = run_cli(cli_main, instance)
        problem = None if exc else checker.check(instance, rc, out, err)
        plain_time += elapsed
        del err
        gc.collect()

        tracer.instance = instance["id"]
        root = len(tracer.spans)
        with tracer.span("instance", None):
            traced_rc, traced_out, traced_exc = _run_traced(hs, instance, tracer.span, counts)
        traced_time += tracer.spans[root][3] - tracer.spans[root][2]
        counts["output_bytes"] += len(traced_out)
        if problem is None and (type(traced_exc), traced_rc, traced_out) != (type(exc), rc, out):
            problem = "the traced calls did not reproduce what cli_main did"
        outcome.record(instance, exc, problem)
        del out, traced_out
        gc.collect()

        tracemalloc.start()
        _run_traced(hs, instance, peaks.span, Counter())
        tracemalloc.stop()
        gc.collect()
    tracer.write(spans_path)
    return {**outcome.to_json(), "plain_s": plain_time, "traced_s": traced_time,
            "self_s": dict(tracer.self_times()), "counts": dict(counts),
            "span_s": {name: tracer.span_time(name) for name in SPAN_TOTALS},
            "peak_alloc_bytes": dict(peaks.peaks)}


def main(argv):
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from hornsat.cli import cli_main

    checker = Checker()
    if job["mode"] == "timed":
        result = timed_run(job, cli_main, checker)
    else:
        result = traced_run(job, cli_main, checker, job["spans_path"])
    result["oracle_checks"] = checker.oracle_checks
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv)
