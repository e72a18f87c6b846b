"""End-to-end benchmark of the hornsat command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads' generator mixes are in ``perfbench/spec.json``.
Inputs are generated from the seed and written to files; the program only
ever sees those files.  One fresh worker process (``worker.py``) runs the
workload, so that its peak RSS belongs to that workload alone.

With ``--trace 0`` the run measures the end-to-end metrics of a closed loop
with one client through ``hornsat.cli.cli_main``: instances per second and
latency percentiles over the passes that fill the run, peak RSS, the share
of runs that ended without an unexpected exception, and the median set-up
time of fresh interpreters, timed before the workload and again after it.
Times are scaled to a reference machine speed by a calibration run beside
each measurement (see ``worker.at_reference_speed``); the unscaled figures
are printed too.  With ``--trace 1`` it measures the per-layer metrics from
spans instead.  Every output is checked.  The last line printed is one JSON
object with the metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUNS = ROOT / ".perfbench_runs"

# Every run must end within this many seconds.
RUN_LIMIT_S = 175.0

# Set-up is timed this many times before the workload runs and again after it.
SETUP_SPAWNS = 7
SETUP_CODE = """\
import time
start = time.perf_counter()
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from hornsat.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    cli_main(["solve", sys.argv[2]])
print(time.perf_counter() - start)
"""

MIB = 2**20
LAYERS = ("parsing", "normalform", "horn", "solver", "cli", "oracle")


def setup_times(workdir, count=SETUP_SPAWNS):
    """Seconds, in fresh interpreters, from the first statement to
    ``hornsat.cli`` imported and one trivial ``solve`` run (which builds the
    argument parser), scaled to the reference speed by calibrations run
    here just before and after each interpreter."""
    tiny = workdir / "setup.txt"
    tiny.write_text("p\n", encoding="utf-8")
    times = []
    for _ in range(count):
        calibration_before = worker.timed_calibration()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(tiny)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(worker.at_reference_speed(float(done.stdout), calibration_before, worker.timed_calibration()))
    return times


def write_pool(pool, workdir):
    """Write every input to its own file; the job keeps the path instead of the text."""
    for instance in pool:
        path = workdir / f"{instance['id']}-{instance['name']}"
        path.write_text(instance.pop("text"), encoding="utf-8")
        instance["path"] = str(path)


def run_worker(job, workdir, deadline):
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                   check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(result_path.read_text(encoding="utf-8"))


def _per_s(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def _deciles(seconds):
    return statistics.quantiles(seconds, n=10, method="inclusive")


def end_to_end_metrics(result, setup_s):
    completed = result["attempted"] - result["failed"]
    deciles = _deciles([seconds for _, seconds in result["latencies_s"]])
    return {
        # One client in a closed loop: throughput is completed instances
        # over the time the whole pool takes.
        "instances_per_s": (_per_s(len(result["latencies_s"]), result["scaled_total_s"]), "1/s"),
        "latency_p50_ms": (deciles[4] * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MiB"),
        "ok_frac": (completed / result["attempted"], "frac"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(result):
    n = result["attempted"]
    self_s, span_s, counts = result["self_s"], result["span_s"], result["counts"]
    peaks = result["peak_alloc_bytes"]

    def count(name):
        return counts.get(name, 0)

    def mean(name):
        return count(name) / n

    parse_s = span_s["parse_formula"] + span_s["parse_dimacs"]
    metrics = {
        "solver.time_s": (self_s.get("solver", 0.0) / n, "s"),
        "solver.firings": (mean("firings"), "count"),
        "solver.steps": (mean("steps"), "count"),
        "solver.firings_per_s": (_per_s(count("firings"), span_s["solve"]), "1/s"),
        "solver.precheck_hit_frac": (count("precheck_hits") / max(1, count("prechecks")), "frac"),
        "solver.early_stop_unfired_frac": (count("unfired_at_stop") / max(1, count("solved_implications")), "frac"),
        "solver.peak_alloc_mb": (peaks.get("solve", 0) / MIB, "MiB"),
        "parsing.time_s": (self_s.get("parsing", 0.0) / n, "s"),
        "parsing.mb_per_s": (_per_s(count("input_bytes") / MIB, parse_s), "MiB/s"),
        "normalform.time_s": (self_s.get("normalform", 0.0) / n, "s"),
        "normalform.clauses_out": (mean("clauses_out"), "count"),
        "normalform.clauses_per_s": (_per_s(count("clauses_out"), span_s["to_cnf"]), "1/s"),
        "horn.time_s": (self_s.get("horn", 0.0) / n, "s"),
        "horn.implications": (mean("implications"), "count"),
        "horn.clauses_dropped": (mean("clauses_dropped"), "count"),
        "cli.render_time_s": (span_s["render"] / n, "s"),
        "cli.output_mb": (mean("output_bytes") / MIB, "MiB"),
        "cli.peak_alloc_mb": (peaks.get("render", 0) / MIB, "MiB"),
        "oracle.time_s": (self_s.get("oracle", 0.0) / n, "s"),
        "oracle.rows": (mean("oracle_rows"), "count"),
        "oracle.rows_per_s": (_per_s(count("oracle_rows"), span_s["classify"]), "1/s"),
        "oracle.peak_alloc_mb": (peaks.get("classify", 0) / MIB, "MiB"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (_per_s(self_s.get(layer, 0.0), result["traced_s"]), "frac")
    metrics["trace.overhead_frac"] = (result["traced_s"] / result["plain_s"] - 1, "frac")
    return metrics


def run(workload, seed, seconds, trace, spec):
    """Run one workload and return (result, metrics)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            setup_times(workdir, count=1)  # warms the bytecode cache; not counted
            setup = setup_times(workdir)
        pool = workloads.generate(workload, spec["workloads"][workload], seed)
        write_pool(pool, workdir)
        RUNS.mkdir(exist_ok=True)
        job = {
            "src": str(SRC),
            "mode": "traced" if trace else "timed",
            "pool": pool,
            "seconds": seconds,
            "spans_path": str(RUNS / f"spans-{workload}-{seed}.jsonl"),
        }
        result = run_worker(job, workdir, deadline)
        if not trace:
            setup += setup_times(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer_metrics(result) if trace else end_to_end_metrics(result, statistics.median(setup))
    return result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hornsat" / "cli.py").is_file():
        print(f"error: no hornsat sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    result, metrics = run(args.workload, args.seed, args.seconds, args.trace, spec)

    failed_frac = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} runs attempted, "
          f"{result['failed']} failed (failed_frac {failed_frac:.4f}, {result['failures'] or 'none'}), "
          f"{result['wrong']} wrong outputs, {result['oracle_checks']} oracle cross-checks")
    if not args.trace:
        raw = _deciles(result["raw_latencies_s"])
        print(f"  {len(result['latencies_s'])} latency samples, each the median of {result['passes']} runs of one "
              f"instance at reference speed; unscaled, as the fastest run: "
              f"{_per_s(len(result['raw_latencies_s']), result['raw_total_s']):.4g} instances/s, "
              f"p50 {raw[4] * 1e3:.4g} ms, p90 {raw[8] * 1e3:.4g} ms")
        by_family = {}
        for family, seconds in result["latencies_s"]:
            by_family.setdefault(family, []).append(seconds)
        for family, times in sorted(by_family.items(), key=lambda item: statistics.median(item[1])):
            print(f"    {statistics.median(times) * 1e3:9.2f} ms median of {len(times):3d}  {family}")
    for example in result["wrong_examples"]:
        print(f"  wrong: {example}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
