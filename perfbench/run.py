"""gnsparse benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every gnsparse run is a fresh interpreter
(perfbench/child.py) that imports gnsparse from ./src and calls
``gnsparse.cli.main`` with ``--format text --seed N``; the seed only shuffles
the order in which cases run.  Runs go one process at a time, and each
report is compared with the workload's stored reference.

With ``--trace 0`` the run measures set-up several times, then runs the
suite until S seconds are spent (at least once) and reports medians of
set-up time, suite time and peak memory.  With ``--trace 1`` it alternates
untraced and traced suite runs for S seconds (at least one pair) and reports
the per-layer metrics of the traced runs plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (cases run), ``failed`` (cases with a non-pass verdict) and
``metrics``.  Lines before it give every metric with its unit and sample
count, ``failed_frac`` and ``mismatch_frac``, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import workloads
from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

END_TO_END = (("setup_s", "s"), ("suite_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric: (name, unit, source); a source is a span self time,
# a span call count or a counter from the traced child
PER_LAYER = (
    ("cli.config_s", "s", ("self", "cli.config")),
    ("testfunctions.sample_s", "s", ("self", "testfunctions.sample")),
    ("testfunctions.sample_calls", "count", ("calls", "testfunctions.sample")),
    ("testfunctions.eval_s", "s", ("count", "testfunctions.eval_s")),
    ("testfunctions.eval_calls", "count", ("count", "testfunctions.eval_calls")),
    ("testfunctions.eval_points", "count", ("count", "testfunctions.eval_points")),
    ("grid.sup_norm_s", "s", ("self", "grid.sup_norm")),
    ("grid.sup_norm_calls", "count", ("calls", "grid.sup_norm")),
    ("sparse1d.build_s", "s", ("self", "sparse1d.build")),
    ("sparse1d.intervals", "count", ("count", "sparse1d.intervals")),
    ("sparse1d.pointwise_s", "s", ("self", "sparse1d.pointwise")),
    ("sparse2d.build_s", "s", ("self", "sparse2d.build")),
    ("sparse2d.delta_s", "s", ("self", "sparse2d.delta")),
    ("sparse2d.delta_calls", "count", ("calls", "sparse2d.delta")),
    ("sparse2d.verify_s", "s", ("self", "sparse2d.verify")),
    ("sparse2d.levels_analyzed", "count", ("count", "sparse2d.levels_analyzed")),
    ("sparse2d.levels_skipped", "count", ("count", "sparse2d.levels_skipped")),
    ("sparse2d.coverage", "frac", ("coverage", None)),
    ("operator.cells_s", "s", ("self", "operator.cells")),
    ("operator.norm_check_s", "s", ("self", "operator.norm_check")),
    ("operator.modular_s", "s", ("self", "operator.modular")),
    ("spaces.cl_combine_s", "s", ("self", "spaces.cl_combine")),
    ("spaces.cl_combine_calls", "count", ("calls", "spaces.cl_combine")),
    ("spaces.young_build_s", "s", ("self", "spaces.young_build")),
    ("spaces.young_builds", "count", ("calls", "spaces.young_build")),
    ("norms.lebesgue_s", "s", ("self", "norms.lebesgue")),
    ("norms.lorentz_s", "s", ("self", "norms.lorentz")),
    ("norms.luxemburg_s", "s", ("self", "norms.luxemburg")),
    ("norms.luxemburg_calls", "count", ("calls", "norms.luxemburg")),
    ("gn.gn_ratio_s", "s", ("self", "gn.gn_ratio")),
    ("gn.induction_s", "s", ("self", "gn.induction")),
    ("serialize.report_s", "s", ("self", "serialize.report")),
)
OVERHEAD = ("trace.overhead_frac", "frac")

SETUP_SAMPLES = 5  # set-up-only interpreters before and after the suite runs of a timed run
RUN_LIMIT_S = 170.0  # no child may still be running this long after the start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    pass


class BenchRun:
    """One benchmark run: spawns children and checks every report they write."""

    def __init__(self, checkout, workload, seed, work):
        self.checkout = checkout
        self.work = work
        self.started = time.monotonic()
        text = workloads.config_text(workload, checkout)
        self.windows = workloads.windows_1d(text)
        self.cli_args = ["--format", "text", "--seed", str(seed)]
        if workload != "default-suite":  # that one is what gnsparse runs with no arguments
            config = os.path.join(work, "workload.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.cli_args += ["--config", config]
        with open(reference.reference_path(workload), encoding="utf-8") as handle:
            self.reference = reference.parse_report(handle.read())
        self.env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.mismatches = {}
        self.numpy = "unknown"

    def spawn(self, mode):
        """Run one child; returns its result with ``setup_s`` and, for suites, ``suite_s``."""
        self.spawned += 1
        result_path = os.path.join(self.work, f"child-{self.spawned}.json")
        out_dir = os.path.join(self.work, f"out-{self.spawned}")
        cmd = [sys.executable, CHILD, result_path, mode, *self.cli_args, "--out", out_dir]
        remaining = self.started + RUN_LIMIT_S - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"run exceeded {RUN_LIMIT_S} s")
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.checkout, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} child still running after {RUN_LIMIT_S} s") from exc
        try:
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError) as exc:
            raise BenchmarkError(f"{mode} child left no result (exit {proc.returncode}): {proc.stderr.strip()}") from exc
        if "loaded_at" not in result or proc.returncode not in (0, 1):
            raise BenchmarkError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()}")
        self.numpy = result["numpy"]
        result["setup_s"] = result["loaded_at"] - spawned_at
        if mode != "setup":
            result["suite_s"] = result["done_at"] - result["loaded_at"]
            self._check(os.path.join(out_dir, "report.txt"), proc.returncode)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _check(self, path, status):
        try:
            with open(path, encoding="utf-8") as handle:
                report = reference.parse_report(handle.read())
        except OSError as exc:
            raise BenchmarkError(f"suite wrote no report: {exc}") from exc
        failed = reference.failed_cases(report)
        if bool(failed) != (status == 1):
            raise BenchmarkError(f"exit status {status} disagrees with the failing cases {failed}")
        mismatches = reference.compare(report, self.reference, self.windows)
        self.attempted += len(report)
        self.failed += len(failed)
        self.mismatched += len(mismatches)
        self.mismatches.update(mismatches)


def layer_metrics(result):
    totals, calls = self_times(result["spans"])
    counts = result["counts"]
    values = {}
    for name, _, (kind, key) in PER_LAYER:
        if kind == "self":
            values[name] = totals.get(key, 0.0)
        elif kind == "calls":
            values[name] = calls.get(key, 0)
        elif kind == "count":
            values[name] = counts.get(key, 0)
        else:
            eligible = counts.get("sparse2d.eligible_cells", 0)
            values[name] = counts.get("sparse2d.covered_cells", 0) / eligible if eligible else 0.0
    return values


def timed_run(bench, seconds):
    deadline = bench.started + seconds
    bench.spawn("setup")  # compiles bytecode and warms the file cache; not counted

    def setup_samples():
        return [bench.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]

    # set-up samples before the first suite run and after the last one, so
    # that the suite runs get as much of the window as it holds
    setups, suites = setup_samples(), []
    while True:
        step_start = time.monotonic()
        suites.append(bench.spawn("suite"))
        if 2 * time.monotonic() - step_start > deadline:  # no room for another step
            break
    setups += setup_samples() + [r["setup_s"] for r in suites]
    samples = {
        "setup_s": setups,
        "suite_s": [r["suite_s"] for r in suites],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in suites],
    }
    return {name: (statistics.median(samples[name]), unit, len(samples[name])) for name, unit in END_TO_END}


def traced_run(bench, seconds):
    deadline = bench.started + seconds
    bench.spawn("setup")
    plain, traced = [], []
    while True:
        step_start = time.monotonic()
        plain.append(bench.spawn("suite")["suite_s"])
        traced.append(bench.spawn("traced"))
        if 2 * time.monotonic() - step_start > deadline:
            break
    per_run = [layer_metrics(r) for r in traced]
    metrics = {
        name: (statistics.median(run[name] for run in per_run), unit, len(per_run))
        for name, unit, _ in PER_LAYER
    }
    overhead = statistics.median(r["suite_s"] for r in traced) / statistics.median(plain) - 1.0
    metrics[OVERHEAD[0]] = (overhead, OVERHEAD[1], len(traced))
    return metrics


def provenance(checkout, args, bench, metrics):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(checkout, ".git")):
        try:
            proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": bench.numpy,
        "commit": commit,
        "blas_threads": 1,
        "samples": {name: count for name, (_, _, count) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gnsparse benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "gnsparse", "cli.py")):
        print("run.py: no gnsparse sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=checkout)
    try:
        bench = BenchRun(checkout, args.workload, args.seed, work)
        if args.trace:
            metrics = traced_run(bench, args.seconds)
        else:
            metrics = timed_run(bench, args.seconds)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = bench.attempted
    failed = bench.failed
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} median of {count}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} {'frac':6s} {failed} of {attempted} cases")
    print(f"  {'mismatch_frac':28s} {bench.mismatched / attempted:14.6g} {'frac':6s} "
          f"{bench.mismatched} of {attempted} cases")
    for case_id, problems in sorted(bench.mismatches.items()):
        print(f"  mismatch {case_id}: {'; '.join(problems)}")
    print("provenance " + json.dumps(provenance(checkout, args, bench, metrics)))
    print(
        json.dumps(
            {
                "correct": bench.mismatched == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
