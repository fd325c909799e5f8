"""The benchmark's default-suite workload, run as a tier-1 test.

perfbench/workloads.py builds the ``default-suite`` run configuration: the
bundled default.cfg as gnsparse runs it with no arguments.  Its report at
seed 0 must match the benchmark's stored reference (verdicts, spaces,
norms, intervals and slabs), so a change that moves any of them fails here
and not only in the benchmark.
"""

import os
import sys

from gnsparse import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_default_suite_matches_the_reference(tmp_path):
    text = workloads.config_text("default-suite", ROOT)
    config = tmp_path / "default-suite.cfg"
    config.write_text(text, encoding="utf-8")
    args = ["--config", str(config), "--format", "text", "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    report = reference.parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    with open(reference.reference_path("default-suite"), encoding="utf-8") as handle:
        stored = reference.parse_report(handle.read())
    assert len(report) == 27
    assert reference.compare(report, stored, workloads.windows_1d(text)) == {}
