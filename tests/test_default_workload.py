"""The benchmark's workloads that run the bundled corpus, as tier-1 tests.

perfbench/workloads.py builds the ``default-suite`` run configuration, the
bundled default.cfg as gnsparse runs it with no arguments, and ``fine-1d``
and ``fine-2d``, that file's cases of one dimension at a finer grid.  Each
report at seed 0 must match the benchmark's stored reference (verdicts,
spaces, norms, intervals and slabs), so a change that moves any of them
fails here and not only in the benchmark.  fine-1d is the only one that
runs 1D at n = 16384, and fine-2d the only one whose 2D families analyze
level -1 and skip shifts in the thickness scan.
"""

import os
import sys

import pytest

from gnsparse import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402


CASES = {"default-suite": 27, "fine-1d": 21, "fine-2d": 6}


def check_workload(name, tmp_path):
    """Run workload ``name`` at seed 0 and compare its report with the stored reference."""
    text = workloads.config_text(name, ROOT)
    config = tmp_path / f"{name}.cfg"
    config.write_text(text, encoding="utf-8")
    args = ["--config", str(config), "--format", "text", "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    report = reference.parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    with open(reference.reference_path(name), encoding="utf-8") as handle:
        stored = reference.parse_report(handle.read())
    assert len(report) == CASES[name]
    assert reference.compare(report, stored, workloads.windows_1d(text)) == {}


def test_default_suite_matches_the_reference(tmp_path):
    check_workload("default-suite", tmp_path)


@pytest.mark.parametrize("name", ["fine-1d", "fine-2d"])
def test_fine_workload_matches_the_reference(name, tmp_path):
    check_workload(name, tmp_path)
