"""The benchmark's Orlicz workload, run as a tier-1 test.

perfbench/workloads.py builds the ``orlicz-combined`` run configuration:
four exp x pow cases whose Z norms are Luxemburg norms of combined Young
functions.  Its report must match the benchmark's stored reference, so a
regression in the Luxemburg layer fails here and not only in the benchmark.
"""

import os
import sys

from gnsparse import cli, norms, spaces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_orlicz_combined_matches_the_reference(tmp_path, monkeypatch):
    text = workloads.config_text("orlicz-combined", ROOT)
    config = tmp_path / "orlicz-combined.cfg"
    config.write_text(text, encoding="utf-8")
    evaluations = []
    solve = norms.luxemburg_norm

    def counting(f, young):
        def call(t):
            evaluations.append(t.size)
            return young(t)

        return solve(f, call)

    monkeypatch.setattr(norms, "luxemburg_norm", counting)
    solves, newton = [], spaces._newton

    def counted_newton(fn, targets, start):
        solves.append(fn)
        return newton(fn, targets, start)

    monkeypatch.setattr(spaces, "_newton", counted_newton)
    assert cli.main(["--config", str(config), "--format", "text", "--out", str(tmp_path)]) == 0
    report = reference.parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    with open(reference.reference_path("orlicz-combined"), encoding="utf-8") as handle:
        stored = reference.parse_report(handle.read())
    assert reference.compare(report, stored, workloads.windows_1d(text)) == {}
    # 24 Luxemburg norms; bisection on the scale took 689 modular evaluations
    assert len(evaluations) <= 160
    # one solve per combined Young-function build (36) plus the Luxemburg
    # norms' probes of combined functions (54); two solves a build made 126
    assert len(solves) <= 90
