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
    # the level evaluations of the Luxemburg norms' loops, in norms, and the
    # solves of the Young functions, in spaces
    outer, root = [], norms._log_modular_root

    def counted_outer(levels, *args):
        def evaluate(x, z):
            outer.append(x)
            return levels(x, z)

        return root(evaluate, *args)

    solves, steps, newton = [], [], spaces._newton

    def counted_newton(fn, targets, start):
        def evaluate(x):
            steps.append(x.size)
            return fn(x)

        solves.append(fn)
        return newton(evaluate, targets, start)

    validations = []

    def counted_validate(young):
        validations.append(young.describe())

    monkeypatch.setattr(norms, "_log_modular_root", counted_outer)
    monkeypatch.setattr(spaces, "_newton", counted_newton)
    monkeypatch.setattr(spaces.YoungFunction, "_validate", counted_validate)
    assert cli.main(["--config", str(config), "--format", "text", "--out", str(tmp_path)]) == 0
    report = reference.parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    with open(reference.reference_path("orlicz-combined"), encoding="utf-8") as handle:
        stored = reference.parse_report(handle.read())
    assert reference.compare(report, stored, workloads.windows_1d(text)) == {}
    # 16 Luxemburg norms, 5 level evaluations each; the secant on the scale
    # that the Newton solve replaced took 93 modular evaluations, and
    # bisection 689
    assert len(outer) <= 80
    # a product of Young functions is one, so no product is validated and
    # none is solved: the norms' loop solves a product's levels itself
    # (first-evaluation validation made 4 validations, with 4 solves of 21
    # evaluations; a forward solve per log-modular evaluation made 44
    # solves, the secant 50, and 66 when every build was validated)
    assert validations == []
    assert solves == []
    assert steps == []
