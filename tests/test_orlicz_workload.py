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
    # the Luxemburg norms' outer solves, called from norms, and the inner
    # solves of the Young functions, called from spaces
    outer, newton = [], spaces._newton

    def counted_outer(fn, targets, start):
        def evaluate(x):
            outer.append(x.size)
            return fn(x)

        return newton(evaluate, targets, start)

    solves, steps = [], []

    def counted_newton(fn, targets, start):
        def evaluate(x):
            steps.append(x.size)
            return fn(x)

        solves.append(fn)
        return newton(evaluate, targets, start)

    validations, validate = [], spaces.YoungFunction._validate

    def counted_validate(young):
        if young.kind == "combined":
            validations.append(young.describe())
        return validate(young)

    monkeypatch.setattr(norms, "_newton", counted_outer)
    monkeypatch.setattr(spaces, "_newton", counted_newton)
    monkeypatch.setattr(spaces.YoungFunction, "_validate", counted_validate)
    # products built earlier in the process would be reused, so start empty
    monkeypatch.setattr(spaces, "_COMBINED", {})
    assert cli.main(["--config", str(config), "--format", "text", "--out", str(tmp_path)]) == 0
    report = reference.parse_report((tmp_path / "report.txt").read_text(encoding="utf-8"))
    with open(reference.reference_path("orlicz-combined"), encoding="utf-8") as handle:
        stored = reference.parse_report(handle.read())
    assert reference.compare(report, stored, workloads.windows_1d(text)) == {}
    # 16 Luxemburg norms, 5 log-modular evaluations each; the secant on the
    # scale that the Newton solve replaced took 93 modular evaluations, and
    # bisection 689
    assert len(outer) <= 80
    # a product is validated on its first evaluation: each case's Z, and
    # none of the induction's products at weights 1/3, 2/3, 1/4, 3/4 and
    # 1/2, which are compared by flat form only (20 when every build was
    # validated)
    assert len(validations) == len(set(validations)) == 4
    # one solve per validation (4) plus one forward solve per log-modular
    # evaluation of a combined function (40); the secant made 50, and 66
    # when every build was validated
    assert len(solves) <= 44
    # forward solves start from the validation table: 101 evaluations (114
    # under the secant, 201 when every build was validated, 446 cold)
    assert len(steps) <= 101
