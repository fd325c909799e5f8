"""One gnsparse run in a fresh interpreter, as the benchmark spawns it.

    python3 perfbench/child.py RESULT MODE [gnsparse arguments...]

MODE is ``setup`` (stop once the run config is loaded), ``suite`` (the whole
verification run through ``gnsparse.cli.main``) or ``traced`` (the same, with
spans around the public functions of each layer).  gnsparse is imported from
``src`` under the current directory and is not edited: every span is a
wrapper installed from here, at the name the caller looks up.

RESULT receives JSON: the exit status of ``cli.main``, ``time.monotonic``
stamps taken when the config is loaded and when the run has returned, peak
resident memory, and for ``traced`` the spans and counters.  The monotonic
clock is system-wide on Linux, so the parent subtracts its spawn stamp from
``loaded_at`` to get the set-up time of a fresh interpreter.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

MODES = ("setup", "suite", "traced")


class _SetupDone(Exception):
    """Stops ``cli.main`` right after the config is loaded."""


def _install_tracer(tracer):
    import numpy as np

    from gnsparse import cli, gn, grid, norms, operator, sparse2d, spaces, testfunctions
    from gnsparse.sparse1d import level_floor

    counts = tracer.counts
    clock = tracer.clock

    def patch(owner, attr, name, **kwargs):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kwargs))

    patch(cli, "load_run_config", "cli.config")
    patch(cli, "text_report", "serialize.report")
    patch(cli, "atomic_write_text", "serialize.report")
    patch(gn, "run_case", "gn.case", request_of=lambda case, *args, **kwargs: case.case_id())
    patch(gn, "make_test_function", "testfunctions.sample")
    patch(gn, "verify_pointwise_1d", "sparse1d.pointwise")
    patch(gn, "verify_family_2d", "sparse2d.verify")
    patch(gn, "operator_norm_check", "operator.norm_check")
    patch(gn, "modular_contraction_check", "operator.modular")
    patch(gn, "cl_combine", "spaces.cl_combine")
    patch(gn, "gn_ratio", "gn.gn_ratio")
    patch(gn, "induction_identity_check", "gn.induction")
    patch(sparse2d, "compute_delta", "sparse2d.delta")
    patch(spaces.YoungFunction, "__init__", "spaces.young_build")
    patch(norms, "lebesgue_norm", "norms.lebesgue")
    patch(norms, "lorentz_norm", "norms.lorentz")
    patch(norms, "luxemburg_norm", "norms.luxemburg")
    for cls in (grid.GridFunction1D, grid.GridFunction2D):
        patch(cls, "sup_norm", "grid.sup_norm")
    for attr in ("from_intervals", "from_masks"):
        method = operator.CellFamily.__dict__[attr].__func__
        setattr(operator.CellFamily, attr, classmethod(tracer.wrap("operator.cells", method)))

    # Evaluator calls are counted, not spanned: their time overlaps the self
    # time of whichever layer sampled, probed or bisected through them.
    def counted(evaluate):
        @functools.wraps(evaluate)
        def evaluate_counted(*args, **kwargs):
            start = clock()
            out = evaluate(*args, **kwargs)
            counts["testfunctions.eval_s"] += clock() - start
            counts["testfunctions.eval_calls"] += 1
            counts["testfunctions.eval_points"] += int(np.size(out))
            return out

        return evaluate_counted

    for attr in ("make_evaluator_1d", "make_evaluator_2d"):
        maker = getattr(testfunctions, attr)
        setattr(testfunctions, attr, lambda spec, maker=maker: counted(maker(spec)))

    # Family outcomes are read after the build span has closed.
    build_1d = tracer.wrap("sparse1d.build", gn.build_family_1d)
    build_2d = tracer.wrap("sparse2d.build", gn.build_family_2d)

    def build_family_1d(*args, **kwargs):
        family = build_1d(*args, **kwargs)
        counts["sparse1d.intervals"] += len(family.intervals)
        return family

    def build_family_2d(*args, **kwargs):
        family = build_2d(*args, **kwargs)
        counts["sparse2d.levels_analyzed"] += len(family.analyzed_levels())
        counts["sparse2d.levels_skipped"] += len(family.skipped)
        eligible = np.abs(family.d1c) >= level_floor(family.k_min)
        covered = np.zeros(eligible.shape, dtype=bool)
        for slab in family.slabs:
            covered |= slab.mask
        counts["sparse2d.eligible_cells"] += int(np.sum(eligible))
        counts["sparse2d.covered_cells"] += int(np.sum(covered & eligible))
        return family

    gn.build_family_1d = build_family_1d
    gn.build_family_2d = build_family_2d


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in MODES:
        print(f"usage: child.py RESULT {{{'|'.join(MODES)}}} [gnsparse arguments...]", file=sys.stderr)
        return 2
    result_path, mode, cli_args = argv[0], argv[1], argv[2:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from gnsparse import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"child.py: gnsparse imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        _install_tracer(tracer)

    stamps = {}
    load = cli.load_run_config

    def load_run_config(*args, **kwargs):
        config = load(*args, **kwargs)
        stamps["loaded_at"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return config

    cli.load_run_config = load_run_config
    try:
        status = cli.main(cli_args)
    except _SetupDone:
        status = 0
    stamps["done_at"] = time.monotonic()

    result = dict(
        stamps,
        status=status,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        numpy=sys.modules["numpy"].__version__,
    )
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
