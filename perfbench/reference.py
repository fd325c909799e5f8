"""Compare a gnsparse text report with a workload's stored reference.

Cases are matched by case id, so the order ``--seed`` gives them does not
matter.  Verdicts, spaces, overlap counts, interval and slab counts, slab
masks and thickness steps must match exactly.  Interval endpoints may move
by ENDPOINT_TOL_FACTOR grid steps, the bisection tolerance of the escape
intervals (sparse1d.BISECT_TOL_FACTOR when the references were made).
Norms and ratios may move by REL_TOL relative.  The refinement drift is
itself a relative difference, so it gets the same figure as an absolute
tolerance, and the pointwise maximum depends on the interval endpoints, so
it gets the looser POINTWISE_REL_TOL.

    python3 perfbench/reference.py [WORKLOAD ...]

run from the root of a checkout, regenerates the stored references: the
``--format text`` report of each workload (all by default) at seed 0.  Do
this only in a change that redefines the benchmark.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

ENDPOINT_TOL_FACTOR = 1e-3
REL_TOL = 1e-6
POINTWISE_REL_TOL = 1e-3


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.txt")


def _pairs(tokens):
    return dict(zip(tokens[0::2], tokens[1::2]))


def parse_report(text: str):
    """{case id: fields} from a structured-text report."""
    cases = {}
    current = None
    for line in text.splitlines():
        head, _, rest = line.strip().partition(" ")
        if current is None:
            if head == "case":
                current = {"verdicts": [], "intervals": [], "slabs": [], "lines": {}}
                cases[rest] = current
            continue
        tokens = rest.split()
        if head == "end":
            current = None
        elif head in ("mode", "spaces", "error"):
            current["lines"][head] = rest
            if head == "mode":
                current["n"] = int(_pairs(tokens[1:])["n"])
        elif head == "norms":
            current["norms"] = {key: float(value) for key, value in _pairs(tokens).items()}
        elif head == "family":
            current["family"] = _pairs(tokens)
        elif head == "verdict":
            name, _, verdict = rest.partition(" ")
            current["verdicts"].append((name, verdict))
        elif head in ("intervals", "slabs"):
            current[f"{head}_declared"] = int(rest)
        elif head == "interval":
            fields = _pairs(tokens)
            current["intervals"].append(
                (int(fields["k"]), int(fields["sign"]), float(fields["z"]), float(fields["y"]))
            )
        elif head == "slab":
            fields = _pairs(tokens)
            current["slabs"].append(
                (int(fields["k"]), int(fields["sign"]), int(fields["steps"]), fields["rle"], float(fields["delta"]))
            )
    return cases


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _compare_case(got, want, h):
    problems = []
    for key in sorted(set(got["lines"]) | set(want["lines"])):
        if got["lines"].get(key) != want["lines"].get(key):
            problems.append(f"{key}: {got['lines'].get(key)!r} != {want['lines'].get(key)!r}")
    if got["verdicts"] != want["verdicts"]:
        problems.append(f"verdicts {got['verdicts']} != {want['verdicts']}")

    got_norms, want_norms = got.get("norms", {}), want.get("norms", {})
    if set(got_norms) != set(want_norms):
        problems.append(f"norm fields {sorted(got_norms)} != {sorted(want_norms)}")
    for key in set(got_norms) & set(want_norms):
        a, b = got_norms[key], want_norms[key]
        ok = abs(a - b) <= REL_TOL if key == "drift" else _close(a, b, REL_TOL)
        if not ok:
            problems.append(f"{key} {a!r} != {b!r}")

    got_family, want_family = got.get("family", {}), want.get("family", {})
    if got_family.get("overlap-max") != want_family.get("overlap-max"):
        problems.append(f"overlap-max {got_family.get('overlap-max')} != {want_family.get('overlap-max')}")
    a, b = got_family.get("pointwise-max", "-"), want_family.get("pointwise-max", "-")
    if (a == "-") != (b == "-") or (a != "-" and not _close(float(a), float(b), POINTWISE_REL_TOL)):
        problems.append(f"pointwise-max {a} != {b}")

    for kind in ("intervals", "slabs"):
        declared = (got.get(f"{kind}_declared"), want.get(f"{kind}_declared"))
        if declared[0] != declared[1] or len(got[kind]) != len(want[kind]):
            problems.append(f"{kind} count {len(got[kind])} != {len(want[kind])}")

    if len(got["intervals"]) == len(want["intervals"]):
        tol = ENDPOINT_TOL_FACTOR * h
        for mine, theirs in zip(sorted(got["intervals"]), sorted(want["intervals"])):
            if mine[:2] != theirs[:2] or abs(mine[2] - theirs[2]) > tol or abs(mine[3] - theirs[3]) > tol:
                problems.append(f"interval {mine} != {theirs} (endpoint tolerance {tol!r})")
                break

    if len(got["slabs"]) == len(want["slabs"]):
        for mine, theirs in zip(sorted(got["slabs"]), sorted(want["slabs"])):
            if mine[:4] != theirs[:4] or not _close(mine[4], theirs[4], REL_TOL):
                problems.append(f"slab k {mine[0]} sign {mine[1]} differs")
                break
    return problems


def compare(report: dict, reference: dict, windows: dict):
    """{case id: [problem, ...]} for every case that does not match.

    ``windows`` maps one-dimensional function names to their (a, b) window;
    the grid step of a case, for the endpoint tolerance, is (b - a) / n.
    A case missing from either side is a mismatch.
    """
    mismatches = {}
    for case_id in sorted(set(report) | set(reference)):
        if case_id not in reference:
            mismatches[case_id] = ["case not in the reference"]
            continue
        if case_id not in report:
            mismatches[case_id] = ["case missing from the report"]
            continue
        got = report[case_id]
        window = windows.get(case_id.partition("-")[0])
        h = (window[1] - window[0]) / got["n"] if window and got.get("n") else 0.0
        problems = _compare_case(got, reference[case_id], h)
        if problems:
            mismatches[case_id] = problems
    return mismatches


def failed_cases(report: dict):
    """Case ids with a non-pass verdict or an error."""
    return sorted(
        case_id
        for case_id, fields in report.items()
        if "error" in fields["lines"] or any(verdict != "pass" for _, verdict in fields["verdicts"])
    )


def regenerate(names, checkout: str) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        work = tempfile.mkdtemp(prefix=".perfbench-", dir=checkout)
        try:
            config = os.path.join(work, "workload.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(workloads.config_text(name, checkout))
            env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
            subprocess.run(
                [sys.executable, "-m", "gnsparse.cli", "--config", config, "--format", "text", "--out", work],
                check=True,
                cwd=checkout,
                env=env,
            )
            shutil.copyfile(os.path.join(work, "report.txt"), reference_path(name))
        finally:
            shutil.rmtree(work)


if __name__ == "__main__":
    regenerate(sys.argv[1:] or workloads.WORKLOADS, os.getcwd())
