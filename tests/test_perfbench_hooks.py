"""The benchmark's traced child still finds every name it hooks into.

perfbench/child.py wraps gnsparse functions at the names their callers look
up, and reads attributes of the built families.  A refactor that renames or
moves one of them leaves the per-layer metrics silently empty, so this test
runs a small traced suite and checks that every span and family counter
was filled.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")

CONFIG = textwrap.dedent(
    """\
    [run]
    checks = overlap, pointwise, operator-norm, modular, gn, induction
    resolution-1d = 256
    resolution-2d = 128

    [function:b1]
    family = smooth-bump
    window = -1.5, 1.5

    [function:p1]
    family = smooth-bump
    center = 0.0, 0.0
    width = 3.65, 3.65
    window = -3.8325, 3.8325 ; -3.8325, 3.8325

    [case:lebesgue]
    function = b1
    X = L:1
    Y = L:1

    [case:lorentz]
    function = b1
    X = Lor:2,2
    Y = Lor:2,2

    [case:orlicz-combined]
    function = b1
    X = Orl:exp
    Y = Orl:pow:2

    [case:plane]
    function = p1
    X = L:2
    Y = L:2
    """
)


def installed_span_names():
    """The span names child.py installs: the literal name argument of every
    ``patch(owner, attr, name)`` and ``tracer.wrap(name, fn)`` call."""
    with open(CHILD, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "patch":
            arg = node.args[2]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap":
            arg = node.args[0]
        else:
            continue
        if isinstance(arg, ast.Constant):
            names.add(arg.value)
    return names


def test_traced_child_fills_every_hook(tmp_path):
    config = tmp_path / "hooks.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, CHILD, str(result_path), "traced",
         "--config", str(config), "--format", "text", "--out", str(tmp_path / "out")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["status"] == 0

    expected = installed_span_names()
    assert len(expected) >= 15
    seen = {span[0] for span in result["spans"]}
    assert expected <= seen, f"spans never entered: {sorted(expected - seen)}"

    counts = result["counts"]
    for name in ("sparse1d.intervals", "sparse2d.levels_analyzed", "sparse2d.covered_cells"):
        assert counts.get(name, 0) > 0, name
