"""Tests of the benchmark's own code: self times, the reference check, names."""

import configparser
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf(step):
        now[0] += step

    def middle():
        now[0] += 1.0
        traced_leaf(2.0)
        now[0] += 3.0

    def outer(case):
        now[0] += 0.5
        traced_middle()
        traced_leaf(4.0)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer, request_of=lambda case: case)("case-a")

    totals, calls = self_times(tracer.spans)
    assert totals == {"outer": 0.5, "middle": 4.0, "leaf": 6.0}
    assert calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert {span[4] for span in tracer.spans} == {"case-a"}
    assert tracer.request == ""


def _orlicz():
    with open(reference.reference_path("orlicz-combined"), encoding="utf-8") as handle:
        text = handle.read()
    windows = workloads.windows_1d(workloads.config_text("orlicz-combined", ROOT))
    return text, reference.parse_report(text), windows


def _mismatches(text, ref, windows):
    return reference.compare(reference.parse_report(text), ref, windows)


def test_reference_accepts_itself_in_any_case_order():
    text, ref, windows = _orlicz()
    head, _, body = text.partition("\ncase ")
    blocks = ("case " + body).split("end\n")[:-1]
    shuffled = head + "\n" + "".join(block + "end\n" for block in reversed(blocks))
    assert _mismatches(shuffled, ref, windows) == {}


def test_reference_flags_a_perturbed_ratio():
    text, ref, windows = _orlicz()
    old = re.search(r" ratio (\S+)", text).group(1)
    for factor, flagged in ((1.0 + 1e-9, False), (1.0 + 1e-5, True)):
        new = repr(float(old) * factor)
        assert bool(_mismatches(text.replace(f" ratio {old}", f" ratio {new}", 1), ref, windows)) == flagged


def test_reference_flags_a_flipped_verdict():
    text, ref, windows = _orlicz()
    flipped = text.replace("verdict gn pass", "verdict gn fail: ratio drifts", 1)
    mismatches = _mismatches(flipped, ref, windows)
    assert len(mismatches) == 1
    assert reference.failed_cases(reference.parse_report(flipped)) == list(mismatches)


def test_reference_flags_a_moved_interval_endpoint():
    text, ref, windows = _orlicz()
    case_id = next(iter(ref))
    a, b = windows[case_id.partition("-")[0]]
    h = (b - a) / 32
    old = re.search(r"interval z (\S+)", text).group(1)
    for steps, flagged in ((0.5e-3, False), (2e-3, True)):
        moved = text.replace(f"interval z {old}", f"interval z {float(old) + steps * h!r}", 1)
        assert bool(_mismatches(moved, ref, windows)) == flagged


def test_reference_flags_a_missing_case():
    text, ref, windows = _orlicz()
    truncated = text[: text.rindex("\ncase ")] + "\n"
    assert list(_mismatches(truncated, ref, windows).values()) == [["case missing from the report"]]


def test_references_match_the_workload_configs():
    expected = {"default-suite": 27, "fine-1d": 21, "fine-2d": 6, "orlicz-combined": 4}
    for name in workloads.WORKLOADS:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(workloads.config_text(name, ROOT))
        cases = [s for s in parser.sections() if s.startswith("case:")]
        with open(reference.reference_path(name), encoding="utf-8") as handle:
            assert len(reference.parse_report(handle.read())) == len(cases) == expected[name]


def test_metric_names_are_plain_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, _, _ in run.PER_LAYER] + [run.OVERHEAD[0]]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in end_to_end + per_layer + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name
