"""The benchmark's workloads, each one gnsparse run configuration.

``default-suite`` is the bundled default.cfg as gnsparse runs it with no
arguments.  ``fine-1d`` and ``fine-2d`` are that file filtered to the cases
of one dimension, at a finer grid.  ``orlicz-combined`` takes its cases from
configs/orlicz-combined.cfg and their functions from default.cfg.  Every
config is derived from the checkout being measured, so the reference check
flags any change to the bundled corpus.
"""

from __future__ import annotations

import configparser
import io
import os

DEFAULT_CFG = os.path.join("src", "gnsparse", "data", "default.cfg")
ORLICZ_CFG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", "orlicz-combined.cfg")

WORKLOADS = ("default-suite", "fine-1d", "fine-2d", "orlicz-combined")
FINE_RESOLUTION = {1: 16384, 2: 512}


def _parse(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return parser


def _dimension(parser, function: str) -> int:
    # a 2D window is two endpoint pairs separated by ";"
    return 2 if ";" in parser[f"function:{function}"].get("window", "") else 1


def _case_sections(parser):
    return [name for name in parser.sections() if name.startswith("case:")]


def _assemble(run, limits, cases, default) -> str:
    out = configparser.ConfigParser(interpolation=None)
    out["run"] = run
    if limits is not None:
        out["limits"] = limits
    functions = {section["function"] for section in cases.values()}
    for name in default.sections():
        if name.startswith("function:") and name.partition(":")[2] in functions:
            out[name] = default[name]
    for name, section in cases.items():
        out[name] = section
    buffer = io.StringIO()
    out.write(buffer)
    return buffer.getvalue()


def config_text(name: str, checkout: str) -> str:
    """The run configuration of workload ``name`` for the checkout at ``checkout``."""
    with open(os.path.join(checkout, DEFAULT_CFG), encoding="utf-8") as handle:
        default_text = handle.read()
    if name == "default-suite":
        return default_text
    default = _parse(default_text)
    limits = default["limits"] if default.has_section("limits") else None
    if name in ("fine-1d", "fine-2d"):
        dim = 1 if name == "fine-1d" else 2
        run = dict(default["run"])
        run[f"resolution-{dim}d"] = str(FINE_RESOLUTION[dim])
        cases = {
            s: default[s]
            for s in _case_sections(default)
            if _dimension(default, default[s]["function"]) == dim
        }
        return _assemble(run, limits, cases, default)
    if name == "orlicz-combined":
        with open(ORLICZ_CFG, encoding="utf-8") as handle:
            own = _parse(handle.read())
        cases = {s: own[s] for s in _case_sections(own)}
        return _assemble(own["run"], limits, cases, default)
    raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def windows_1d(text: str):
    """{function name: (a, b)} for the one-dimensional functions of a config."""
    parser = _parse(text)
    out = {}
    for name in parser.sections():
        if name.startswith("function:") and _dimension(parser, name.partition(":")[2]) == 1:
            a, b = (float(part) for part in parser[name]["window"].split(","))
            out[name.partition(":")[2]] = (a, b)
    return out
