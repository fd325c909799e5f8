"""Batch entry point: config-driven corpus verification with file reports.

A run configuration is an INI file declaring the corpus functions, the
measurement cases over them, and which checks to attach; the verdict
thresholds are the paper's constants, not settings.  The bundled default
configuration encodes the full verification suite, so ``gnsparse`` with
no arguments runs it.  Exit status: 0 when every verdict passes, 1 when at
least one check fails (the first failure goes to stderr), 2 for
configuration or write errors, 3 for an internal error: an exception that
is not a GnsparseError, whose traceback goes to stderr and which leaves no
report.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.resources
import os
import random
import sys
from dataclasses import dataclass

from .errors import ConfigError, CorpusConfigError, GnsparseError
from .gn import CHECK_NAMES, GNCase, run_corpus
from .serialize import atomic_write_text, csv_report, text_report
from .spaces import SpaceDescriptor
from .testfunctions import TestFunctionSpec

FORMATS = ("csv", "text")
SECTION_KEYS = {
    "run": ("checks", "format", "resolution-1d", "resolution-2d"),
    "function": ("family", "center", "width", "amplitude", "frequency", "window", "layout"),
    "case": ("function", "j", "k", "x", "y", "mode", "axis", "n"),
}


@dataclass
class RunConfig:
    corpus: dict
    cases: list
    checks: tuple
    format: str
    out_dir: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnsparse",
        description="Verify sparse-family constructions and interpolation ratios over a corpus.",
    )
    parser.add_argument("--config", default=None, help="run configuration (default: bundled suite)")
    parser.add_argument("--out", default=".", help="output directory for the report file")
    parser.add_argument("--format", choices=FORMATS, default=None, help="report format override")
    parser.add_argument(
        "--resolution", type=int, default=None, help="override every case's grid resolution"
    )
    parser.add_argument(
        "--checks", default=None, help="comma-separated checks override (see config [run] checks)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="shuffle the cases with this seed, which orders the report and the work queue "
        "(0 keeps declared order)",
    )
    return parser


def _config_text(path) -> str:
    if path is None:
        resource = importlib.resources.files("gnsparse").joinpath("data/default.cfg")
        return resource.read_text(encoding="utf-8")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _parse_scalar_or_pair(text: str, label: str):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return (values[0], values[1])
    raise ConfigError(f"{label}: expected one or two numbers, got {text!r}")


def _parse_window(text: str, label: str):
    groups = [group for group in text.split(";")]
    pairs = []
    for group in groups:
        pair = _parse_scalar_or_pair(group, label)
        if not isinstance(pair, tuple):
            raise ConfigError(f"{label}: a window needs two endpoints, got {group!r}")
        pairs.append(pair)
    if len(pairs) == 1:
        return pairs[0]
    if len(pairs) == 2:
        return (pairs[0], pairs[1])
    raise ConfigError(f"{label}: expected one or two endpoint pairs, got {text!r}")


def _spec_from_section(name: str, section) -> TestFunctionSpec:
    family = section.get("family")
    if not family:
        raise ConfigError(f"function {name!r}: missing family")
    try:
        return TestFunctionSpec(
            family=family,
            center=_parse_scalar_or_pair(section.get("center", "0.0"), f"function {name!r} center"),
            width=_parse_scalar_or_pair(section.get("width", "1.0"), f"function {name!r} width"),
            amplitude=float(section.get("amplitude", "1.0")),
            frequency=float(section.get("frequency", "0.0")),
            window=_parse_window(section.get("window", "-1.0, 1.0"), f"function {name!r} window"),
            layout=section.get("layout", "product"),
            name=name,
        )
    except (ValueError, CorpusConfigError) as exc:
        raise ConfigError(f"function {name!r}: {exc}") from exc


def _get_int(section, key: str, default: int, label: str) -> int:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{label}: {key} must be an integer, got {raw!r}") from exc


def load_run_config(args) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_config_text(args.config), source=str(args.config or "default.cfg"))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section_name in parser.sections():
        if section_name != "run" and not section_name.startswith(("function:", "case:")):
            raise ConfigError(
                f"unknown section [{section_name}]; expected [run], [function:NAME] or [case:NAME]"
            )
        allowed = SECTION_KEYS[section_name.partition(":")[0]]
        unknown = [key for key in parser[section_name] if key not in allowed]
        if unknown:
            raise ConfigError(
                f"[{section_name}]: unknown key {unknown[0]!r}; expected one of {', '.join(allowed)}"
            )

    run = parser["run"] if parser.has_section("run") else {}
    checks_text = args.checks if args.checks is not None else run.get("checks", "")
    checks = tuple(part.strip() for part in checks_text.split(",") if part.strip())
    if not checks:
        raise ConfigError("no checks enabled; pick from: " + ", ".join(CHECK_NAMES))
    unknown = sorted(set(checks) - set(CHECK_NAMES))
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")

    fmt = args.format if args.format is not None else run.get("format", "csv")
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or text")
    res_1d = _get_int(run, "resolution-1d", 1024, "run")
    res_2d = _get_int(run, "resolution-2d", 128, "run")

    corpus = {}
    for section_name in parser.sections():
        if section_name.startswith("function:"):
            name = section_name.partition(":")[2].strip()
            corpus[name] = _spec_from_section(name, parser[section_name])

    cases = []
    for section_name in parser.sections():
        if not section_name.startswith("case:"):
            continue
        label = section_name.partition(":")[2].strip()
        section = parser[section_name]
        function_name = section.get("function")
        if function_name not in corpus:
            raise ConfigError(f"case {label!r} references undeclared function {function_name!r}")
        spec = corpus[function_name]
        x_text, y_text = section.get("x"), section.get("y")
        if not x_text or not y_text:
            raise ConfigError(f"case {label!r}: both X and Y space descriptors are required")
        default_n = res_1d if spec.dim == 1 else res_2d
        n = args.resolution if args.resolution is not None else _get_int(
            section, "n", default_n, f"case {label!r}"
        )
        try:
            cases.append(
                GNCase(
                    spec=spec,
                    j=_get_int(section, "j", 1, f"case {label!r}"),
                    k=_get_int(section, "k", 2, f"case {label!r}"),
                    x_space=SpaceDescriptor.parse(x_text),
                    y_space=SpaceDescriptor.parse(y_text),
                    mode=section.get("mode", "pure"),
                    axis=_get_int(section, "axis", 1, f"case {label!r}"),
                    n=n,
                )
            )
        except ConfigError:
            raise
        except GnsparseError as exc:  # a space that does not parse or fails its check
            raise ConfigError(f"case {label!r}: {exc}") from exc
    if not cases:
        raise ConfigError("config declares no cases")
    if args.seed:
        random.Random(args.seed).shuffle(cases)

    return RunConfig(
        corpus=corpus,
        cases=cases,
        checks=checks,
        format=fmt,
        out_dir=args.out,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_run_config(args)
    except ConfigError as exc:
        print(f"gnsparse: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        results = run_corpus(config.cases, config.checks)
        content = csv_report(results) if config.format == "csv" else text_report(results)
    except Exception:  # package errors are verdicts already; this is a bug
        import traceback  # imported here to keep it off every run's start-up

        traceback.print_exc()
        print("gnsparse: internal error; no report written", file=sys.stderr)
        return 3
    out_path = os.path.join(config.out_dir, "report.csv" if config.format == "csv" else "report.txt")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        atomic_write_text(out_path, content)
    except OSError as exc:
        print(f"gnsparse: write failure: {exc}", file=sys.stderr)
        return 2

    failing = [result for result in results if not result.passed]
    if failing:
        first = failing[0]
        name, verdict = first.first_failure() or ("run", "error")
        detail = f"{verdict}; {first.error}" if first.error else verdict
        print(f"gnsparse: {first.case.case_id()}: {name}: {detail}", file=sys.stderr)
        print(
            f"gnsparse: {len(failing)} of {len(results)} cases failed; report at {out_path}",
            file=sys.stderr,
        )
        return 1
    print(f"gnsparse: {len(results)} cases, all verdicts pass; report at {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
