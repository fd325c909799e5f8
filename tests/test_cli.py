"""Report serialization and the config-driven command line."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsparse import gn as gn_module
from gnsparse import spaces
from gnsparse.cli import main
from gnsparse.errors import ConfigError, YoungInversionError
from gnsparse.gn import CHECK_NAMES, GNCase, run_corpus
from gnsparse.grid import Grid1D
from gnsparse.operator import CellFamily
from gnsparse.serialize import (
    CSV_COLUMNS,
    csv_report,
    format_float,
    rle_encode,
    text_report,
    tolerance_note,
)
from gnsparse.spaces import SpaceDescriptor
from gnsparse.testfunctions import TestFunctionSpec

from corpus import run_config
from oracles import parse_intervals, rle_decode

P = SpaceDescriptor.parse
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUMP = TestFunctionSpec(
    family="smooth-bump", center=0.0, width=1.0, amplitude=1.0, window=(-1.5, 1.5), name="bump"
)

TINY_CONFIG = textwrap.dedent(
    """\
    [run]
    checks = overlap, pointwise, gn
    format = csv
    resolution-1d = 256

    [function:pulse]
    family = smooth-bump
    center = 0.0
    width = 1.0
    amplitude = 1.0
    window = -1.5, 1.5

    [case:first]
    function = pulse
    j = 1
    k = 2
    X = L:1
    Y = L:1

    [case:second]
    function = pulse
    j = 1
    k = 2
    X = L:2
    Y = L:2
    """
)


def write_config(tmp_path, text=TINY_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# one function with every numeric key set, and a case over it
PROBE_KEYS = dict(
    family="modulated-bump", center="0.0", width="1.0", amplitude="1.0", frequency="3.0", window="-1.5, 1.5"
)


def probe_config(**keys):
    lines = "".join(f"{key} = {value}\n" for key, value in dict(PROBE_KEYS, **keys).items())
    run = f"[run]\nresolution-1d = 256\nchecks = {', '.join(CHECK_NAMES)}\n"
    return f"{run}\n[function:probe]\n{lines}\n[case:only]\nfunction = probe\nX = L:2\nY = L:2\n"


@st.composite
def probe_numbers(draw):
    """The numeric keys of a 1D or 2D function: a set of keys that may draw
    nan or an infinity, finite floats for the others, and window pairs in
    either order."""
    dim = draw(st.sampled_from([1, 2]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    open_keys = draw(st.sets(st.sampled_from(["center", "width", "amplitude", "frequency", "window"])))

    def numbers(key, count):
        number = st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf])) if key in open_keys else finite
        return [draw(number) for _ in range(count)]

    values = {key: numbers(key, dim) for key in ("center", "width")}
    values.update({key: numbers(key, 1) for key in ("amplitude", "frequency")})
    values["window"] = [numbers("window", 2) for _ in range(dim)]
    return values


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(probe_numbers(), st.sampled_from(["gaussian", "sine-window", "modulated-bump"]))
def test_spec_numbers_are_finite_and_windows_increase(tmp_path_factory, numbers, family):
    # a nan center or width samples u = 0, which passes every verdict; the
    # config is refused exactly when a number is not finite or a window
    # does not increase
    keys = {key: ", ".join(map(repr, numbers[key])) for key in ("center", "width", "amplitude", "frequency")}
    keys["window"] = "; ".join(f"{a!r}, {b!r}" for a, b in numbers["window"])
    path = tmp_path_factory.mktemp("probe") / "probe.cfg"
    path.write_text(probe_config(family=family, **keys), encoding="utf-8")
    pairs = numbers["window"]
    flat = [x for key in ("center", "width", "amplitude", "frequency") for x in numbers[key]] + sum(pairs, [])
    refused = not all(map(math.isfinite, flat)) or not all(a < b for a, b in pairs)
    argv = ["--config", str(path)]
    if refused:
        with pytest.raises(ConfigError, match="function 'probe'"):
            run_config(*argv)
    else:
        assert run_config(*argv).corpus["probe"].windows() == tuple(map(tuple, pairs))


RADIAL_KEYS = dict(
    family="smooth-bump", center="0.0, 0.0", window="-3.675, 3.675 ; -3.675, 3.675", layout="radial"
)


@pytest.mark.parametrize("width", ["3.5, 1.0", "3.5, 0.01", "1.0, 3.5"])
def test_radial_spec_with_two_widths_is_a_config_error(tmp_path, capsys, width):
    # a radial profile reads one width, so a second one would be ignored
    # by the sample yet read by the 4h resolution check
    config = write_config(tmp_path, probe_config(width=width, **RADIAL_KEYS))
    assert main(["--config", config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "radial spec has one width" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("width", ["3.5, 3.5", "3.5"])
def test_radial_spec_with_one_width_loads(tmp_path, width):
    spec = run_config("--config", write_config(tmp_path, probe_config(width=width, **RADIAL_KEYS))).corpus["probe"]
    assert spec.layout == "radial" and spec.widths() == (3.5, 3.5)


class TestMaskEncoding:
    def test_round_trip_random_masks(self):
        rng = np.random.default_rng(3)
        for shape in [(1, 1), (3, 1), (1, 7), (5, 8), (16, 16)]:
            mask = rng.random(shape) < 0.35
            assert np.array_equal(rle_decode(rle_encode(mask)), mask)

    def test_degenerate_masks(self):
        ones = np.ones((2, 5), dtype=bool)
        zeros = np.zeros((2, 5), dtype=bool)
        assert rle_encode(zeros) == "2x5:10"
        assert rle_encode(ones) == "2x5:0,10"
        assert np.array_equal(rle_decode(rle_encode(ones)), ones)
        assert np.array_equal(rle_decode(rle_encode(zeros)), zeros)

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rle_decode("2x3:1,2")
        with pytest.raises(ValueError):
            rle_decode("nonsense")


@pytest.fixture(scope="module")
def results():
    cases = [
        GNCase(spec=BUMP, j=1, k=2, x_space=P("L:1"), y_space=P("L:1"), n=256),
        GNCase(spec=BUMP, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=256),
    ]
    return run_corpus(cases, CHECK_NAMES)


class TestReportFormats:
    def test_float_text_round_trips(self):
        for value in (0.1, 1.0 / 3.0, 2.0**-40, 128.0):
            assert float(format_float(value)) == value

    def test_csv_columns_pinned(self, results):
        rows = list(csv.reader(io.StringIO(csv_report(results))))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert CSV_COLUMNS[:14] == (
            "case-id", "mode", "j", "k", "X", "Y", "Z", "lhs", "rhs-x", "rhs-y",
            "ratio", "overlap-max", "pointwise-max", "verdicts",
        )
        assert len(rows) == 3
        for row in rows[1:]:
            assert len(row) == len(CSV_COLUMNS)
            assert row[0].startswith("bump-")
            assert float(row[10]) > 0

    def test_tolerance_note_reports_the_constants(self):
        assert tolerance_note() == (
            "overlap<=3|5 pointwise<=128*(1+0.02) majorization<=1+1e-12 gn-drift<=0.01"
        )

    def test_text_report_structure(self, results):
        lines = text_report(results).splitlines()
        assert lines[0] == "gnsparse-report 1"
        assert lines[1].startswith("tolerances ")
        assert lines[2] == "cases 2"
        assert lines.count("end") == 2
        assert sum(1 for l in lines if l.startswith("case ")) == 2

    def test_intervals_round_trip_into_a_family(self, results):
        text = text_report(results[:1])
        table = parse_intervals(text)
        assert len(table) and np.all(table.z < table.y)
        grid = Grid1D(*BUMP.window, 256)
        family = CellFamily.from_intervals(table.z, table.y, grid)
        assert family.max_overlap == results[0].overlap_max

    def test_reports_are_deterministic(self, results):
        cases = [r.case for r in results]
        again = run_corpus(cases, CHECK_NAMES)
        assert csv_report(again) == csv_report(results)
        assert text_report(again) == text_report(results)


class TestConfigLoading:
    def test_tiny_config_parses(self, tmp_path):
        config = run_config("--config", write_config(tmp_path))
        assert set(config.corpus) == {"pulse"}
        assert [c.x_space.format() for c in config.cases] == ["L:1", "L:2"]
        assert config.checks == ("overlap", "pointwise", "gn")
        assert config.format == "csv"
        assert all(c.n == 256 for c in config.cases)

    def test_bundled_default_declares_the_full_corpus(self):
        config = run_config()
        assert len(config.cases) == 27
        assert config.checks == CHECK_NAMES
        kinds = {c.x_space.kind for c in config.cases}
        assert kinds == {"lebesgue", "lorentz", "orlicz"}
        dims = sorted({c.dim for c in config.cases})
        assert dims == [1, 2]
        modes = {c.mode for c in config.cases if c.dim == 2}
        assert modes == {"pure", "gradient", "pure-sum"}


class TestMainExitCodes:
    def test_all_pass_exits_zero(self, tmp_path, capsys):
        code = main(["--config", write_config(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert "all verdicts pass" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b

    def test_text_format_flag(self, tmp_path):
        code = main(
            ["--config", write_config(tmp_path), "--out", str(tmp_path / "t"), "--format", "text"]
        )
        assert code == 0
        text = (tmp_path / "t" / "report.txt").read_text(encoding="utf-8")
        assert text.startswith("gnsparse-report 1\n")

    def test_resolution_override(self, tmp_path):
        code = main(
            ["--config", write_config(tmp_path), "--out", str(tmp_path / "r"), "--resolution", "128"]
        )
        assert code == 0
        body = (tmp_path / "r" / "report.csv").read_text(encoding="utf-8")
        assert "-n128," in body and "-n256," not in body

    def test_coarse_resolution_override_reports_every_case(self, tmp_path, capsys):
        # at n = 64 the 2D thickness scan admits no level, so no 2D family
        # holds a slab: the checks that read the family are errors naming
        # the top skipped level, while the GN ratio and the induction, which
        # do not, still pass; three 1D members are too narrow for the grid
        out = tmp_path / "coarse"
        code = main(["--out", str(out), "--format", "text", "--resolution", "64"])
        assert code == 1
        assert "9 of 27 cases failed" in capsys.readouterr().err
        verdicts, errors = {}, {}
        for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
            if line.startswith("case "):
                case_id = line.split()[1]
                verdicts[case_id] = []
            elif line.startswith("  verdict "):
                verdicts[case_id].append(line.split()[1:])
            elif line.startswith("  error "):
                errors[case_id] = line[len("  error ") :]
        two_d = [case_id for case_id in verdicts if "-ax" in case_id]
        assert len(two_d) == 6
        family_checks = ("overlap", "pointwise", "operator-norm", "modular")
        for case_id in two_d:
            assert verdicts[case_id] == [
                [name, "error" if name in family_checks else "pass"] for name in CHECK_NAMES
            ], case_id
            assert errors[case_id].startswith("UnresolvableFunctionError: level "), case_id
            assert "cells per side would resolve it" in errors[case_id]

    def test_checks_override(self, tmp_path):
        code = main(
            ["--config", write_config(tmp_path), "--out", str(tmp_path / "c"), "--checks", "overlap"]
        )
        assert code == 0
        body = (tmp_path / "c" / "report.csv").read_text(encoding="utf-8")
        assert "overlap=pass" in body and "gn=" not in body

    def test_seeded_order_is_stable(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "9"]) == 0
        assert main(["--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "9"]) == 0
        s1 = (tmp_path / "s1" / "report.csv").read_bytes()
        assert s1 == (tmp_path / "s2" / "report.csv").read_bytes()

    def test_no_checks_is_a_config_error(self, tmp_path, capsys):
        code = main(["--config", write_config(tmp_path), "--checks", "", "--out", str(tmp_path)])
        assert code == 2
        assert "no checks enabled" in capsys.readouterr().err

    def test_unknown_check_is_a_config_error(self, tmp_path, capsys):
        code = main(
            ["--config", write_config(tmp_path), "--checks", "overlap,spectral", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "spectral" in capsys.readouterr().err

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_undeclared_function_reference(self, tmp_path, capsys):
        broken = textwrap.dedent(
            """\
            [run]
            checks = overlap

            [case:a]
            function = ghost
            X = L:1
            Y = L:1
            """
        )
        code = main(["--config", write_config(tmp_path, broken), "--out", str(tmp_path)])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_malformed_ini(self, tmp_path, capsys):
        code = main(["--config", write_config(tmp_path, "checks = overlap\n"), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_inadmissible_case_is_a_config_error(self, tmp_path, capsys):
        bad = TINY_CONFIG.replace("X = L:1", "X = Lor:1,2")
        code = main(["--config", write_config(tmp_path, bad), "--out", str(tmp_path)])
        assert code == 2
        assert "Lorentz" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [100, 107, 113, 155, 300])
    def test_large_powlog_index_runs_every_check(self, tmp_path, p):
        # t^p log(e + t) leaves the floats on [1e-3, 100] from p = 107; it
        # is validated in the log domain, so the space is accepted and every
        # check of a case with it, alone or against a power, passes
        text = TINY_CONFIG.replace("overlap, pointwise, gn", ", ".join(CHECK_NAMES))
        text = text.replace("X = L:1\nY = L:1", f"X = Orl:powlog:{p},1\nY = Orl:powlog:{p},1")
        text = text.replace("X = L:2\nY = L:2", f"X = Orl:powlog:{p},1\nY = Orl:pow:2")
        assert main(["--config", write_config(tmp_path, text), "--out", str(tmp_path)]) == 0

    def test_refused_powlog_is_a_config_error(self, tmp_path, capsys):
        bad = TINY_CONFIG.replace("X = L:1\nY = L:1", "X = Orl:powlog:3/2,-10\nY = Orl:powlog:3/2,-10")
        code = main(["--config", write_config(tmp_path, bad), "--out", str(tmp_path)])
        assert code == 2
        assert "powlog:3/2,-10 is not increasing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space, named",
        [
            ("Orl:powlog:2,1/0", "'1/0'"),
            ("Orl:powlog:2,abc", "'abc'"),
            ("Orl:powlog:2,1e400", "exponent 1e400 lies beyond the largest float"),
            ("L:1e999", "index 1e999 lies beyond the largest float"),
            ("Lor:2,1e999", "index 1e999"),
            ("Lor:1e999,2", "index 1e999"),
            ("Orl:pow:1e999", "index 1e999"),
            ("Orl:powlog:1e999,1", "index 1e999"),
            ("Orl:powlog:1e308,1", "has log values beyond the floats"),
            ("Orl:powlog:2,1e308", "has no inverse"),
            ("L:1e4000000", "index 1e4000000 has a decimal exponent beyond"),
            ("Orl:powlog:2,1e-4000000", "exponent 1e-4000000 has a decimal exponent beyond"),
        ],
    )
    def test_malformed_or_overflowing_descriptor_is_a_config_error(self, tmp_path, capsys, space, named):
        # a number that does not parse, or that no norm can read, is refused
        # when the config is read: exit 2, not a traceback at exit 1 or 3
        bad = TINY_CONFIG.replace("X = L:1\nY = L:1", f"X = {space}\nY = {space}")
        code = main(["--config", write_config(tmp_path, bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    def test_young_function_that_fails_its_check_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # any package error while a case's spaces are read, not only an
        # AdmissibilityError, is a configuration error: exit 2, no report
        def refuse(young):
            raise YoungInversionError("Young-function inversion did not converge in 100 steps")

        monkeypatch.setattr(spaces.YoungFunction, "_validate", refuse)
        text = TINY_CONFIG.replace("X = L:1\nY = L:1", "X = Orl:powlog:2,1\nY = Orl:powlog:2,1")
        code = main(["--config", write_config(tmp_path, text), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "did not converge" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("a", [15, 19])
    def test_sharply_bending_powlog_runs_every_check(self, tmp_path, a):
        # t log(e + t)^a bends its elasticity sharply for a large a; its
        # inverse is a bracketed Newton solve that must still converge
        text = TINY_CONFIG.replace("overlap, pointwise, gn", ", ".join(CHECK_NAMES))
        text = text.replace("X = L:1\nY = L:1", f"X = Orl:powlog:1,{a}\nY = Orl:powlog:1,{a}")
        text = text.replace("X = L:2\nY = L:2", f"X = Orl:powlog:1,{a}\nY = Orl:exp")
        assert main(["--config", write_config(tmp_path, text), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "section",
        ["[case third]\nfunction = pulse\nX = L:2\nY = L:2", "[limits]\nmax-overlap-1d = 2"],
        ids=["mistyped-case", "limits"],
    )
    def test_unknown_section_is_a_config_error(self, tmp_path, capsys, section):
        # an unread section would silently drop what it says: a case, or a
        # stricter limit (the thresholds are the paper's constants)
        config = TINY_CONFIG + "\n" + section + "\n"
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert code == 2
        assert section.partition("\n")[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, line",
        [
            ("[case:first]", "mdoe", "mdoe = gradient"),
            ("[function:pulse]", "widht", "widht = 1.0"),
            ("[run]", "resolution1d", "resolution1d = 256"),
        ],
        ids=["mdoe", "widht", "resolution1d"],
    )
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, section, key, line):
        # a mistyped key would otherwise leave its default in force silently
        config = TINY_CONFIG.replace(section + "\n", f"{section}\n{line}\n", 1)
        assert line in config
        code = main(["--config", write_config(tmp_path, config), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert section in err and repr(key) in err

    def test_violated_limit_exits_one_and_names_the_spot(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gn_module, "OVERLAP_LIMIT_1D", 2)
        code = main(["--config", write_config(tmp_path), "--out", str(tmp_path / "v")])
        assert code == 1
        err = capsys.readouterr().err
        assert "overlap" in err and "cell" in err
        # the report still gets written so the failure can be inspected
        body = (tmp_path / "v" / "report.csv").read_text(encoding="utf-8")
        assert "fail: overlap" in body

    def test_programming_error_exits_three_with_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(gn_module, "verify_pointwise_1d", broken)
        code = main(["--config", write_config(tmp_path), "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: bug" in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "keys",
        [
            dict(width="nan"),
            dict(center="nan"),
            dict(family="gaussian", center="0.0, nan", width="0.5, 0.5", window="-2.0, 2.0; -2.0, 2.0"),
            dict(amplitude="nan"),
            dict(amplitude="inf"),
            dict(frequency="nan"),
            dict(frequency="inf"),
            dict(family="sine-window", frequency="nan"),
            dict(family="sine-window", frequency="inf"),
            dict(window="1.5, -1.5"),
            dict(window="nan, 1.5"),
            dict(window="-inf, 1.5"),
        ],
        ids=lambda keys: "-".join(f"{key}={value}" for key, value in keys.items()),
    )
    def test_non_finite_spec_number_is_a_config_error(self, tmp_path, capsys, keys):
        # these sampled u = 0 and passed, raised a ValueError traceback
        # (exit 3), or became an unresolvable-function verdict (exit 1)
        code = main(["--config", write_config(tmp_path, probe_config(**keys)), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "function 'probe'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    def test_probe_config_passes_every_check(self, tmp_path):
        assert main(["--config", write_config(tmp_path, probe_config()), "--out", str(tmp_path)]) == 0

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        code = main(["--config", write_config(tmp_path), "--out", str(blocker / "sub")])
        assert code == 2
        assert "write failure" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, source_env):
        proc = subprocess.run(
            [sys.executable, "-m", "gnsparse.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            env=source_env,
        )
        assert proc.returncode == 0
        assert "--checks" in proc.stdout and "--seed" in proc.stdout

    def test_readme_example_runs(self, source_env, tmp_path):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            (example,) = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
        proc = subprocess.run(
            [sys.executable, "-c", example], capture_output=True, text=True, timeout=120, env=source_env, cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        overlap, ratio = proc.stdout.split()
        assert overlap == "3"
        assert math.isfinite(float(ratio)) and float(ratio) > 0.0

    def test_start_up_imports_no_scipy_or_numpy_polynomial(self, source_env):
        # set-up is the import and the bundled config's load: only the Lorentz
        # quadrature reads Gauss-Legendre nodes, on first use, and scipy is
        # not a dependency
        code = (
            "import sys\n"
            "from gnsparse import cli\n"
            "assert cli.load_run_config(cli._build_parser().parse_args([])).corpus\n"
            "print(sorted(m for m in ('scipy', 'numpy.polynomial') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=source_env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
