"""Report serialization and the config-driven command line."""

import csv
import io
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gnsparse import gn as gn_module
from gnsparse.cli import main
from gnsparse.gn import CHECK_NAMES, GNCase, run_corpus
from gnsparse.grid import Grid1D
from gnsparse.operator import CellFamily
from gnsparse.serialize import (
    CSV_COLUMNS,
    csv_report,
    format_float,
    parse_intervals,
    rle_decode,
    rle_encode,
    text_report,
    tolerance_note,
)
from gnsparse.spaces import SpaceDescriptor
from gnsparse.testfunctions import TestFunctionSpec

from corpus import run_config

P = SpaceDescriptor.parse

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
            "overlap<=3|5 pointwise<=128*(1+0.02) modular<=1+1e-06 gn-drift<=0.01"
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
        records = parse_intervals(text)
        assert records and all(rec.z < rec.y for rec in records)
        grid = Grid1D(*BUMP.window, 256)
        family = CellFamily.from_intervals(records, grid)
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
        assert "overlap" in err and "node" in err
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
