"""Command-line surface: exit codes, artifacts, config round-trip, caching."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lemnizeros import cli, geometry, paths
from lemnizeros.cli import RunConfig, parse_rational_complex, parse_run_config_text
from lemnizeros.numerics import PrecisionConfig, PrecisionExhaustedError
from lemnizeros.rootfinder import CertificationError

PKG_ROOT = Path(__file__).resolve().parent.parent

# `python -c POOL_PROBE args` runs the CLI on args and says on stderr each
# process pool it starts, with its worker count
POOL_PROBE = """\
import concurrent.futures, sys

class Probe(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers):
        print(f"pool of {max_workers}", file=sys.stderr)
        super().__init__(max_workers)

concurrent.futures.ProcessPoolExecutor = Probe
from lemnizeros import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def run_cli(*args, cwd=None, code=None):
    """The CLI on args in a fresh interpreter, or the script code on them."""
    return subprocess.run(
        [sys.executable, *(("-m", "lemnizeros") if code is None else ("-c", code)), *args],
        capture_output=True,
        text=True,
        cwd=cwd or PKG_ROOT,
        env={"PYTHONPATH": str(PKG_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestParsing:
    @pytest.mark.parametrize(
        "text,re_q,im_q",
        [
            ("4/3", "4/3", "0"),
            ("1/3+2/3i", "1/3", "2/3"),
            ("-1+0.5i", "-1", "1/2"),
            ("2i", "0", "2"),
            ("-i", "0", "-1"),
            ("1-2/7j", "1", "-2/7"),
            ("1.4", "7/5", "0"),
            ("2+1e-3i", "2", "1/1000"),
            ("1e-3i", "0", "1/1000"),
            ("-1E+2-2.5e-1j", "-100", "-1/4"),
        ],
    )
    def test_rational_complex(self, text, re_q, im_q):
        from fractions import Fraction

        assert parse_rational_complex(text) == (Fraction(re_q), Fraction(im_q))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational_complex("three")

    @pytest.mark.parametrize(
        "text,canonical",
        [
            # the spellings of the README and CI keep their run directories
            ("4/3", "4/3"),
            ("1", "1"),
            ("-1+1/2i", "-1+1/2i"),
            ("8/6", "4/3"),
            ("-1+0.5i", "-1+1/2i"),
            ("2i", "0+2i"),
            ("-i", "0-1i"),
            ("1.4-2/7j", "7/5-2/7i"),
            ("2+1e-3i", "2+1/1000i"),
        ],
    )
    def test_one_spelling_per_point(self, text, canonical):
        args = cli.build_parser().parse_args(["trace", f"--z={text}"])
        assert cli.config_from_args(args).z == canonical
        assert parse_rational_complex(canonical) == parse_rational_complex(text)

    def test_config_text_round_trip(self):
        cfg = RunConfig(command="verify", n_list=tuple(range(2, 10)), precision_bits=128, workers=2)
        back = parse_run_config_text(cfg.to_text())
        assert back == cfg

    def test_workers_zero_is_the_cores_this_process_may_run_on(self, monkeypatch):
        # under taskset or a cgroup cpuset, not the machine's core count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        args = cli.build_parser().parse_args(["roots", "--n", "5"])
        assert cli.config_from_args(args).workers == 1

    def test_config_with_two_degree_sets_is_rejected(self):
        with pytest.raises(ValueError, match="more than one degree set"):
            parse_run_config_text("command = roots\nn = 3\nn_list = 4,5\n")

    def test_hash_ignores_out(self):
        a = RunConfig(command="roots", n_list=(5,), out="/tmp/a")
        b = RunConfig(command="roots", n_list=(5,), out="/tmp/b")
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != RunConfig(command="roots", n_list=(6,)).content_hash()
        # the worker count changes no artifact, so it must not rename the run
        one = RunConfig(command="roots", n_list=(5,), workers=1)
        two = RunConfig(command="roots", n_list=(5,), workers=2)
        assert one.content_hash() == two.content_hash() == a.content_hash()
        assert "workers = 2" in two.to_text()  # still recorded in runconfig.txt

    def test_precision_default_per_command(self):
        # the solver commands start at the solver's default; the path and
        # level-field commands keep the 128 bits of their modules
        assert RunConfig(command="roots", n_list=(5,)).precision().bits == PrecisionConfig().bits
        assert RunConfig(command="figure", kind="zeros").bits() == PrecisionConfig().bits
        assert RunConfig(command="trace", z="4/3").bits() == 128
        assert RunConfig(command="figure", kind="level", z="4/3").bits() == 128
        assert RunConfig(command="trace", z="4/3", precision_bits=200).bits() == 200
        assert "precision_bits = 128" in RunConfig(command="trace", z="4/3").to_text()
        # coefficients are exact, and neither trace nor the level field
        # escalates, so these read no precision or no ceiling at all
        assert RunConfig(command="coeffs", n_list=(3,)).bits() is None
        assert "precision_bits" not in RunConfig(command="coeffs", n_list=(3,)).to_text()
        for cfg in (RunConfig(command="trace", z="4/3"), RunConfig(command="figure", kind="level", z="1")):
            assert "max_bits" not in cfg.to_text()

    @pytest.mark.parametrize("key", list(cli.READS), ids=lambda key: "-".join(filter(None, key)))
    def test_hash_covers_exactly_the_fields_read(self, key):
        command, kind = key
        cfg = RunConfig(
            command=command, kind=kind, n_list=(3,), precision_bits=128, path_tol="1e-20", z="4/3",
            window=(-1, 1, -1, 1), workers=2, out="/tmp/x",
        )
        def names(text):
            return sorted(line.partition(" = ")[0] for line in text.splitlines())

        assert names(cfg.to_text(hashed_only=True)) == sorted(("command",) + cli.READS[key].fields)
        assert names(cfg.to_text()) == sorted(("command", "workers", "out") + cli.READS[key].fields)


class TestCommands:
    def test_coeffs_stdout(self):
        res = run_cli("coeffs", "--n", "2")
        assert res.returncode == 0
        assert res.stdout.splitlines()[2] == "2,1,-6,5"

    def test_coeffs_rejects_zero(self):
        res = run_cli("coeffs", "--n", "0")
        assert res.returncode == 2

    def test_coeffs_sorts_and_drops_repeated_degrees(self):
        res = run_cli("coeffs", "--n-list", "3,2,3")
        assert res.returncode == 0
        assert [row.split(",")[0] for row in res.stdout.splitlines()[1:]] == ["2"] * 3 + ["3"] * 4

    def test_three_spellings_of_one_set_share_one_directory(self, tmp_path, capsys):
        out = ["--workers", "1", "--out", str(tmp_path)]
        for command, spellings in (
            ("roots", (["--n", "4"], ["--n-list", "4"], ["--n-range", "4..4"])),
            ("coeffs", (["--n-range", "2..4"], ["--n-list", "4,2,3,3"], ["--n-list", "2,3,4"])),
        ):
            for i, degrees in enumerate(spellings):
                assert cli.main([command, *degrees, *out]) == 0
                assert capsys.readouterr().out.startswith("cached: ") == (i > 0)
            assert len(list(tmp_path.glob(f"{command}-*"))) == 1

    @pytest.mark.parametrize(
        "degrees",
        [("--n", "3", "--n-list", "4,5"), ("--n-range", "5..3"), ("--n", "0"), ("--n-list", "0,3")],
        ids=["two-flags", "empty-range", "zero", "zero-in-list"],
    )
    @pytest.mark.parametrize(
        "command",
        [("coeffs",), ("roots",), ("verify",), ("report",), ("figure", "--kind", "zeros")],
        ids=["coeffs", "roots", "verify", "report", "figure"],
    )
    def test_bad_degree_set_is_rejected_before_any_solve(self, command, degrees, monkeypatch, tmp_path):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the degree set was checked")

        monkeypatch.setattr(cli, "find_roots", no_work)
        monkeypatch.setattr(cli, "coefficients_csv", no_work)
        try:
            code = cli.main([*command, *degrees, "--workers", "1", "--out", str(tmp_path)])
        except SystemExit as exc:  # argparse rejects two degree flags itself
            code = exc.code
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["coeffs", "roots", "verify", "report"])
    def test_no_degree_is_rejected_before_any_directory(self, command, tmp_path, capsys):
        assert cli.main([command, "--workers", "1", "--out", str(tmp_path)]) == 2
        assert "no degrees given" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,stage",
        [
            (("trace", "--z", "4/3"), (paths, "legendre_rule")),
            (("figure", "--kind", "level", "--z", "1", "--res", "16"), (geometry, "divides_and_level_field")),
        ],
        ids=["trace", "figure-level"],
    )
    def test_precision_below_64_bits_is_a_usage_error(self, command, stage, monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the precision was checked")

        monkeypatch.setattr(*stage, no_work)
        assert cli.main([*command, "--precision-bits", "8", "--out", str(tmp_path)]) == 2
        assert "bits must be >= 64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_roots_degree_one(self):
        res = run_cli("roots", "--n", "1")
        assert res.returncode == 0
        row = res.stdout.splitlines()[1].split(",")
        assert row[:2] == ["1", "0"]
        assert abs(float(row[2]) - 2) < 1e-15

    def test_roots_degree_two_conjugate_pair(self):
        res = run_cli("roots", "--n", "2")
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert len(rows) == 2
        assert abs(float(rows[0][2]) - 1.4) < 1e-12
        assert abs(float(rows[0][3]) + 0.6110100926607787) < 1e-12
        assert abs(float(rows[1][3]) - 0.6110100926607787) < 1e-12

    def test_roots_precision_exhausted_exit_code(self):
        res = run_cli("roots", "--n", "240", "--precision-bits", "64", "--max-bits", "64")
        assert res.returncode == 4
        assert "precision exhausted" in res.stderr

    def test_trace_four_thirds(self):
        res = run_cli("trace", "--z", "4/3", "--steps", "128")
        assert res.returncode == 0
        assert "0.86602540378" in res.stderr + res.stdout

    def test_trace_path_error_exit_code(self):
        res = run_cli("trace", "--z", "1/3+1/1000000000000i", "--path-tol", "1e-6")
        assert res.returncode == 5

    def test_trace_rejects_the_branch_cut(self):
        res = run_cli("trace", "--z=-1/2")
        assert res.returncode == 2
        assert res.stderr.startswith("error: trace_path: z on the branch cut")

    def test_trace_rejects_z_equal_one(self):
        res = run_cli("trace", "--z", "1")
        assert res.returncode == 2

    def test_steps_below_one_is_a_usage_error_before_tracing(self, monkeypatch, tmp_path, capsys):
        def no_trace(*args, **kwargs):
            raise AssertionError("the path was traced before steps was checked")

        monkeypatch.setattr(paths, "legendre_rule", no_trace)
        assert cli.main(["trace", "--z", "4/3", "--steps", "-7", "--out", str(tmp_path)]) == 2
        assert "steps must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_equal_points_share_one_directory(self, tmp_path, capsys):
        for i, z in enumerate(("4/3", "8/6")):
            assert cli.main(["trace", "--z", z, "--steps", "64", "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().out.startswith("cached: ") == (i > 0)
        assert len(list(tmp_path.iterdir())) == 1

    def test_exponent_spelling_shares_the_directory(self, tmp_path, capsys):
        for i, z in enumerate(("2+1/1000i", "2+1e-3i")):
            assert cli.main(["trace", "--z", z, "--steps", "64", "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().out.startswith("cached: ") == (i > 0)
        assert len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize(
        "argv,raises,code",
        [
            (("trace", "--z", "1"), None, 2),
            (("trace", "--z", "4/3", "--path-tol", "0"), None, 2),
            (("trace", "--z", "4/3x"), None, 2),
            (("figure", "--kind", "level", "--res", "16"), None, 2),
            (("figure", "--kind", "level", "--z", "1", "--res", "8"), None, 2),
            (("figure", "--kind", "level", "--z", "1", "--res", "16", "--window", "1,2,3"), None, 2),
            (("figure", "--kind", "level", "--z", "1", "--res", "16", "--window", "2,1,0,1"), None, 2),
            (("roots", "--n", "5"), CertificationError, 3),
            (("figure", "--kind", "zeros", "--n-list", "5,10"), CertificationError, 3),
            (("roots", "--n", "240", "--precision-bits", "64", "--max-bits", "64"), PrecisionExhaustedError, 4),
            (("report", "--n-list", "4,8"), PrecisionExhaustedError, 4),
            (("trace", "--z", "1/3+1/1000000000000i", "--path-tol", "1e-6"), None, 5),
        ],
        ids=[
            "z-one", "path-tol-zero", "bad-z", "level-without-z", "level-res-8", "level-window-3", "level-window-flipped",
            "roots-cert", "figure-cert", "roots-precision", "report-precision", "trace-saddle",
        ],
    )
    def test_failed_run_leaves_no_directory(self, argv, raises, code, monkeypatch, tmp_path, capsys):
        if raises is not None:
            def failing(p, cfg):
                raise raises(f"degree {p.degree} fails")

            monkeypatch.setattr(cli, "find_roots", failing)
        assert cli.main([*argv, "--workers", "1", "--out", str(tmp_path)]) == code
        assert list(tmp_path.iterdir()) == []
        if "--window" in argv:  # the message names the flag at fault
            assert "--window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("figure", "--kind", "zeros", "--n", "5", "--theta-grid", "64", "--res", "32"),
            ("figure", "--kind", "zeros", "--n", "5", "--theta-grid", "64", "--z", "4/3"),
            ("figure", "--kind", "level", "--z", "1", "--res", "16", "--n", "5"),
            ("figure", "--kind", "level", "--z", "1", "--res", "16", "--theta-grid", "64"),
            ("coeffs", "--n", "3", "--precision-bits", "200"),
            ("trace", "--z", "4/3", "--max-bits", "64"),
            ("roots", "--n", "5", "--res", "3"),
            ("report", "--n", "5", "--theta-grid", "64"),
        ],
        ids=["zeros-res", "zeros-z", "level-n", "level-theta-grid", "coeffs-bits", "trace-max-bits", "roots-res",
             "report-theta-grid"],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, argv, monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        for stage in ((cli, "find_roots"), (cli, "coefficients_csv"), (paths, "legendre_rule"),
                      (geometry, "divides_and_level_field")):
            monkeypatch.setattr(*stage, no_work)
        try:
            code = cli.main([*argv, "--workers", "1", "--out", str(tmp_path)])
        except SystemExit as exc:  # argparse rejects a flag no kind of the command takes
            code = exc.code
        assert code == 2
        assert argv[-2] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_a_config_key_the_command_does_not_read_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a degree was solved before the config keys were checked")

        monkeypatch.setattr(cli, "find_roots", no_solve)
        conf = tmp_path / "run.conf"
        out = tmp_path / "out"
        conf.write_text(f"command = roots\nn = 5\nsteps = 99\nworkers = 1\nout = {out}\n", encoding="utf-8")
        for argv in (["--config", str(conf)], ["--config", str(conf), "roots", "--out", str(out)]):
            assert cli.main(argv) == 2
            assert "roots does not read --steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("conf", ["missing.conf", "."], ids=["missing", "directory"])
    def test_an_unreadable_config_is_a_usage_error(self, conf, tmp_path, capsys):
        # exit 1 would read as a failed verification check
        out = tmp_path / "out"
        assert cli.main(["--config", str(tmp_path / conf), "roots", "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --config {tmp_path / conf}: ")
        assert not out.exists()

    def test_spellings_of_one_window_share_one_directory(self, tmp_path, capsys):
        level = ["figure", "--kind", "level", "--z", "1", "--res", "16", "--workers", "1", "--out", str(tmp_path)]
        for i, window in enumerate(([], ["--window=-3/2,3/2,-3/2,3/2"], ["--window=-1.5,1.5,-1.5,1.5"])):
            assert cli.main([*level, *window]) == 0
            assert capsys.readouterr().out.startswith("cached: ") == (i > 0)
        (record,) = tmp_path.glob("figure-*/runconfig.txt")
        assert "window = -3/2,3/2,-3/2,3/2" in record.read_text(encoding="utf-8")
        # the record is a config file of the same run
        assert cli.main(["--config", str(record)]) == 0
        assert capsys.readouterr().out.startswith("cached: ")

    @pytest.mark.parametrize(
        "run,spellings",
        [
            (["trace", "--z", "4/3", "--steps", "64"], ("--path-tol=1e-6", "--path-tol=0.000001")),
            # a ceiling below the working precision is raised to it
            (["roots", "--n", "5", "--workers", "1"], ("--max-bits=100", "--max-bits=160")),
        ],
        ids=["path-tol", "max-bits"],
    )
    def test_spellings_of_one_value_share_one_directory(self, run, spellings, tmp_path, capsys):
        for i, spelling in enumerate(spellings):
            assert cli.main([*run, spelling, "--out", str(tmp_path)]) == 0
            assert capsys.readouterr().out.startswith("cached: ") == (i > 0)
        (record,) = tmp_path.glob("*/runconfig.txt")
        assert cli.main(["--config", str(record)]) == 0
        assert capsys.readouterr().out.startswith("cached: ")

    def test_programming_errors_propagate(self, monkeypatch, tmp_path):
        # only certification and precision failures become FAIL rows
        def broken(*args, **kwargs):
            raise TypeError("broken solver")

        monkeypatch.setattr(cli, "find_roots", broken)
        with pytest.raises(TypeError, match="broken solver"):
            cli.main(["verify", "--n-list", "2,3", "--workers", "1", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["0", "-1e-30"])
    def test_nonpositive_path_tol_is_a_usage_error_before_tracing(self, tol, monkeypatch, capsys):
        def no_trace(*args, **kwargs):
            raise AssertionError("the path was traced before path_tol was checked")

        monkeypatch.setattr(paths, "legendre_rule", no_trace)
        assert cli.main(["trace", "--z", "4/3", f"--path-tol={tol}"]) == 2
        assert "path_tol must be positive" in capsys.readouterr().err

    def test_verify_small_range(self, tmp_path):
        res = run_cli("verify", "--n-range", "2..6", "--out", str(tmp_path))
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 5
        sub = next(tmp_path.glob("verify-*"))
        assert (sub / "lemmas.csv").exists()
        assert (sub / "verify.txt").exists()
        assert (sub / "runconfig.txt").exists()

    def test_verify_reports_a_failing_degree_and_the_rest(self, tmp_path):
        # with 2 workers the failure of n = 240 crosses the process pool as
        # a returned value; the artifacts are the same bytes as with 1
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            res = run_cli(
                "verify", "--n-list", "2,240", "--precision-bits", "64", "--max-bits", "64",
                "--workers", workers, "--out", str(out), code=POOL_PROBE,
            )
            assert res.returncode == 1, res.stderr
            pools = [line for line in res.stderr.splitlines() if line.startswith("pool of ")]
            assert pools == (["pool of 2"] if workers == "2" else [])
            assert any(line.startswith("FAIL n=240: ") for line in res.stdout.splitlines())
            (sub,) = out.iterdir()
            assert sorted(p.name for p in sub.iterdir()) == ["lemmas.csv", "runconfig.txt", "verify.txt"]
            rows = (sub / "lemmas.csv").read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == ["2", "240"]
            assert rows[0].startswith("2,2,inside,true,")
            assert rows[0].endswith(",")  # n = 2 certifies: empty error column
            assert not rows[1].endswith(",")
            written.append((sub.name, (sub / "lemmas.csv").read_bytes(), (sub / "verify.txt").read_bytes()))
        assert written[0] == written[1]

    def test_verify_checks_name_only_certified_degrees(self):
        lowp = ("--precision-bits", "64", "--max-bits", "64", "--workers", "1")
        # no degree certifies: every check fails, none claims a span of degrees
        res = run_cli("verify", "--n", "240", *lowp)
        lines = res.stdout.splitlines()
        assert res.returncode == 1
        assert not any(line.startswith("PASS") for line in lines)
        fails = [line for line in lines if line.startswith("FAIL")]
        assert sum(1 for line in fails if "no certified degree" in line) == 5
        assert lines[-1].startswith("FAIL n=240: ")
        # the checks pass over the degrees that certified, and name only those
        res = run_cli("verify", "--n-list", "2,240", *lowp)
        passes = [line for line in res.stdout.splitlines() if line.startswith("PASS")]
        assert res.returncode == 1
        assert len(passes) == 5
        assert all("n=2..2," in line for line in passes)

    def test_negative_workers_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a degree was solved before --workers was checked")

        monkeypatch.setattr(cli, "find_roots", no_solve)
        assert cli.main(["roots", "--n", "3", "--workers", "-2", "--out", str(tmp_path)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # the same count read from --config
        out = tmp_path / "out"
        conf = tmp_path / "run.conf"
        conf.write_text(f"command = verify\nn_list = 3\nworkers = -1\nout = {out}\n")
        assert cli.main(["--config", str(conf)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    # the figure's default degree list, then degrees given on the command line
    @pytest.mark.parametrize("command", [("figure", "--kind", "zeros"), ("figure", "--kind", "zeros", "--n", "2")])
    def test_theta_grid_zero_is_a_usage_error(self, command):
        res = run_cli(*command, "--theta-grid", "0", "--workers", "1")
        assert res.returncode == 2
        assert "empty theta grid" in res.stderr

    @pytest.mark.parametrize("command", [("figure", "--kind", "zeros"),
                                         ("figure", "--kind", "zeros", "--n-list", "60,80,100")])
    def test_theta_grid_zero_is_rejected_before_any_solve(self, command, monkeypatch, tmp_path, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a degree was solved before the theta grid was checked")

        monkeypatch.setattr(cli, "find_roots", no_solve)
        assert cli.main([*command, "--theta-grid", "0", "--workers", "1"]) == 2
        assert "empty theta grid" in capsys.readouterr().err
        # the same grid read from --config
        conf = tmp_path / "run.conf"
        n_list = "n_list = 60,80,100\n" if "--n-list" in command else ""
        conf.write_text(f"command = figure\nkind = zeros\n{n_list}theta_grid = 0\nworkers = 1\n")
        assert cli.main(["--config", str(conf)]) == 2
        assert "empty theta grid" in capsys.readouterr().err

    def test_report_and_figures(self, tmp_path):
        res = run_cli(
            "report", "--n-list", "4,8", "--out", str(tmp_path)
        )
        assert res.returncode == 0
        sub = next(tmp_path.glob("report-*"))
        assert (sub / "roots_report.csv").exists()
        assert (sub / "summary.csv").exists()

        res = run_cli(
            "figure", "--kind", "zeros", "--n-list", "5", "--theta-grid", "64",
            "--out", str(tmp_path),
        )
        assert res.returncode == 0
        sub = next(tmp_path.glob("figure-*"))
        assert (sub / "figure_zeros.svg").exists()
        assert (sub / "figure_zeros.csv").exists()

        res = run_cli(
            "figure", "--kind", "level", "--z", "1", "--res", "16", "--out", str(tmp_path)
        )
        assert res.returncode == 0
        assert any((d / "level_field.csv").exists() for d in tmp_path.glob("figure-*"))

    def test_cache_reuse(self, tmp_path):
        first = run_cli("coeffs", "--n", "3", "--workers", "1", "--out", str(tmp_path))
        again = run_cli("coeffs", "--n", "3", "--workers", "1", "--out", str(tmp_path))
        assert first.returncode == again.returncode == 0
        assert "cached" in again.stdout
        # another worker count hits the same cache and leaves the record of
        # the run that wrote the artifacts alone
        other = run_cli("coeffs", "--n", "3", "--workers", "2", "--out", str(tmp_path))
        assert "cached" in other.stdout
        (record,) = tmp_path.glob("coeffs-*/runconfig.txt")
        assert "workers = 1" in record.read_text(encoding="utf-8")

    def test_config_file_equivalent_to_flags(self, tmp_path):
        out_b = tmp_path / "b"
        res_b = run_cli("verify", "--n-range", "2..4", "--workers", "1", "--out", str(out_b))
        assert res_b.returncode == 0
        (csv_b,) = out_b.glob("verify-*/lemmas.csv")
        # n_range = 2,4 is how older versions wrote runconfig.txt
        for i, degrees in enumerate(("n_range = 2,4", "n_list = 4,3,2")):
            out_a = tmp_path / f"a{i}"
            conf = tmp_path / "run.conf"
            conf.write_text(
                f"command = verify\n{degrees}\nworkers = 1\nout = {out_a}\n",
                encoding="utf-8",
            )
            res_a = run_cli("--config", str(conf), "verify")
            assert res_a.returncode == 0
            (csv_a,) = out_a.glob("verify-*/lemmas.csv")
            assert csv_a.read_bytes() == csv_b.read_bytes()
            assert csv_a.parent.name == csv_b.parent.name

    def test_determinism_small(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            res = run_cli("verify", "--n-range", "2..6", "--workers", "1", "--out", str(out))
            assert res.returncode == 0
            outs.append(next(out.glob("verify-*/lemmas.csv")).read_bytes())
        assert outs[0] == outs[1]

    def test_roots_independent_of_workers(self, tmp_path):
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            res = run_cli("roots", "--n-range", "10..20", "--workers", workers, "--out", str(out))
            assert res.returncode == 0, res.stderr
            (csv,) = out.glob("roots-*/roots.csv")
            written.append((csv.parent.name, csv.read_bytes()))
        assert written[0][0] == written[1][0]
        assert written[0][1] == written[1][1]
        assert len(written[0][1].splitlines()) == 1 + sum(range(10, 21))

    def test_a_run_without_a_pool_imports_no_multiprocessing(self, tmp_path):
        # the pool's modules are a large share of the CLI's start-up
        code = (
            "import sys\n"
            "from lemnizeros import cli\n"
            f"assert cli.main(['roots', '--n', '3', '--workers', '1', '--out', {str(tmp_path)!r}]) == 0\n"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n"
        )
        res = run_cli(code=code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"
        assert list(tmp_path.glob("roots-*/roots.csv"))

    @pytest.mark.parametrize(
        "argv,artifacts,pools",
        [
            # one degree solves in this process, whatever --workers says
            (("roots", "--n", "5"), ("roots.csv",), []),
            # where the pool cannot start for want of semaphores, the degrees run serially
            (("verify", "--n-list", "2,3"), ("lemmas.csv", "verify.txt"), [2]),
        ],
        ids=["one-degree", "no-semaphores"],
    )
    def test_serial_runs_write_the_bytes_of_one_worker(self, argv, artifacts, pools, monkeypatch, tmp_path, capsys):
        import concurrent.futures

        started = []

        def no_semaphores(max_workers):
            # what ProcessPoolExecutor raises without multiprocessing.synchronize
            started.append(max_workers)
            raise NotImplementedError("no working semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_semaphores)
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert cli.main([*argv, "--workers", workers, "--out", str(out)]) == 0
            (sub,) = out.iterdir()
            written.append((sub.name, *((sub / name).read_bytes() for name in artifacts)))
        assert started == pools
        assert written[0] == written[1]

    def test_usage_without_command(self):
        res = run_cli()
        assert res.returncode == 2


class TestDegreeIndependence:
    """A degree's certified roots and verdicts do not depend on which other
    degrees the run holds: exact equality, roots and radii included."""

    def test_range_solve_matches_single_degree(self):
        cfg = RunConfig(command="roots", workers=1)
        in_range = cli._solve_degrees(cfg, tuple(range(2, 13)))[12]
        alone = cli._solve_degrees(cfg, (12,))[12]
        assert in_range.roots == alone.roots
        assert in_range.inclusion_radii == alone.inclusion_radii
        assert in_range == alone

    def test_campaign_report_matches_single_degree(self, tmp_path, capsys):
        rows = []
        for degrees in (["--n-range", "2..12"], ["--n", "12"]):
            out = tmp_path / degrees[0]
            assert cli.main(["verify", *degrees, "--workers", "1", "--out", str(out)]) == 0
            (csv,) = out.glob("verify-*/lemmas.csv")
            rows.append(csv.read_text(encoding="utf-8").splitlines()[-1])
        assert rows[0].startswith("12,12,inside,true,")
        assert rows[0] == rows[1]
