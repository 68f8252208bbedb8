"""Command line driver: subcommands, flag precedence, exit codes."""

import argparse
import inspect
import json
import math
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import kmiter.cli
from kmiter import ConfigError, run_cutoff_study
from kmiter.cli import (
    COMMANDS,
    DEFAULT_CHECKPOINTS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    _cmd_demo_illposed,
    _render_cutoff_study,
    build_parser,
    main,
)

import oracles

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The script an install makes for the interpreter running the tests; a
# `kmiter` found on PATH may belong to another environment.
INSTALLED_SCRIPT = Path(sysconfig.get_path("scripts")) / "kmiter"
CONSOLE_ARGS = ["table2", "--steps", "100", "--format", "csv"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestExperimentCommands:
    def test_elliptic_default_csv(self, capsys):
        code, out, err = run_cli(capsys, "elliptic")
        assert code == EXIT_OK
        assert err == ""
        rows = csv_rows(out)
        assert [int(r["k"]) for r in rows] == list(DEFAULT_CHECKPOINTS)

    def test_elliptic_known_error_at_100(self, capsys):
        code, out, _ = run_cli(capsys, "elliptic", "--steps", "100")
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert [int(r["k"]) for r in rows] == [10, 100]
        assert float(rows[-1]["rel_error"]) == pytest.approx(
            oracles.TANH_PI_200, rel=1e-5
        )

    def test_steps_appended_when_not_a_checkpoint(self, capsys):
        code, out, _ = run_cli(capsys, "elliptic", "--steps", "42")
        assert code == EXIT_OK
        assert [int(r["k"]) for r in csv_rows(out)] == [10, 42]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "elliptic", "--steps", "10", "--modes", "4", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["kind"] == "elliptic"
        assert data["records"][0]["k"] == 10
        assert len(data["records"][0]["iterate"]) == 4

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, "elliptic", "--steps", "10", "--format", "markdown")
        assert code == EXIT_OK
        assert "| k | rel_error | successive_diff | residual |" in out
        assert "terminated at k = 10" in out

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "elliptic", "--steps", "10", "--out", str(path))
        assert code == EXIT_OK
        assert f"wrote {path}" in out
        assert path.read_text().startswith("k,rel_error")

    def test_hyperbolic_default(self, capsys):
        code, out, _ = run_cli(capsys, "hyperbolic", "--steps", "100")
        assert code == EXIT_OK
        assert len(csv_rows(out)) == 2

    def test_parabolic_default_and_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "parabolic", "--steps", "100", "--gamma", "1.5")
        assert code == EXIT_OK
        rows = csv_rows(out)
        errs = [float(r["rel_error"]) for r in rows]
        assert errs[-1] < errs[0]

    def test_eps_enables_noise(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "elliptic", "--steps", "1000", "--eps", "1e-3", "--seed", "3"
        )
        code2, out2, _ = run_cli(
            capsys, "elliptic", "--steps", "1000", "--eps", "1e-3", "--seed", "3"
        )
        assert code1 == code2 == EXIT_OK
        assert out1 == out2  # same seed, same bytes
        _, clean, _ = run_cli(capsys, "elliptic", "--steps", "1000")
        assert out1 != clean


ELLIPTIC = {
    "kind": "elliptic",
    "T": 1.0,
    "f": {"generator": "zero"},
    "g": {"generator": "unit_mode", "k": 2},
}


class TestConfigPrecedence:
    def write_config(self, tmp_path, **overrides):
        data = {
            "problem": {
                "kind": "elliptic",
                "T": 1.0,
                "f": {"generator": "zero"},
                "g": {"generator": "unit_mode", "k": 2},
            },
            "spectrum": {"basis": "sine1d", "n_modes": 6, "length": 1.0},
            "schedule": {"checkpoints": [10, 20, 30]},
        }
        data.update(overrides)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        return path

    def test_config_checkpoints_used(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_OK
        assert [int(r["k"]) for r in csv_rows(out)] == [10, 20, 30]

    def test_steps_flag_overrides_config(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "elliptic", "--config", str(path), "--steps", "20")
        assert code == EXIT_OK
        assert [int(r["k"]) for r in csv_rows(out)] == [10, 20]

    def test_config_output_path_honored(self, capsys, tmp_path):
        dest = tmp_path / "from-config.csv"
        path = self.write_config(
            tmp_path, output={"format": "csv", "path": str(dest)}
        )
        code, out, _ = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_OK
        assert dest.exists()
        assert f"wrote {dest}" in out

    def test_config_of_another_kind_refused(self, capsys, tmp_path):
        path = self.write_config(tmp_path)
        for sub in ("hyperbolic", "parabolic"):
            code, out, err = run_cli(capsys, sub, "--config", str(path))
            assert code == EXIT_CONFIG
            assert out == ""
            assert "problem.kind" in err and "'elliptic'" in err

    def test_modes_on_custom_basis_refused(self, capsys, tmp_path):
        path = self.write_config(tmp_path, spectrum={"basis": "custom", "eigenvalues": [1.0, 2.0]})
        code, _, _ = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_OK
        code, _, err = run_cli(capsys, "elliptic", "--config", str(path), "--modes", "4")
        assert code == EXIT_CONFIG
        assert "'n_modes'" in err

    def test_unknown_key_refused(self, capsys, tmp_path):
        path = self.write_config(tmp_path, schedule={"checkpoints": [10], "tol": 1e-6})
        code, out, err = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "schedule" in err and "'tol'" in err

    @pytest.mark.parametrize(
        "section, value, steps, key",
        [
            ("spectrum", {"basis": "sine1d", "n_modes": "abc"}, (), "spectrum.n_modes"),
            ("problem", {**ELLIPTIC, "T": "x"}, (), "problem.T"),
            ("schedule", {"checkpoints": ["a"]}, ("--steps", "5"), "schedule.checkpoints[0]"),
            ("schedule", {"checkpoints": [10, 20], "scale": "x"}, (), "schedule.scale"),
            ("schedule", {"checkpoints": [10, 20], "scale": [1]}, (), "schedule.scale"),
            (
                "spectrum", {"basis": "custom", "eigenvalues": ["a", 2.0]}, (),
                "spectrum.eigenvalues",
            ),
            (
                "problem", {**ELLIPTIC, "g": {"coeffs": [0.0, "a"] + [0.0] * 4}}, (),
                "data source coeffs",
            ),
            (
                "problem", {**ELLIPTIC, "g": {"coeffs": [0.0, None] + [0.0] * 4}}, (),
                "data source coeffs",
            ),
        ],
    )
    def test_value_of_the_wrong_type_is_config_error(
        self, capsys, tmp_path, section, value, steps, key
    ):
        path = self.write_config(tmp_path, **{section: value})
        code, out, err = run_cli(capsys, "elliptic", "--config", str(path), *steps)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: {key} must be" in err

    @pytest.mark.parametrize(
        "schedule, key",
        [
            ({"checkpoints": [10.7, 20]}, "schedule.checkpoints[0]"),
            ({"checkpoints": [10, 20], "max_steps": 20.5}, "schedule.max_steps"),
        ],
    )
    def test_fractional_step_count_refused(self, capsys, tmp_path, schedule, key):
        path = self.write_config(tmp_path, schedule=schedule)
        code, out, err = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"{key} must be an integer" in err

    def test_integral_float_step_counts_accepted(self, capsys, tmp_path):
        path = self.write_config(tmp_path, schedule={"checkpoints": [10.0, 20], "max_steps": 20.0})
        code, out, _ = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_OK
        assert [int(r["k"]) for r in csv_rows(out)] == [10, 20]

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "elliptic", "--config", str(tmp_path / "no.json"))
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_non_utf8_grid_csv_is_config_error(self, capsys, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_bytes(b"x,value\n0.0,0.0\n0.5,1.0\xe9\n1.0,0.0\n")
        path = self.write_config(
            tmp_path,
            problem={
                "kind": "elliptic", "T": 1.0, "f": {"generator": "zero"}, "g": {"csv": str(grid)},
            },
        )
        code, out, err = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"config error: {grid}: byte 0xe9 at offset 23" in err

    def test_broken_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run_cli(capsys, "elliptic", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "config error" in err


class TestExitCodes:
    def test_resonant_horizon_is_numeric_error(self, capsys, tmp_path):
        # T = 1 on the unit interval puts every phase at a multiple of pi.
        path = tmp_path / "resonant.json"
        path.write_text(
            json.dumps(
                {
                    "problem": {
                        "kind": "hyperbolic",
                        "T": 1.0,
                        "f": {"generator": "zero"},
                        "g": {"generator": "unit_mode", "k": 1},
                    },
                    "spectrum": {"basis": "sine1d", "n_modes": 4},
                    "schedule": {"checkpoints": [10]},
                }
            )
        )
        code, _, err = run_cli(capsys, "hyperbolic", "--config", str(path))
        assert code == EXIT_NUMERIC
        assert "numeric error" in err

    def test_backward_horizon_overflow_is_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(
            json.dumps(
                {
                    "problem": {
                        "kind": "parabolic",
                        "T": 200.0,
                        "f": {"coeffs": [1.0, 0.0]},
                    },
                    "spectrum": {"basis": "sine1d", "n_modes": 2},
                    "schedule": {"checkpoints": [10]},
                }
            )
        )
        code, _, err = run_cli(capsys, "parabolic", "--config", str(path))
        assert code == EXIT_NUMERIC

    def test_invalid_gamma_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "parabolic", "--steps", "10", "--gamma", "50")
        assert code == EXIT_CONFIG
        assert "gamma" in err

    @pytest.mark.parametrize("command", ["regularize", "elliptic"])
    def test_negative_noise_seed_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "kmiter: config error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command", ["regularize", "elliptic"])
    def test_bad_noise_level_names_the_given_value(self, capsys, command):
        # the level is checked once, in the set-up both commands share,
        # before it is split across the two data components
        code, out, err = run_cli(capsys, command, "--eps", "-1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "kmiter: config error: noise.eps must be positive and finite, got -1.0\n"

    def test_bad_flag_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["elliptic", "--format", "yaml"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_") and name != "reads":
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


class TestCommandTable:
    COMMON = ("config", "modes", "steps", "eps", "seed", "gamma", "out", "format")
    EXPERIMENT = {"config", "modes", "steps", "eps", "seed", "out", "format"}
    TAKES = {
        "elliptic": EXPERIMENT,
        "hyperbolic": EXPERIMENT,
        "parabolic": EXPERIMENT | {"gamma"},
        "table2": {"modes", "steps", "out", "format"},
        "table1": {"modes", "steps", "gamma", "out", "format"},
        "regularize": {"modes", "eps", "seed", "out", "format"},
        "demo-illposed": {"modes", "kind", "out", "format"},
    }

    def test_parser_takes_exactly_the_listed_flags(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}
        assert taken == self.TAKES
        assert sum(map(len, taken.values())) == 40

    @pytest.mark.parametrize("name", list(TAKES))
    def test_runner_reads_every_flag_it_takes(self, capsys, name):
        args = build_parser().parse_args([name], namespace=ReadRecorder())
        args.reads.clear()
        COMMANDS[name].run(args)
        assert capsys.readouterr().out
        assert set(COMMANDS[name].flags) <= args.reads

    @pytest.mark.parametrize("name", list(TAKES))
    def test_other_common_flags_exit_2(self, capsys, name):
        for flag in sorted(set(self.COMMON) - self.TAKES[name]):
            with pytest.raises(SystemExit) as exc:
                main([name, f"--{flag}", "1"])
            assert exc.value.code == 2, flag
            assert f"--{flag}" in capsys.readouterr().err


class TestTableCommands:
    def test_table2_markdown_default(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == EXIT_OK
        assert "| mode 1 |" in out
        assert "1000000000 steps" in out

    def test_table2_csv_trimmed(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--steps", "1000", "--format", "csv")
        assert code == EXIT_OK
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "run,100,1000"
        assert lines[1].startswith("mode 1,")
        assert float(lines[1].split(",")[1]) == pytest.approx(
            oracles.TANH_PI_200, rel=1e-5
        )

    @pytest.mark.parametrize(
        "argv, header",
        [
            (("table2", "--steps", "500"), "run,100,500"),
            (("table1", "--steps", "500"), "run,10,500"),
        ],
    )
    def test_steps_appended_when_not_a_checkpoint(self, capsys, argv, header):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        assert out.split("\n")[0] == header

    @pytest.mark.parametrize(
        "argv", [("table2", "--modes", "256"), ("elliptic", "--modes", "300")]
    )
    def test_modes_past_cosh_overflow_without_data(self, capsys, argv):
        # the data touch mode 1 only; cosh(lambda_j) overflows from j = 227 on
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        assert "nan" not in out.lower()

    def test_table1_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--modes", "8")
        assert code == EXIT_OK
        assert "| a^2 = 8 |" in out
        assert "| a^2 = 2 |" in out

    def test_table1_out_file(self, capsys, tmp_path):
        path = tmp_path / "t1.csv"
        code, _, _ = run_cli(
            capsys, "table1", "--modes", "6", "--format", "csv", "--out", str(path)
        )
        assert code == EXIT_OK
        assert path.read_text().startswith("run,10,")


class TestRegularizeCommand:
    def test_markdown_mentions_selection(self, capsys):
        code, out, _ = run_cli(capsys, "regularize")
        assert code == EXIT_OK
        assert "selected cutoff n* =" in out

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(capsys, "regularize", "--format", "json", "--eps", "1e-3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["eps_prime"] > 0.0
        assert data["error_at_star"] >= data["best_error"]
        assert {"n", "bound", "true_error", "retained"} <= set(data["curve"][0])

    def test_csv_has_summary_comments(self, capsys):
        code, out, _ = run_cli(capsys, "regularize", "--format", "csv")
        assert code == EXIT_OK
        assert out.startswith("n,retained,tail_bound,amplification,bound,true_error\n")
        assert "# n_star=" in out


class TestDemoIllposed:
    def test_markdown_default(self, capsys):
        code, out, _ = run_cli(capsys, "demo-illposed")
        assert code == EXIT_OK
        assert "| mode | eigenvalue | data norm | solution norm | overflow |" in out

    def test_csv_solution_norm_grows(self, capsys):
        code, out, _ = run_cli(capsys, "demo-illposed", "--format", "csv", "--modes", "4")
        assert code == EXIT_OK
        rows = csv_rows(out)
        norms = [float(r["solution_norm"]) for r in rows]
        assert norms == sorted(norms)
        assert norms[-1] / norms[0] > 100.0

    def test_parabolic_kind_flags_overflow(self, capsys):
        code, out, _ = run_cli(
            capsys, "demo-illposed", "--kind", "parabolic", "--format", "csv",
            "--modes", "8",
        )
        assert code == EXIT_OK
        rows = csv_rows(out)
        assert rows[-1]["overflow"] == "1"


class TestUnknownFormat:
    # argparse stops an unknown --format; the renderers behind it refuse one too
    def test_cutoff_study(self):
        study = run_cutoff_study(n_modes=4)
        with pytest.raises(ConfigError, match="format"):
            _render_cutoff_study(study, "xml")

    def test_demo_illposed(self, capsys):
        args = argparse.Namespace(kind="parabolic", modes=2, format="xml", out=None)
        with pytest.raises(ConfigError, match="format"):
            _cmd_demo_illposed(args)
        assert capsys.readouterr().out == ""


class TestNoLeakedWarnings:
    @pytest.mark.parametrize(
        "argv",
        [
            # the source constant's square overflowed into M = inf
            ("regularize", "--modes", "512"),
            # the decay table rebuilt u0 from a subnormal terminal state
            ("table1", "--modes", "40"),
            # the trapezoid sum of the elliptic trajectory norm overflowed
            ("demo-illposed", "--modes", "300"),
        ],
    )
    def test_valid_input_exits_0_with_warnings_as_errors(self, argv):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kmiter", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""


    def test_regularize_512_reports_finite_errors(self):
        # the errors near 1e168 squared to inf, so every row read inf; now
        # only the cutoffs that retain a mode whose 1 - F is exactly zero do
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "kmiter", "regularize",
             "--modes", "512", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        data = json.loads(proc.stdout)
        assert math.isfinite(data["error_at_star"]) and math.isfinite(data["best_error"])
        assert data["best_error"] > 1e160
        curve = data["curve"]
        assert len(curve) == 513
        finite = [math.isfinite(p["true_error"]) for p in curve]
        assert finite == sorted(finite, reverse=True)  # inf only past a retained count
        assert sum(finite) >= 476
        assert all(f for p, f in zip(curve, finite) if math.isfinite(p["bound"]))


class TestEntryPoints:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kmiter", "elliptic", "--steps", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("k,rel_error")

    def test_console_script(self):
        # The contract behind the `kmiter` executable is its entry in
        # [project.scripts]; the wrapper an install generates runs that
        # target as sys.exit(main()).  Checking the declared target this way
        # needs no install.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "kmiter" in scripts
        target = re.fullmatch(r"([\w.]+):(\w+)", scripts["kmiter"])
        assert target is not None, scripts["kmiter"]
        module, attr = target.groups()
        child = (
            f"import sys, {module}\n"
            f"sys.argv = {['kmiter', *CONSOLE_ARGS]!r}\n"
            f"sys.exit({module}.{attr}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("run,100")

    @pytest.mark.skipif(
        not INSTALLED_SCRIPT.exists(),
        reason=f"no kmiter script installed at {INSTALLED_SCRIPT}",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            [str(INSTALLED_SCRIPT), *CONSOLE_ARGS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("run,100")


class TestTable1SizeRefusal:
    """A table1 size that cannot be allocated is refused before the model is
    built: exit 2 and one line naming --modes and the bytes it needs."""

    @staticmethod
    def no_table(monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("the decay table was built")

        monkeypatch.setattr(kmiter.cli.bench, "run_decay_table", refuse)

    def test_unallocatable_size_exits_2_with_one_line(self, capsys, monkeypatch):
        self.no_table(monkeypatch)
        code, out, err = run_cli(capsys, "table1", "--modes", "262144")
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1
        assert "--modes 262144" in err and f"{262144**2 * 1024} bytes" in err

    def test_bound_is_physical_memory(self, capsys, monkeypatch):
        monkeypatch.setattr(kmiter.cli, "_physical_memory", lambda: 6 * 6 * 1024)
        assert run_cli(capsys, "table1", "--modes", "6", "--format", "csv")[0] == EXIT_OK
        self.no_table(monkeypatch)
        code, _, err = run_cli(capsys, "table1", "--modes", "7")
        assert code == EXIT_CONFIG and "more than the 36864 bytes" in err

    def test_unknown_memory_is_not_a_refusal(self, capsys, monkeypatch):
        monkeypatch.setattr(kmiter.cli, "_physical_memory", lambda: None)
        assert run_cli(capsys, "table1", "--modes", "4", "--format", "csv")[0] == EXIT_OK


class TestDemoRowsBuiltOnce:
    """demo-illposed computes each mode's record once and builds only the
    rows its format prints: JSON starts no cell row at all."""

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_one_pass(self, capsys, monkeypatch, fmt):
        records, cell_rows = [], []
        demo, render = kmiter.cli.illposedness_demo, kmiter.cli.bench.render_rows

        def counting(*args):
            records.append(args[-1])
            return demo(*args)

        def rendering(fmt, columns, rows, *args, **kwargs):
            cell_rows.append(rows)
            return render(fmt, columns, rows, *args, **kwargs)

        monkeypatch.setattr(kmiter.cli, "illposedness_demo", counting)
        monkeypatch.setattr(kmiter.cli.bench, "render_rows", rendering)
        code, out, _ = run_cli(capsys, "demo-illposed", "--modes", "5", "--format", fmt)
        monkeypatch.undo()
        assert code == EXIT_OK and records == [1, 2, 3, 4, 5]
        (rows,) = cell_rows
        started = inspect.getgeneratorstate(rows) != inspect.GEN_CREATED
        assert started == (fmt != "json")
