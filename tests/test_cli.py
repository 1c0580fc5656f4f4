"""Command-line behavior: parsing, config merge, file formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cayley_mcmc import cli
from cayley_mcmc.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    parse_and_dispatch,
    read_matrix_csv,
    write_matrix_csv,
)
from cayley_mcmc.experiments import read_draws_csv


class TestMatrixCsv:
    def test_write_then_read_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((10, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert np.array_equal(read_matrix_csv(path), M)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rows=2 cols=3\n1,2,3\n4,5\n")
        with pytest.raises(Exception) as err:
            read_matrix_csv(path)
        assert ":3:" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rows=1 cols=2\n1,oops\n")
        with pytest.raises(Exception, match="non-numeric"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"# rows=2 cols=2\n1,2\n3,{cell}\n")
        with pytest.raises(cli.InputError, match=re.escape(f"{path}:3: non-finite cell")):
            read_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(Exception, match="empty"):
            read_matrix_csv(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n")
        with pytest.raises(Exception, match="header"):
            read_matrix_csv(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rows=3 cols=2\n1,2\n")
        with pytest.raises(Exception, match="promises"):
            read_matrix_csv(path)


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert parse_and_dispatch([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        assert parse_and_dispatch(["sample", "--bogus", "1"]) == EXIT_USAGE

    def test_missing_required_options(self, capsys):
        assert parse_and_dispatch(["sample", "--p", "5", "--k", "2"]) == EXIT_USAGE
        assert "missing required options: --iters, --seed, --out" in capsys.readouterr().err
        assert parse_and_dispatch(["bingham-exp"]) == EXIT_USAGE
        assert "options: --p, --k, --lambda, --seed, --out\n" in capsys.readouterr().err

    def test_invalid_dimensions(self, capsys, tmp_path):
        code = parse_and_dispatch([
            "sample", "--p", "3", "--k", "5", "--iters", "10", "--seed", "1",
            "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_missing_input_file(self, capsys):
        code = parse_and_dispatch([
            "jacobian", "--p", "5", "--k", "2", "--coords", "/nonexistent.csv"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("exc,code", [(np.linalg.LinAlgError("singular"), EXIT_NUMERICAL),
                                          (ValueError("bad value"), EXIT_USAGE)])
    def test_value_errors_map_by_class(self, monkeypatch, capsys, exc, code):
        def fail(cfg):
            raise exc

        help_text, flags, _ = cli.COMMANDS["roundtrip-check"]
        monkeypatch.setitem(cli.COMMANDS, "roundtrip-check", (help_text, flags, fail))
        assert parse_and_dispatch(["roundtrip-check", "--p", "3", "--k", "1"]) == code

    def test_empty_list_is_usage_error(self, capsys, tmp_path):
        code = parse_and_dispatch([
            "normal-approx-exp", "--k", "3", "--p-grid", ",", "--seed", "1",
            "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage-error: expected a non-empty list of integers, got ','\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("params,message", [
        (["--k", "1", "--lambda", "nan"], "lambda must be a strictly decreasing positive k-vector"),
        (["--k", "2", "--lambda", "inf,1"], "lambda must be a strictly decreasing positive k-vector"),
        (["--k", "2", "--lambda", "2,1", "--sigma2", "nan"], "sigma2 must be positive"),
    ])
    def test_non_finite_parameters_are_usage_errors(self, capsys, tmp_path, params, message):
        """Rejected before any file is written."""
        code = parse_and_dispatch(["bingham-exp", "--p", "5", *params, "--iters", "20",
                                   "--burn", "10", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage-error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_roundtrip_check_ok(self, capsys):
        assert parse_and_dispatch(["roundtrip-check", "--p", "6", "--k", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ok" in out

    def test_roundtrip_check_impossible_tolerance(self, capsys):
        code = parse_and_dispatch([
            "roundtrip-check", "--p", "6", "--k", "2", "--tol", "1e-30"])
        assert code == EXIT_NUMERICAL


class TestSampleCommand:
    def test_writes_draws_report_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = parse_and_dispatch([
            "sample", "--manifold", "stiefel", "--p", "5", "--k", "2",
            "--target", "uniform", "--iters", "200", "--burn", "50",
            "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "draws.csv").exists()
        assert (out / "report.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["thin"] == 1  # defaults are echoed too

    def test_bingham_requires_data(self, tmp_path, capsys):
        code = parse_and_dispatch([
            "sample", "--p", "5", "--k", "2", "--target", "bingham",
            "--iters", "100", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_bingham_target_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        data = tmp_path / "y.csv"
        write_matrix_csv(data, rng.standard_normal((30, 5)))
        code = parse_and_dispatch([
            "sample", "--p", "5", "--k", "2", "--target", "bingham",
            "--data", str(data), "--sigma2", "1.0", "--lambda", "3,1",
            "--iters", "200", "--burn", "50", "--seed", "2",
            "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_non_finite_data_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        Y = np.random.default_rng(3).standard_normal((30, 5))
        Y[3, 1] = np.nan
        write_matrix_csv(data, Y)
        code = parse_and_dispatch([
            "sample", "--p", "5", "--k", "2", "--target", "bingham",
            "--data", str(data), "--sigma2", "1.0", "--lambda", "3,1",
            "--iters", "20", "--seed", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"input-error: {data}:5: non-finite cell\n"

    @pytest.mark.parametrize("flags,message", [
        (["--sigma2", "nan", "--lambda", "2,1"], "sigma2 must be positive, got nan"),
        (["--sigma2", "1.0", "--lambda", "1,2"], "lambda must be strictly decreasing and positive"),
        (["--sigma2", "1.0", "--lambda", "inf,1"],
         "lambda must be strictly decreasing and positive"),
    ])
    def test_bad_bingham_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        """A rejected flag value exits 2, as in bingham-exp; only the data's checks exit 3."""
        data = tmp_path / "y.csv"
        write_matrix_csv(data, np.random.default_rng(3).standard_normal((30, 5)))
        code = parse_and_dispatch([
            "sample", "--p", "5", "--k", "2", "--target", "bingham", "--data", str(data),
            *flags, "--iters", "20", "--seed", "2", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage-error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_bingham_data_of_wrong_width_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        write_matrix_csv(data, np.random.default_rng(3).standard_normal((30, 4)))
        code = parse_and_dispatch([
            "sample", "--p", "5", "--k", "2", "--target", "bingham", "--data", str(data),
            "--sigma2", "1.0", "--lambda", "3,1", "--iters", "20", "--seed", "2",
            "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "input-error: data has 4 columns, expected p=5\n"

    def test_grassmann_sampling(self, tmp_path, capsys):
        code = parse_and_dispatch([
            "sample", "--manifold", "grassmann", "--p", "5", "--k", "2",
            "--iters", "200", "--burn", "50", "--seed", "3",
            "--out", str(tmp_path / "g")])
        assert code == EXIT_OK
        header = (tmp_path / "g" / "draws.csv").read_text().splitlines()[0]
        assert "manifold=grassmann" in header

    @pytest.mark.parametrize("target", ["uniform", "bingham"])
    def test_grassmann_leapfrog(self, tmp_path, capsys, target):
        argv = ["sample", "--manifold", "grassmann", "--p", "5", "--k", "2",
                "--target", target, "--proposal", "leapfrog", "--scale", "0.05",
                "--iters", "150", "--burn", "50", "--seed", "4", "--out", str(tmp_path / "g")]
        if target == "bingham":
            data = tmp_path / "y.csv"
            write_matrix_csv(data, np.random.default_rng(5).standard_normal((30, 5)))
            argv += ["--data", str(data), "--sigma2", "1.0", "--lambda", "3,1"]
        code = parse_and_dispatch(argv)
        assert code == EXIT_OK
        _, _, frames = read_draws_csv(tmp_path / "g" / "draws.csv")
        assert frames.shape == (100, 5, 2)
        for Q in frames:
            assert np.max(np.abs(Q.T @ Q - np.eye(2))) < 1e-10
            assert np.allclose(Q[:2], Q[:2].T, atol=1e-12)
            assert np.linalg.eigvalsh(Q[:2]).min() > 0


class TestJacobianCommand:
    def test_prints_block_and_naive_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        coords = tmp_path / "c.csv"
        write_matrix_csv(coords, rng.standard_normal((4, 7)))  # d_v for (5,2)
        code = parse_and_dispatch([
            "jacobian", "--p", "5", "--k", "2", "--coords", str(coords)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "log_jacobian_block,log_jacobian_naive"
        assert len(lines) == 5
        for line in lines[1:]:
            block, naive = map(float, line.split(","))
            assert abs(block - naive) < 1e-8

    def test_wrong_width_is_input_error(self, tmp_path, capsys):
        coords = tmp_path / "c.csv"
        write_matrix_csv(coords, np.zeros((2, 3)))
        code = parse_and_dispatch([
            "jacobian", "--p", "5", "--k", "2", "--coords", str(coords)])
        assert code == EXIT_INPUT


class TestConfigMerge:
    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 5, "k": 2, "draws": 50, "seed": 1, "thin": 2}))
        out = tmp_path / "out"
        code = parse_and_dispatch([
            "uniform-exp", "--config", str(cfg), "--seed", "9",
            "--burn", "100", "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9  # flag beat the config file
        assert manifest["config"]["draws"] == 50  # config filled the gap

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = parse_and_dispatch([
            "uniform-exp", "--config", str(cfg), "--p", "5", "--k", "2",
            "--draws", "10", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = parse_and_dispatch([
            "uniform-exp", "--config", str(cfg), "--p", "5", "--k", "2",
            "--draws", "10", "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["sample", "--p", "4", "--k", "2", "--iters", "150",
                "--burn", "50", "--seed", "11", "--out", str(out)]
        assert parse_and_dispatch(argv) == EXIT_OK
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert parse_and_dispatch(argv) == EXIT_OK
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second


class TestParserReuse:
    """The argparse tree is built once per process; a later call parses as a fresh process does."""

    SEQUENCES = {
        "flagged sample, then defaults": [
            ["sample", "--p", "5", "--k", "2", "--iters", "60", "--burn", "20", "--thin", "2",
             "--scale", "0.3", "--seed", "3", "--out", "{out}/a"],
            ["sample", "--p", "5", "--k", "2", "--iters", "60", "--seed", "3", "--out", "{out}/b"],
        ],
        "usage error, then a good call": [
            ["sample", "--p", "5", "--k", "2", "--proposal", "bogus", "--iters", "60",
             "--seed", "3", "--out", "{out}/c"],
            ["roundtrip-check", "--p", "6", "--k", "2", "--instances", "5"],
        ],
    }

    @staticmethod
    def _outcome(code, out, err, out_dir):
        files = {str(f.relative_to(out_dir)): f.read_bytes()
                 for f in sorted(out_dir.rglob("*")) if f.is_file()}
        return code, out, err, files

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_consecutive_calls_match_fresh_processes(self, name, tmp_path, capsys):
        out_dir = tmp_path / "out"
        src = str(Path(cli.__file__).resolve().parent.parent)
        calls = [[arg.format(out=out_dir) for arg in argv] for argv in self.SEQUENCES[name]]
        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "cayley_mcmc.cli", *argv],
                                  capture_output=True, text=True, cwd=tmp_path,
                                  env={**os.environ, "PYTHONPATH": src})
            out_dir.mkdir(exist_ok=True)
            fresh.append(self._outcome(proc.returncode, proc.stdout, proc.stderr, out_dir))
        for f in sorted(out_dir.rglob("*"), reverse=True):
            f.unlink() if f.is_file() else f.rmdir()
        capsys.readouterr()
        cli._build_parser()  # built before the sequence, as by any earlier call
        for argv, expected in zip(calls, fresh):
            code = parse_and_dispatch(argv)
            captured = capsys.readouterr()
            assert self._outcome(code, captured.out, captured.err, out_dir) == expected
        assert cli._build_parser() is cli._build_parser()
        assert [outcome[0] for outcome in fresh] == (
            [EXIT_OK, EXIT_OK] if name.startswith("flagged") else [EXIT_USAGE, EXIT_OK])
