import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankpath
from rankpath import ScalarField, VarietyDescriptor, sample_stratum
from rankpath.cli import cli
from rankpath.polymap import CUSP_FAMILY_TEXT
from rankpath.serialize import (
    descriptor_to_json,
    matrix_to_json,
    write_json,
)

D = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)


@pytest.fixture
def workspace(tmp_path):
    write_json(descriptor_to_json(D), tmp_path / "d.json")
    p = sample_stratum(D, 1, 1.0, 101)
    q = sample_stratum(D, 1, 1.3, 202)
    write_json(matrix_to_json(p), tmp_path / "p.json")
    write_json(matrix_to_json(q), tmp_path / "q.json")
    return tmp_path


def failing_build(p, q, d):
    raise RuntimeError("construction failed")


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestPathCommand:
    def test_writes_certified_path(self, workspace):
        out = workspace / "path.json"
        code = cli(
            [
                "path",
                "--descriptor", str(workspace / "d.json"),
                "--p", str(workspace / "p.json"),
                "--q", str(workspace / "q.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["descriptor"] == {"m": 3, "n": 3, "t": 2, "field": "complex"}
        cert = data["certificate"]
        assert cert["ratio"] <= cert["certified_bound"] + 1e-9
        assert cert["max_relative_residual"] <= 1e-8
        assert len(data["breakpoints"]) >= 2

    def test_non_member_input_exits_one(self, workspace, capsys):
        write_json(matrix_to_json(np.eye(3, dtype=complex)), workspace / "bad.json")
        code = cli(
            [
                "path",
                "--descriptor", str(workspace / "d.json"),
                "--p", str(workspace / "bad.json"),
                "--q", str(workspace / "q.json"),
                "--out", str(workspace / "path.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "residual" in err

    def test_unknown_flag_exits_one(self, workspace, capsys):
        code = cli(["path", "--nonsense"])
        assert code == 1


class TestTrialsCommand:
    def test_exit_zero_and_report(self, workspace, capsys):
        report = workspace / "report.json"
        csv = workspace / "report.csv"
        code = cli(
            [
                "trials",
                "--descriptor", str(workspace / "d.json"),
                "--pairs", "30",
                "--seed", "7",
                "--strategy", "AllStrataGrid",
                "--report", str(report),
                "--csv", str(csv),
            ]
        )
        assert code == 0
        assert "errors=0 residual_escapes=0" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["bound_violations"] == 0
        assert len(data["records"]) == 30
        header, rows = read_csv(csv)
        assert len(rows) == 30

    def test_violations_exit_two(self, workspace, monkeypatch):
        import rankpath.cli as cli_module

        real_run = cli_module.run_trials

        def doctored(cfg):
            return dataclasses.replace(real_run(cfg), bound_violations=1)

        monkeypatch.setattr(cli_module, "run_trials", doctored)
        code = cli(
            [
                "trials",
                "--descriptor", str(workspace / "d.json"),
                "--pairs", "2",
                "--seed", "1",
                "--report", str(workspace / "r.json"),
            ]
        )
        assert code == 2

    def trials(self, workspace):
        return cli(
            [
                "trials",
                "--descriptor", str(workspace / "d.json"),
                "--pairs", "4",
                "--seed", "1",
                "--report", str(workspace / "r.json"),
            ]
        )

    def test_errors_exit_three(self, workspace, monkeypatch, capsys):
        import rankpath.harness as harness_module

        monkeypatch.setattr(harness_module, "build_path", failing_build)
        assert self.trials(workspace) == 3
        assert "errors=4 residual_escapes=0" in capsys.readouterr().out
        data = json.loads((workspace / "r.json").read_text())
        assert all(r["error"].startswith("RuntimeError") for r in data["records"])

    def test_residual_escapes_exit_three(self, workspace, monkeypatch, capsys):
        import rankpath.harness as harness_module

        real_build = harness_module.build_path

        def leaky(p, q, d):
            path, cert = real_build(p, q, d)
            return path, dataclasses.replace(cert, max_relative_residual=1e-3)

        monkeypatch.setattr(harness_module, "build_path", leaky)
        assert self.trials(workspace) == 3
        assert "errors=0 residual_escapes=4" in capsys.readouterr().out

    def test_violations_take_precedence(self, workspace, monkeypatch):
        import rankpath.cli as cli_module
        import rankpath.harness as harness_module

        real_run = cli_module.run_trials
        monkeypatch.setattr(harness_module, "build_path", failing_build)
        monkeypatch.setattr(
            cli_module,
            "run_trials",
            lambda cfg: dataclasses.replace(real_run(cfg), bound_violations=1),
        )
        assert self.trials(workspace) == 2

    def test_unreachable_schur_block_exits_three(self, workspace, monkeypatch, capsys):
        # a normal form whose leading eigenvalue sits below the floor, its
        # weight moved down the diagonal so the orthogonality test still
        # passes: the route raises, the trial records it and the run exits 3
        import rankpath.paths as paths_module

        real_normalize_pair = paths_module.normalize_pair

        def doctored(p, q):
            z, v, p_hat, q_hat, t = real_normalize_pair(p, q)
            t = t.copy()
            t[1, 1] += t[0, 0]
            t[0, 0] *= 1e-20
            return z, v, p_hat, q_hat, t

        monkeypatch.setattr(paths_module, "normalize_pair", doctored)
        assert self.trials(workspace) == 3
        assert "errors=1 residual_escapes=0" in capsys.readouterr().out
        data = json.loads((workspace / "r.json").read_text())
        errors = [r["error"] for r in data["records"] if "error" in r]
        assert len(errors) == 1 and "below the eigenvalue floor" in errors[0]

    def test_bitwise_deterministic(self, workspace):
        args = [
            "trials",
            "--descriptor", str(workspace / "d.json"),
            "--pairs", "12",
            "--seed", "3",
            "--report", "",
        ]
        first = workspace / "one.json"
        second = workspace / "two.json"
        args[-1] = str(first)
        assert cli(args) == 0
        args[-1] = str(second)
        assert cli(args) == 0
        assert first.read_bytes() == second.read_bytes()


class TestCuspCommand:
    def test_slope_from_csv(self, workspace):
        out = workspace / "cusp.csv"
        code = cli(
            [
                "cusp",
                "--s-min", "0.001",
                "--s-max", "0.1",
                "--steps", "20",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == "s,d_out,d_in,ratio"
        assert len(rows) == 20
        s = np.log([float(r[0]) for r in rows])
        ratio = np.log([float(r[3]) for r in rows])
        slope = np.polyfit(s, ratio, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


    def test_underflowing_chord_exits_one(self, workspace, capsys):
        # 2 s^3 underflows to 0 at s = 1e-110; the table refuses it
        code = cli(
            [
                "cusp",
                "--s-min", "1e-110",
                "--s-max", "1e-109",
                "--steps", "2",
                "--out", str(workspace / "c.csv"),
            ]
        )
        assert code == 1
        assert "underflows" in capsys.readouterr().err


class TestFamilyCommand:
    def test_shipped_example_runs_surface_demo(self, workspace):
        map_path = workspace / "family.poly"
        map_path.write_text(CUSP_FAMILY_TEXT)
        out = workspace / "family.csv"
        code = cli(
            [
                "family",
                "--map", str(map_path),
                "--t", "3",
                "--s-min", "0.001",
                "--s-max", "0.1",
                "--steps", "6",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == "s,d_out,d_in,ratio"
        assert len(rows) == 6

    def test_generic_map_needs_points(self, workspace, capsys):
        map_path = workspace / "other.poly"
        map_path.write_text("vars: x; rows:2; cols:2; [1,1]=x; [2,2]=x;")
        code = cli(
            ["family", "--map", str(map_path), "--t", "2", "--out", str(workspace / "f.csv")]
        )
        assert code == 1
        assert "--points" in capsys.readouterr().err

    def test_generic_map_residual_sampling(self, workspace):
        map_path = workspace / "other.poly"
        map_path.write_text("vars: x; rows:2; cols:2; [1,1]=x; [2,2]=x;")
        points = workspace / "points.json"
        points.write_text("[[0.0], [1.0], [2.0]]")
        out = workspace / "f.csv"
        code = cli(
            [
                "family",
                "--map", str(map_path),
                "--t", "2",
                "--points", str(points),
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == "index,residual"
        assert len(rows) == 3
        assert float(rows[0][1]) == 0.0  # the zero matrix is a member
        assert float(rows[1][1]) == pytest.approx(1.0)  # identity is full rank


class TestOracleCommand:
    def test_sandwich_report(self, workspace):
        out = workspace / "oracle.json"
        code = cli(
            [
                "oracle",
                "--descriptor", str(workspace / "d.json"),
                "--p", str(workspace / "p.json"),
                "--q", str(workspace / "q.json"),
                "--samples", "32",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["outer"] <= data["shortened"] + 1e-9
        assert data["shortened"] <= data["constructed"] + 1e-9
        graph = data["graph"]
        assert graph == "unreachable" or graph >= data["outer"] - 1e-9
        # the fixed edge tube and check count are recorded beside the options
        assert list(data["config"].items()) == [
            ("n_samples", 32),
            ("edge_membership_tol", 1e-6),
            ("midpoint_checks_per_edge", 3),
            ("shorten_iterations", 8),
            ("seed", 0),
        ]


class TestModuleEntryPoints:
    """``python -m rankpath`` and ``python -m rankpath.cli`` run the same
    command line as the ``rankpath`` script, in a fresh interpreter."""

    @staticmethod
    def run(module, args, cwd):
        src = str(Path(rankpath.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize("module", ["rankpath", "rankpath.cli"])
    def test_one_pair_trials_and_usage_error(self, workspace, module):
        report = workspace / f"{module}.json"
        args = ["trials", "--descriptor", "d.json", "--pairs", "1", "--seed", "1"]
        done = self.run(module, args + ["--report", report.name], workspace)
        assert done.returncode == 0, done.stderr
        assert "errors=0 residual_escapes=0" in done.stdout
        assert len(json.loads(report.read_text())["records"]) == 1
        assert self.run(module, args + ["--no-such-flag"], workspace).returncode == 1
