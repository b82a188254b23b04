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
    descriptor_from_json,
    descriptor_to_json,
    matrix_from_json,
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


def failing_builds(P, Q, d):
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

    def test_t_one_adversarial_run_exits_zero(self, workspace, capsys):
        write_json({"m": 3, "n": 3, "t": 1, "field": "complex"}, workspace / "d1.json")
        code = cli(
            [
                "trials",
                "--descriptor", str(workspace / "d1.json"),
                "--pairs", "6",
                "--seed", "1",
                "--strategy", "Adversarial",
                "--report", str(workspace / "r.json"),
            ]
        )
        assert code == 0
        assert "errors=0 residual_escapes=0" in capsys.readouterr().out

    def test_infinite_radius_refused_before_any_trial(self, workspace, monkeypatch, capsys):
        import rankpath.harness as harness_module

        monkeypatch.setattr(
            harness_module, "_sample_pair", lambda *args: pytest.fail("a trial ran")
        )
        report = workspace / "r.json"
        code = cli(
            [
                "trials",
                "--descriptor", str(workspace / "d.json"),
                "--pairs", "2",
                "--seed", "1",
                "--radius-max", "inf",
                "--report", str(report),
            ]
        )
        assert code == 1
        assert "radius_range" in capsys.readouterr().err
        assert not report.exists()

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

        monkeypatch.setattr(harness_module, "build_paths", failing_builds)
        assert self.trials(workspace) == 3
        assert "errors=4 residual_escapes=0" in capsys.readouterr().out
        data = json.loads((workspace / "r.json").read_text())
        assert all(r["error"].startswith("RuntimeError") for r in data["records"])

    def test_residual_escapes_exit_three(self, workspace, monkeypatch, capsys):
        import rankpath.harness as harness_module

        real_build = harness_module.build_paths

        def leaky(P, Q, d):
            return [
                (path, dataclasses.replace(cert, max_relative_residual=1e-3))
                for path, cert in real_build(P, Q, d)
            ]

        monkeypatch.setattr(harness_module, "build_paths", leaky)
        assert self.trials(workspace) == 3
        assert "errors=0 residual_escapes=4" in capsys.readouterr().out

    def test_violations_take_precedence(self, workspace, monkeypatch):
        import rankpath.cli as cli_module
        import rankpath.harness as harness_module

        real_run = cli_module.run_trials
        monkeypatch.setattr(harness_module, "build_paths", failing_builds)
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


    def test_chord_with_subnormal_square_runs(self, workspace):
        # (2 s^3)^2 is subnormal here; the chord 2 s^3 itself is a normal double
        out = workspace / "c.csv"
        code = cli(
            ["cusp", "--s-min", "1e-60", "--s-max", "1e-59", "--steps", "2", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        for s, d_out, d_in, ratio in ([float(x) for x in row] for row in rows):
            assert d_out == 2.0 * s**3
            assert ratio == pytest.approx(1.0 / s, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("s_min", ["8e-77", "1e-78", "1e-90"])
    def test_small_scales_hold_the_axis_bound(self, workspace, s_min):
        # s^4 is subnormal or 0 here; the rows need only s^2 and 2 s^3
        map_path = workspace / "family.poly"
        map_path.write_text(CUSP_FAMILY_TEXT)
        out = workspace / "tiny.csv"
        code = cli(
            [
                "family",
                "--map", str(map_path),
                "--s-min", s_min,
                "--s-max", "1e-70",
                "--steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        for s, d_out, d_in, ratio in ([float(x) for x in row] for row in rows):
            assert d_in == pytest.approx(2.0 * s * s, rel=1e-15, abs=0)
            assert ratio == pytest.approx(1.0 / s, rel=1e-15, abs=0)

    def test_underflowing_chord_exits_one(self, workspace, capsys):
        # 2 s^3 underflows at s = 1e-110, as in the cusp table
        map_path = workspace / "family.poly"
        map_path.write_text(CUSP_FAMILY_TEXT)
        code = cli(
            [
                "family",
                "--map", str(map_path),
                "--s-min", "1e-110",
                "--s-max", "1e-109",
                "--steps", "2",
                "--out", str(workspace / "tiny.csv"),
            ]
        )
        assert code == 1
        assert "underflows" in capsys.readouterr().err
        assert not (workspace / "tiny.csv").exists()

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


class TestMalformedInput:
    """Malformed JSON and grid input exits 1 with one ``error:`` line naming
    what is wrong, and writes no output file."""

    @staticmethod
    def assert_refused(code, capsys, out, fragment):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert not out.exists()

    def run_path(self, workspace, descriptor="d.json", p="p.json"):
        out = workspace / "path.json"
        code = cli(
            [
                "path",
                "--descriptor", str(workspace / descriptor),
                "--p", str(workspace / p),
                "--q", str(workspace / "q.json"),
                "--out", str(out),
            ]
        )
        return code, out

    @pytest.mark.parametrize(
        "descriptor, fragment",
        [
            ([1, 2], "JSON object"),
            ({"m": 3, "t": 2, "field": "complex"}, "'n'"),
            ({"m": 2.7, "n": 3, "t": 2, "field": "complex"}, "'m'"),
            ({"m": 3, "n": True, "t": 2, "field": "complex"}, "'n'"),
            ({"m": 3, "n": 3, "t": "2", "field": "complex"}, "'t'"),
        ],
        ids=["not-an-object", "missing-n", "float-m", "bool-n", "string-t"],
    )
    def test_malformed_descriptor(self, workspace, capsys, descriptor, fragment):
        (workspace / "bad.json").write_text(json.dumps(descriptor))
        code, out = self.run_path(workspace, descriptor="bad.json")
        self.assert_refused(code, capsys, out, fragment)

    @pytest.mark.parametrize(
        "matrix, fragment",
        [
            ("3x3", "JSON object"),
            ({"m": 3, "field": "complex", "entries": []}, "'n'"),
            ({"m": 2, "n": 2, "field": "complex", "entries": [1, 2, 3, 4]}, "'entries'[0]"),
            ({"m": 1, "n": 2, "field": "complex", "entries": [[1, 0], [1, "0"]]}, "'entries'[1]"),
            ({"m": 1, "n": 2, "field": "complex", "entries": [[1, 0], [1, 0, 0]]}, "'entries'[1]"),
            ({"m": 1, "n": 2, "field": "real", "entries": [0, "1"]}, "'entries'[1]"),
            ({"m": 1, "n": 2, "field": "real", "entries": [True, 1]}, "'entries'[0]"),
            ({"m": 1, "n": 2, "field": "real", "entries": [1, 10**400]}, "'entries'[1]"),
            ({"m": 1, "n": 1, "field": "complex", "entries": [[0, -(10**400)]]}, "'entries'[0]"),
        ],
        ids=[
            "not-an-object",
            "missing-n",
            "complex-as-reals",
            "complex-string-part",
            "complex-triple",
            "real-string",
            "real-bool",
            "real-huge-int",
            "complex-huge-int",
        ],
    )
    def test_malformed_matrix(self, workspace, capsys, matrix, fragment):
        (workspace / "bad.json").write_text(json.dumps(matrix))
        code, out = self.run_path(workspace, p="bad.json")
        self.assert_refused(code, capsys, out, fragment)

    @pytest.mark.parametrize(
        "points, fragment",
        [
            ({"0": [1, 2]}, "JSON list"),
            ([[1, 2], ["1", "2"]], "point 1"),
            ([[True, 2]], "point 0"),
            ([1, 2], "point 0"),
            ([[0, 1], [10**400, 1]], "point 1"),
        ],
        ids=["not-a-list", "strings", "bool", "bare-numbers", "huge-int"],
    )
    def test_malformed_points(self, workspace, capsys, points, fragment):
        map_path = workspace / "user.poly"
        map_path.write_text("vars: x,y; rows:2; cols:2; [1,1]=x; [2,2]=y;")
        (workspace / "points.json").write_text(json.dumps(points))
        out = workspace / "f.csv"
        code = cli(
            [
                "family",
                "--map", str(map_path),
                "--t", "2",
                "--points", str(workspace / "points.json"),
                "--out", str(out),
            ]
        )
        self.assert_refused(code, capsys, out, fragment)

    def test_overflowing_point(self, workspace, capsys):
        # x^2 overflows a double at x = 1e300: the point is refused by its
        # index, without a numpy warning and without a CSV
        map_path = workspace / "user.poly"
        map_path.write_text(
            "vars: x,y; rows: 2; cols: 2; [1,1] = x^2; [1,2] = y; [2,1] = y; [2,2] = x;"
        )
        (workspace / "points.json").write_text(json.dumps([[0.5, 1], [1e300, 1]]))
        out = workspace / "f.csv"
        code = cli(
            [
                "family",
                "--map", str(map_path),
                "--t", "2",
                "--points", str(workspace / "points.json"),
                "--out", str(out),
            ]
        )
        self.assert_refused(code, capsys, out, "point 1: the map's value at [1e+300, 1] overflows")

    def test_oracle_huge_int_entry(self, workspace, capsys):
        (workspace / "bad.json").write_text(
            json.dumps({"m": 1, "n": 2, "field": "real", "entries": [10**400, 0]})
        )
        out = workspace / "oracle.json"
        code = cli(
            [
                "oracle",
                "--descriptor", str(workspace / "d.json"),
                "--p", str(workspace / "bad.json"),
                "--q", str(workspace / "q.json"),
                "--out", str(out),
            ]
        )
        self.assert_refused(code, capsys, out, "'entries'[0]")

    def test_cusp_zero_steps(self, workspace, capsys):
        out = workspace / "cusp.csv"
        code = cli(["cusp", "--s-min", "0.01", "--s-max", "0.1", "--steps", "0", "--out", str(out)])
        self.assert_refused(code, capsys, out, "steps")

    def test_family_zero_steps(self, workspace, capsys):
        map_path = workspace / "family.poly"
        map_path.write_text(CUSP_FAMILY_TEXT)
        out = workspace / "family.csv"
        code = cli(["family", "--map", str(map_path), "--steps", "0", "--out", str(out)])
        self.assert_refused(code, capsys, out, "steps")

    @pytest.mark.parametrize("command", ["path", "oracle"])
    def test_overflowing_length(self, workspace, capsys, command):
        # p = 1e308 E_11 and q = 1e308 E_22 are orthogonal: their distance is
        # finite, but the route through 0 is 2e308 long
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        write_json(descriptor_to_json(d), workspace / "d43.json")
        for name, i in (("big-p.json", 0), ("big-q.json", 1)):
            point = np.zeros(d.shape)
            point[i, i] = 1e308
            write_json(matrix_to_json(point), workspace / name)
        out = workspace / "overflow.json"
        code = cli(
            [
                command,
                "--descriptor", str(workspace / "d43.json"),
                "--p", str(workspace / "big-p.json"),
                "--q", str(workspace / "big-q.json"),
                "--out", str(out),
            ]
        )
        self.assert_refused(code, capsys, out, "beyond the double range")

    def test_written_matrices_read_back(self, workspace):
        for field in ScalarField:
            d = VarietyDescriptor(3, 4, 2, field)
            a = sample_stratum(d, 1, 1.0, 7)
            write_json(matrix_to_json(a), workspace / "a.json")
            back = matrix_from_json(json.loads((workspace / "a.json").read_text()))
            assert back.dtype == a.dtype and np.array_equal(back, a)
            write_json(descriptor_to_json(d), workspace / "d.json")
            assert descriptor_from_json(json.loads((workspace / "d.json").read_text())) == d


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
