import dataclasses
import json
import math

import numpy as np
import pytest

from rankpath import (
    DEFAULT_MEMBERSHIP_TOL,
    BranchKind,
    RankPairStrategy,
    ScalarField,
    TrialConfig,
    VarietyDescriptor,
    adversarial_pairs,
    build_path,
    emit_report,
    frobenius_inner,
    frobenius_norm,
    mix_seed,
    run_trials,
)
from rankpath.harness import (
    CSV_HEADER,
    report_from_json,
    report_to_json,
    trial_config_from_json,
    trial_config_to_json,
)
from rankpath.serialize import dumps

D332 = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)


class TestSeedMix:
    def test_avalanche_spreads(self):
        seeds = {mix_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_position_determined(self):
        assert mix_seed(42, 7) == mix_seed(42, 7)
        assert mix_seed(42, 7) != mix_seed(42, 8)
        assert mix_seed(42, 7) != mix_seed(43, 7)


class TestRunTrials:
    def test_grid_strategy_bounds(self):
        cfg = TrialConfig(D332, pairs=40, master_seed=5)
        report = run_trials(cfg)
        assert len(report.records) == 40
        assert report.bound_violations == 0
        assert report.max_ratio <= 2 * D332.t - 2 + 1e-6
        assert all(r.max_residual <= 1e-8 for r in report.records)

    def test_coincident_adversarial_first(self):
        cfg = TrialConfig(
            D332, pairs=1, master_seed=9, rank_pair_strategy=RankPairStrategy.ADVERSARIAL
        )
        report = run_trials(cfg)
        assert report.records[0].ratio == pytest.approx(1.0)
        assert report.records[0].outer == 0.0

    def test_deterministic_repeat(self):
        cfg = TrialConfig(D332, pairs=25, master_seed=3)
        assert report_to_json(run_trials(cfg)) == report_to_json(run_trials(cfg))

    def test_top_stratum_strategy(self):
        cfg = TrialConfig(
            D332,
            pairs=10,
            master_seed=1,
            rank_pair_strategy=RankPairStrategy.TOP_STRATUM_ONLY,
        )
        report = run_trials(cfg)
        assert all(r.rank_p == r.rank_q == D332.t - 1 for r in report.records)

    def test_real_field_fallbacks_never_violate(self):
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        report = run_trials(TrialConfig(d, pairs=60, master_seed=17))
        assert report.bound_violations == 0
        for r in report.records:
            assert r.error is None
            assert r.ratio <= r.certified_bound + 1e-9
            assert r.certified_bound in (1.0, 2.0, 2.0 * min(r.rank_p, r.rank_q))


class TestAdversarialPairs:
    def test_scaled_pair_ratio_one(self):
        pairs = adversarial_pairs(D332, seed=2, count=6)
        p, q = pairs[3]  # cycle slot for scaled pairs
        lam = q.reshape(-1)[np.argmax(np.abs(p))] / p.reshape(-1)[np.argmax(np.abs(p))]
        np.testing.assert_allclose(q, lam * p, atol=1e-12)
        _, cert = build_path(p, q, D332)
        assert cert.ratio == pytest.approx(1.0, abs=1e-9)

    def test_near_coincident_pair_certified(self):
        p, q = adversarial_pairs(D332, seed=2, count=6)[1]
        assert frobenius_norm(p - q) <= 1e-5 * frobenius_norm(p)
        _, cert = build_path(p, q, D332)
        assert cert.ratio <= cert.certified_bound + 1e-9

    def test_near_orthogonal_takes_two_leg_route(self):
        p, q = adversarial_pairs(D332, seed=2, count=6)[2]
        rel = abs(frobenius_inner(p, q)) / (frobenius_norm(p) * frobenius_norm(q))
        assert rel <= 1e-8
        _, cert = build_path(p, q, D332)
        assert cert.branch_trace[0].kind is BranchKind.ORTHOGONAL
        assert cert.ratio <= 2.0

    def test_tiny_inner_product_takes_general_branch(self):
        p, q = adversarial_pairs(D332, seed=2, count=6)[5]
        rel = abs(frobenius_inner(p, q)) / (frobenius_norm(p) * frobenius_norm(q))
        assert 1e-8 < rel < 1e-6
        _, cert = build_path(p, q, D332)
        assert cert.branch_trace[0].kind is BranchKind.GENERAL
        assert cert.ratio <= 2.0 * min(1, D332.t - 1) * 1.0 + 1e-9
        assert cert.max_relative_residual <= 1e-8

    def test_cross_strata_ranks_differ(self):
        d = VarietyDescriptor(4, 4, 4, ScalarField.COMPLEX)
        p, q = adversarial_pairs(d, seed=2, count=6)[4]
        from rankpath import rank_of

        assert rank_of(p, d) != rank_of(q, d)


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = run_trials(TrialConfig(D332, pairs=8, master_seed=2))
        out = tmp_path / "report.json"
        emit_report(report, "JSON", out)
        text = out.read_text()
        assert text.endswith("\n")
        assert report_from_json(json.loads(text)) == report
        # integral floats, such as every bound 2(t-1), read back as floats
        assert all(type(r["certified_bound"]) is float for r in json.loads(text)["records"])

    @pytest.mark.parametrize("value", [7.0, -0.0, 0.5, 1e300, 7])
    def test_numbers_read_back_with_their_type(self, value):
        back = json.loads(dumps(value))
        assert back == value and type(back) is type(value)
        assert math.copysign(1.0, back) == math.copysign(1.0, value)

    def test_errors_and_escapes_round_trip(self, tmp_path, monkeypatch):
        import rankpath.harness as harness_module

        real_build = harness_module.build_path
        calls = []

        def flaky(p, q, d):
            calls.append(None)
            if len(calls) % 3 == 0:
                raise RuntimeError("construction failed")
            path, cert = real_build(p, q, d)
            if len(calls) % 3 == 1:
                cert = dataclasses.replace(cert, max_relative_residual=1e-3)
            return path, cert

        monkeypatch.setattr(harness_module, "build_path", flaky)
        report = run_trials(TrialConfig(D332, pairs=9, master_seed=2))
        assert (report.errors, report.residual_escapes) == (3, 3)
        out = tmp_path / "report.json"
        emit_report(report, "JSON", out)
        data = json.loads(out.read_text())
        assert (data["errors"], data["residual_escapes"]) == (3, 3)
        back = report_from_json(data)
        assert (back.errors, back.residual_escapes) == (3, 3)
        assert report_to_json(back) == report_to_json(report)

    def test_membership_tol_recorded_and_optional_on_read(self, tmp_path):
        report = run_trials(TrialConfig(D332, pairs=4, master_seed=2))
        out = tmp_path / "report.json"
        emit_report(report, "JSON", out)
        data = json.loads(out.read_text())
        assert data["membership_tol"] == DEFAULT_MEMBERSHIP_TOL
        assert list(data)[-1] == "membership_tol"
        assert report_from_json(data) == report
        del data["membership_tol"]
        assert report_from_json(data) == report
        assert report_to_json(report_from_json(data)) == report_to_json(report)

    def test_csv_row_count_and_header(self, tmp_path):
        report = run_trials(TrialConfig(D332, pairs=9, master_seed=2))
        out = tmp_path / "report.csv"
        emit_report(report, "CSV", out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 9

    def test_empty_records_valid(self, tmp_path):
        report = run_trials(TrialConfig(D332, pairs=1, master_seed=2))
        empty = report.__class__(
            config=report.config,
            records=(),
            max_ratio=0.0,
            bound_violations=0,
            errors=0,
            residual_escapes=0,
        )
        json_path = tmp_path / "empty.json"
        csv_path = tmp_path / "empty.csv"
        emit_report(empty, "JSON", json_path)
        emit_report(empty, "CSV", csv_path)
        assert json.loads(json_path.read_text())["records"] == []
        assert csv_path.read_text() == CSV_HEADER + "\n"

    def test_config_json_round_trip(self):
        cfg = TrialConfig(
            D332,
            pairs=5,
            master_seed=11,
            rank_pair_strategy=RankPairStrategy.ADVERSARIAL,
            radius_range=(0.25, 3.0),
        )
        assert trial_config_from_json(trial_config_to_json(cfg)) == cfg

