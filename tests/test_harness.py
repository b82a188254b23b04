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
    sample_stratum,
)
from rankpath import harness
from rankpath.harness import (
    CSV_HEADER,
    report_from_json,
    report_to_json,
    trial_config_from_json,
    trial_config_to_json,
)
from rankpath.serialize import dumps, write_json

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


    def test_ranks_come_from_the_endpoint_svd(self, monkeypatch):
        # build_path reads both ranks off its endpoint SVD, here the range
        # sketch, so no trial takes an SVD of a full 200 x 150 matrix
        d = VarietyDescriptor(200, 150, 4, ScalarField.REAL)
        shapes = []
        real_svd = np.linalg.svd

        def recording_svd(*args, **kwargs):
            shapes.append(np.shape(args[0]))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        report = run_trials(TrialConfig(d, 16, 4, RankPairStrategy.ALL_STRATA_GRID))
        assert report.errors == 0 and report.residual_escapes == 0
        grid = [(rp, rq) for rp in range(d.t) for rq in range(d.t)]
        assert [(r.rank_p, r.rank_q) for r in report.records] == grid
        assert all(shape[-2:] != d.shape for shape in shapes)

    @pytest.mark.parametrize(
        "d",
        [
            VarietyDescriptor(5, 5, 4, ScalarField.REAL),
            VarietyDescriptor(6, 6, 6, ScalarField.COMPLEX),
        ],
    )
    def test_antipodal_pairs_count_no_escape(self, d, monkeypatch):
        # p to -p runs through 0 along p's ray; at even t >= 4 its certificate
        # used to read up to 0.1 and count as a residual escape
        def antipodal_pair(d, seed, index, radius_range):
            p = sample_stratum(d, d.max_rank, 1.0, mix_seed(seed, index))
            return p, -p

        monkeypatch.setattr(harness, "adversarial_pair", antipodal_pair)
        report = run_trials(TrialConfig(d, 10, 3, RankPairStrategy.ADVERSARIAL))
        assert report.errors == 0
        assert report.residual_escapes == 0
        assert max(r.max_residual for r in report.records) <= 1e-12


class TestBlockedTrials:
    """``run_trials`` samples every pair on its own and builds them in blocks
    of ``build_paths``: records keep their order and their own errors,
    whatever the block size."""

    def test_records_do_not_depend_on_the_block(self, monkeypatch):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        cfg = TrialConfig(d, 18, 5, RankPairStrategy.ADVERSARIAL)
        whole = run_trials(cfg)
        blocks = []
        real_build = harness.build_paths

        def recording(P, Q, d):
            blocks.append(len(P))
            return real_build(P, Q, d)

        monkeypatch.setattr(harness, "build_paths", recording)
        # entries for 4 paths of at most 2t + 1 = 7 breakpoints of 16 entries
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 4 * 7 * 16)
        assert run_trials(cfg) == whole
        assert blocks == [4, 4, 4, 4, 2]

    def test_a_failed_sample_is_recorded_in_its_place(self, monkeypatch):
        real_sample = harness._sample_pair

        def sample(cfg, index, rng):
            if index % 4 == 1:
                raise OverflowError("radius out of range")
            return real_sample(cfg, index, rng)

        monkeypatch.setattr(harness, "_sample_pair", sample)
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 3 * 5 * 9)
        report = run_trials(TrialConfig(D332, 10, 2))
        errors = [i for i, r in enumerate(report.records) if r.error is not None]
        assert errors == [1, 5, 9]
        assert all(report.records[i].error == "OverflowError: radius out of range" for i in errors)
        assert [r.seed for r in report.records] == [mix_seed(2, i) for i in range(10)]
        assert report.errors == 3 and report.residual_escapes == 0


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

    def test_trials_draw_from_the_radius_range(self):
        # with radii from (0.5, 2) every outer distance would stay below 4
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        cfg = TrialConfig(d, 12, 3, RankPairStrategy.ADVERSARIAL, radius_range=(50.0, 100.0))
        assert max(r.outer for r in run_trials(cfg).records) > 50.0
        for index in range(12):
            p, _ = harness.adversarial_pair(d, 3, index, (50.0, 100.0))
            assert 50.0 * (1 - 1e-12) <= frobenius_norm(p) <= 100.0 * (1 + 1e-12)

    @pytest.mark.parametrize("radius", [1e200, 1e300])
    @pytest.mark.parametrize("field", list(ScalarField))
    def test_extreme_radii_raise_no_warning(self, radius, field):
        # the squares of these entries overflow: every norm rescales, and no
        # RuntimeWarning leaks (the suite's filter turns one into an error).
        # Each of the six kinds is drawn, at its radius, and built
        d = VarietyDescriptor(8, 8, 5, field)
        for index in range(6):
            p, q = harness.adversarial_pair(d, 1, index, (radius, 2.0 * radius))
            with np.errstate(over="ignore"):  # only the draws must run silently
                assert radius * (1 - 1e-12) <= frobenius_norm(p) <= 2.0 * radius * (1 + 1e-12)
                assert np.isfinite(frobenius_norm(q))
        report = run_trials(TrialConfig(d, 12, 1, RankPairStrategy.ADVERSARIAL, (radius, radius)))
        assert report.errors == report.residual_escapes == report.bound_violations == 0

    @pytest.mark.parametrize("shape", [(3, 3), (1, 4)])
    @pytest.mark.parametrize("field", list(ScalarField))
    def test_t_one_variety_gives_zero_pairs(self, shape, field):
        # {rank < 1} is {0}: every kind of the cycle is the pair (0, 0), and a
        # run of all six exits clean, with no RuntimeWarning (the suite's
        # filter turns one into an error)
        d = VarietyDescriptor(*shape, 1, field)
        for p, q in adversarial_pairs(d, seed=1, count=6):
            assert p.shape == q.shape == shape and p.dtype == q.dtype == field.dtype
            assert not p.any() and not q.any()
        report = run_trials(TrialConfig(d, 6, 1, RankPairStrategy.ADVERSARIAL))
        assert report.errors == report.residual_escapes == report.bound_violations == 0

    @pytest.mark.parametrize(
        "radius_range", [(0.5, math.inf), (math.inf, math.inf), (0.5, math.nan), (math.nan, 2.0)]
    )
    def test_radius_range_must_be_finite(self, radius_range, monkeypatch):
        # refused before any trial runs: an infinite radius would only fill
        # the report with OverflowErrors that JSON cannot hold
        monkeypatch.setattr(harness, "_sample_pair", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="radius_range"):
            run_trials(TrialConfig(D332, 2, 1, radius_range=radius_range))

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

    @pytest.mark.parametrize("exists", [False, True])
    def test_refused_value_leaves_the_file_alone(self, tmp_path, exists):
        # a value JSON cannot hold raises before the file is opened: it is
        # neither created nor emptied
        out = tmp_path / "report.json"
        if exists:
            out.write_text("kept\n")
        with pytest.raises(ValueError, match="not representable"):
            write_json({"outer": 1.0, "ratio": math.inf}, out)
        assert out.read_text() == "kept\n" if exists else not out.exists()

    @pytest.mark.parametrize("value", [7.0, -0.0, 0.5, 1e300, 7])
    def test_numbers_read_back_with_their_type(self, value):
        back = json.loads(dumps(value))
        assert back == value and type(back) is type(value)
        assert math.copysign(1.0, back) == math.copysign(1.0, value)

    @pytest.mark.parametrize(
        "text", ["plain", "café", 'say "hi"', "a\\b", "two\nlines", "a\tb", "x\ry", "\x01"]
    )
    def test_strings_and_keys_read_back(self, text):
        # control characters are escaped, in values and in object keys alike
        assert json.loads(dumps(text)) == text
        assert json.loads(dumps({text: [text]})) == {text: [text]}
        if text.isprintable() or text == "two\nlines":
            # the text the hand-written escaping wrote for it
            escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            assert dumps(text) == f'"{escaped}"'

    def test_errors_and_escapes_round_trip(self, tmp_path, monkeypatch):
        import rankpath.harness as harness_module

        real_build = harness_module.build_paths
        calls = []

        def flaky(P, Q, d):
            # every third pair fails, and the one after each inflates its residual
            results = []
            for path_and_cert in real_build(P, Q, d):
                calls.append(None)
                if len(calls) % 3 == 0:
                    results.append(RuntimeError("construction failed"))
                    continue
                path, cert = path_and_cert
                if len(calls) % 3 == 1:
                    cert = dataclasses.replace(cert, max_relative_residual=1e-3)
                results.append((path, cert))
            return results

        monkeypatch.setattr(harness_module, "build_paths", flaky)
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

