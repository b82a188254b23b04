"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion alongside the pytest verdicts.
"""

import itertools
import json
import math
import time

import numpy as np

from rankpath import (
    BranchKind,
    OracleConfig,
    ScalarField,
    TrialConfig,
    VarietyDescriptor,
    build_path,
    circle_builder,
    cone_builder,
    cusp_ratio_table,
    emit_report,
    fit_loglog_slope,
    flat_builder,
    frobenius_inner,
    product_builder,
    rank_of,
    run_trials,
    sample_stratum,
    sandwich,
    shorten,
    surface_demo,
    variety_builder,
)
from rankpath.cli import cli
from rankpath.serialize import descriptor_to_json, write_json
from conftest import random_member, random_unitary


def report_line(tag, detail):
    print(f"\nPASS {tag}: {detail}")


def complex_descriptors():
    for m, n in itertools.product(range(2, 6), repeat=2):
        for t in range(2, min(m, n) + 1):
            yield VarietyDescriptor(m, n, t, ScalarField.COMPLEX)


def test_criterion_1_variety_constant_sweep():
    started = time.monotonic()
    worst_margin = 0.0
    worst_residual = 0.0
    total_violations = 0
    count = 0
    for d in complex_descriptors():
        report = run_trials(TrialConfig(d, pairs=200, master_seed=20_240_817))
        assert not any(r.error for r in report.records)
        total_violations += report.bound_violations
        assert report.bound_violations == 0, f"bound violation on {d}"
        assert report.max_ratio <= 2 * d.t - 2 + 1e-6, f"ratio escape on {d}"
        residual = max(r.max_residual for r in report.records)
        assert residual <= 1e-8, f"residual escape on {d}"
        worst_margin = max(worst_margin, report.max_ratio - (2 * d.t - 2))
        worst_residual = max(worst_residual, residual)
        count += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report_line(
        "criterion-1 variety constant",
        f"{count} complex descriptors x 200 pairs: 0 violations, "
        f"max ratio-(2t-2) margin {worst_margin:.3e}, "
        f"max residual {worst_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_branch_bounds():
    rng = np.random.default_rng(11)
    # radial pairs: inner equals outer exactly
    for _ in range(50):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        p = random_member(d, rng)
        _, cert = build_path(p, np.zeros(d.shape, dtype=complex), d)
        assert abs(cert.ratio - 1.0) <= 1e-12

    # exactly orthogonal pairs (disjoint supports): two-leg route under 2
    worst_orth = 0.0
    for _ in range(50):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        p = np.zeros(d.shape, dtype=complex)
        q = np.zeros(d.shape, dtype=complex)
        p[:2, :2] = sample_stratum(
            VarietyDescriptor(2, 2, 2, ScalarField.COMPLEX),
            1,
            float(rng.uniform(0.5, 2.0)),
            int(rng.integers(2**62)),
        )
        q[2:, 2:] = sample_stratum(
            VarietyDescriptor(2, 2, 2, ScalarField.COMPLEX),
            1,
            float(rng.uniform(0.5, 2.0)),
            int(rng.integers(2**62)),
        )
        assert frobenius_inner(p, q) == 0.0
        _, cert = build_path(p, q, d)
        assert cert.ratio <= 2.0 + 1e-9
        worst_orth = max(worst_orth, cert.ratio)

    # general branch: ratio under twice the smaller rank
    checked = 0
    for _ in range(100):
        d = VarietyDescriptor(5, 5, 4, ScalarField.COMPLEX)
        p = random_member(d, rng)
        q = random_member(d, rng)
        _, cert = build_path(p, q, d)
        if cert.branch_trace and cert.branch_trace[0].kind is BranchKind.GENERAL:
            checked += 1
            bound = 2.0 * min(rank_of(p, d), rank_of(q, d))
            assert cert.ratio <= bound + 1e-9
    assert checked >= 50
    report_line(
        "criterion-2 branch bounds",
        f"radial ratio=1 exactly (50 pairs), orthogonal max ratio {worst_orth:.4f} <= 2, "
        f"{checked} general-branch certificates under 2*min-rank",
    )


def test_criterion_3_worked_pair():
    d = VarietyDescriptor(2, 2, 2, ScalarField.REAL)
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    path, cert = build_path(p, q, d)
    assert abs(cert.length - 2.0) <= 1e-10
    assert abs(cert.outer_distance - math.sqrt(2.0)) <= 1e-10
    assert abs(cert.ratio - math.sqrt(2.0)) <= 1e-10
    assert [str(tag) for tag in cert.branch_trace] == ["General(0)"]
    assert len(path.breakpoints) == 3
    assert np.allclose(path.breakpoints[1], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    # independent estimates: both must stay in the [outer, two-radial-legs]
    # bracket that also contains the constructed length
    from rankpath import graph_upper_bound

    graph = graph_upper_bound(p, q, d, OracleConfig(n_samples=48, seed=1))
    assert math.sqrt(2.0) - 1e-9 <= graph <= 2.0 * math.sqrt(2.0) + 1e-6
    shortened = shorten(path, d, OracleConfig(n_samples=8, seed=1)).length()
    assert math.sqrt(2.0) - 1e-9 <= shortened <= cert.length + 1e-9
    report_line(
        "criterion-3 worked pair",
        f"length {cert.length}, outer {cert.outer_distance:.12f}, trace "
        f"{[str(t) for t in cert.branch_trace]}, graph {graph:.6f}, "
        f"shortened {shortened:.6f}",
    )


def test_criterion_4_combinators():
    rng = np.random.default_rng(23)
    d = VarietyDescriptor(2, 2, 2, ScalarField.COMPLEX)
    factor = flat_builder(variety_builder(d), d.shape)
    product = product_builder(factor, factor)
    worst_product = 0.0
    for _ in range(500):
        z1 = np.concatenate(
            [random_member(d, rng, 1).reshape(-1), random_member(d, rng, 1).reshape(-1)]
        )
        z2 = np.concatenate(
            [random_member(d, rng, 1).reshape(-1), random_member(d, rng, 1).reshape(-1)]
        )
        _, cert = product.build(z1, z2)
        assert cert.ratio <= 4.0 + 1e-9
        worst_product = max(worst_product, cert.ratio)

    cone = cone_builder(circle_builder())
    worst_cone = 0.0
    for _ in range(500):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=2)
        radii = rng.uniform(0.05, 2.0, size=2)
        x = radii[0] * np.array([np.cos(theta[0]), np.sin(theta[0])])
        y = radii[1] * np.array([np.cos(theta[1]), np.sin(theta[1])])
        _, cert = cone.build(x, y)
        assert cert.ratio <= np.pi / 2.0 + 1.0 + 1e-9
        worst_cone = max(worst_cone, cert.ratio)
    report_line(
        "criterion-4 combinators",
        f"500 product ratios <= 4 (max {worst_product:.4f}); "
        f"500 cone ratios <= pi/2+1 (max {worst_cone:.4f})",
    )


def test_criterion_5_counterexample_divergence():
    started = time.monotonic()
    cusp_rows = cusp_ratio_table(np.geomspace(1e-3, 1e-1, 20))
    ratios = [row.ratio for row in cusp_rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), "ratio not monotone in s"
    cusp_slope = fit_loglog_slope(cusp_rows)
    assert abs(cusp_slope + 1.0) <= 0.05

    surface_rows = surface_demo(np.geomspace(1e-3, 1e-1, 8))
    surface_slope = fit_loglog_slope(surface_rows)
    assert -1.3 <= surface_slope <= -0.7
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report_line(
        "criterion-5 divergence",
        f"cusp slope {cusp_slope:.4f} (monotone, 20 points), "
        f"surface slope {surface_slope:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_oracle_sandwich():
    rng = np.random.default_rng(31)
    d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
    cfg = OracleConfig(n_samples=16, seed=5, shorten_iterations=6)
    for _ in range(100):
        p = random_member(d, rng, 1)
        q = random_member(d, rng, 1)
        result = sandwich(p, q, d, cfg)
        assert result.outer <= result.shortened + 1e-9
        assert result.shortened <= result.constructed + 1e-9

    # length is non-increasing round over round
    p = random_member(d, rng, 1)
    q = random_member(d, rng, 1)
    path, _ = build_path(p, q, d)
    lengths = [path.length()]
    for rounds in range(1, 5):
        out = shorten(path, d, OracleConfig(n_samples=16, seed=5, shorten_iterations=rounds))
        lengths.append(out.length())
    assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))
    report_line(
        "criterion-6 sandwich",
        "100 pairs: outer <= shortened <= constructed (1e-9); "
        f"shorten monotone {['%.6f' % v for v in lengths]}",
    )


def test_criterion_7_equivariance():
    rng = np.random.default_rng(41)
    d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
    u = random_unitary(4, rng, ScalarField.COMPLEX)
    v = random_unitary(4, rng, ScalarField.COMPLEX)
    worst_scale = 0.0
    worst_unitary = 0.0
    for _ in range(100):
        p = random_member(d, rng)
        q = random_member(d, rng)
        _, base = build_path(p, q, d)
        for lam in (0.5, 2.0, 10.0):
            _, scaled = build_path(lam * p, lam * q, d)
            assert [t.kind for t in scaled.branch_trace] == [
                t.kind for t in base.branch_trace
            ]
            if base.length > 0:
                worst_scale = max(
                    worst_scale, abs(scaled.length - lam * base.length) / (lam * base.length)
                )
        _, moved = build_path(u @ p @ v, u @ q @ v, d)
        worst_unitary = max(worst_unitary, abs(moved.ratio - base.ratio))
    assert worst_scale <= 1e-9
    assert worst_unitary <= 1e-8
    report_line(
        "criterion-7 equivariance",
        f"100 pairs: scale-length deviation {worst_scale:.2e} (<=1e-9), "
        f"unitary ratio deviation {worst_unitary:.2e} (<=1e-8)",
    )


def test_criterion_8_real_field_honesty(tmp_path):
    # every real record is certified: complex-conjugate eigenvalue pairs take
    # a RealBlock step, which keeps the bound 2 * min rank
    summaries = []
    for m, n, t in ((3, 3, 2), (4, 4, 3), (5, 4, 3)):
        d = VarietyDescriptor(m, n, t, ScalarField.REAL)
        report = run_trials(TrialConfig(d, pairs=120, master_seed=77))
        for record in report.records:
            assert record.error is None
            assert record.max_residual <= 1e-8
            assert record.ratio <= record.certified_bound + 1e-9
            min_rank = min(record.rank_p, record.rank_q)
            assert record.certified_bound in (1.0, 2.0, 2.0 * min_rank)
        blocks = sum(
            any(tag.kind is BranchKind.REAL_BLOCK for tag in record.branch_trace)
            for record in report.records
        )
        summaries.append((m, n, t, blocks))
    # 4x4 t=3 and 5x4 t=3 reach a 2 x 2 Schur block; 3x3 t=2 has rank-1 pairs only
    assert all(blocks > 0 for m, n, t, blocks in summaries if t == 3)

    d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
    write_json(descriptor_to_json(d), tmp_path / "d.json")
    code = cli(
        [
            "trials",
            "--descriptor", str(tmp_path / "d.json"),
            "--pairs", "120",
            "--seed", "77",
            "--report", str(tmp_path / "real.json"),
        ]
    )
    assert code == 0
    emitted = json.loads((tmp_path / "real.json").read_text())
    assert emitted["bound_violations"] == 0
    assert emitted["errors"] == emitted["residual_escapes"] == 0
    report_line(
        "criterion-8 real-field honesty",
        f"every record certified; RealBlock routes {summaries}, trials exit 0",
    )


def test_criterion_9_determinism(tmp_path):
    d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
    cfg = TrialConfig(d, pairs=60, master_seed=99)
    emit_report(run_trials(cfg), "JSON", tmp_path / "a.json")
    emit_report(run_trials(cfg), "JSON", tmp_path / "b.json")
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    report_line("criterion-9 determinism", f"two runs byte-identical: {len(a)} bytes")
