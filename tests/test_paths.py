import itertools

import numpy as np
import pytest

from rankpath import (
    BranchConditionError,
    BranchKind,
    DimensionMismatch,
    MembershipError,
    PiecewisePath,
    ScalarField,
    VarietyDescriptor,
    build_path,
    certify,
    conjugate_path,
    frobenius_distance,
    frobenius_inner,
    general_path,
    make_unitary_pair,
    normalize_pair,
    orthogonal_path,
    radial_path,
    rank_of,
    sample_stratum,
)
from conftest import random_member, random_unitary

D22 = VarietyDescriptor(2, 2, 2, ScalarField.REAL)
WORKED_P = np.array([[1.0, 1.0], [0.0, 0.0]])
WORKED_Q = np.array([[1.0, 0.0], [1.0, 0.0]])


def trace_kinds(cert):
    return [tag.kind for tag in cert.branch_trace]


class TestRadialPath:
    def test_zero_point_degenerates(self):
        path = radial_path(np.zeros((2, 2)))
        assert len(path.breakpoints) == 1
        assert path.length() == 0.0

    def test_length_is_norm(self):
        path = radial_path(WORKED_P)
        assert path.length() == pytest.approx(np.sqrt(2.0))

    def test_ratio_exactly_one(self, rng):
        for _ in range(10):
            p = random_member(D22, rng, rank=1)
            _, cert = build_path(p, np.zeros((2, 2)), D22)
            assert cert.ratio == 1.0
            assert trace_kinds(cert) == [BranchKind.RADIAL]


class TestOrthogonalPath:
    def test_disjoint_unit_entries(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        path = orthogonal_path(p, q)
        assert path.length() == pytest.approx(2.0)
        _, cert = build_path(p, q, D22)
        assert cert.outer_distance == pytest.approx(np.sqrt(2.0))
        assert cert.ratio == pytest.approx(np.sqrt(2.0))
        assert cert.ratio <= 2.0

    def test_zero_endpoint_reduces_to_radial(self):
        path = orthogonal_path(WORKED_P, np.zeros((2, 2)))
        assert len(path.breakpoints) == 2
        assert path.length() == pytest.approx(np.sqrt(2.0))

    def test_three_four_five(self):
        d = VarietyDescriptor(3, 3, 3, ScalarField.REAL)
        p = np.zeros((3, 3))
        p[0, 0] = 3.0
        q = np.zeros((3, 3))
        q[1, 1] = 4.0
        path, cert = build_path(p, q, d)
        assert cert.length == pytest.approx(7.0)
        assert cert.outer_distance == pytest.approx(5.0)
        assert cert.ratio == pytest.approx(1.4)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(BranchConditionError):
            orthogonal_path(WORKED_P, WORKED_P)


class TestNormalizePair:
    def test_worked_pair_already_normal(self):
        pair, p_hat, q_hat = normalize_pair(WORKED_P, WORKED_Q)
        np.testing.assert_allclose(pair.u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pair.v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p_hat, WORKED_P, atol=1e-12)
        np.testing.assert_allclose(q_hat, WORKED_Q, atol=1e-12)
        assert p_hat[0, 0] != 0 and q_hat[0, 0] != 0

    def test_fixed_point(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        pair, p_hat, q_hat = normalize_pair(p, p)
        np.testing.assert_allclose(pair.u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(pair.v, np.eye(2), atol=1e-12)

    def test_rejects_orthogonal_pair(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(BranchConditionError):
            normalize_pair(p, q)

    def test_normal_form_margins(self, rng):
        d = VarietyDescriptor(4, 5, 3, ScalarField.COMPLEX)
        for _ in range(25):
            p = random_member(d, rng)
            q = random_member(d, rng)
            if abs(frobenius_inner(p, q)) <= 1e-8 * np.linalg.norm(p) * np.linalg.norm(q):
                continue
            pair, p_hat, q_hat = normalize_pair(p, q)
            assert np.linalg.norm(p_hat[1:, 0]) <= 1e-10 * np.linalg.norm(p)
            assert np.linalg.norm(q_hat[0, 1:]) <= 1e-10 * np.linalg.norm(q)
            # unitarily conjugating back recovers the inputs
            np.testing.assert_allclose(
                pair.inverse().apply(p_hat), p, atol=1e-12 * np.linalg.norm(p)
            )


class TestGeneralPath:
    def test_worked_pair_hand_trace(self):
        path, cert = build_path(WORKED_P, WORKED_Q, D22)
        assert len(path.breakpoints) == 3
        np.testing.assert_allclose(path.breakpoints[0], WORKED_P, atol=1e-10)
        np.testing.assert_allclose(
            path.breakpoints[1], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10
        )
        np.testing.assert_allclose(path.breakpoints[2], WORKED_Q, atol=1e-10)
        assert cert.length == pytest.approx(2.0, abs=1e-10)
        assert cert.outer_distance == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert cert.ratio == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert cert.branch_trace == (cert.branch_trace[0],)
        assert cert.branch_trace[0].kind is BranchKind.GENERAL
        assert cert.branch_trace[0].depth == 0
        assert cert.certified_bound == 2.0

    def test_public_wrapper_requires_rank_order(self, rng):
        d = VarietyDescriptor(3, 3, 3, ScalarField.COMPLEX)
        low = random_member(d, rng, rank=1)
        high = random_member(d, rng, rank=2)
        if abs(frobenius_inner(high, low)) > 1e-8:
            with pytest.raises(BranchConditionError):
                general_path(high, low, d)
        path = general_path(low, high, d)
        assert frobenius_distance(path.start, low) == 0.0
        assert frobenius_distance(path.end, high) == 0.0

    def test_coincident_pair(self, rng):
        p = random_member(D22, rng, rank=1)
        path, cert = build_path(p, p.copy(), D22)
        assert cert.length == 0.0
        assert cert.ratio == 1.0
        assert cert.branch_trace == ()

    def test_general_bound_is_min_rank(self, rng):
        d = VarietyDescriptor(4, 4, 4, ScalarField.COMPLEX)
        for rank_pair in [(1, 3), (3, 1), (2, 2), (3, 3)]:
            p = random_member(d, rng, rank=rank_pair[0])
            q = random_member(d, rng, rank=rank_pair[1])
            _, cert = build_path(p, q, d)
            if trace_kinds(cert)[0] is BranchKind.GENERAL:
                assert cert.certified_bound == 2.0 * min(rank_pair)
                assert cert.ratio <= cert.certified_bound + 1e-9

    def test_recursion_depth_bounded(self, rng):
        d = VarietyDescriptor(5, 5, 5, ScalarField.COMPLEX)
        for _ in range(20):
            p = random_member(d, rng)
            q = random_member(d, rng)
            _, cert = build_path(p, q, d)
            if cert.branch_trace:
                depth = max(tag.depth for tag in cert.branch_trace)
                assert depth <= min(rank_of(p, d), rank_of(q, d)) <= d.t - 1


class TestBuildPathDispatch:
    def test_rejects_non_member(self):
        with pytest.raises(MembershipError) as info:
            build_path(np.eye(2), WORKED_Q, D22)
        assert info.value.residual == pytest.approx(1.0)

    def test_complex_variety_constant_sampled(self, rng):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        for _ in range(50):
            p = random_member(d, rng)
            q = random_member(d, rng)
            _, cert = build_path(p, q, d)
            assert cert.ratio <= 2 * d.t - 2 + 1e-6
            assert cert.max_relative_residual <= 1e-8

    def test_scaled_pair_rides_the_ray(self, rng):
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        p = random_member(d, rng, rank=1)
        for lam in (0.5, 2.0, -1.0, 1j):
            _, cert = build_path(p, lam * p, d)
            assert cert.ratio == pytest.approx(1.0, abs=1e-9)
            assert trace_kinds(cert) == [BranchKind.RADIAL]

    def test_endpoint_fidelity(self, rng):
        d = VarietyDescriptor(4, 3, 3, ScalarField.COMPLEX)
        for _ in range(20):
            p = random_member(d, rng)
            q = random_member(d, rng)
            path, _ = build_path(p, q, d)
            assert frobenius_distance(path.start, p) <= 1e-12 * np.linalg.norm(p)
            assert frobenius_distance(path.end, q) <= 1e-12 * np.linalg.norm(q)

    def test_length_never_below_outer(self, rng):
        d = VarietyDescriptor(5, 4, 3, ScalarField.COMPLEX)
        for _ in range(30):
            p = random_member(d, rng)
            q = random_member(d, rng)
            _, cert = build_path(p, q, d)
            assert cert.length >= cert.outer_distance * (1 - 1e-12)

    def test_scale_equivariance(self, rng):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        p = random_member(d, rng, rank=2)
        q = random_member(d, rng, rank=2)
        _, base = build_path(p, q, d)
        for lam in (0.5, 2.0, 10.0):
            _, scaled = build_path(lam * p, lam * q, d)
            assert trace_kinds(scaled) == trace_kinds(base)
            assert scaled.length == pytest.approx(lam * base.length, rel=1e-9)

    def test_unitary_equivariance_of_ratio(self, rng):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        u = random_unitary(4, rng, ScalarField.COMPLEX)
        v = random_unitary(4, rng, ScalarField.COMPLEX)
        for _ in range(10):
            p = random_member(d, rng)
            q = random_member(d, rng)
            _, before = build_path(p, q, d)
            _, after = build_path(u @ p @ v, u @ q @ v, d)
            assert after.ratio == pytest.approx(before.ratio, abs=1e-8)

    def test_all_strata_pairs_small_grid(self, rng):
        # spot check beyond the acceptance sweep: every (m, n, t) with m, n <= 3
        for m, n in itertools.product((2, 3), repeat=2):
            for t in range(2, min(m, n) + 1):
                d = VarietyDescriptor(m, n, t, ScalarField.COMPLEX)
                for rp_, rq_ in itertools.product(range(t), repeat=2):
                    p = random_member(d, rng, rank=rp_)
                    q = random_member(d, rng, rank=rq_)
                    _, cert = build_path(p, q, d)
                    assert cert.ratio <= cert.certified_bound + 1e-9
                    assert cert.ratio <= 2 * t - 2 + 1e-6
                    assert cert.max_relative_residual <= 1e-8


class TestCertify:
    def test_single_breakpoint(self):
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        cert = certify(PiecewisePath((p,)), D22)
        assert cert.length == 0.0
        assert cert.ratio == 1.0
        assert cert.max_relative_residual <= 1e-15

    def test_radial_residual_matches_endpoint(self, rng):
        p = random_member(D22, rng, rank=1)
        cert = certify(radial_path(p), D22)
        assert cert.ratio == 1.0
        assert cert.max_relative_residual <= 1e-12

    def test_worked_pair_interior_residuals(self):
        path, _ = build_path(WORKED_P, WORKED_Q, D22)
        cert = certify(path, D22, samples_per_segment=32)
        assert cert.max_relative_residual <= 1e-10

    def test_default_bound_is_variety_constant(self):
        cert = certify(radial_path(WORKED_P), D22)
        assert cert.certified_bound == 2.0

    def test_off_variety_segment_caught(self):
        # the midpoint diag(1/2, 1/2) has full rank; t + 1 = 3 samples hit it
        path = PiecewisePath((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        cert = certify(path, D22)
        assert cert.samples_per_segment == 3
        assert cert.max_relative_residual == pytest.approx(1.0)

    def test_t_at_least_32_pair(self):
        d = VarietyDescriptor(34, 34, 33, ScalarField.COMPLEX)
        p = sample_stratum(d, 32, 1.0, 1)
        q = sample_stratum(d, 32, 1.3, 2)
        _, cert = build_path(p, q, d)
        assert cert.samples_per_segment == d.t + 1
        assert cert.max_relative_residual <= 1e-12
        assert cert.ratio <= cert.certified_bound + 1e-9

    def test_rejects_wrong_field_and_shape(self):
        complex_path = PiecewisePath((WORKED_P.astype(complex), WORKED_Q.astype(complex)))
        with pytest.raises(DimensionMismatch):
            certify(complex_path, D22)
        with pytest.raises(DimensionMismatch):
            certify(PiecewisePath((np.zeros((3, 3)), np.eye(3))), D22)

    def test_one_svd_for_breakpoints_and_one_per_segment(self, rng, monkeypatch):
        d = VarietyDescriptor(5, 5, 4, ScalarField.COMPLEX)
        path, _ = build_path(random_member(d, rng, 3), random_member(d, rng, 3), d)
        points = path.breakpoints
        # a repeated breakpoint adds a degenerate segment, which is skipped
        padded = PiecewisePath((points[0],) + points)
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        certify(padded, d)
        segments = len(points) - 1
        assert segments >= 3
        assert len(calls) == 1 + segments
        assert calls[0] == (len(points) + 1, 5, 5)
        assert set(calls[1:]) == {(d.t + 1, 5, 5)}


class TestConjugatePath:
    def test_identity_pair(self):
        path, _ = build_path(WORKED_P, WORKED_Q, D22)
        pair = make_unitary_pair(np.eye(2), np.eye(2))
        same = conjugate_path(path, pair)
        for a, b in zip(path.breakpoints, same.breakpoints):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self, rng):
        from rankpath import DimensionMismatch

        path, _ = build_path(WORKED_P, WORKED_Q, D22)
        pair = make_unitary_pair(np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            conjugate_path(path, pair)

    def test_isometry_and_membership(self, rng):
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        p = random_member(d, rng, rank=1)
        q = random_member(d, rng, rank=1)
        path, cert = build_path(p, q, d)
        pair = make_unitary_pair(
            random_unitary(3, rng, ScalarField.COMPLEX),
            random_unitary(3, rng, ScalarField.COMPLEX),
        )
        moved = conjugate_path(path, pair)
        assert moved.length() == pytest.approx(path.length(), rel=1e-10, abs=1e-12)
        moved_cert = certify(moved, d)
        assert moved_cert.max_relative_residual == pytest.approx(
            cert.max_relative_residual, abs=1e-10
        )
