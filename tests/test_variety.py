import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpath import (
    DimensionMismatch,
    ScalarField,
    StratumError,
    VarietyDescriptor,
    codimension,
    frobenius_distance,
    is_member,
    membership_residual,
    membership_residuals,
    project,
    projections,
    rank_of,
    sample_stratum,
)
from rankpath.numkernel import frobenius_norms
from rankpath.variety import bounded_projections, product_gamma, spectra
from conftest import random_member, random_unitary

D22 = VarietyDescriptor(2, 2, 2, ScalarField.REAL)
EPS = float(np.finfo(np.float64).eps)


class TestDescriptor:
    def test_validates_t(self):
        with pytest.raises(ValueError):
            VarietyDescriptor(2, 3, 3, ScalarField.REAL)
        with pytest.raises(ValueError):
            VarietyDescriptor(2, 3, 0, ScalarField.REAL)

    def test_codimension(self):
        # (m - t + 1) * (n - t + 1)
        assert codimension(VarietyDescriptor(3, 3, 3)) == 1
        assert codimension(VarietyDescriptor(3, 3, 2)) == 4
        assert codimension(VarietyDescriptor(2, 3, 2)) == 2


class TestMembership:
    def test_full_rank_identity(self):
        assert membership_residual(np.eye(2), D22) == pytest.approx(1.0)

    def test_rank_one(self):
        assert membership_residual([[1.0, 1.0], [0.0, 0.0]], D22) <= 1e-15

    def test_diagonal_ratio(self):
        assert membership_residual(np.diag([1.0, 1e-6]), D22) == pytest.approx(1e-6)

    def test_zero_matrix_is_member(self):
        assert is_member(np.zeros((2, 2)), D22)
        assert membership_residual(np.zeros((2, 2)), D22) == 0.0

    def test_identity_not_member(self):
        assert not is_member(np.eye(2), D22)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            membership_residual(np.eye(3), D22)

    def test_scale_invariance(self, rng):
        # no absolute floor: tiny matrices off the variety read as off it
        for scale in (1e-300, 1e-200, 1e-3, 0.5, 2.0, 1e3, 1e200):
            p = rng.standard_normal((2, 2))
            assert membership_residual(scale * p, D22) == pytest.approx(
                membership_residual(p, D22), abs=1e-12
            )

    def test_unitary_invariance(self, rng):
        d = VarietyDescriptor(3, 4, 2, ScalarField.COMPLEX)
        for _ in range(20):
            p = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            u = random_unitary(3, rng, ScalarField.COMPLEX)
            v = random_unitary(4, rng, ScalarField.COMPLEX)
            assert membership_residual(u @ p @ v, d) == pytest.approx(
                membership_residual(p, d), abs=1e-10
            )


class TestMembershipResiduals:
    @pytest.mark.parametrize("m, n", [(4, 4), (8, 8), (20, 20), (100, 100), (200, 150)])
    def test_stack_matches_single_matrix_exactly(self, rng, m, n):
        for field in ScalarField:
            d = VarietyDescriptor(m, n, min(m, n) // 2 + 1, field)
            off = rng.standard_normal(d.shape)
            if field is ScalarField.COMPLEX:
                off = off + 1j * rng.standard_normal(d.shape)
            stack = np.stack([random_member(d, rng), off, np.zeros(d.shape)])
            residuals = membership_residuals(stack, d)
            assert residuals.shape == (3,)
            for matrix, residual in zip(stack, residuals):
                assert residual == membership_residual(matrix, d)
            assert residuals[1] > 1e-3
            assert residuals[2] == 0.0

    def test_rejects_bad_stacks(self):
        with pytest.raises(DimensionMismatch):
            membership_residuals(np.eye(2), D22)
        with pytest.raises(DimensionMismatch):
            membership_residuals(np.zeros((2, 3, 3)), D22)
        with pytest.raises(DimensionMismatch):
            membership_residuals(np.zeros((2, 2, 2), dtype=complex), D22)


class TestProjections:
    @pytest.mark.parametrize(
        "m, n", [(2, 2), (4, 4), (6, 6), (8, 8), (5, 3), (20, 20), (100, 100), (200, 150)]
    )
    def test_stack_matches_reference_exactly(self, rng, m, n):
        def reference(p, d):
            # the one-matrix truncated SVD that project computed on its own
            u, sigma, vh = np.linalg.svd(p, full_matrices=False)
            return (u[:, : d.t - 1] * sigma[: d.t - 1]) @ vh[: d.t - 1]

        for field in ScalarField:
            for t in sorted({2, min(m, n) // 2 + 1, min(m, n)}):
                d = VarietyDescriptor(m, n, t, field)
                stack = rng.standard_normal((3, m, n))
                if field is ScalarField.COMPLEX:
                    stack = stack + 1j * rng.standard_normal((3, m, n))
                projected = projections(stack, d)
                assert projected.shape == stack.shape
                assert projected.dtype == field.dtype
                for matrix, out in zip(stack, projected):
                    expected = reference(matrix, d)
                    assert np.array_equal(out, expected)
                    assert np.array_equal(project(matrix, d), expected)

    def test_projections_keep_each_stratum_rank(self, rng):
        # ranks of every stratum, plus the zero matrix and one above the variety
        d = VarietyDescriptor(6, 5, 4, ScalarField.COMPLEX)
        stack = np.stack(
            [sample_stratum(d, r, 1.0, r) for r in range(1, d.t)]
            + [np.zeros(d.shape, complex), rng.standard_normal(d.shape) + 0j]
        )
        projected = projections(stack, d)
        assert [rank_of(x, d) for x in projected] == [1, 2, 3, 0, 3]

    def test_t_one_projects_to_zero(self):
        d = VarietyDescriptor(3, 2, 1, ScalarField.COMPLEX)
        out = projections(np.ones((4, 3, 2)), d)
        assert out.shape == (4, 3, 2) and out.dtype == np.complex128
        assert not out.any()

    def test_rejects_bad_stacks(self):
        with pytest.raises(DimensionMismatch):
            projections(np.eye(2), D22)
        with pytest.raises(DimensionMismatch):
            projections(np.zeros((2, 3, 3)), D22)
        with pytest.raises(DimensionMismatch):
            projections(np.zeros((2, 2, 2), dtype=complex), D22)


@st.composite
def projection_stacks(draw):
    """Stacks up to 8x8, both fields, any t, with zero and rank-deficient
    matrices among them, scaled by 2^-540, 2^-500, 2^-200, 1, 2^200, 2^500
    or 2^540.  The squares of entries near 2^+-540 leave the normal range,
    so a Gram matrix taken without rescaling over- or underflows there."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    t = draw(st.integers(1, min(m, n)))
    d = VarietyDescriptor(m, n, t, draw(st.sampled_from(list(ScalarField))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = []
    for rank in draw(st.lists(st.integers(0, min(m, n)), min_size=1, max_size=6)):
        left = rng.standard_normal((m, rank))
        right = rng.standard_normal((rank, n))
        if d.field is ScalarField.COMPLEX:
            left = left + 1j * rng.standard_normal((m, rank))
            right = right + 1j * rng.standard_normal((rank, n))
        matrices.append(left @ right)
    scale = 2.0 ** draw(st.sampled_from([-540, -500, -200, 0, 200, 500, 540]))
    return d, np.stack(matrices) * scale


class TestBoundedProjections:
    @settings(max_examples=300)
    @given(projection_stacks())
    def test_bound_covers_the_residual(self, case):
        d, stack = case
        projected, bound = bounded_projections(stack, d)
        if d.t > 1:
            # the accuracy bounded_projections states, c eps sigma_1^2 /
            # sigma_{t-1} off the truncated SVD where sigma_{t-1} >= 2 sigma_t,
            # with c from its first-order derivation, not from a fit
            r, big = min(d.m, d.n), max(d.m, d.n)
            g = product_gamma(big, d.field) / EPS
            h = product_gamma(r, d.field) / EPS
            c = r * (1.5 * g + 3.0 * h + 4.0 * np.sqrt(r) + 0.5) + 4.0 * np.sqrt(r) * big
            sigma = spectra(stack, d)
            gap = (sigma[:, d.t - 2] > 0.0) & (sigma[:, d.t - 2] >= 2.0 * sigma[:, d.t - 1])
            # frobenius_norms and sigma_1 (sigma_1 / sigma_{t-1}) stay clear of
            # under- and overflow at every scale of the stacks
            error = frobenius_norms(projected - projections(stack, d))[gap]
            lead, kept = sigma[gap, 0], sigma[gap, d.t - 2]
            assert (error <= c * EPS * lead * (lead / kept)).all()
        assert bound.shape == (len(stack),)
        assert (bound >= membership_residuals(projected, d)).all()
        nonzero = np.abs(projected).max(axis=(1, 2)) > 0
        assert (bound[nonzero] <= 1e-12).all()
        assert (bound[~nonzero] == 0.0).all()

    def test_underflowing_projection_is_inconclusive(self, rng):
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        stack = rng.standard_normal((2, 4, 4))
        _, bound = bounded_projections(stack * 1e-300, d)
        assert np.isinf(bound).all()
        _, bound = bounded_projections(stack * 1e-290, d)
        assert (bound <= 1e-12).all()


class TestProject:
    def test_idempotent_on_members(self, rng):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        p = random_member(d, rng, rank=2)
        assert frobenius_distance(project(p, d), p) <= 1e-12 * np.linalg.norm(p)

    def test_identity_projection(self):
        q = project(np.eye(2), D22)
        assert frobenius_distance(q, np.eye(2)) == pytest.approx(1.0)
        assert rank_of(q, D22) == 1
        # one unit singular value kept, the other truncated
        np.testing.assert_allclose(sorted(np.abs(np.diag(q))), [0.0, 1.0], atol=1e-14)

    def test_drop_smallest(self):
        d = VarietyDescriptor(3, 3, 3, ScalarField.REAL)
        p = np.diag([3.0, 1.0, 0.1])
        q = project(p, d)
        np.testing.assert_allclose(q, np.diag([3.0, 1.0, 0.0]), atol=1e-14)
        assert frobenius_distance(p, q) == pytest.approx(0.1)

    def test_truncation_error_is_tail_energy(self, rng):
        d = VarietyDescriptor(4, 5, 3, ScalarField.COMPLEX)
        p = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        sigma = spectra(p[np.newaxis], d)[0]
        expected = np.sqrt(np.sum(sigma[d.t - 1 :] ** 2))
        assert frobenius_distance(p, project(p, d)) == pytest.approx(expected)

    def test_eckart_young_optimality(self, rng):
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        points = [
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(100)
        ]
        members = [random_member(d, rng, rank=1) for _ in range(100)]
        for p in points:
            best = frobenius_distance(p, project(p, d))
            for x in members:
                assert best <= frobenius_distance(p, x) + 1e-10


class TestSampleStratum:
    def test_zero_rank(self):
        assert not sample_stratum(D22, 0, 1.0, 1).any()

    def test_rank_one_norm(self):
        p = sample_stratum(D22, 1, 1.0, 7)
        sigma = spectra(p[np.newaxis], D22)[0]
        assert sigma[0] == pytest.approx(1.0)
        assert sigma[1] <= 1e-12

    def test_determinism(self):
        a = sample_stratum(D22, 1, 2.0, 123)
        b = sample_stratum(D22, 1, 2.0, 123)
        np.testing.assert_array_equal(a, b)

    def test_stratum_error(self):
        with pytest.raises(StratumError):
            sample_stratum(D22, 2, 1.0, 0)

    def test_exact_rank_and_membership(self, rng):
        d = VarietyDescriptor(5, 4, 4, ScalarField.COMPLEX)
        for r in range(4):
            seed = int(rng.integers(0, 2**62))
            p = sample_stratum(d, r, 1.5, seed) if r else np.zeros(d.shape, complex)
            assert rank_of(p, d) == r
            assert is_member(p, d)
            if r:
                assert np.linalg.norm(p) == pytest.approx(1.5)
