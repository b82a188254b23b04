import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankpath import (
    DimensionMismatch,
    NormalizationError,
    NoUsableEigenpair,
    ScalarField,
    Side,
    VarietyDescriptor,
    frobenius_distance,
    frobenius_inner,
    leading_nonzero_eigenpair,
    numerical_ranks,
    unitary_completion,
)
from rankpath.numkernel import (
    _BATCH_ENTRIES,
    _BATCH_MIN_POINTS,
    RANK_REL_TOL,
    UNDERFLOW_SAFE,
    frobenius_norm,
    frobenius_norms,
    ldexp,
    step_norms,
)
from rankpath.variety import spectra
from conftest import random_unitary

D22 = VarietyDescriptor(2, 2, 2, ScalarField.REAL)


class TestFrobeniusInner:
    def test_identity(self):
        assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0

    def test_disjoint_supports(self):
        a = [[1.0, 0.0], [0.0, 0.0]]
        b = [[0.0, 0.0], [0.0, 1.0]]
        assert frobenius_inner(a, b) == 0.0

    def test_hand_sum(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        by_hand = sum(
            a[i, j] * np.conj(b[i, j]) for i in range(2) for j in range(2)
        )
        assert by_hand == 1.0
        assert frobenius_inner(a, b) == by_hand

    def test_conjugate_symmetry(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert frobenius_inner(a, b) == pytest.approx(np.conj(frobenius_inner(b, a)))
        self_inner = frobenius_inner(a, a)
        assert abs(self_inner.imag) <= 1e-14 * self_inner.real
        assert self_inner.real >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frobenius_inner(np.eye(2), np.eye(3))

    def test_field_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frobenius_inner(np.eye(2), np.eye(2).astype(complex))


class TestFrobeniusDistance:
    def test_self_distance(self, rng):
        a = rng.standard_normal((3, 3))
        assert frobenius_distance(a, a) == 0.0

    def test_two_unit_entries(self):
        a = [[1.0, 0.0], [0.0, 0.0]]
        b = [[0.0, 0.0], [0.0, 1.0]]
        assert frobenius_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_entrywise_differences(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        # differences are (0, 1, -1, 0)
        assert frobenius_distance(a, b) == pytest.approx(np.sqrt(2.0))


@st.composite
def contract_matrices(draw):
    """Up to 6 x 6 over either field, every real or imaginary part 0 or of
    magnitude in [1/16, 2], so no square underflows unless the whole matrix
    is scaled down, with a power of two 2^k, k in [-600, 600], drawn from
    the tiny, the unit and the huge end alike."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    field = draw(st.sampled_from(list(ScalarField)))
    count = m * n * (2 if field is ScalarField.COMPLEX else 1)
    part = st.one_of(st.just(0.0), st.floats(1 / 16, 2), st.floats(-2, -1 / 16))
    parts = np.array(draw(st.lists(part, min_size=count, max_size=count)))
    ends = st.one_of(st.integers(-600, -400), st.integers(-400, 400), st.integers(400, 600))
    return parts.view(field.dtype).reshape(m, n), draw(ends)


class TestFrobeniusNorms:
    def test_tiny_matrices_keep_their_norm(self, rng):
        # squares of entries below about 1e-154 underflow: such a matrix is
        # normed after an exact power-of-two rescaling, and every other one
        # stays bitwise np.linalg.norm; the scalar norm and the distance
        # take the same rule
        for field in ScalarField:
            unit = random_unitary(5, rng, field)[:, :3]
            scales = [1.0, 1e-140, 1e-160, 1e-300, 1e-310]
            stack = np.stack([scale * unit for scale in scales] + [0 * unit])
            norms = frobenius_norms(stack)
            assert norms[:2].tolist() == [float(np.linalg.norm(x)) for x in stack[:2]]
            assert norms[-1] == 0.0
            for scale, norm in zip(scales[2:], norms[2:]):
                assert norm == pytest.approx(np.sqrt(3.0) * scale, rel=1e-9)
            tiny = stack[2]
            assert frobenius_norm(tiny) == frobenius_distance(tiny, 0 * tiny) == norms[2] > 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=300)
    @given(contract_matrices())
    def test_one_norm_everywhere(self, case):
        # bitwise np.linalg.norm wherever no square under- or overflows,
        # bitwise the stacked kernel everywhere, and exact under 2^k wherever
        # the true norm is finite: every k drawn here
        x, k = case
        y = ldexp(x, k)
        norm = frobenius_norm(y)
        assert norm == frobenius_norms(y[np.newaxis])[0]
        reference = float(np.linalg.norm(y))
        if math.sqrt(UNDERFLOW_SAFE) <= reference < math.inf:
            assert norm == reference
        assert norm == math.ldexp(frobenius_norm(x), k)

    def test_norm_beyond_the_double_range_reads_inf(self):
        # finite entries whose norm exceeds the largest double; a norm just
        # inside the range is kept
        for field in ScalarField:
            x = np.full((2, 2), 0.75, dtype=field.dtype)
            with np.errstate(over="ignore"):
                assert frobenius_norm(ldexp(x, 1023)) == math.ldexp(1.5, 1023)
                assert frobenius_norm(ldexp(x, 1024)) == math.inf
                assert frobenius_norms(ldexp(x, 1024)[np.newaxis]).tolist() == [math.inf]


    @pytest.mark.parametrize("shape", [(3, 4), (40, 40), (100, 100)])
    @pytest.mark.parametrize("field", list(ScalarField))
    def test_step_norms_are_the_norms_of_the_steps(self, rng, shape, field):
        # below and at the batching threshold, with a last batch part full,
        # and at 100 x 100, where no two steps share a batch: sequences and
        # stacks give frobenius_norm(b - a) of each step, bitwise, also
        # where every square underflows
        batch = max(1, _BATCH_ENTRIES // math.prod(shape))
        for count in (0, 1, 2, _BATCH_MIN_POINTS - 1, _BATCH_MIN_POINTS, batch + 4):
            for scale in (0, -540):
                draw = rng.standard_normal((count, *shape, 2)).view(complex)[..., 0]
                points = ldexp(np.asarray(draw.real if field is ScalarField.REAL else draw), scale)
                expected = [frobenius_norm(b - a) for a, b in zip(points, points[1:])]
                assert step_norms(points).tolist() == expected
                assert step_norms(list(points)).tolist() == expected


class TestSingularValues:
    """``variety.spectra``, the one singular-value kernel, on one-matrix and
    many-matrix stacks."""

    def test_diagonal(self):
        np.testing.assert_allclose(spectra(np.diag([3.0, 1.0])[np.newaxis], D22), [[3.0, 1.0]])

    def test_zero_rectangular(self):
        d = VarietyDescriptor(2, 3, 2, ScalarField.REAL)
        np.testing.assert_allclose(spectra(np.zeros((1, 2, 3)), d), [[0.0, 0.0]])

    def test_rank_one(self):
        sigma = spectra(np.array([[[1.0, 1.0], [0.0, 0.0]]]), D22)
        np.testing.assert_allclose(sigma, [[np.sqrt(2.0), 0.0]], atol=1e-15)

    def test_energy_identity(self, rng):
        d = VarietyDescriptor(4, 5, 4, ScalarField.COMPLEX)
        stack = rng.standard_normal((50, 4, 5)) + 1j * rng.standard_normal((50, 4, 5))
        total = np.linalg.norm(stack, axis=(1, 2)) ** 2
        assert np.all(np.abs(total - np.sum(spectra(stack, d) ** 2, axis=1)) <= 1e-10 * total)


class TestNumericalRank:
    """The rank rule on one-spectrum stacks: values count when they exceed
    ``RANK_REL_TOL`` times the largest."""

    def test_full(self):
        assert numerical_ranks([[3.0, 1.0]]).tolist() == [2]

    def test_below_threshold(self):
        assert numerical_ranks([[1.0, 1e-14]]).tolist() == [1]
        assert numerical_ranks([[1.0, RANK_REL_TOL]]).tolist() == [1]
        assert numerical_ranks([[1.0, 2.0 * RANK_REL_TOL]]).tolist() == [2]

    def test_zero(self):
        assert numerical_ranks([[0.0, 0.0]]).tolist() == [0]


class TestNumericalRanks:
    def test_rows_follow_the_single_spectrum_rule(self):
        spectra = np.array([[3.0, 1.0], [1.0, 1e-14], [0.0, 0.0]])
        assert numerical_ranks(spectra).tolist() == [2, 1, 0]
        assert [int(numerical_ranks([row])[0]) for row in spectra] == [2, 1, 0]
        assert numerical_ranks(np.zeros((2, 0))).tolist() == [0, 0]


class TestUnitaryCompletion:
    def test_aligned_is_identity(self):
        u = unitary_completion(np.array([1.0, 0.0, 0.0]), Side.FIRST_ROW)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)

    def test_swap_like(self):
        u = unitary_completion(np.array([0.0, 1.0]), Side.FIRST_ROW)
        np.testing.assert_allclose(u[0], [0.0, 1.0], atol=1e-15)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12

    def test_first_column(self):
        w = np.array([1.0, 1.0]) / np.sqrt(2.0)
        u = unitary_completion(w, Side.FIRST_COLUMN)
        np.testing.assert_allclose(u[:, 0], w, atol=1e-14)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(NormalizationError):
            unitary_completion(np.array([1.0, 1.0]), Side.FIRST_ROW)

    def test_random_vectors_both_fields(self, rng):
        for field in ScalarField:
            for k in (1, 2, 5, 8):
                w = rng.standard_normal(k)
                if field is ScalarField.COMPLEX:
                    w = w + 1j * rng.standard_normal(k)
                w = w / np.linalg.norm(w)
                u = unitary_completion(w, Side.FIRST_ROW)
                np.testing.assert_allclose(u @ w, np.eye(k)[0], atol=1e-13)
                np.testing.assert_allclose(u[0], w.conj(), atol=1e-13)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(k), atol=1e-12)
                v = unitary_completion(w, Side.FIRST_COLUMN)
                np.testing.assert_allclose(v[:, 0], w, atol=1e-13)


class TestLeadingEigenpair:
    def test_diagonal_dominant(self):
        value, vector = leading_nonzero_eigenpair(np.diag([2.0, 1.0]))
        assert value == pytest.approx(2.0)
        np.testing.assert_allclose(vector, [1.0, 0.0], atol=1e-12)

    def test_nilpotent_rejected(self):
        with pytest.raises(NoUsableEigenpair):
            leading_nonzero_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_real_rotation_rejected(self):
        with pytest.raises(NoUsableEigenpair):
            leading_nonzero_eigenpair(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_complex_rotation_accepted(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        value, vector = leading_nonzero_eigenpair(m)
        assert abs(value) == pytest.approx(1.0)
        assert np.linalg.norm(m @ vector - value * vector) < 1e-10

    def test_residual_on_random_matrices(self, rng):
        rejected = 0
        for i in range(1000):
            m = rng.standard_normal((5, 5))
            if i % 2 == 0:
                m = m + 1j * rng.standard_normal((5, 5))
            try:
                value, vector = leading_nonzero_eigenpair(m, 1e-12)
            except NoUsableEigenpair:
                rejected += 1
                continue
            residual = np.linalg.norm(m @ vector - value * vector)
            assert residual <= 1e-10 * np.linalg.norm(m)
            assert np.linalg.norm(vector) == pytest.approx(1.0)
        # complex draws always admit; only real draws may lack a real eigenvalue
        assert rejected < 200


def test_inner_product_unitary_invariance(rng):
    for field in ScalarField:
        a = np.asarray(rng.standard_normal((3, 4)), dtype=field.dtype)
        b = np.asarray(rng.standard_normal((3, 4)), dtype=field.dtype)
        if field is ScalarField.COMPLEX:
            a = a + 1j * rng.standard_normal((3, 4))
            b = b + 1j * rng.standard_normal((3, 4))
        u, v = random_unitary(3, rng, field), random_unitary(4, rng, field)
        before = frobenius_inner(a, b)
        after = frobenius_inner(u @ a @ v, u @ b @ v)
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))
