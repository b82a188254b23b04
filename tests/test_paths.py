import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, schur

from rankpath import (
    BranchKind,
    DimensionMismatch,
    MembershipError,
    PiecewisePath,
    ScalarField,
    VarietyDescriptor,
    build_path,
    build_paths,
    certify,
    membership_residual,
    membership_residuals,
    normalize_pair,
    rank_of,
    sample_stratum,
)
from rankpath import harness, paths
from rankpath.harness import RankPairStrategy, TrialConfig, adversarial_pair, mix_seed, run_trials
from rankpath.numkernel import _BATCH_MIN_POINTS, as_matrix, ldexp
from rankpath.variety import spectra, spectral_residuals
from conftest import random_member, random_unitary

D22 = VarietyDescriptor(2, 2, 2, ScalarField.REAL)
WORKED_P = np.array([[1.0, 1.0], [0.0, 0.0]])
WORKED_Q = np.array([[1.0, 0.0], [1.0, 0.0]])


def trace_kinds(cert):
    return [tag.kind for tag in cert.branch_trace]


def assert_certified(cert, p, q, d):
    """Every route, real ones included, has its a-priori bound."""
    assert cert.ratio <= cert.certified_bound + 1e-9
    min_rank = min(rank_of(p, d), rank_of(q, d))
    assert cert.certified_bound in (1.0, 2.0, 2.0 * min_rank)


class TestRadialPath:
    def test_zero_point_degenerates(self):
        path, cert = build_path(np.zeros((2, 2)), np.zeros((2, 2)), D22)
        assert len(path.breakpoints) == 1
        assert path.length() == 0.0
        assert cert.branch_trace == ()

    def test_length_is_norm(self):
        path, cert = build_path(WORKED_P, np.zeros((2, 2)), D22)
        assert path.length() == pytest.approx(np.sqrt(2.0))
        assert trace_kinds(cert) == [BranchKind.RADIAL]

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
        path, cert = build_path(p, q, D22)
        assert trace_kinds(cert) == [BranchKind.ORTHOGONAL]
        assert len(path.breakpoints) == 3
        assert path.length() == pytest.approx(2.0)
        assert cert.outer_distance == pytest.approx(np.sqrt(2.0))
        assert cert.ratio == pytest.approx(np.sqrt(2.0))
        assert cert.ratio <= 2.0

    def test_zero_endpoint_reduces_to_radial(self):
        # a zero endpoint is orthogonal to everything, but takes the radial segment
        path, cert = build_path(np.zeros((2, 2)), WORKED_P, D22)
        assert trace_kinds(cert) == [BranchKind.RADIAL]
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


def assert_normal_form(p, q, form):
    """The contract of ``normalize_pair``: unitary factors that reconstruct
    p and q, p_hat q_hat^H = t, t (quasi-)upper triangular with its blocks
    ordered dominant first, q_hat exactly lower triangular and p_hat block
    upper triangular in the leading columns of the nonzero blocks."""
    z, v, p_hat, q_hat, t = form
    size = np.linalg.norm(p) * np.linalg.norm(q)
    for w in (z, v):
        np.testing.assert_allclose(w @ w.conj().T, np.eye(len(w)), atol=1e-13)
    np.testing.assert_allclose(z @ p_hat @ v.conj().T, p, atol=1e-13 * np.linalg.norm(p))
    np.testing.assert_allclose(z @ q_hat @ v.conj().T, q, atol=1e-13 * np.linalg.norm(q))
    np.testing.assert_allclose(p_hat @ q_hat.conj().T, t, atol=1e-13 * size)
    np.testing.assert_allclose(z @ t @ z.conj().T, p @ q.conj().T, atol=1e-13 * size)
    assert not np.triu(q_hat, 1).any()
    real = not np.iscomplexobj(t)
    assert not np.tril(t, -2 if real else -1).any()
    j, magnitudes = 0, []
    while j < len(t):
        block = 2 if real and j + 1 < len(t) and t[j + 1, j] != 0.0 else 1
        magnitudes.append(abs(np.linalg.det(t[j : j + block, j : j + block])) ** (1 / block))
        if magnitudes[-1] > 1e-10 * size:
            assert np.linalg.norm(p_hat[j + block :, j : j + block]) <= 1e-10 * np.linalg.norm(p)
        j += block
    assert all(a >= b - 1e-12 * size for a, b in zip(magnitudes, magnitudes[1:]))


class TestNormalizePair:
    def test_worked_pair_already_normal(self):
        form = normalize_pair(WORKED_P, WORKED_Q)
        z, v, p_hat, q_hat, t = form
        np.testing.assert_allclose(z, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p_hat, WORKED_P, atol=1e-12)
        np.testing.assert_allclose(q_hat, WORKED_Q, atol=1e-12)
        np.testing.assert_allclose(t, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert_normal_form(WORKED_P, WORKED_Q, form)

    def test_fixed_point(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        z, v, p_hat, q_hat, t = normalize_pair(p, p)
        np.testing.assert_allclose(z, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(t, p, atol=1e-12)

    def test_accepts_orthogonal_pair(self):
        # no precondition: an orthogonal pair has t = p q^H = 0
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        form = normalize_pair(p, q)
        assert_normal_form(p, q, form)
        assert not form[4].any()

    def test_normal_form_margins(self, rng):
        for field in ScalarField:
            for shape, t in (((4, 5), 3), ((5, 4), 4), ((6, 6), 4), ((8, 8), 5)):
                d = VarietyDescriptor(*shape, t, field)
                for _ in range(10):
                    p, q = random_member(d, rng), random_member(d, rng)
                    assert_normal_form(p, q, normalize_pair(p, q))

    def test_real_pair_with_complex_eigenvalues_only(self):
        # p q^T has one complex-conjugate pair and zeros: one 2 x 2 block
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        p = sample_stratum(d, 2, 1.0, 6)
        q = sample_stratum(d, 2, 1.5, 1006)
        form = normalize_pair(p, q)
        assert_normal_form(p, q, form)
        t = form[4]
        assert t[1, 0] != 0.0
        assert np.abs(t[2:, 2:]).max() <= 1e-14


def reference_normalize_pair(p, q):
    """``normalize_pair`` ranking the trailing blocks afresh at every
    position: the loop whose outputs ranking once per swap must reproduce
    bit for bit."""
    p, q = as_matrix(p), as_matrix(q)
    cross = p @ q.conj().T
    real = not np.iscomplexobj(cross)
    t, z = schur(cross, output="real" if real else "complex")
    trexc = lapack.dtrexc if real else lapack.ztrexc
    j = 0
    while j < len(t):
        starts, eig = paths._block_eigenvalues(t[j:, j:])
        first = j + starts[np.lexsort((-eig.imag, -eig.real, -np.abs(eig)))[0]]
        if first != j:
            t, z, _ = trexc(t, z, first + 1, j + 1)
        j += paths._block_size(t, j)
    v, r = np.linalg.qr(q.conj().T @ z, mode="complete")
    return z, v, z.conj().T @ p @ v, r.conj().T, t


@st.composite
def schur_pairs(draw):
    """Pairs up to 40 x 40 over both fields: Gaussian ones, whose p q^H has
    distinct eigenvalues (complex-conjugate 2 x 2 blocks over the reals),
    lower-rank members (a repeated zero eigenvalue), signed permutations
    (eigenvalues of equal modulus, over the reals many conjugate blocks of
    modulus 1), diagonals over a few values (exactly tied keys) and those
    diagonals in a random unitary basis (near ties)."""
    field = draw(st.sampled_from(list(ScalarField)))
    kind = draw(st.sampled_from(["gaussian", "member", "permutation", "diagonal", "rotated"]))
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40)) if kind in ("gaussian", "member") else m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    identity = np.eye(m, dtype=field.dtype)
    if kind == "gaussian":
        shape = (2, m, n)
        pair = rng.standard_normal(shape)
        if field is ScalarField.COMPLEX:
            pair = pair + 1j * rng.standard_normal(shape)
        return pair[0], pair[1]
    if kind == "member":
        d = VarietyDescriptor(m, n, min(m, n), field)
        return random_member(d, rng, min(m, n) - 1), random_member(d, rng, min(m, n) - 1)
    if kind == "permutation":
        signs = rng.choice([-1.0, 1.0], m)
        return (identity[rng.permutation(m)] * signs).astype(field.dtype), identity
    values = [-2.0, -1.0, 0.0, 1.0, 2.0] + ([1j, -1j, 1 + 1j] if field is ScalarField.COMPLEX else [])
    diagonal = np.diag(rng.choice(values, m)).astype(field.dtype)
    if kind == "rotated":
        u = random_unitary(m, rng, field)
        diagonal = u @ diagonal @ u.conj().T
    return diagonal, identity


class TestNormalizePairOrdering:
    @settings(max_examples=150)
    @given(schur_pairs())
    def test_bitwise_equal_to_ranking_every_position(self, pair):
        p, q = pair
        for got, expected in zip(normalize_pair(p, q), reference_normalize_pair(p, q)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


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

    def test_swapped_ranks_reverse_the_route(self, rng):
        # the recursion always pivots on the smaller rank, so swapping the
        # endpoints replays the same route backwards
        d = VarietyDescriptor(3, 3, 3, ScalarField.COMPLEX)
        low = random_member(d, rng, rank=1)
        high = random_member(d, rng, rank=2)
        forward, cert = build_path(low, high, d)
        backward, _ = build_path(high, low, d)
        assert trace_kinds(cert)[0] is BranchKind.GENERAL
        assert np.array_equal(forward.start, low) and np.array_equal(forward.end, high)
        assert len(backward.breakpoints) == len(forward.breakpoints)
        for a, b in zip(forward.breakpoints, reversed(backward.breakpoints)):
            np.testing.assert_array_equal(a, b)

    def test_real_block_step(self):
        # p q^T has only complex eigenvalues (one conjugate pair and zeros):
        # one RealBlock step trades both rows of p's corner, the trailing
        # blocks are zero, and the last leg closes both columns
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        p = sample_stratum(d, 2, 1.0, 6)
        q = sample_stratum(d, 2, 1.5, 1006)
        eigenvalues = np.linalg.eigvals(p @ q.T)
        assert np.count_nonzero(np.abs(eigenvalues.imag) > 1e-3) == 2
        assert np.abs(eigenvalues[np.abs(eigenvalues.imag) <= 1e-3]).max() <= 1e-14
        path, cert = build_path(p, q, d)
        assert [str(tag) for tag in cert.branch_trace] == ["RealBlock(0)"]
        assert cert.certified_bound == 4.0
        assert cert.ratio == pytest.approx(1.3941955121748968, rel=1e-9)
        assert len(path.breakpoints) == 3
        # each leg is bounded by its ends' trailing strips: nothing is sampled
        assert cert.samples_per_segment == 0
        assert cert.max_relative_residual <= 1e-12
        # the two legs are disjoint blocks of p - q, so each is at most outer
        legs = [np.linalg.norm(b - a) for a, b in zip(path.breakpoints, path.breakpoints[1:])]
        assert max(legs) <= cert.outer_distance

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
        for rank_p, rank_q in itertools.product(range(d.t), repeat=2):
            for _ in range(3):
                p = random_member(d, rng, rank=rank_p)
                q = random_member(d, rng, rank=rank_q)
                path, _ = build_path(p, q, d)
                assert np.array_equal(path.start, p)
                assert np.array_equal(path.end, q)

    def test_endpoints_are_copied(self):
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        for p, q in (
            (sample_stratum(d, 2, 1.0, 1), sample_stratum(d, 2, 1.0, 2)),
            (sample_stratum(d, 1, 1.0, 3), np.zeros(d.shape, dtype=complex)),
        ):
            path, _ = build_path(p, q, d)
            start, end = path.start.copy(), path.end.copy()
            p[0, 0] += 1.0
            q[1, 1] -= 1.0
            assert np.array_equal(path.start, start)
            assert np.array_equal(path.end, end)

    def test_certified_bound_per_branch(self, rng):
        zero = np.zeros((2, 2))
        _, radial = build_path(WORKED_P, zero, D22)
        assert radial.certified_bound == 1.0
        _, orthogonal = build_path(np.diag([1.0, 0.0]), np.diag([0.0, 2.0]), D22)
        assert trace_kinds(orthogonal) == [BranchKind.ORTHOGONAL]
        assert orthogonal.certified_bound == 2.0

        d = VarietyDescriptor(4, 4, 4, ScalarField.COMPLEX)
        for rank_p, rank_q in [(1, 3), (3, 1), (2, 3), (3, 3)]:
            p = random_member(d, rng, rank=rank_p)
            q = random_member(d, rng, rank=rank_q)
            _, cert = build_path(p, q, d)
            assert trace_kinds(cert)[0] is BranchKind.GENERAL
            assert cert.certified_bound == 2.0 * min(rank_p, rank_q)

        # real pairs whose p q^T has a complex-conjugate eigenvalue pair: a
        # 2 x 2 Schur block at the root takes a RealBlock step, certified
        # with the same bound 2 * min rank
        root_d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        deep_d = VarietyDescriptor(4, 4, 4, ScalarField.REAL)
        for d, seed, trace in [
            (root_d, 6, ["RealBlock(0)"]),
            (deep_d, 4, ["RealBlock(0)", "General(2)"]),
        ]:
            p = sample_stratum(d, d.max_rank, 1.0, seed)
            q = sample_stratum(d, d.max_rank, 1.5, seed + 1000)
            _, cert = build_path(p, q, d)
            assert [str(tag) for tag in cert.branch_trace] == trace
            assert cert.certified_bound == 2.0 * d.max_rank
            assert 1.0 < cert.ratio <= cert.certified_bound

    def test_rejects_non_finite_and_overflowing_pairs(self):
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        p = sample_stratum(d, 2, 1.0, 1)
        q = sample_stratum(d, 2, 1.0, 2)
        for bad in (np.inf, -np.inf, np.nan):
            broken = p.copy()
            broken[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                build_path(broken, q, d)
            with pytest.raises(ValueError, match="non-finite"):
                build_path(p, broken, d)
        # finite entries whose norm is beyond the double range
        unit = p / np.linalg.norm(p)
        huge = ldexp(unit, 1024)
        assert np.isfinite(huge).all()
        with pytest.raises(ValueError, match="non-finite entry or its Frobenius norm overflows"):
            build_path(huge, q, d)
        # two points of finite norm, 2^1023, whose distance is 2^1024
        with pytest.raises(ValueError, match="distance between p and q overflows"):
            build_path(ldexp(unit, 1023), ldexp(-unit, 1023), d)
        # at 2^512 the squares overflow, but the norms do not: the pair is
        # rescaled exactly and takes the unit pair's route
        _, base = build_path(p, q, d)
        big_path, big = build_path(ldexp(p, 512), ldexp(q, 512), d)
        assert big.branch_trace == base.branch_trace
        assert big.ratio == base.ratio <= big.certified_bound
        assert big.outer_distance == math.ldexp(base.outer_distance, 512)
        assert all(np.isfinite(b).all() for b in big_path.breakpoints)

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


@st.composite
def member_pairs(draw):
    """Tall, wide and square pairs over both fields at every rank pair, plus
    real adversarial pairs (near-orthogonal, barely non-orthogonal, ...)."""
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    t = draw(st.integers(1, min(m, n)))
    field = draw(st.sampled_from(list(ScalarField)))
    d = VarietyDescriptor(m, n, t, field)
    seed = draw(st.integers(0, 2**32 - 1))
    if field is ScalarField.REAL and t >= 2 and draw(st.booleans()):
        return (d,) + adversarial_pair(d, seed, draw(st.integers(0, 11)))
    rng = np.random.default_rng(seed)
    rank_p = draw(st.integers(0, t - 1))
    rank_q = draw(st.integers(0, t - 1))
    return d, random_member(d, rng, rank_p), random_member(d, rng, rank_q)


@st.composite
def tall_member_pairs(draw):
    """Pairs with a shorter side of 24 to 64 and a longer one up to three
    times that, 2 <= t <= 4, over both fields: the shapes where the range
    sketch of ``_core_frames`` starts to find the core."""
    short = draw(st.integers(24, 64))
    long = draw(st.integers(short, 3 * short))
    m, n = (long, short) if draw(st.booleans()) else (short, long)
    t = draw(st.integers(2, 4))
    d = VarietyDescriptor(m, n, t, draw(st.sampled_from(list(ScalarField))))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return (d,) + adversarial_pair(d, seed, draw(st.integers(0, 11)))
    rng = np.random.default_rng(seed)
    rank_p = draw(st.integers(0, t - 1))
    rank_q = draw(st.integers(0, t - 1))
    return d, random_member(d, rng, rank_p), random_member(d, rng, rank_q)


def sketch_applies(d):
    return paths._SKETCH_RATIO * (d.t - 1 + paths._SKETCH_OVERSAMPLING) <= min(d.shape)


# t >= 32 on a tall pair whose core (k = 12 + 32 = 44 < 50) is compressed
_LARGE_T = VarietyDescriptor(60, 50, 33, ScalarField.COMPLEX)
_LARGE_T_CASE = (
    _LARGE_T,
    sample_stratum(_LARGE_T, 12, 1.0, 3),
    sample_stratum(_LARGE_T, 32, 1.7, 4),
)


# near-coincident (outer about 1e-6 of the norm): the moved pair's ratio
# differs by 1.1e-9, the rounding of its breakpoints over that small chord
_NEAR_COINCIDENT = VarietyDescriptor(12, 11, 7, ScalarField.REAL)
_NEAR_COINCIDENT_CASE = (_NEAR_COINCIDENT,) + adversarial_pair(_NEAR_COINCIDENT, 78920354, 7)


class TestBuildPathProperties:
    @settings(max_examples=300)
    @given(member_pairs())
    @example(_LARGE_T_CASE)
    def test_certificate_holds(self, case):
        d, p, q = case
        path, cert = build_path(p, q, d)
        assert np.array_equal(path.start, p)
        assert np.array_equal(path.end, q)
        assert cert.max_relative_residual <= 1e-8
        assert_certified(cert, p, q, d)

    @settings(max_examples=60)
    @given(member_pairs(), st.integers(-600, 500))
    def test_power_of_two_scaling_is_exact(self, case, j):
        d, p, q = case
        path, cert = build_path(p, q, d)
        scaled_path, scaled = build_path(2.0**j * p, 2.0**j * q, d)
        assert len(scaled_path.breakpoints) == len(path.breakpoints)
        for a, b in zip(path.breakpoints, scaled_path.breakpoints):
            assert np.array_equal(2.0**j * a, b)
        assert scaled.branch_trace == cert.branch_trace
        assert scaled.certified_bound == cert.certified_bound
        assert scaled.ratio == cert.ratio
        assert scaled.outer_distance == 2.0**j * cert.outer_distance
        assert scaled.length == 2.0**j * cert.length

    @settings(max_examples=100)
    @given(member_pairs(), st.integers(0, 2**32 - 1))
    @example(_NEAR_COINCIDENT_CASE, 0)
    def test_unitary_equivariance(self, case, seed):
        # x -> U x V is an isometry that preserves rank, and the construction
        # commutes with it: the moved pair takes the moved route
        d, p, q = case
        rng = np.random.default_rng(seed)
        u, v = random_unitary(d.m, rng, d.field), random_unitary(d.n, rng, d.field)
        path, cert = build_path(p, q, d)
        moved_path, moved = build_path(u @ p @ v, u @ q @ v, d)
        assert moved.branch_trace == cert.branch_trace
        # breakpoints rounded by about eps ||p|| move the ratio by about
        # eps ||p|| / outer: at most 1.6e-15 ||p|| / outer over 480
        # near-coincident pairs, so 1e-14 leaves a factor of 6 on top of
        # the 1e-9 that a near-threshold route's conditioning takes
        outer = cert.outer_distance
        scale = max(np.linalg.norm(p), np.linalg.norm(q))
        tol = 1e-9 + 1e-14 * scale / outer if outer else 0.0
        assert moved.ratio == pytest.approx(cert.ratio, abs=tol)
        assert moved.certified_bound == cert.certified_bound
        assert_certified(moved, u @ p @ v, u @ q @ v, d)
        assert len(moved_path.breakpoints) == len(path.breakpoints)

    @settings(max_examples=100)
    @given(member_pairs())
    def test_reversal_keeps_the_bound(self, case):
        d, p, q = case
        _, cert = build_path(p, q, d)
        _, back = build_path(q, p, d)
        assert back.certified_bound == cert.certified_bound
        assert_certified(cert, p, q, d)
        assert_certified(back, q, p, d)

    @settings(max_examples=100)
    @given(member_pairs())
    def test_reversal_replays_the_route(self, case):
        # the recursion pivots on the smaller rank, so with distinct ranks the
        # reversed pair replays the route backwards (equal ranks may take
        # another route)
        d, p, q = case
        if rank_of(p, d) == rank_of(q, d):
            return
        path, cert = build_path(p, q, d)
        back_path, back = build_path(q, p, d)
        assert back.branch_trace == cert.branch_trace
        assert back.certified_bound == pytest.approx(cert.certified_bound, abs=1e-9)
        assert len(back_path.breakpoints) == len(path.breakpoints)
        scale = max(np.linalg.norm(p), np.linalg.norm(q))
        for a, b in zip(path.breakpoints, reversed(back_path.breakpoints)):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-9 * scale)

    def test_barely_non_orthogonal_pair_symmetries(self):
        # |<p, q>| at 3x the orthogonality threshold; p has rank 2, q rank 1.
        # The normal form leaves noise of relative size ~1e-9 in q's trailing
        # block, which has rank 0: snapped to that known rank, the block is the
        # cone point, so the route cannot follow the noise's direction
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        p, q = adversarial_pair(d, 7, 5)
        rng = np.random.default_rng(0)
        u, v = random_unitary(4, rng, d.field), random_unitary(4, rng, d.field)
        _, cert = build_path(p, q, d)
        _, moved = build_path(u @ p @ v, u @ q @ v, d)
        _, back = build_path(q, p, d)
        assert [str(tag) for tag in cert.branch_trace] == ["General(0)", "Radial(1)"]
        assert moved.branch_trace == back.branch_trace == cert.branch_trace
        assert moved.ratio == pytest.approx(cert.ratio, abs=1e-9)
        assert back.ratio == pytest.approx(cert.ratio, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-100, 1e-170])
    def test_tiny_pair_takes_the_unit_scale_route(self, scale):
        # norms, p q^H and the residual floor used to underflow here: at 1e-170
        # the pair read as coincident although the segment's midpoint has
        # sigma_3 / sigma_1 = 0.26, and at 1e-100 it found no usable eigenpair
        d = VarietyDescriptor(4, 4, 3, ScalarField.COMPLEX)
        p = sample_stratum(d, 2, 1.0, 1)
        q = sample_stratum(d, 2, 1.0, 2)
        _, base = build_path(p, q, d)
        assert trace_kinds(base) == [BranchKind.GENERAL, BranchKind.GENERAL]
        _, cert = build_path(scale * p, scale * q, d)
        assert cert.branch_trace == base.branch_trace
        assert cert.certified_bound == base.certified_bound == 4.0
        assert cert.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert cert.outer_distance == pytest.approx(scale * base.outer_distance, rel=1e-12)
        assert cert.max_relative_residual <= 1e-8

    @pytest.mark.parametrize("tiny_first", [True, False])
    def test_tiny_endpoint_snap_is_finite(self, tiny_first):
        # after the power-of-two scaling the tiny endpoint's squares underflow,
        # and its snap back from the core lift used to read 0 / 0
        d = VarietyDescriptor(6, 5, 3, ScalarField.REAL)
        p, q = sample_stratum(d, 2, 1.0, 1), sample_stratum(d, 2, 1.0, 2)
        pair = (1e-300 * p, q) if tiny_first else (p, 1e-300 * q)
        path, cert = build_path(*pair, d)
        assert np.array_equal(path.start, pair[0]) and np.array_equal(path.end, pair[1])
        assert 0.0 <= cert.max_relative_residual <= 1e-8
        assert_certified(cert, *pair, d)

    def test_tiny_off_variety_point_rejected(self):
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        with pytest.raises(MembershipError):
            build_path(1e-170 * np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros((4, 4)), d)


class TestCompressedPath:
    """Pairs embedded into a larger space by isometries W, Z are built on
    their k x k core, k = max(rank p + rank q, t), and lifted back."""

    CASES = [
        ((m, n), t, (t - 1, t - 1), False)
        for m, n in itertools.product((20, 100), repeat=2)
        for t in (2, 3, 4)
    ] + [
        # rank p + rank q < t pads the core to t; a zero endpoint; p == q
        ((20, 20), 3, (1, 1), False),
        ((20, 20), 3, (0, 2), False),
        ((20, 20), 3, (2, 2), True),
        # tall pairs whose core frames come from the range sketch
        ((200, 150), 4, (3, 3), False),
        ((300, 40), 3, (2, 2), False),
        ((48, 300), 4, (3, 2), False),
        ((200, 150), 4, (1, 1), False),
        ((200, 150), 4, (0, 3), False),
        ((200, 150), 4, (3, 3), True),
    ]

    @pytest.mark.parametrize("field", list(ScalarField))
    @pytest.mark.parametrize("shape, t, ranks, coincident", CASES)
    def test_embedded_pair_matches_its_core(self, rng, field, shape, t, ranks, coincident):
        k = max(sum(ranks), t)
        core = VarietyDescriptor(k, k, t, field)
        core_p = random_member(core, rng, ranks[0])
        core_q = core_p.copy() if coincident else random_member(core, rng, ranks[1])
        _, base = build_path(core_p, core_q, core)

        d = VarietyDescriptor(*shape, t, field)
        w = random_unitary(d.m, rng, field)[:, :k]
        z = random_unitary(d.n, rng, field)[:, :k]
        p, q = w @ core_p @ z.conj().T, w @ core_q @ z.conj().T
        path, cert = build_path(p, q, d)
        assert cert.branch_trace == base.branch_trace
        assert cert.certified_bound == base.certified_bound
        assert_certified(cert, p, q, d)
        assert cert.ratio == pytest.approx(base.ratio, rel=1e-9)
        assert np.array_equal(path.start, p) and np.array_equal(path.end, q)
        assert all(b.dtype == field.dtype for b in path.breakpoints)
        assert cert.max_relative_residual <= 1e-8

        # the certificate made on the core holds for the returned polyline
        full = certify(path, d)
        assert full.max_relative_residual <= 1e-8
        assert full.ratio == pytest.approx(cert.ratio, rel=1e-12)
        assert full.outer_distance == pytest.approx(cert.outer_distance, rel=1e-12)
        assert full.length == pytest.approx(cert.length, rel=1e-12)

    def test_no_svd_is_full_size(self, rng, monkeypatch):
        # the range sketch finds the core, so every SVD has a side of at most
        # twice the sketch width, and none is of an m x n matrix
        shapes = []
        real_svd = np.linalg.svd

        def recording_svd(*args, **kwargs):
            shapes.append(np.shape(args[0]))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for d in (
            VarietyDescriptor(100, 100, 3, ScalarField.COMPLEX),
            VarietyDescriptor(200, 150, 4, ScalarField.REAL),
        ):
            shapes.clear()
            p, q = random_member(d, rng, d.t - 1), random_member(d, rng, d.t - 1)
            _, cert = build_path(p, q, d)
            assert trace_kinds(cert)[0] in (BranchKind.GENERAL, BranchKind.REAL_BLOCK)
            width = d.t - 1 + paths._SKETCH_OVERSAMPLING
            assert len(shapes) >= 1
            assert max(min(shape[-2:]) for shape in shapes) <= 2 * width

    def test_one_schur_form_per_path(self, rng, monkeypatch):
        # 11 General levels on a 22 x 22 core, all read off one ordered Schur
        # form, and every breakpoint but the endpoints mapped back once
        d = VarietyDescriptor(24, 24, 12, ScalarField.COMPLEX)
        p, q = random_member(d, rng, 11), random_member(d, rng, 11)
        shapes = []
        real_normalize_pair = paths.normalize_pair

        def counting_normalize_pair(lead, trail):
            shapes.append(lead.shape)
            return real_normalize_pair(lead, trail)

        monkeypatch.setattr(paths, "normalize_pair", counting_normalize_pair)
        _, cert = build_path(p, q, d)
        assert trace_kinds(cert) == [BranchKind.GENERAL] * 11
        assert shapes == [(22, 22)]


class TestMeasuredOnce:
    """``build_path`` bounds the residual of its core stack and measures only
    the polyline it returns."""

    CASES = [
        # compressed onto a 4 x 4 core, and built as it is (k = 8 = min(m, n))
        (VarietyDescriptor(100, 100, 3, ScalarField.COMPLEX), True),
        (VarietyDescriptor(8, 8, 5, ScalarField.COMPLEX), False),
        (VarietyDescriptor(8, 8, 5, ScalarField.REAL), False),
    ]

    @pytest.mark.parametrize("d, compressed", CASES)
    def test_one_measurement_per_call(self, rng, monkeypatch, d, compressed):
        p, q = random_member(d, rng, d.t - 1), random_member(d, rng, d.t - 1)
        spectra = paths._endpoint_spectra(np.stack([[p, q]]), d)
        assert (paths._core_frames(spectra, d)[0][2] is not None) == compressed
        measured = []
        real_measure = paths._measure

        def counting_measure(lines):
            measured.extend(len(line) for line in lines)
            return real_measure(lines)

        monkeypatch.setattr(paths, "_measure", counting_measure)
        path, _ = build_path(p, q, d)
        assert measured == [len(path.breakpoints)]

    @pytest.mark.parametrize("d, compressed", CASES)
    def test_certificate_measures_the_returned_path(self, rng, d, compressed):
        # at unit scale (largest entry 1/2, so the power-of-two scaling is 1)
        # distance, length and ratio are those of the returned polyline, bitwise
        for _ in range(5):
            p, q = random_member(d, rng, d.t - 1), random_member(d, rng)
            top = 2.0 * max(np.abs(p).max(), np.abs(q).max())
            p, q = p / top, q / top
            path, cert = build_path(p, q, d)
            assert (cert.outer_distance, cert.length, cert.ratio) == path.measure()


_PAIR_KINDS = (
    "members",
    "coincident",
    "scaled",
    "zero",
    "non_finite",
    "wrong_shape",
    "off_variety",
    "overflowing_distance",
    "overflowing_length",
)


def _pair_of_kind(kind, d, rng, exponent):
    """A pair of ``kind`` on d, its entries times 2^exponent: pairs that
    ``build_path`` builds, and pairs that it must refuse."""
    p, q = random_member(d, rng, int(rng.integers(0, d.t))), random_member(d, rng)
    if kind == "coincident":
        q = p.copy()
    elif kind == "scaled":
        q = float(rng.choice([-2.0, 0.25, 3.0])) * p
    elif kind == "zero":
        p = np.zeros(d.shape, dtype=d.field.dtype)
    elif kind == "non_finite":
        p = p.copy()
        p.flat[int(rng.integers(0, p.size))] = rng.choice([np.inf, -np.inf, np.nan])
    elif kind == "wrong_shape":
        q = np.zeros((d.m + 1, d.n), dtype=d.field.dtype)
    elif kind == "off_variety":
        # every matrix of a Gaussian stack has full rank min(m, n) >= t
        p = as_matrix(rng.standard_normal(d.shape), d.field)
    elif kind == "overflowing_distance":
        p = np.zeros(d.shape, dtype=d.field.dtype)
        p[0, 0] = 1.5e308
        q = -p
        return p, q
    elif kind == "overflowing_length":
        # orthogonal: the distance is 1.41e308, but the route through 0 is
        # 2e308 long, so the certificate's length overflows
        p, q = np.zeros(d.shape, dtype=d.field.dtype), np.zeros(d.shape, dtype=d.field.dtype)
        p[0, 0] = q[-1, -1] = 1e308
        return p, q
    return ldexp(p, exponent), ldexp(q, exponent)


@st.composite
def mixed_blocks(draw):
    """A descriptor and a block of up to six pairs for ``build_paths``: small
    shapes up to 12 x 12 with t up to 8, or the tall 48 x 40 at t = 3 whose
    pairs the range sketch compresses, over both fields, each pair of any
    kind of ``_PAIR_KINDS`` and at unit scale or 2^+-540."""
    field = draw(st.sampled_from(list(ScalarField)))
    if draw(st.integers(0, 4)) == 0:
        d = VarietyDescriptor(48, 40, 3, field)
    else:
        m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        d = VarietyDescriptor(m, n, draw(st.integers(1, min(m, n, 8))), field)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_PAIR_KINDS), min_size=1, max_size=6))
    exponents = draw(st.lists(st.sampled_from([0, 540, -540]), min_size=6, max_size=6))
    return d, [_pair_of_kind(kind, d, rng, e) for kind, e in zip(kinds, exponents)]


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return exc


class TestBuildPaths:
    """``build_paths`` batches the stages of ``build_path`` that do not
    depend on the route, and each pair comes out as it does alone."""

    @settings(max_examples=150)
    @given(mixed_blocks())
    def test_each_pair_as_built_alone(self, case):
        d, pairs = case
        batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        assert len(batch) == len(pairs)
        for (p, q), result in zip(pairs, batch):
            alone = _outcome(build_path, p, q, d)
            if isinstance(alone, Exception):
                assert type(result) is type(alone) and str(result) == str(alone)
                continue
            (path, cert), (alone_path, alone_cert) = result, alone
            # repr tells every float bitwise, signed zeros included
            assert repr(cert) == repr(alone_cert)
            assert len(path.breakpoints) == len(alone_path.breakpoints)
            for a, b in zip(path.breakpoints, alone_path.breakpoints):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_every_kind_in_one_block(self, rng):
        # one pair of each kind: the ones that must fail fail with their own
        # message, and the others are built
        d = VarietyDescriptor(5, 4, 3, ScalarField.COMPLEX)
        pairs = [_pair_of_kind(kind, d, rng, 0) for kind in _PAIR_KINDS]
        batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        failed = {kind: str(r) for kind, r in zip(_PAIR_KINDS, batch) if isinstance(r, Exception)}
        assert set(failed) == {
            "non_finite",
            "wrong_shape",
            "off_variety",
            "overflowing_distance",
            "overflowing_length",
        }
        assert "non-finite" in failed["non_finite"]
        assert failed["wrong_shape"] == "q: expected shape (5, 4), got (6, 4)"
        assert "off the variety" in failed["off_variety"]
        assert "distance between p and q overflows" in failed["overflowing_distance"]
        assert isinstance(batch[_PAIR_KINDS.index("overflowing_length")], OverflowError)

    def test_no_pairs(self):
        assert build_paths([], [], D22) == []

    @staticmethod
    def assert_built_alone(batch, pairs, d):
        for (p, q), result in zip(pairs, batch, strict=True):
            path, cert = result
            alone_path, alone_cert = build_path(p, q, d)
            assert repr(cert) == repr(alone_cert)
            assert len(path.breakpoints) == len(alone_path.breakpoints)
            assert all(map(np.array_equal, path.breakpoints, alone_path.breakpoints))

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_an_overflowing_certificate_is_charged_to_its_pair(self, rng, field):
        # the pair's length passes the double range where its distance does
        # not: only its certificate raises, and the pairs around it are built
        d = VarietyDescriptor(4, 4, 3, field)
        p, q = _pair_of_kind("overflowing_length", d, rng, 0)
        with pytest.raises(OverflowError):
            build_path(p, q, d)
        good = [(random_member(d, rng, 1), random_member(d, rng)) for _ in range(2)]
        pairs = [good[0], (p, q), good[1]]
        batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        assert isinstance(batch[1], OverflowError)
        self.assert_built_alone(batch[::2], good, d)

    @pytest.mark.parametrize("failing", [False, True])
    def test_a_clean_block_is_built_once(self, monkeypatch, rng, failing):
        # a block of pairs that all build takes one _build_block call; one
        # failing pair sends every pair of the block through alone
        d = VarietyDescriptor(5, 4, 3, ScalarField.COMPLEX)
        kinds = ["members", "coincident", "scaled", "zero", "members", "scaled"]
        if failing:
            kinds[2] = "off_variety"
        pairs = [_pair_of_kind(kind, d, rng, 0) for kind in kinds]
        real_block = paths._build_block
        calls = []

        def counted(block, d):
            calls.append(len(block))
            return real_block(block, d)

        monkeypatch.setattr(paths, "_build_block", counted)
        batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        monkeypatch.undo()
        assert calls == ([6] + [1] * 6 if failing else [6])
        if failing:
            assert isinstance(batch[2], paths.MembershipError)
            del batch[2], pairs[2]
        self.assert_built_alone(batch, pairs, d)

    @pytest.mark.parametrize("stage", ["_endpoint_spectra", "_core_frames", "_measure"])
    def test_a_failing_block_stage_builds_each_pair_alone(self, monkeypatch, rng, stage):
        # a stage run once for the block that raises fails every pair of it:
        # each is then built alone, as build_path builds it
        d = VarietyDescriptor(6, 5, 3, ScalarField.COMPLEX)
        pairs = [(random_member(d, rng, r), random_member(d, rng)) for r in (0, 1, 2)]
        real_stage = getattr(paths, stage)

        def fragile(items, *args):
            if len(items) > 1:
                raise FloatingPointError("overflow encountered in a stacked stage")
            return real_stage(items, *args)

        monkeypatch.setattr(paths, stage, fragile)
        batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        monkeypatch.undo()
        self.assert_built_alone(batch, pairs, d)

    def test_stacked_svd_failure_is_charged_to_its_pair(self, monkeypatch, rng):
        # a stacked SVD that fails fails its whole stack: every pair is then
        # built alone, and only the pair whose own SVD fails records it
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        pairs = [(random_member(d, rng), random_member(d, rng)) for _ in range(3)]
        bad = pairs[1][0]
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            if any(np.array_equal(x, ldexp(bad, -int(np.frexp(np.abs(bad).max())[1])))
                   for x in np.reshape(a, (-1, *d.shape))):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        assert isinstance(batch[1], np.linalg.LinAlgError)
        assert not isinstance(batch[0], Exception) and not isinstance(batch[2], Exception)


@st.composite
def route_stacks(draw):
    """One to four stacks of one point shape, m and n up to 12, over either
    field, each with the positions a route makes: 0, the end of each
    level's Schur block (of size 1, or 2 over the reals), that end once
    more for an orthogonal terminal, and back to 0.  Entries are Gaussian,
    some of them 0, scaled by a power of two from the subnormal, the
    underflowing or the unit range; t is up to 8."""
    field = draw(st.sampled_from(list(ScalarField)))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = st.one_of(st.integers(-1090, -1000), st.integers(-560, -480), st.integers(-8, 8))
    stacks, positions = [], []
    for _ in range(draw(st.integers(1, 4))):
        ends = [0]
        while ends[-1] < min(m, n) and draw(st.booleans()):
            real_block = field is ScalarField.REAL and ends[-1] + 2 <= min(m, n)
            ends.append(ends[-1] + draw(st.sampled_from([1, 2] if real_block else [1])))
        route = ends + ends[-1:] * draw(st.integers(0, 1)) + ends[-2::-1]
        points = as_matrix(rng.standard_normal((len(route), m, n)), field)
        if field is ScalarField.COMPLEX:
            points += 1j * rng.standard_normal(points.shape)
        points[rng.random(points.shape) < 0.3] = 0.0
        stacks.append(ldexp(points, draw(scale)))
        positions.append(route)
    return stacks, positions, draw(st.integers(1, 8))


def sampled_pair(cfg, index):
    """The pair of trial ``index`` of ``cfg``, as ``run_trials`` draws it."""
    return harness._sample_pair(cfg, index, mix_seed(cfg.master_seed, index))


class TestBlockCertificate:
    """``_build_block`` certifies every route of a block in one
    ``_schur_residuals`` call, each kernel once per shape, and every
    certificate is the one its pair gets alone."""

    @settings(max_examples=200)
    @given(route_stacks())
    def test_trailing_bounds_of_a_concatenation_are_each_stack_s(self, case):
        # bitwise: the row and column sums and the masked reductions of each
        # point do not depend on the points stacked around it
        stacks, positions, t = case
        alone = [paths._trailing_bounds(stack, route, t) for stack, route in zip(stacks, positions)]
        together = paths._trailing_bounds(np.concatenate(stacks), sum(positions, []), t)
        for k, joined in enumerate(together):
            assert np.concatenate([bounds[k] for bounds in alone]).tobytes() == joined.tobytes()

    @settings(max_examples=100)
    @given(st.sampled_from(list(ScalarField)), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_stacked_maps_are_each_map_s(self, field, seed, count):
        # bitwise: the Gram products and np.vdot's dots of each frame, and
        # the endpoint images, do not depend on the frames stacked with them,
        # in either layout that routes make: C order (a product) or Fortran
        # order (a Schur factor).  Few shapes, so that stacks form
        rng = np.random.default_rng(seed)

        def frame():
            rows = int(rng.choice([1, 5, 12, 40]))
            a = random_unitary(rows, rng, field)[:, : min(rows, int(rng.integers(1, 4)))]
            return np.asfortranarray(a) if rng.integers(2) else a.copy()

        def alone(a):
            gram = a.conj().T @ a
            gram.flat[:: len(gram) + 1] -= 1.0
            squares = np.vdot(a, a).real
            gamma = paths.product_gamma(len(a), field)
            defect = math.sqrt(np.vdot(gram, gram).real) + gamma * squares
            return math.sqrt(1.0 + defect), math.sqrt(max(0.0, 1.0 - defect)), squares

        lefts, rights = [frame() for _ in range(count)], [frame() for _ in range(count)]
        assert paths._frame_bounds(lefts + rights, field) == [alone(a) for a in lefts + rights]
        points = []
        for a, b in zip(lefts, rights):
            x = rng.standard_normal((2, a.shape[1], b.shape[1]))
            if field is ScalarField.COMPLEX:
                x = x + 1j * rng.standard_normal(x.shape)
            points.append(x)
        layouts = [(paths._layout(a), paths._layout(b)) for a, b in zip(lefts, rights)]
        for group in paths._groups(layouts):
            stacks = (paths._stacked([x[k] for k in group]) for x in (lefts, rights, points))
            for k, image in zip(group, paths._images(*stacks)):
                assert image.tobytes() == (lefts[k] @ points[k] @ rights[k].conj().T).tobytes()

    @staticmethod
    def built_in_one_pass(pairs, d):
        """``build_paths`` of ``pairs`` with the routes of each
        ``_schur_residuals`` call, the core shape of each ``_trailing_bounds``
        call and the number of ``_segment_ratios`` and ``_residual_bound``
        calls, then each pair built alone."""
        seen = {"blocks": [], "cores": [], "_segment_ratios": 0, "_residual_bound": 0}
        schur, trailing = paths._schur_residuals, paths._trailing_bounds

        def recording_schur(routes):
            seen["blocks"].append(routes)
            return schur(routes)

        def recording_trailing(stack, positions, t):
            seen["cores"].append(stack.shape[1:])
            return trailing(stack, positions, t)

        def counting(name):
            real = getattr(paths, name)

            def counted(*args):
                seen[name] += 1
                return real(*args)

            return counted

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(paths, "_schur_residuals", recording_schur)
            patch.setattr(paths, "_trailing_bounds", recording_trailing)
            for name in ("_segment_ratios", "_residual_bound"):
                patch.setattr(paths, name, counting(name))
            batch = build_paths([p for p, _ in pairs], [q for _, q in pairs], d)
        # the stacked kernels are bitwise for points in C order and frames
        # in C or Fortran order
        routes = [route for routes in seen["blocks"] for route in routes]
        assert all(route.stack.flags.c_contiguous for route in routes)
        framed = [route for route in routes if route.left is not None]
        frames = [a for route in framed for a in (route.left, route.right)]
        assert all(a.flags.c_contiguous or a.flags.f_contiguous for a in frames)
        # one _trailing_bounds call per core shape of a block's routes of
        # more than three points, whatever their lengths
        (block,) = seen["blocks"]
        deep = {route.stack.shape[1:] for route in block if len(route.stack) > 3}
        assert sorted(seen["cores"]) == sorted(deep)
        for (p, q), (path, cert) in zip(pairs, batch, strict=True):
            alone_path, alone_cert = build_path(p, q, d)
            # repr tells every float bitwise, signed zeros included
            assert repr(cert) == repr(alone_cert)
            assert len(path.breakpoints) == len(alone_path.breakpoints)
            assert all(map(np.array_equal, path.breakpoints, alone_path.breakpoints))
        return batch, seen

    def test_a_tall_real_block(self):
        # the 8 top-stratum pairs ``rankpath trials`` draws at master seed 3
        # on 200 x 150 real pairs, General and RealBlock routes whose pair at
        # index 6 holds the one segment the structure cannot settle, with
        # first-level routes under the identity (coincident, to 0,
        # collinear, orthogonal) and lower ranks, so cores of 4, 5 and 6
        d = VarietyDescriptor(200, 150, 4, ScalarField.REAL)
        cfg = TrialConfig(d, 8, 3, RankPairStrategy.TOP_STRATUM_ONLY)
        pairs = [sampled_pair(cfg, i) for i in range(8)]
        p = pairs[0][0]
        pairs += [(p, p.copy()), (p, 0.0 * p), (p, 2.5 * p), adversarial_pair(d, 1, 2)]
        pairs += [
            (sample_stratum(d, rank_p, 1.0, seed), sample_stratum(d, rank_q, 1.2, 100 + seed))
            for seed, (rank_p, rank_q) in enumerate([(1, 1), (1, 3), (2, 3), (2, 2)])
        ]
        batch, seen = self.built_in_one_pass(pairs, d)
        assert [len(routes) for routes in seen["blocks"]] == [len(pairs)]
        # routes of one core shape and different lengths share the kernels
        lengths = {}
        for route in seen["blocks"][0]:
            if len(route.stack) > 3:
                lengths.setdefault(route.stack.shape[1:], set()).add(len(route.stack))
        assert any(len(found) > 1 for found in lengths.values())
        certs = [cert for _, cert in batch]
        kinds = {tag.kind for cert in certs for tag in cert.branch_trace}
        assert kinds == set(BranchKind) and any(not cert.branch_trace for cert in certs)
        assert {max(sum(cert.endpoint_ranks), d.t) for cert in certs} == {4, 5, 6}
        # the one segment that takes _segment_ratios and then _residual_bound
        assert seen["_residual_bound"] == 1 and seen["_segment_ratios"] >= 1
        assert [cert.samples_per_segment for cert in certs] == [0] * 6 + [3] + [0] * 9
        assert 1e-12 < max(cert.max_relative_residual for cert in certs) < 1e-11

    def test_a_block_with_and_without_frames(self, monkeypatch):
        # 6 x 6 complex pairs: cores of 4 and 5 compressed by frames, cores
        # of 6 built on the pair itself, and first-level routes.  Every normal
        # form misses its endpoint by 1e-9 of its norm, so a segment at each
        # such end follows sigma_1 along it (_segment_ratios) and settles
        d = VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX)
        real = paths.normalize_pair

        def missing(lead, trail):
            z, v, p_hat, q_hat, t = real(lead, trail)
            p_hat = p_hat.copy()
            p_hat[0, 0] += 1e-9 * np.linalg.norm(p_hat)
            return z, v, p_hat, q_hat, t

        monkeypatch.setattr(paths, "normalize_pair", missing)
        ranks = [(3, 3), (1, 1), (1, 2), (3, 3), (2, 2), (2, 3)]
        pairs = [
            (sample_stratum(d, rank_p, 1.0, seed), sample_stratum(d, rank_q, 1.3, 50 + seed))
            for seed, (rank_p, rank_q) in enumerate(ranks)
        ]
        p = pairs[0][0]
        pairs += [(p, p.copy()), (0.0 * p, p), adversarial_pair(d, 2, 2)]
        batch, seen = self.built_in_one_pass(pairs, d)
        (routes,) = seen["blocks"]
        assert len(routes) == len(pairs)
        framed = {route.ends.frames is None for route in routes if route.left is not None}
        assert framed == {True, False}
        assert seen["_segment_ratios"] >= 1 and seen["_residual_bound"] == 0
        assert all(cert.max_relative_residual >= 1e-10 for _, cert in batch[: len(ranks)])


class TestSketchedCore:
    """Tall pairs whose core frames come from the range sketch: the sketch
    decides membership and ranks exactly where the full SVD would, and hands
    every other input to it."""

    @settings(max_examples=150)
    @given(tall_member_pairs())
    def test_certificate_holds(self, case):
        d, p, q = case
        if sketch_applies(d):
            assert paths._sketched_svd(np.stack([p, q]), d) is not None
        path, cert = build_path(p, q, d)
        assert np.array_equal(path.start, p)
        assert np.array_equal(path.end, q)
        assert cert.max_relative_residual <= 1e-8
        assert cert.endpoint_ranks == (rank_of(p, d), rank_of(q, d))
        assert_certified(cert, p, q, d)

    @settings(max_examples=60)
    @given(tall_member_pairs(), st.integers(-600, 500))
    def test_power_of_two_scaling_is_exact(self, case, j):
        d, p, q = case
        path, cert = build_path(p, q, d)
        scaled_path, scaled = build_path(2.0**j * p, 2.0**j * q, d)
        assert len(scaled_path.breakpoints) == len(path.breakpoints)
        for a, b in zip(path.breakpoints, scaled_path.breakpoints):
            assert np.array_equal(2.0**j * a, b)
        assert scaled.branch_trace == cert.branch_trace
        assert scaled.certified_bound == cert.certified_bound
        assert scaled.ratio == cert.ratio
        assert scaled.outer_distance == 2.0**j * cert.outer_distance
        assert scaled.length == 2.0**j * cert.length
        assert scaled.max_relative_residual == cert.max_relative_residual

    def test_endpoint_outside_the_sketch_takes_the_full_svd(self):
        # p's rows are orthogonal to every column of the fixed test matrix,
        # so p Omega = 0 and the sketch does not see p: its margin is all of
        # p, and the pair goes to the full SVD without a warning
        d = VarietyDescriptor(100, 100, 3, ScalarField.REAL)
        width = d.t - 1 + paths._SKETCH_OVERSAMPLING
        omega = np.random.default_rng(paths._SKETCH_SEED).standard_normal((d.n, width))
        complement = np.linalg.qr(omega, mode="complete")[0][:, width:]
        u = np.random.default_rng(1).standard_normal(d.m)
        p = np.outer(u, complement[:, 0])
        q = sample_stratum(d, 2, 1.0, 3)
        for pair in ((p, q), (p, np.outer(u, complement[:, 1]))):
            assert paths._sketched_svd(np.stack(pair), d) is None
            _, cert = build_path(*pair, d)
            assert cert.endpoint_ranks == (rank_of(pair[0], d), rank_of(pair[1], d))
            assert cert.max_relative_residual <= 1e-8
            assert_certified(cert, *pair, d)

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_noisy_members(self, field):
        # relative noise 1e-12 leaves every tail far below the rank threshold,
        # and the sketch decides.  At 1e-9 the rank_of rule counts noise
        # directions the sketch cannot see, so the full SVD decides: the same
        # ranks, and no snap onto a sketched core.  At 1e-7 the point is off
        # the variety, and the message carries the full SVD's residual.
        d = VarietyDescriptor(200, 150, 4, field)
        assert sketch_applies(d)
        p, q = sample_stratum(d, 3, 1.0, 5), sample_stratum(d, 3, 1.3, 6)
        # noise of full rank 150 with a flat spectrum and unit Frobenius norm
        noise = random_unitary(200, np.random.default_rng(7), field)[:, :150]
        noise /= np.linalg.norm(noise)
        for level, sketched in ((1e-12, True), (1e-9, False)):
            noisy = p + level * np.linalg.norm(p) * noise
            assert (paths._sketched_svd(np.stack([noisy, q]), d) is not None) is sketched
            _, cert = build_path(noisy, q, d)
            assert cert.endpoint_ranks == (rank_of(noisy, d), rank_of(q, d))
            assert cert.max_relative_residual <= 1e-8
        noisy = p + 1e-7 * np.linalg.norm(p) * noise
        residual = membership_residual(noisy, d)
        message = f"point 'p' is off the variety: membership residual {residual:.3e}"
        with pytest.raises(MembershipError, match=re.escape(message)):
            build_path(noisy, q, d)


@st.composite
def large_core_pairs(draw):
    """Pairs whose core, max(rank p + rank q, t) on a side, is at least 32,
    so their routes have 16 levels or more: square 34 to 44 with t from 17,
    and tall ones up to 30 rows or columns longer; top-stratum, lower-rank
    and adversarial pairs over both fields."""
    short = draw(st.integers(34, 44))
    long = short + draw(st.sampled_from([0, draw(st.integers(1, 30))]))
    m, n = (long, short) if draw(st.booleans()) else (short, long)
    t = draw(st.integers(17, short))
    d = VarietyDescriptor(m, n, t, draw(st.sampled_from(list(ScalarField))))
    seed = draw(st.integers(0, 2**32 - 1))
    if t >= 32 and draw(st.booleans()):
        return (d,) + adversarial_pair(d, seed, draw(st.integers(0, 11)))
    rank_p = draw(st.integers(max(1, 33 - t), t - 1))
    rank_q = draw(st.integers(max(1, 32 - rank_p), t - 1))
    rng = np.random.default_rng(seed)
    return d, random_member(d, rng, rank_p), random_member(d, rng, rank_q)


EPS = float(np.finfo(np.float64).eps)


def residuals_less_rounding(points, d):
    """sigma_t / sigma_1 of each point of a stack, less an allowance for the
    rounding of the point and of its SVD: 4 max(m, n) eps ||x||_F / sigma_1."""
    sigma = spectra(points, d)
    tops = np.maximum(sigma[:, 0], np.finfo(np.float64).tiny)
    slack = 4 * max(d.shape) * EPS * np.linalg.norm(points, axis=(1, 2)) / tops
    return spectral_residuals(sigma, d) - slack


def built(p, q, d):
    """``build_path``'s path and certificate, with the ``_Route`` that its
    one ``_schur_residuals`` call certified."""
    seen = {"route": None}
    schur = paths._schur_residuals

    def recording_schur(routes):
        (seen["route"],) = routes
        return schur(routes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(paths, "_schur_residuals", recording_schur)
        path, cert = build_path(p, q, d)
    return path, cert, seen


def sampled_residuals(stack, d):
    """Every residual ``_residual_bound`` reads on a stack of breakpoints,
    the breakpoints' own and its samples inside segments, less rounding."""
    seen = [residuals_less_rounding(stack, d)]
    real = paths._sampled_residual

    def recording(a, step, degree, *args):
        nodes = 0.5 * (1.0 - np.cos(np.arange(1, degree) * np.pi / degree))
        nodes = nodes[:, np.newaxis, np.newaxis]
        seen.append(residuals_less_rounding(a + nodes * step, d))
        return real(a, step, degree, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(paths, "_sampled_residual", recording)
        paths._residual_bound(stack, d)
    return np.concatenate(seen)


def dense_residuals(path, d, count=50):
    """Residuals, less rounding, at ``count`` evenly spaced points inside
    each segment of a path."""
    s = (np.arange(1, count + 1) / (count + 1))[:, np.newaxis, np.newaxis]
    found = [
        residuals_less_rounding(a + s * (b - a), d)
        for a, b in zip(path.breakpoints, path.breakpoints[1:])
    ]
    return np.concatenate(found) if found else np.zeros(0)


@st.composite
def trailing_points(draw):
    """A (2, m, n) stack of block-diagonal points D_j + x over either field,
    m and n up to 12, each with its own position j, whose parts are 0 or
    any float of magnitude up to 2 times a power of two from the subnormal,
    the underflowing or the unit range, and any t."""
    field = draw(st.sampled_from(list(ScalarField)))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    width = 2 if field is ScalarField.COMPLEX else 1
    part = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    scale = st.one_of(st.integers(-1090, -1000), st.integers(-560, -480), st.integers(-8, 8))
    points, positions = [], []
    for _ in range(2):
        parts = draw(st.lists(part, min_size=m * n * width, max_size=m * n * width))
        point = ldexp(np.array(parts).view(field.dtype).reshape(m, n), draw(scale))
        j = draw(st.integers(0, min(m, n)))
        point[:j, j:], point[j:, :j] = 0.0, 0.0
        points.append(point)
        positions.append(j)
    return np.stack(points), positions, draw(st.integers(1, 16))


class TestStructuralBound:
    """``build_path`` bounds the residual of its route from the Schur block
    structure: bounds on each trailing block's sigma_1 from the norms of its
    rows and columns, on each point's sigma_t from its row and column strips,
    interpolated along each leg, and one Weyl charge for the map back onto
    the returned path."""

    @settings(max_examples=60)
    @given(st.one_of(member_pairs(), large_core_pairs(), tall_member_pairs()))
    def test_bounds_every_sampled_residual(self, case):
        # the residuals that the generic rule (``certify``'s) reads on the
        # returned path, and 50 points inside each returned segment
        d, p, q = case
        path, cert = build_path(p, q, d)
        assert sampled_residuals(np.stack(path.breakpoints), d).max() <= cert.max_relative_residual
        assert dense_residuals(path, d).max(initial=0.0) <= cert.max_relative_residual
        assert cert.max_relative_residual <= 1e-8

    @settings(max_examples=200)
    @given(trailing_points())
    @example((np.stack([np.eye(3), np.eye(3)]), [0, 1], 3))
    def test_trailing_bounds_hold_against_exact_spectra(self, case):
        # top <= sigma_1(x) of each trailing block x, and each of the point's
        # two strips >= its sigma_t, up to the SVD's own rounding, also where
        # the squares of the entries underflow.  The identity's sigma_3 is its
        # last row alone, and its last column alone
        stack, positions, t = case
        tops, rows, cols = paths._trailing_bounds(stack, positions, t)
        for point, j, top, strips in zip(stack, positions, tops, zip(rows, cols)):
            block = point[j:, j:]
            sigma = np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(1)
            whole = np.concatenate([np.linalg.svd(point, compute_uv=False), np.zeros(t)])
            slack = 8 * max(point.shape) * EPS * whole[0]
            assert top <= sigma[0] + slack
            for strip in strips:
                assert strip >= whole[t - 1] - slack

    def test_legs_are_bounded_by_their_strips(self):
        # a hand-built route of four points D_1 + x behind the corner 2, under
        # the identity map.  Its first leg has a larger exact residual inside
        # than at either end: x goes from [[1, 0], [e, 0]] to [[0, 1], [0, 0]],
        # both of rank 1, through x(1/2) of sigma_2 about 0.35 e.  Its last leg
        # has small rows at one end and small columns at the other: x goes from
        # [[0, e], [0, 0]] to [[0, 0], [e, 0]], so the smaller strip of either
        # end is 0, while sigma_3 reaches e / 2 at s = 1/2.  Each strip,
        # interpolated on its own, bounds both legs from the structure
        e = 1e-13
        d = VarietyDescriptor(3, 3, 3, ScalarField.REAL)
        stack = np.zeros((4, 3, 3))
        stack[:, 0, 0] = 2.0
        stack[:, 1:, 1:] = [[[1.0, 0.0], [e, 0.0]], [[0.0, 1.0], [0.0, 0.0]],
                            [[0.0, e], [0.0, 0.0]], [[0.0, 0.0], [e, 0.0]]]
        sigma = spectra(stack[[0, -1]], d)
        residuals, tops = spectral_residuals(sigma, d).tolist(), sigma[:, 0].tolist()
        ends = paths._Ends((stack[0], stack[-1]), residuals, tops, None, d)
        route = paths._Route(
            stack, [1] * 4, [("leg", 1)] * 3, [0.0, 2.0], None, None, [False] * 3, ends,
            [], 1.0, stack[1:-1],
        )
        ((worst, samples),) = paths._schur_residuals([route])
        assert samples == 0
        dense = dense_residuals(PiecewisePath(tuple(stack)), d)
        assert 1e-14 < dense.max() <= worst <= e

    def test_dropped_entries_are_charged(self, monkeypatch):
        # entries far above rounding below a corner of p_hat, which every
        # first leg drops: the certificate still bounds the exact residual
        # inside each returned segment, and the entries show in it
        d = VarietyDescriptor(8, 8, 5, ScalarField.COMPLEX)
        p, q = sample_stratum(d, 4, 1.0, 1), sample_stratum(d, 4, 1.3, 2)
        real = paths.normalize_pair

        def noisy(lead, trail):
            z, v, p_hat, q_hat, t = real(lead, trail)
            p_hat = p_hat.copy()
            p_hat[2:, 1] += 1e-7
            return z, v, p_hat, q_hat, t

        monkeypatch.setattr(paths, "normalize_pair", noisy)
        path, cert = build_path(p, q, d)
        assert trace_kinds(cert) == [BranchKind.GENERAL] * 4
        dense = dense_residuals(path, d)
        assert 1e-8 < dense.max() <= cert.max_relative_residual <= 1e-6

    @pytest.mark.parametrize("end", ["p", "q"])
    def test_endpoint_misses_are_charged(self, monkeypatch, end):
        # a normal form whose p_hat (or q_hat) misses its endpoint by 1e-7 of
        # its norm, at an entry that only the endpoint itself holds: p_hat's
        # first row is traded at the first leg, q_hat's first column below
        # the corner closed at the last.  The returned path starts at the
        # exact endpoint, so the certificate charges the miss: at least a
        # tenth of it, against below 1e-12 without the miss
        d = VarietyDescriptor(12, 12, 5, ScalarField.COMPLEX)
        p, q = sample_stratum(d, 4, 1.0, 1), sample_stratum(d, 4, 1.3, 2)
        real = paths.normalize_pair

        def missing(lead, trail):
            z, v, p_hat, q_hat, t = real(lead, trail)
            p_hat, q_hat = p_hat.copy(), q_hat.copy()
            if end == "p":
                p_hat[0, 0] += 1e-7 * np.linalg.norm(p_hat)
            else:
                q_hat[1, 0] += 1e-7 * np.linalg.norm(q_hat)
            return z, v, p_hat, q_hat, t

        assert build_path(p, q, d)[1].max_relative_residual < 1e-12
        monkeypatch.setattr(paths, "normalize_pair", missing)
        path, cert, seen = built(p, q, d)
        # a route with frames: its Schur stack is 8 x 8, and L maps it onto 12 x 12
        stack, left = seen["route"].stack, seen["route"].left
        assert stack.shape[1:] == (8, 8) and left.shape == (12, 8)
        assert trace_kinds(cert) == [BranchKind.GENERAL] * 4
        assert cert.max_relative_residual >= 1e-8
        assert dense_residuals(path, d).max() <= cert.max_relative_residual

    def test_map_charges_its_unitarity_defect(self, rng):
        # frames 1e-3 from orthonormal stretch the second singular direction
        # of x, so the residual of a x b^H exceeds x's 1e-6
        d = VarietyDescriptor(3, 3, 2, ScalarField.REAL)
        x = np.diag([1.0, 1e-6, 0.0])
        a = random_unitary(3, rng, d.field) @ np.diag([1.0, 1.0 + 1e-3, 1.0])
        b = random_unitary(3, rng, d.field)
        moved = membership_residual(a @ x @ b.T, d)
        assert moved > 1e-6 * (1.0 + 5e-4)
        (lift,) = paths._map_bounds([a], [b], d.field)
        assert lift.residual(1e-6, 0.0) >= moved

    @pytest.mark.parametrize(
        "d, pairs",
        [
            # the adversarial cycle, on a tall complex pair
            (VarietyDescriptor(120, 80, 4, ScalarField.COMPLEX), None),
            # top-stratum, lower-rank and zero endpoints on a tall real pair
            (VarietyDescriptor(200, 150, 4, ScalarField.REAL), [(3, 3), (1, 3), (2, 2), (0, 3)]),
        ],
    )
    def test_returned_path_is_covered(self, rng, d, pairs):
        # the frames' unitarity defects and the lift's rounding are charged,
        # so the bound covers the returned m x n polyline, not only its core
        if pairs is None:
            cases = [adversarial_pair(d, 1, i) for i in range(12)]
        else:
            cases = [(random_member(d, rng, a), random_member(d, rng, b)) for a, b in pairs]
        for p, q in cases:
            path, cert = build_path(p, q, d)
            assert dense_residuals(path, d).max(initial=0.0) <= cert.max_relative_residual
            assert cert.max_relative_residual <= 1e-8

    def test_no_step_or_breakpoint_is_decomposed(self, monkeypatch):
        # 38 rank-1 steps on the 38 x 38 core: the endpoint SVD, and QR only
        # of the frames and of the normal form; no step, sketch of a step, k x
        # k breakpoint or trailing block
        d = VarietyDescriptor(40, 40, 20, ScalarField.COMPLEX)
        p, q = sample_stratum(d, 19, 1.0, 1), sample_stratum(d, 19, 1.3, 2)
        calls = []
        for name in ("svd", "qr"):
            real = getattr(np.linalg, name)

            def recording(*args, _real=real, _name=name, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        path, cert = build_path(p, q, d)
        assert trace_kinds(cert) == [BranchKind.GENERAL] * 19
        assert len(path.breakpoints) - 1 == 38
        svds = [shape for name, shape in calls if name == "svd"]
        assert svds == [(2, 40, 40)]
        # the frames take one stacked QR per side, here of one pair
        assert [shape for name, shape in calls if name == "qr"] == [
            (1, 40, 38),
            (1, 40, 38),
            (38, 38),
        ]
        assert cert.samples_per_segment == 0
        assert cert.max_relative_residual <= 1e-11

    def test_high_rank_ray_is_certified_by_its_endpoints(self):
        # ranks 13 and 19 give a 32 x 32 core: 13 General levels, then the
        # Radial leg from the corner to q's rank-6 trailing block.  That leg
        # is a ray, so its endpoints certify it; ``certify``, which knows no
        # route, reads the step's exact spectrum, rank 6, and samples it at
        # min(t, 6) - 1 = 5 interior points
        d = VarietyDescriptor(40, 40, 20, ScalarField.COMPLEX)
        p, q = sample_stratum(d, 13, 1.0, 3), sample_stratum(d, 19, 1.2, 4)
        path, cert = build_path(p, q, d)
        assert [str(tag) for tag in cert.branch_trace[-2:]] == ["General(12)", "Radial(13)"]
        assert cert.samples_per_segment == 0
        generic = certify(path, d)
        assert generic.samples_per_segment == 5
        assert generic.max_relative_residual <= cert.max_relative_residual <= 1e-8

    @pytest.mark.parametrize(
        "d",
        [
            VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX),
            # compressed onto a core, and still read on the m x n points
            VarietyDescriptor(12, 9, 4, ScalarField.REAL),
        ],
    )
    def test_first_level_routes_reach_the_kernel_with_the_identity_map(self, d):
        # a route that ends at its first level has no Schur form: its stack
        # is the scaled points it returns, every one at position 0, its
        # segments are rays, and its map is the identity (left None)
        p = sample_stratum(d, d.max_rank, 1.0, 1)
        cases = [
            ([BranchKind.RADIAL], p, 0 * p),
            ([BranchKind.RADIAL], 0 * p, p),
            ([BranchKind.RADIAL], p, -3.0 * p),
            ([BranchKind.ORTHOGONAL], *adversarial_pair(d, 1, 2)),
            ([], p, p.copy()),
        ]
        for kinds, a, b in cases:
            path, cert, seen = built(a, b, d)
            assert trace_kinds(cert) == kinds
            route = seen["route"]
            stack, positions, rays, tops_d = route.stack, route.positions, route.kinds, route.tops_d
            assert route.left is None and route.right is None
            assert stack.shape[1:] == d.shape
            assert positions == [0] * len(stack) and tops_d == [0.0]
            assert [kind[0] for kind in rays] == ["ray"] * (len(stack) - 1)
            ends = route.ends
            assert {stack[0].tobytes(), stack[-1].tobytes()} == {
                point.tobytes() for point in ends.points
            }
            if kinds == [BranchKind.ORTHOGONAL]:
                assert len(path.breakpoints) == 3 and not path.breakpoints[1].any()

    @pytest.mark.parametrize(
        "d",
        [
            VarietyDescriptor(12, 9, 4, ScalarField.REAL),
            VarietyDescriptor(10, 10, 3, ScalarField.COMPLEX),
        ],
    )
    def test_first_level_rays_certified_by_their_endpoint_residuals(self, d):
        # on pairs compressed onto a core, a ray to 0 and the two legs of the
        # orthogonal route are certified by their endpoints alone: the
        # certificate is the larger endpoint residual, bitwise.  A map through
        # the frames would charge a zero endpoint, whose sigma_1 bound is 0, a
        # residual of 1, and the legs its rounding
        for seed in range(5):
            p = sample_stratum(d, d.max_rank, 1.0, seed)
            cases = [
                (BranchKind.RADIAL, (p, 0 * p)),
                (BranchKind.RADIAL, (0 * p, p)),
                (BranchKind.ORTHOGONAL, adversarial_pair(d, seed, 2)),
            ]
            for kind, (a, b) in cases:
                _, cert, seen = built(a, b, d)
                ends = seen["route"].ends
                assert ends.frames is not None
                assert trace_kinds(cert) == [kind]
                assert cert.max_relative_residual == max(ends.residuals)


class TestMeasure:
    def test_two_point_ratio_is_length_over_outer(self, rng):
        d = VarietyDescriptor(3, 4, 3, ScalarField.COMPLEX)
        path = PiecewisePath((random_member(d, rng, 2), random_member(d, rng, 1)))
        outer, length, ratio = path.measure()
        assert ratio == length / outer

    def test_ratio_is_not_clamped(self):
        # collinear breakpoints whose rounded segment lengths sum to one ulp
        # below the chord: the ratio reports that instead of reading 1
        path = PiecewisePath(tuple(np.array([[x]]) for x in (0.18, 0.32, 0.99)))
        outer, length, ratio = path.measure()
        assert ratio == length / outer
        assert ratio < 1.0

    @pytest.mark.parametrize("count", [_BATCH_MIN_POINTS - 1, _BATCH_MIN_POINTS + 2])
    def test_length_adds_its_steps_in_order(self, count):
        # steps of norm 1, 2^-53, 2^-53, ...: added one at a time from the
        # first, every small step rounds away (half an ulp of 1, to even),
        # where a pairwise or compensated sum keeps them.  Both sides of the
        # batching threshold sum by the same rule
        half_ulp = 2.0**-53
        xs = [0.0] + [1.0 - half_ulp * (i % 2) for i in range(count - 1)]
        norms = np.abs(np.diff(xs))
        assert norms.tolist() == [1.0] + [half_ulp] * (count - 2)
        path = PiecewisePath(tuple(np.array([[x]]) for x in xs))
        assert path.length() == float(np.cumsum(norms)[-1]) == 1.0
        assert math.fsum(norms) > 1.0

    @pytest.mark.parametrize("count", [2, 3, 12])
    def test_length_of_a_tiny_polyline_scales(self, rng, count):
        # one segment, and below and above _BATCH_MIN_POINTS: at 2^-540 the
        # squares of every step underflow, and the length, the chord and
        # their ratio must still be the unit ones, scaled
        d = VarietyDescriptor(3, 4, 3, ScalarField.COMPLEX)
        points = [random_member(d, rng, 2) for _ in range(count)]
        tiny = PiecewisePath(tuple(np.ldexp(p.view(float), -540).view(complex) for p in points))
        unit = PiecewisePath(tuple(points))
        expected = np.ldexp(unit.length(), -540)
        assert tiny.length() == pytest.approx(expected, rel=1e-14, abs=0.0)
        (outer, _, ratio), (tiny_outer, _, tiny_ratio) = unit.measure(), tiny.measure()
        assert tiny_outer == pytest.approx(np.ldexp(outer, -540), rel=1e-14, abs=0.0)
        assert tiny_ratio == pytest.approx(ratio, rel=1e-14)


class TestCertify:
    def test_single_breakpoint(self):
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        cert = certify(PiecewisePath((p,)), D22)
        assert cert.length == 0.0
        assert cert.ratio == 1.0
        assert cert.max_relative_residual <= 1e-15

    def test_radial_residual_matches_endpoint(self, rng):
        p = random_member(D22, rng, rank=1)
        cert = certify(PiecewisePath((p, 0 * p)), D22)
        assert cert.ratio == 1.0
        assert cert.max_relative_residual <= 1e-12

    def test_worked_pair_interior_residuals(self):
        # both steps have rank 1, so the breakpoints certify the segments
        path, _ = build_path(WORKED_P, WORKED_Q, D22)
        cert = certify(path, D22)
        assert cert.samples_per_segment == 0
        assert cert.max_relative_residual <= 1e-10

    def test_default_bound_is_variety_constant(self):
        cert = certify(PiecewisePath((WORKED_P, 0 * WORKED_P)), D22)
        assert cert.certified_bound == 2.0

    def test_off_variety_segment_caught(self):
        # the step diag(-1, 1) has rank 2, so the segment is sampled at its
        # one interior Chebyshev-Lobatto node, the midpoint diag(1/2, 1/2),
        # which has full rank
        path = PiecewisePath((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        cert = certify(path, D22)
        assert cert.samples_per_segment == 1
        assert cert.max_relative_residual == pytest.approx(1.0)

    def test_rank_three_step_between_on_variety_nodes_caught(self):
        # det(a + s I) = s (s - 1/2) (s - 1): on the variety at s = 0, 1/2
        # and 1, off it in between.  The step has rank 3 = t, so the segment
        # is sampled at s = 1/4 and 3/4, where sigma_3 / sigma_1 = 1/3.
        d = VarietyDescriptor(3, 3, 3, ScalarField.REAL)
        a = np.diag([0.0, -0.5, -1.0])
        cert = certify(PiecewisePath((a, a + np.eye(3))), d)
        assert cert.max_relative_residual == pytest.approx(1.0 / 3.0)
        assert cert.samples_per_segment == 2
        # splitting at the on-variety midpoint hides nothing
        split = certify(PiecewisePath((a, a + 0.5 * np.eye(3), a + np.eye(3))), d)
        assert split.max_relative_residual > 0.1

    def test_step_tail_is_charged_or_sampled(self):
        # a rank-1 step plus a tail eps e3 e3^T: sigma_1 >= l = 1/sqrt(2) on
        # the segment, so the tail adds 2 eps / l = 4 eps / sqrt(2) to the
        # worst breakpoint residual eps / sqrt(2); a tail too large for the
        # charge sends the segment to full degree t = 2, one interior sample
        d = VarietyDescriptor(3, 3, 2, ScalarField.REAL)
        a = np.diag([1.0, 0.0, 0.0])
        for eps, samples, residual in ((1e-14, 0, 5.0), (1e-11, 1, 1.0)):
            b = a.copy()
            b[0, 1], b[2, 2] = 1.0, eps
            cert = certify(PiecewisePath((a, b)), d)
            assert cert.samples_per_segment == samples
            assert cert.max_relative_residual == pytest.approx(residual * eps / np.sqrt(2.0))

    def test_step_rank_from_its_exact_spectrum(self, monkeypatch):
        # a rank-4 step whose fourth singular value sits just above the rank
        # threshold, between breakpoints 1e5 times larger: the step's exact
        # spectrum gives rank 4, so the segment is sampled at 3 points
        d = VarietyDescriptor(40, 40, 20, ScalarField.COMPLEX)
        rng = np.random.default_rng(3)
        u = random_unitary(40, rng, d.field)[:, :4]
        v = random_unitary(40, rng, d.field)[:, :4]
        step = u @ np.diag([1.0, 0.5, 0.25, 1e-9]) @ v.conj().T
        a = 1e5 * sample_stratum(d, 10, 1.0, 1)
        exact_calls = []
        exact_step_bounds = paths._exact_step_bounds

        def recording(steps, core):
            exact_calls.append(len(steps))
            return exact_step_bounds(steps, core)

        monkeypatch.setattr(paths, "_exact_step_bounds", recording)
        cert = certify(PiecewisePath((a, a + step)), d)
        assert exact_calls == [1]
        assert cert.samples_per_segment == 3
        assert cert.max_relative_residual <= 1e-12

    def test_t_at_least_32_pair(self):
        d = VarietyDescriptor(34, 34, 33, ScalarField.COMPLEX)
        p = sample_stratum(d, 32, 1.0, 1)
        q = sample_stratum(d, 32, 1.3, 2)
        _, cert = build_path(p, q, d)
        # a General-only route: every step has rank 1
        assert cert.samples_per_segment == 0
        assert cert.max_relative_residual <= 1e-12
        assert cert.ratio <= cert.certified_bound + 1e-9

    @pytest.mark.parametrize(
        "shape, t, field",
        [
            ((5, 5), 4, ScalarField.REAL),
            ((6, 6), 6, ScalarField.COMPLEX),
            # compressed onto a 6 x 6 core: the ray is read on the returned
            # points, where q = -2^k p exactly, under the exact identity map
            ((12, 9), 4, ScalarField.REAL),
        ],
    )
    def test_ray_through_zero_certified_by_its_endpoints(self, shape, t, field):
        # q = -2^k p rides p's ray through 0, every point a multiple of p.  For
        # q = -p and even t a Chebyshev-Lobatto node sits at the zero crossing,
        # where a sample holds only rounding and used to read about 0.1
        d = VarietyDescriptor(*shape, t, field)
        for seed in range(10):
            p = sample_stratum(d, t - 1, 1.0, seed)
            for q in (-p, -4.0 * p, -0.5 * p):
                _, cert = build_path(p, q, d)
                assert trace_kinds(cert) == [BranchKind.RADIAL]
                assert cert.max_relative_residual <= 1e-12
                assert cert.samples_per_segment == 0

    @pytest.mark.parametrize("shape, t, seed", [((8, 8), 5, 1), ((4, 4), 3, 3)])
    def test_barely_non_orthogonal_leg_settles_from_its_strips(
        self, shape, t, seed, monkeypatch
    ):
        # pair 5 of the adversarial cycle is barely non-orthogonal, so its
        # first leg drops a tail of about 3.5e-10.  The ends' trailing strips
        # bound that leg without a sample: no stack reaches
        # ``_residual_bound``, and the structure's bound stays near rounding
        d = VarietyDescriptor(*shape, t, ScalarField.COMPLEX)
        calls = []
        residual_bound = paths._residual_bound

        def recording(stack, core):
            calls.append(len(stack))
            return residual_bound(stack, core)

        monkeypatch.setattr(paths, "_residual_bound", recording)
        path, cert = build_path(*adversarial_pair(d, seed, 5), d)
        assert trace_kinds(cert) == [BranchKind.GENERAL, BranchKind.RADIAL]
        assert calls == []
        assert cert.samples_per_segment == 0
        assert dense_residuals(path, d).max() <= cert.max_relative_residual < 2e-14

    def test_unsettled_leg_takes_the_generic_rule(self, monkeypatch):
        # the pair ``rankpath trials`` draws at index 6 of seed 3 on 200 x 150
        # real top-stratum pairs: p_hat's rows from t - 1 on hold about 2e-11,
        # so the last first leg, which zeroes the trailing block, cannot be
        # settled from its strips.  Its two Schur-coordinate points go to
        # ``_residual_bound``, which samples by the exact rank of the step and
        # reads its residual off their exact spectra
        d = VarietyDescriptor(200, 150, 4, ScalarField.REAL)
        rng = np.random.default_rng(mix_seed(3, 6))
        p, q = (
            sample_stratum(d, 3, float(rng.uniform(0.5, 2.0)), int(rng.integers(0, 2**63 - 1)))
            for _ in range(2)
        )
        calls = []
        residual_bound = paths._residual_bound

        def recording(stack, core):
            calls.append(len(stack))
            return residual_bound(stack, core)

        monkeypatch.setattr(paths, "_residual_bound", recording)
        path, cert = build_path(p, q, d)
        assert trace_kinds(cert) == [BranchKind.GENERAL] * 3
        assert calls == [2]
        assert cert.samples_per_segment == 3
        assert dense_residuals(path, d).max() <= cert.max_relative_residual < 1e-11

    @pytest.mark.parametrize(
        "shape, t, pairs", [((8, 8), 5, 20), ((40, 40), 20, 4), ((200, 150), 4, 6)]
    )
    def test_settled_routes_take_no_svd(self, shape, t, pairs, monkeypatch):
        # real top-stratum pairs as ``rankpath trials`` draws them, RealBlock
        # steps among them: the certificate takes no SVD in
        # ``_schur_residuals`` but inside ``_residual_bound``, not even on the
        # legs of a real 2 x 2 Schur block
        d = VarietyDescriptor(*shape, t, ScalarField.REAL)
        blocks, inside = [], []
        schur, residual_bound, svd = paths._schur_residuals, paths._residual_bound, np.linalg.svd

        def recording_schur(routes):
            blocks.append({"routes": len(routes), "svd": 0})
            inside.append("structure")
            try:
                return schur(routes)
            finally:
                inside.pop()

        def counting_svd(*args, **kwargs):
            if inside and inside[-1] == "structure":
                blocks[-1]["svd"] += 1
            return svd(*args, **kwargs)

        def recording_bound(*args):
            inside.append("generic")
            try:
                return residual_bound(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(paths, "_schur_residuals", recording_schur)
        monkeypatch.setattr(paths, "_residual_bound", recording_bound)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        report = run_trials(TrialConfig(d, pairs, 1, RankPairStrategy.TOP_STRATUM_ONLY))
        assert report.errors == 0 and sum(block["routes"] for block in blocks) == pairs
        kinds = {tag.kind for record in report.records for tag in record.branch_trace}
        assert BranchKind.REAL_BLOCK in kinds
        assert not any(block["svd"] for block in blocks)

    def test_negative_ray_test_is_exact(self):
        a = sample_stratum(VarietyDescriptor(4, 5, 3, ScalarField.COMPLEX), 2, 1.0, 1)
        assert all(paths._on_negative_ray(a, c * a) for c in (-1.0, -8.0, -(2.0**-10)))
        assert not any(paths._on_negative_ray(a, c * a) for c in (1.0, 2.0, -3.0, -0.7))
        nudged = -a
        nudged[0, 0] = np.nextafter(nudged[0, 0].real, 0.0) + 1j * nudged[0, 0].imag
        assert not paths._on_negative_ray(a, nudged)
        assert not paths._on_negative_ray(0.0 * a, 0.0 * a)
        # -2^-1074 x rounds into the subnormals, so it is not an exact multiple
        x = np.array([[1.0, 0.75], [0.5, 0.0]])
        assert not paths._on_negative_ray(x, np.ldexp(-x, -1074))

    def test_rejects_wrong_field_and_shape(self):
        complex_path = PiecewisePath((WORKED_P.astype(complex), WORKED_Q.astype(complex)))
        with pytest.raises(DimensionMismatch):
            certify(complex_path, D22)
        with pytest.raises(DimensionMismatch):
            certify(PiecewisePath((np.zeros((3, 3)), np.eye(3))), D22)

    def test_svd_count_follows_step_ranks(self, rng, monkeypatch):
        d = VarietyDescriptor(5, 5, 4, ScalarField.COMPLEX)
        path, cert = build_path(random_member(d, rng, 3), random_member(d, rng, 3), d)
        assert {tag.kind for tag in cert.branch_trace} == {BranchKind.GENERAL}
        points = path.breakpoints
        # a repeated breakpoint adds a zero step, which is never sampled; a
        # closing step of rank >= 2 back to the start is sampled once
        padded = PiecewisePath((points[0],) + points + (points[0],))
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        certify(path, d)
        # a General-only route: one call for the breakpoints, one for the steps
        segments = len(points) - 1
        assert segments >= 3
        assert calls == [(len(points), 5, 5), (segments, 5, 5)]

        calls.clear()
        cert = certify(padded, d)
        closing_rank = np.linalg.matrix_rank(points[0] - points[-1])
        assert closing_rank >= 2
        assert calls == [
            (len(points) + 2, 5, 5),
            (segments + 2, 5, 5),
            (min(d.t, closing_rank) - 1, 5, 5),
        ]
        assert cert.samples_per_segment == min(d.t, closing_rank) - 1


def _reference_residual(a, b, d):
    """The full-degree rule: both ends and t + 1 Chebyshev points of the
    first kind inside the segment, whatever the rank of its step."""
    j = np.arange(d.t + 1)
    offsets = 0.5 * (1.0 - np.cos((2 * j + 1) * np.pi / (2 * (d.t + 1))))
    stack = np.concatenate([[a, b], a + offsets[:, np.newaxis, np.newaxis] * (b - a)])
    return float(membership_residuals(stack, d).max())


@st.composite
def variety_segments(draw):
    """Segments between two members of the variety, over both fields and
    every t: independent members (on the variety when the ranks sum below
    t), members sharing t - 1 columns (always on), and members sharing
    only t - 2 columns (on at both ends, usually off in between)."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, min(m, n)))
    d = VarietyDescriptor(m, n, t, draw(st.sampled_from(list(ScalarField))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["independent", "shared", "tilted"]))
    if kind == "independent" or t == 1:
        ranks = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
        return d, random_member(d, rng, ranks[0]), random_member(d, rng, ranks[1])

    def gaussian(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if d.field is ScalarField.COMPLEX else g

    columns = gaussian(m, t - 1)
    other = columns.copy()
    if kind == "tilted":
        other[:, -1] = gaussian(m)
    return d, columns @ gaussian(t - 1, n), other @ gaussian(t - 1, n)


class TestStepRankCertificate:
    @settings(max_examples=300)
    @given(variety_segments())
    def test_agrees_with_the_full_degree_rule(self, case):
        d, a, b = case
        cert = certify(PiecewisePath((a, b)), d)
        reference = _reference_residual(a, b, d)
        assert (cert.max_relative_residual <= 1e-8) == (reference <= 1e-8)


class TestConjugatePath:
    def test_isometry_and_membership(self, rng):
        # x -> U x V preserves singular values, hence membership and length
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        p = random_member(d, rng, rank=1)
        q = random_member(d, rng, rank=1)
        path, cert = build_path(p, q, d)
        u = random_unitary(3, rng, ScalarField.COMPLEX)
        v = random_unitary(3, rng, ScalarField.COMPLEX)
        moved = PiecewisePath(tuple(u @ b @ v for b in path.breakpoints))
        assert moved.length() == pytest.approx(path.length(), rel=1e-10, abs=1e-12)
        moved_cert = certify(moved, d)
        assert moved_cert.max_relative_residual == pytest.approx(
            cert.max_relative_residual, abs=1e-10
        )


def reference_walk(p, q, d, norms, ranks):
    """The level loop of ``paths._dispatch`` with every pass taken at every
    level: ||x - y|| before anything else, ||y - c x|| whatever <y, x> is,
    and the eigenvalue floor from ||t[j:, j:]||.  Returns the branch tags
    and the terminal ray (base, c), None for the orthogonal route."""
    if ranks[0] > ranks[1]:
        return reference_walk(q, p, d, norms[::-1], ranks[::-1])
    known_p, known_q = (min(r, d.t - 1) for r in ranks)
    scale = max(norms) or 1.0
    x, y = p, q
    norm_x, norm_y = norms
    tags, j, t, ray = [], 0, None, (0, 1.0)
    zero = paths._ZERO_TOL * scale
    while paths.frobenius_norm(x - y) > paths._DEGENERATE_TOL * scale:
        if j > 0:
            norm_x, norm_y = paths.frobenius_norm(x), paths.frobenius_norm(y)
        if norm_x <= zero or norm_y <= zero:
            tags.append(str(paths.BranchTag(BranchKind.RADIAL, j)))
            ray = (int(norm_x <= zero), 0.0)
            break
        cross = paths._inner(y, x)
        coef = cross / (norm_x * norm_x)
        if paths.frobenius_norm(y - coef * x) <= paths._COLLINEAR_TOL * norm_y:
            tags.append(str(paths.BranchTag(BranchKind.RADIAL, j)))
            ray = (0, coef)
            break
        inner = cross if j == 0 else np.trace(t[j:, j:])
        if abs(inner) <= paths.ORTHOGONALITY_THRESHOLD * norm_x * norm_y:
            tags.append(str(paths.BranchTag(BranchKind.ORTHOGONAL, j)))
            ray = None
            break
        if t is None:
            _, _, p_hat, q_hat, t = normalize_pair(p, q)
        size = paths._block_size(t, j)
        floor = paths.ORTHOGONALITY_THRESHOLD / (2.0 * (len(t) - j))
        floor *= paths.frobenius_norm(t[j:, j:])
        block = t[j : j + size, j : j + size]
        det = block[0, 0] if size == 1 else block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
        assert abs(det) >= floor**size
        kind = BranchKind.GENERAL if size == 1 else BranchKind.REAL_BLOCK
        tags.append(str(paths.BranchTag(kind, j)))
        j += size
        x = p_hat[j:, j:] if known_p > j else np.zeros_like(p_hat[j:, j:])
        y = q_hat[j:, j:] if known_q > j else np.zeros_like(q_hat[j:, j:])
    return tags, ray


def walked_routes(monkeypatch, p, q, d):
    """``build_path`` of (p, q), with the arguments of its outermost
    ``_dispatch`` call and the terminal ray of the route that
    ``_schur_residuals`` got: (base, c), or None for the orthogonal route's
    two rays."""
    calls, rays = [], []
    dispatch, kernel = paths._dispatch, paths._schur_residuals

    def spy_dispatch(*args):
        calls.append(args)
        return dispatch(*args)

    def spy_kernel(routes):
        (route,) = routes
        found = [kind[1:] for kind in route.kinds if kind[0] == "ray"]
        rays.append(found[0] if len(found) == 1 else None)
        return kernel(routes)

    monkeypatch.setattr(paths, "_dispatch", spy_dispatch)
    monkeypatch.setattr(paths, "_schur_residuals", spy_kernel)
    path, cert = build_path(p, q, d)
    return path, cert, calls[0], rays[0]


@st.composite
def level_test_pairs(draw):
    """Pairs on shapes from 2 x 2 up to 12 x 12 with t from 2 up to 8, over
    both fields (t = 1 has only the pair (0, 0)):
    members of random ranks, and every kind of the adversarial cycle
    (coincident, near-coincident, near-orthogonal, scaled, cross-strata
    and barely non-orthogonal pairs)."""
    field = draw(st.sampled_from(list(ScalarField)))
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    d = VarietyDescriptor(m, n, draw(st.integers(2, min(m, n, 8))), field)
    seed = draw(st.integers(0, 2**32 - 1))
    # indices into the adversarial cycle; the shrinker favours the first
    kind = draw(st.sampled_from([None, 5, 2, 1, 4, 3, 0]))
    if kind is not None:
        return (d,) + adversarial_pair(d, seed, kind)
    rng = np.random.default_rng(seed)
    return d, random_member(d, rng), random_member(d, rng)


class TestLevelTests:
    """``_dispatch`` takes ||x - y|| and ||y - c x|| only where ||x||, ||y||
    and <y, x> leave a test open, and its eigenvalue floor from ||x|| ||y||:
    every decision is the one the unconditional passes make."""

    @settings(max_examples=300)
    @given(level_test_pairs())
    def test_decisions_match_the_unconditional_walk(self, case):
        d, p, q = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            _, cert, (core_p, core_q, core_d, norms, ranks, _), ray = walked_routes(
                monkeypatch, p, q, d
            )
        tags, expected_ray = reference_walk(core_p, core_q, core_d, norms, ranks)
        assert [str(tag) for tag in cert.branch_trace] == tags
        # repr tells every float bitwise, and a complex from a float
        assert repr(ray) == repr(expected_ray)

    def test_equal_norms_take_the_distance(self, monkeypatch):
        # ||x|| = ||y|| exactly at levels 0 and 1 with x != y: the norms
        # cannot settle the coincidence test, so the distance decides it
        d = VarietyDescriptor(4, 4, 4, ScalarField.REAL)
        p, q = np.diag([4.0, 1.0, 2.0, 0.0]), np.diag([4.0, 2.0, 1.0, 0.0])
        floors = []
        real_floor = paths._distance_floor

        def recording_floor(norm_x, norm_y, size):
            floors.append((norm_x, norm_y, real_floor(norm_x, norm_y, size)))
            return floors[-1][-1]

        monkeypatch.setattr(paths, "_distance_floor", recording_floor)
        _, cert, (core_p, core_q, core_d, norms, ranks, _), ray = walked_routes(
            monkeypatch, p, q, d
        )
        assert len(floors) == 3
        assert all(norm_x == norm_y and floor <= 0.0 for norm_x, norm_y, floor in floors[:2])
        tags, expected_ray = reference_walk(core_p, core_q, core_d, norms, ranks)
        assert [str(tag) for tag in cert.branch_trace] == tags
        assert tags == ["General(0)", "General(1)", "Radial(2)"]
        assert repr(ray) == repr(expected_ray)

    def test_collinear_trailing_blocks_end_radially(self, monkeypatch):
        # p_hat[1:, 1:] = diag(1, 0) and q_hat[1:, 1:] = diag(3, 0), after
        # the power-of-two scaling by 1/8: exactly collinear at level 1
        d = VarietyDescriptor(3, 3, 3, ScalarField.REAL)
        p, q = np.diag([2.0, 1.0, 0.0]), np.diag([4.0, 3.0, 0.0])
        _, cert, _, ray = walked_routes(monkeypatch, p, q, d)
        assert [str(tag) for tag in cert.branch_trace] == ["General(0)", "Radial(1)"]
        assert ray == (0, 3.0)

    @pytest.mark.parametrize("field", list(ScalarField))
    def test_ordered_form_takes_no_swap(self, monkeypatch, field):
        # p upper triangular with its diagonal ordered dominant first and
        # q = I: p q^H is its own ordered Schur form, so the first ranking
        # is ascending and the walk stops there, before it steps over a block
        rng = np.random.default_rng(3)
        p = np.triu(as_matrix(rng.standard_normal((6, 6)), field), 1)
        p += np.diag([6.0, -5.0, 4.0, 3.0, -2.0, 1.0])
        q = np.eye(6, dtype=field.dtype)
        expected = reference_normalize_pair(p, q)
        swaps, rankings, steps = [], [], []
        name = "dtrexc" if field is ScalarField.REAL else "ztrexc"
        real_trexc = getattr(lapack, name)
        real_rank, real_step = paths._block_eigenvalues, paths._block_size
        monkeypatch.setattr(lapack, name, lambda *a, **k: swaps.append(a) or real_trexc(*a, **k))
        monkeypatch.setattr(
            paths, "_block_eigenvalues", lambda t: rankings.append(len(t)) or real_rank(t)
        )
        monkeypatch.setattr(paths, "_block_size", lambda t, j: steps.append(j) or real_step(t, j))
        got = normalize_pair(p, q)
        assert swaps == [] and rankings == [6] and steps == []
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
