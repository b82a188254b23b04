import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from rankpath import (
    DimensionMismatch,
    MembershipError,
    OracleConfig,
    PiecewisePath,
    ScalarField,
    VarietyDescriptor,
    build_path,
    frobenius_distance,
    graph_upper_bound,
    membership_residual,
    membership_residuals,
    sample_stratum,
    projections,
    sandwich,
    shorten,
)
from rankpath import oracles
from rankpath.oracles import proximity_graph_distance
from conftest import random_member

D22 = VarietyDescriptor(2, 2, 2, ScalarField.REAL)
CFG = OracleConfig(n_samples=48, seed=11)


class TestOracleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n_samples=0)
        with pytest.raises(ValueError):
            OracleConfig(edge_membership_tol=2.0)
        with pytest.raises(ValueError):
            OracleConfig(shorten_iterations=0)


class TestGraphUpperBound:
    def test_coincident(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert graph_upper_bound(p, p.copy(), D22, CFG) == 0.0

    def test_on_ray(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        value = graph_upper_bound(p, 2.0 * p, D22, CFG)
        assert value == pytest.approx(np.linalg.norm(p), abs=1e-9)

    def test_orthogonal_rank_one_sandwiched(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        value = graph_upper_bound(p, q, D22, CFG)
        _, cert = build_path(p, q, D22)
        assert math.sqrt(2.0) - 1e-9 <= value <= cert.length + CFG.edge_membership_tol

    def test_never_beats_the_chord(self, rng):
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        for seed in range(5):
            p = random_member(d, rng, rank=1)
            q = random_member(d, rng, rank=1)
            value = graph_upper_bound(p, q, d, OracleConfig(n_samples=32, seed=seed))
            assert value >= frobenius_distance(p, q) - 1e-9

    def test_median_monotone_in_samples(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        medians = []
        for n in (16, 32, 64):
            values = [
                graph_upper_bound(p, q, D22, OracleConfig(n_samples=n, seed=seed))
                for seed in range(20)
            ]
            medians.append(float(np.median(values)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_rejects_off_variety_endpoints(self):
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        member = sample_stratum(d, 2, 1.0, 3)
        with pytest.raises(MembershipError):
            graph_upper_bound(np.eye(4), member, d, CFG)
        with pytest.raises(MembershipError):
            graph_upper_bound(member, np.eye(4), d, CFG)

    def test_rejects_shape_mismatch(self):
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        member = sample_stratum(d, 2, 1.0, 3)
        with pytest.raises(DimensionMismatch):
            graph_upper_bound(np.zeros((3, 3)), member, d, CFG)
        with pytest.raises(DimensionMismatch):
            graph_upper_bound(member, np.zeros((3, 3)), d, CFG)


def reference_graph_distance(nodes, source, target, residual_of, tol, checks_per_edge):
    """Edge by edge, one point at a time, stopping at an edge's first failed
    check: the scalar loop the stacked edge checks must reproduce."""
    count = len(nodes)
    offsets = np.arange(1, checks_per_edge + 1) / (checks_per_edge + 1)
    rows, cols, weights = [], [], []
    for i in range(count):
        for j in range(i + 1, count):
            step = nodes[j] - nodes[i]
            if step.any() and any(residual_of(nodes[i] + s * step) > tol for s in offsets):
                continue
            rows.append(i)
            cols.append(j)
            weights.append(float(np.linalg.norm(step)))
    graph = csr_matrix((weights, (rows, cols)), shape=(count, count))
    return float(dijkstra(graph, directed=False, indices=source)[target])


class TestProximityGraphExactness:
    @pytest.mark.parametrize(
        "d",
        [
            VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX),
            VarietyDescriptor(8, 8, 5, ScalarField.REAL),
        ],
    )
    @pytest.mark.parametrize("checks", [1, 3, 4])
    def test_matches_scalar_loop(self, d, checks):
        rng = np.random.default_rng(checks)
        nodes = [
            sample_stratum(d, int(rng.integers(1, d.t)), float(rng.uniform(0.2, 2.0)), seed)
            for seed in range(24)
        ]
        nodes += [np.zeros(d.shape, dtype=d.field.dtype), nodes[5].copy()]
        scalar_calls = []

        def residual_of(x):
            scalar_calls.append(1)
            return membership_residual(x, d)

        stacked_sizes = []

        def residuals_of(stack):
            stacked_sizes.append(len(stack))
            return membership_residuals(stack, d)

        for source, target in ((0, 1), (5, 25), (24, 3)):
            scalar_calls.clear()
            stacked_sizes.clear()
            expected = reference_graph_distance(nodes, source, target, residual_of, 1e-6, checks)
            got = proximity_graph_distance(nodes, source, target, residuals_of, 1e-6, checks)
            assert got == expected
            assert sum(stacked_sizes) == len(scalar_calls)
        assert 0 < len(scalar_calls) < len(nodes) * (len(nodes) - 1) // 2 * checks


class TestShorten:
    def test_single_point_unchanged(self):
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        path = PiecewisePath((p,))
        out = shorten(path, D22, CFG)
        assert len(out.breakpoints) == 1
        np.testing.assert_array_equal(out.breakpoints[0], p)

    def test_straight_segment_stays_exact(self):
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        path = PiecewisePath((p, 2.0 * p))
        out = shorten(path, D22, CFG)
        assert out.length() == pytest.approx(path.length(), abs=1e-10)

    def test_detour_through_zero_is_cut(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.999, math.sqrt(1.0 - 0.999**2)])
        detour = PiecewisePath((np.outer(u, u), np.zeros((2, 2)), np.outer(v, v)))
        out = shorten(detour, D22, CFG)
        assert out.length() <= 0.99 * detour.length()
        np.testing.assert_array_equal(out.start, detour.start)
        np.testing.assert_array_equal(out.end, detour.end)

    def test_monotone_across_rounds_and_breakpoints_on_variety(self, rng):
        from rankpath import membership_residual

        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        p = random_member(d, rng, rank=1)
        q = random_member(d, rng, rank=1)
        path, _ = build_path(p, q, d)
        lengths = [path.length()]
        for rounds in range(1, 6):
            cfg = OracleConfig(n_samples=8, seed=0, shorten_iterations=rounds)
            out = shorten(path, d, cfg)
            lengths.append(out.length())
            # shortened paths promise on-variety breakpoints, not segments:
            # the output is an estimate, not a certificate
            assert all(membership_residual(b, d) <= 1e-8 for b in out.breakpoints)
        assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))


class TestSandwich:
    def test_radial_collapses(self, rng):
        p = random_member(D22, rng, rank=1)
        result = sandwich(p, np.zeros((2, 2)), D22, CFG)
        norm = np.linalg.norm(p)
        assert result.outer == pytest.approx(norm)
        assert result.shortened == pytest.approx(norm)
        assert result.constructed == pytest.approx(norm)

    def test_coincident_vanishes(self, rng):
        p = random_member(D22, rng, rank=1)
        result = sandwich(p, p.copy(), D22, CFG)
        assert result.outer == result.shortened == result.constructed == 0.0

    def test_random_pairs_ordered(self, rng):
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        for _ in range(10):
            p = random_member(d, rng, rank=1)
            q = random_member(d, rng, rank=1)
            result = sandwich(p, q, d, CFG)
            assert result.outer <= result.shortened + 1e-9
            assert result.shortened <= result.constructed + 1e-9
            assert result.constructed <= 2.0 * result.outer + 1e-9


@st.composite
def member_paths(draw):
    """A constructed path between two members, m, n <= 8, both fields, any t."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    t = draw(st.integers(1, min(m, n)))
    d = VarietyDescriptor(m, n, t, draw(st.sampled_from(list(ScalarField))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_member(d, rng, draw(st.integers(0, t - 1)))
    q = random_member(d, rng, draw(st.integers(0, t - 1)))
    return d, build_path(p, q, d)[0], draw(st.integers(1, 8))


class TestShortenProperties:
    @settings(max_examples=60)
    @given(member_paths())
    def test_shortened_path_stays_on_the_variety(self, case):
        d, path, rounds = case
        out = shorten(path, d, OracleConfig(shorten_iterations=rounds))
        assert np.array_equal(out.start, path.start)
        assert np.array_equal(out.end, path.end)
        assert len(out.breakpoints) <= 4097
        assert membership_residuals(np.stack(out.breakpoints), d).max() <= 1e-8
        # the rounds compare lengths summed blockwise, PiecewisePath.length
        # sums segment by segment: allow for the different rounding
        assert out.length() <= path.length() * (1.0 + 1e-12)

    def test_long_polyline_is_swept_without_refinement(self):
        # 2101 breakpoints: refining would exceed 4097, so rounds only sweep
        angles = np.linspace(0.0, 1.0, 2101)
        radii = 1.0 + 0.05 * (-1.0) ** np.arange(len(angles))
        points = tuple(
            r * np.outer([np.cos(a), np.sin(a)], [np.cos(a), np.sin(a)])
            for a, r in zip(angles, radii)
        )
        path = PiecewisePath(points)
        out = shorten(path, D22, OracleConfig(shorten_iterations=2))
        assert len(out.breakpoints) == len(points)
        assert np.array_equal(out.start, path.start)
        assert np.array_equal(out.end, path.end)
        assert out.length() < path.length()
        assert membership_residuals(np.stack(out.breakpoints), D22).max() <= 1e-8


class TestShortenResidualBound:
    @settings(max_examples=20)
    @given(member_paths())
    def test_svd_check_alone_gives_the_same_polyline(self, case):
        d, path, rounds = case
        cfg = OracleConfig(shorten_iterations=rounds)
        proved = shorten(path, d, cfg)

        def inconclusive(stack, d):
            return projections(stack, d), np.full(len(stack), np.inf)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "bounded_projections", inconclusive)
            checked = shorten(path, d, cfg)
        assert len(checked.breakpoints) == len(proved.breakpoints)
        for a, b in zip(checked.breakpoints, proved.breakpoints):
            assert np.array_equal(a, b)

    @settings(max_examples=30)
    @given(member_paths())
    def test_first_odd_half_sweep_after_refinement_moves_nothing(self, case):
        # shortened first, so the polyline is one a later round would refine
        d, path, rounds = case
        points = np.stack(shorten(path, d, OracleConfig(shorten_iterations=rounds)).breakpoints)
        refined = oracles._refined(points, d)
        swept = refined.copy()
        assert not oracles._smoothing_sweep(swept, d, parities=(1,))
        assert np.array_equal(swept, refined)
