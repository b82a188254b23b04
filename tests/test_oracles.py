import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sandwich,
    shorten,
)
from rankpath import oracles
from rankpath.numkernel import frobenius_norms, step_norms
from rankpath.oracles import EDGE_MEMBERSHIP_TOL, proximity_graph_distance
from rankpath.variety import bounded_projections
from conftest import random_member, reference_graph_distance, reference_shorten

D22 = VarietyDescriptor(2, 2, 2, ScalarField.REAL)
CFG = OracleConfig(n_samples=48, seed=11)


class TestOracleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n_samples=0)
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
        assert math.sqrt(2.0) - 1e-9 <= value <= cert.length + EDGE_MEMBERSHIP_TOL

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

    @pytest.mark.parametrize(
        "d, seed",
        [
            (VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX), 1),
            (VarietyDescriptor(8, 8, 5, ScalarField.REAL), 7),
        ],
    )
    def test_samples_and_scales_with_the_pair(self, d, seed, monkeypatch):
        # at 2^-540 the squares of the entries underflow: the ball the
        # samples are drawn from must still be the unit one, scaled, so every
        # sample becomes a node and the estimate scales with the pair
        p = sample_stratum(d, d.max_rank, 1.0, seed)
        q = sample_stratum(d, d.max_rank, 1.0, seed + 1)
        cfg = OracleConfig(seed=3)
        unit = graph_upper_bound(p, q, d, cfg)
        counts = []
        real_distance = oracles.proximity_graph_distance

        def counting(nodes, *args, **kwargs):
            counts.append(len(nodes))
            return real_distance(nodes, *args, **kwargs)

        monkeypatch.setattr(oracles, "proximity_graph_distance", counting)
        tiny = [np.ldexp(x.view(float), -540).view(d.field.dtype) for x in (p, q)]
        value = graph_upper_bound(*tiny, d, cfg)
        assert counts == [3 + cfg.n_samples]
        assert math.isfinite(unit)
        assert value == pytest.approx(math.ldexp(unit, -540), rel=1e-12, abs=0.0)

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
        scalar_points = []

        def residual_of(x):
            scalar_points.append(x.tobytes())
            return membership_residual(x, d)

        lazy_points = []

        def residuals_of(stack):
            lazy_points.extend(x.tobytes() for x in stack)
            return membership_residuals(stack, d)

        for source, target in ((0, 1), (5, 25), (24, 3)):
            scalar_points.clear()
            expected = reference_graph_distance(nodes, source, target, residual_of, 1e-6, checks)
            # a block of 5 edge weights splits the source nodes' rows
            for block in (5, oracles._BLOCK):
                lazy_points.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(oracles, "_BLOCK", block)
                    got = proximity_graph_distance(
                        nodes, source, target, residuals_of, 1e-6, checks
                    )
                assert got == expected
                # only points the scalar loop evaluates, each at most once
                assert set(lazy_points) <= set(scalar_points)
                assert len(set(lazy_points)) == len(lazy_points)
                assert len(lazy_points) < len(scalar_points)

    def test_batched_weights_are_the_per_edge_norms(self, rng):
        for d in (
            VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX),
            VarietyDescriptor(8, 8, 5, ScalarField.REAL),
            VarietyDescriptor(40, 40, 20, ScalarField.COMPLEX),
            VarietyDescriptor(200, 150, 4, ScalarField.REAL),
        ):
            points = [random_member(d, rng) for _ in range(17)]
            steps = np.stack([b - a for a, b in zip(points, points[1:])])
            expected = [float(np.linalg.norm(step)) for step in steps]
            assert frobenius_norms(steps).tolist() == expected
            # the polyline measure adds the same norms in order
            assert PiecewisePath(tuple(points)).length() == float(np.cumsum(expected)[-1])

    @settings(max_examples=80)
    @given(
        st.integers(2, 8),
        st.integers(2, 8),
        st.data(),
        st.sampled_from(list(ScalarField)),
        st.integers(1, 4),
        st.sampled_from([0.0, 1e-6, 1e-13, 1e-9]),
    )
    def test_bitwise_equal_to_scalar_loop(self, m, n, data, field, checks, tol):
        # tol 0.0 admits only zero steps and the rare exact ray, so those
        # samples are disconnected; 1e-13 is near the residuals' rounding
        d = VarietyDescriptor(m, n, data.draw(st.integers(2, min(m, n)), label="t"), field)
        count = data.draw(st.integers(2, 12), label="count")
        nodes = [
            sample_stratum(
                d,
                data.draw(st.integers(1, d.t - 1)),
                2.0 ** data.draw(st.integers(-2, 2)),
                seed,
            )
            for seed in range(count)
        ]
        nodes.append(np.zeros(d.shape, dtype=d.field.dtype))
        nodes.append(nodes[data.draw(st.integers(0, count - 1), label="duplicated")].copy())
        source, target = data.draw(
            st.lists(st.integers(0, len(nodes) - 1), min_size=2, max_size=2, unique=True),
            label="source, target",
        )
        expected = reference_graph_distance(
            nodes, source, target, lambda x: membership_residual(x, d), tol, checks
        )
        for block in (3, oracles._BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracles, "_BLOCK", block)
                got = proximity_graph_distance(
                    nodes, source, target, lambda stack: membership_residuals(stack, d), tol, checks
                )
            assert got == expected


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

    @pytest.mark.parametrize("exponent", [-540, -530, 0, 500])
    def test_scales_with_the_pair(self, exponent):
        # at 2^-540 the squares of the entries underflow, and at 2^-530 those
        # of the polyline's steps do; the oracle works on a rescaled copy
        d = VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX)
        p, q = sample_stratum(d, 3, 1.0, 1), sample_stratum(d, 3, 1.0, 2)
        cfg = OracleConfig(seed=3)
        unit = sandwich(p, q, d, cfg)
        scaled = sandwich(
            np.ldexp(p.view(float), exponent).view(complex),
            np.ldexp(q.view(float), exponent).view(complex),
            d,
            cfg,
        )
        for name in ("outer", "shortened", "constructed"):
            expected = math.ldexp(getattr(unit, name), exponent)
            assert getattr(scaled, name) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert unit.outer < unit.shortened < unit.constructed


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


def assert_same_polyline(got, expected):
    assert len(got.breakpoints) == len(expected.breakpoints)
    for a, b in zip(got.breakpoints, expected.breakpoints):
        assert np.array_equal(a, b)


def wavy_polyline(count):
    """Rank-one 2 x 2 points on an arc whose radii alternate by 5%."""
    angles = np.linspace(0.0, 1.0, count)
    radii = 1.0 + 0.05 * (-1.0) ** np.arange(count)
    return PiecewisePath(
        tuple(
            r * np.outer([np.cos(a), np.sin(a)], [np.cos(a), np.sin(a)])
            for a, r in zip(angles, radii)
        )
    )


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
        path = wavy_polyline(2101)
        out = shorten(path, D22, OracleConfig(shorten_iterations=2))
        assert len(out.breakpoints) == len(path.breakpoints)
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
            # the kernel's own candidates, with no proof: the SVD check decides
            return bounded_projections(stack, d)[0], np.full(len(stack), np.inf)

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
        assert not oracles._smoothing_sweep(swept, step_norms(swept), d, (1,))
        assert np.array_equal(swept, refined)


class TestShortenLengthCache:
    """``shorten`` keeps its segment lengths beside the breakpoints; the
    reference measures every segment afresh.  Every breakpoint must agree
    bit for bit, whatever the block size."""

    @pytest.mark.parametrize("block", [1, 3, 256])
    @settings(max_examples=25)
    @given(member_paths())
    def test_bitwise_equal_to_fresh_lengths(self, block, case):
        d, path, rounds = case
        cfg = OracleConfig(shorten_iterations=rounds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "_BLOCK", block)
            assert_same_polyline(shorten(path, d, cfg), reference_shorten(path, d, cfg))

    @pytest.mark.parametrize("block", [3, 256])
    def test_non_refining_polyline(self, block, monkeypatch):
        # 2101 breakpoints: every round copies the polyline and its lengths
        monkeypatch.setattr(oracles, "_BLOCK", block)
        path = wavy_polyline(2101)
        cfg = OracleConfig(shorten_iterations=3)
        assert_same_polyline(shorten(path, D22, cfg), reference_shorten(path, D22, cfg))

    def test_rejected_round_sweeps_the_current_polyline(self, monkeypatch):
        # the refined midpoints are pushed off the chord (scaling keeps their
        # rank), so each round's candidate comes out longer than the current
        # polyline, and shorten sweeps that one instead
        real_refined, real_sweep = oracles._refined, oracles._smoothing_sweep
        rejected = []

        def pushed(points, d):
            refined = real_refined(points, d)
            refined[1::2] *= 3.0
            return refined

        def counting(points, lengths, d, *parities):
            # the round's own sweeps pass their parities, the rejected round's does not
            rejected.append(not parities)
            out = real_sweep(points, lengths, d, *parities)
            assert np.array_equal(lengths, step_norms(points))
            return out

        monkeypatch.setattr(oracles, "_refined", pushed)
        monkeypatch.setattr(oracles, "_smoothing_sweep", counting)
        d = VarietyDescriptor(6, 6, 4, ScalarField.COMPLEX)
        path, _ = build_path(sample_stratum(d, 3, 1.0, 1), sample_stratum(d, 3, 1.0, 2), d)
        cfg = OracleConfig(shorten_iterations=4)
        assert_same_polyline(shorten(path, d, cfg), reference_shorten(path, d, cfg))
        assert any(rejected)

    @settings(max_examples=20)
    @given(member_paths())
    def test_cache_is_the_polyline_lengths_after_every_sweep(self, case):
        d, path, _ = case
        points = oracles._refined(np.stack(path.breakpoints), d)
        lengths = step_norms(points)
        for parities in ((2,), (1, 2), (1, 2)):
            oracles._smoothing_sweep(points, lengths, d, parities)
            assert np.array_equal(lengths, step_norms(points))
