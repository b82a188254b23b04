import numpy as np
import pytest

from rankpath import (
    BranchKind,
    ScalarField,
    VarietyDescriptor,
    circle_builder,
    cone_builder,
    flat_builder,
    line_builder,
    product_builder,
    sample_stratum,
    variety_builder,
)
from rankpath.harness import adversarial_pair
from conftest import random_member


def unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


class TestProductBuilder:
    def test_degenerate_x_leg(self, rng):
        prod = product_builder(line_builder(3), line_builder(2))
        x = rng.standard_normal(3)
        y1, y2 = rng.standard_normal(2), rng.standard_normal(2)
        path, cert = prod.build(np.concatenate([x, y1]), np.concatenate([x, y2]))
        assert cert.ratio <= 1.0 + 1e-12
        np.testing.assert_array_equal(path.start[:3], x)
        np.testing.assert_array_equal(path.end[:3], x)

    def test_two_straight_legs(self, rng):
        prod = product_builder(line_builder(2), line_builder(2))
        assert prod.constant == 2.0
        for _ in range(50):
            z1, z2 = rng.standard_normal(4), rng.standard_normal(4)
            _, cert = prod.build(z1, z2)
            assert cert.ratio <= 2.0 + 1e-9

    def test_matrix_variety_factors(self, rng):
        d = VarietyDescriptor(2, 2, 2, ScalarField.COMPLEX)
        factor = flat_builder(variety_builder(d), d.shape)
        prod = product_builder(factor, factor)
        assert prod.constant == 4.0
        for _ in range(25):
            z1 = np.concatenate(
                [random_member(d, rng, 1).reshape(-1), random_member(d, rng, 1).reshape(-1)]
            )
            z2 = np.concatenate(
                [random_member(d, rng, 1).reshape(-1), random_member(d, rng, 1).reshape(-1)]
            )
            path, cert = prod.build(z1, z2)
            assert cert.ratio <= 4.0 + 1e-9
            np.testing.assert_allclose(path.start, z1, atol=1e-12)
            np.testing.assert_allclose(path.end, z2, atol=1e-12)
            assert cert.max_relative_residual <= 1e-8


class TestVarietyBuilder:
    def test_certificates_count_step_rank_samples(self, rng):
        d = VarietyDescriptor(3, 3, 3, ScalarField.COMPLEX)
        builder = variety_builder(d)
        # a General route: every step has rank 1, so no segment is sampled
        _, cert = builder.build(random_member(d, rng, 2), random_member(d, rng, 2))
        assert {tag.kind for tag in cert.branch_trace} == {BranchKind.GENERAL}
        assert cert.samples_per_segment == 0
        # the two legs through 0 are rays, every point a multiple of its
        # endpoint, so the endpoints certify them
        p, q = adversarial_pair(d, 2, 2)
        _, cert = builder.build(p, q)
        assert [tag.kind for tag in cert.branch_trace] == [BranchKind.ORTHOGONAL]
        assert cert.samples_per_segment == 0
        # a RealBlock leg has rank 2, so it is sampled once
        real = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        p, q = sample_stratum(real, 2, 1.0, 6), sample_stratum(real, 2, 1.5, 1006)
        _, cert = variety_builder(real).build(p, q)
        assert [str(tag) for tag in cert.branch_trace] == ["RealBlock(0)"]
        assert cert.samples_per_segment == 1
        # a product reports the larger count of its factors; a line takes none
        factor = flat_builder(variety_builder(real), real.shape)
        lifted = [np.concatenate([x.reshape(-1), rng.standard_normal(2)]) for x in (p, q)]
        _, cert = product_builder(factor, line_builder(2)).build(*lifted)
        assert cert.samples_per_segment == 1
        _, cert = line_builder(2).build(np.zeros(2), np.ones(2))
        assert cert.samples_per_segment == 0


class TestCircleBuilder:
    def test_arc_ratio_peaks_at_antipodes(self):
        circle = circle_builder()
        _, cert = circle.build(unit(0.0), unit(np.pi))
        assert cert.outer_distance == pytest.approx(2.0)
        assert cert.length == pytest.approx(np.pi, abs=1e-4)
        assert cert.ratio <= np.pi / 2.0
        assert cert.ratio == pytest.approx(np.pi / 2.0, abs=1e-4)

    def test_arc_chord_bound_sampled(self, rng):
        circle = circle_builder()
        for _ in range(100):
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            _, cert = circle.build(unit(a), unit(b))
            assert cert.ratio <= np.pi / 2.0 + 1e-9
            assert cert.max_relative_residual <= 1e-12

    def test_rejects_off_circle_points(self):
        with pytest.raises(ValueError):
            circle_builder().build(np.array([2.0, 0.0]), unit(1.0))


class TestConeBuilder:
    def test_radial_pairs_ratio_one(self, rng):
        cone = cone_builder(circle_builder())
        for _ in range(20):
            x = float(rng.uniform(0.5, 2.0)) * unit(float(rng.uniform(0, 2 * np.pi)))
            lam = float(rng.uniform(0.0, 1.0))
            _, cert = cone.build(x, lam * x)
            assert abs(cert.ratio - 1.0) <= 1e-12

    def test_cone_point_pair(self):
        cone = cone_builder(circle_builder())
        _, cert = cone.build(np.zeros(2), np.zeros(2))
        assert cert.length == 0.0 and cert.ratio == 1.0

    def test_antipodal_equal_radius(self):
        cone = cone_builder(circle_builder())
        for r in (0.5, 1.0, 3.0):
            path, cert = cone.build(r * unit(0.2), r * unit(0.2 + np.pi))
            assert cert.length == pytest.approx(np.pi * r, rel=1e-4)
            assert cert.outer_distance == pytest.approx(2.0 * r)
            assert cert.ratio == pytest.approx(np.pi / 2.0, abs=1e-4)
            assert cert.ratio <= np.pi / 2.0 + 1.0 + 1e-9

    def test_sampled_pairs_meet_link_plus_one(self, rng):
        cone = cone_builder(circle_builder())
        assert cone.constant == pytest.approx(np.pi / 2.0 + 1.0)
        for _ in range(100):
            x = float(rng.uniform(0.1, 2.0)) * unit(float(rng.uniform(0, 2 * np.pi)))
            y = float(rng.uniform(0.1, 2.0)) * unit(float(rng.uniform(0, 2 * np.pi)))
            _, cert = cone.build(x, y)
            assert cert.ratio <= np.pi / 2.0 + 1.0 + 1e-9

    def test_swapped_radii_keep_endpoints(self, rng):
        cone = cone_builder(circle_builder())
        x = 0.3 * unit(1.0)
        y = 1.7 * unit(2.0)
        path, _ = cone.build(x, y)
        np.testing.assert_allclose(path.start, x, atol=1e-15)
        np.testing.assert_allclose(path.end, y, atol=1e-15)

    def test_tiny_pair_takes_the_unit_route(self):
        # at 2^-540 the squares of the entries underflow; the radii, and with
        # them the whole certificate, must still be the unit pair's, scaled
        d = VarietyDescriptor(4, 4, 3, ScalarField.REAL)
        cone = cone_builder(variety_builder(d))
        x, y = sample_stratum(d, 2, 1.0, 3), sample_stratum(d, 2, 1.5, 103)
        unit_path, unit_cert = cone.build(x, y)
        tiny_path, tiny_cert = cone.build(np.ldexp(x, -540), np.ldexp(y, -540))
        assert [str(tag) for tag in unit_cert.branch_trace] == [
            "Radial(0)",
            "General(0)",
            "General(1)",
        ]
        assert tiny_cert.branch_trace == unit_cert.branch_trace
        assert tiny_cert.ratio == unit_cert.ratio
        assert tiny_cert.max_relative_residual == unit_cert.max_relative_residual > 0.0
        assert tiny_cert.length == np.ldexp(unit_cert.length, -540)
        assert len(tiny_path.breakpoints) == len(unit_path.breakpoints)
        for a, b in zip(tiny_path.breakpoints, unit_path.breakpoints):
            assert np.array_equal(a, np.ldexp(b, -540))

    def test_variety_is_cone_over_its_link(self, rng):
        # equal-norm pairs: wrapping the path builder as the link of its own
        # cone must still emit valid certificates, as must the direct build
        d = VarietyDescriptor(3, 3, 2, ScalarField.COMPLEX)
        from rankpath import build_path

        link = variety_builder(d)
        cone = cone_builder(link)
        for _ in range(10):
            x = random_member(d, rng, rank=1)
            y = random_member(d, rng, rank=1)
            x = x / np.linalg.norm(x) * 1.3
            y = y / np.linalg.norm(y) * 1.3
            _, cone_cert = cone.build(x, y)
            _, direct_cert = build_path(x, y, d)
            assert cone_cert.ratio <= cone.constant + 1e-9
            assert cone_cert.max_relative_residual <= 1e-8
            assert direct_cert.ratio <= direct_cert.certified_bound + 1e-9
            assert direct_cert.max_relative_residual <= 1e-8
