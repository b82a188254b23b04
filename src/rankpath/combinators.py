"""Path-builder combinators for products and cones.

A ``CertifiedBuilder`` packages a path constructor together with the
constant it certifies.  Products route through the corner (one leg per
factor, constants add); cones pull the outer point radially inward and
ride the link at the smaller radius (link constant plus one).

The converse statements (a product is well-behaved only if both factors
are; a cone only if its link is) quantify over all possible paths and are
not constructions, so they have no counterpart here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkernel import DimensionMismatch, as_matrix, frobenius_norm
from .paths import (
    BranchKind,
    BranchTag,
    PathCertificate,
    PiecewisePath,
    build_path,
)
from .variety import VarietyDescriptor

BuildFn = Callable[[np.ndarray, np.ndarray], tuple[PiecewisePath, PathCertificate]]


@dataclass(frozen=True)
class CertifiedBuilder:
    """A path constructor plus the ratio bound its certificates promise."""

    build: BuildFn
    constant: float
    ambient_dimension: int


def _certificate(
    points, bound, trace, residual, samples=0
) -> tuple[PiecewisePath, PathCertificate]:
    path = PiecewisePath(tuple(points))
    outer, length, ratio = path.measure()
    cert = PathCertificate(
        outer_distance=outer,
        length=length,
        ratio=ratio,
        certified_bound=float(bound),
        branch_trace=tuple(trace),
        max_relative_residual=float(residual),
        samples_per_segment=int(samples),
    )
    return path, cert


def variety_builder(d: VarietyDescriptor) -> CertifiedBuilder:
    """The bounded-rank path construction packaged as a builder.

    Certificates are ``build_path``'s, whose residual bounds every point of
    every segment from the route's structure; ``paths.certify`` re-checks
    any path from the exact spectra of its breakpoints and steps.
    """
    return CertifiedBuilder(
        build=lambda p, q: build_path(p, q, d),
        constant=max(1.0, 2.0 * d.t - 2.0),
        ambient_dimension=d.m * d.n,
    )


def flat_builder(inner: CertifiedBuilder, shape: tuple[int, int]) -> CertifiedBuilder:
    """Adapt a matrix-shaped builder to flat coordinate vectors.

    Reshaping preserves the Frobenius metric, so lengths, ratios and the
    certificate are untouched.
    """
    if shape[0] * shape[1] != inner.ambient_dimension:
        raise DimensionMismatch("shape does not match the builder's ambient dimension")

    def build(x: np.ndarray, y: np.ndarray):
        path, cert = inner.build(
            as_matrix(x).reshape(shape), as_matrix(y).reshape(shape)
        )
        flat = tuple(b.reshape(-1) for b in path.breakpoints)
        return PiecewisePath(flat), cert

    return CertifiedBuilder(build, inner.constant, inner.ambient_dimension)


def line_builder(dimension: int) -> CertifiedBuilder:
    """Straight-segment builder for a flat factor (constant 1)."""

    def build(x: np.ndarray, y: np.ndarray):
        x = as_matrix(x).reshape(-1)
        y = as_matrix(y).reshape(-1)
        if x.shape != (dimension,) or y.shape != (dimension,):
            raise DimensionMismatch(f"expected flat points of dimension {dimension}")
        return _certificate([x.copy(), y.copy()], 1.0, (), 0.0)

    return CertifiedBuilder(build, 1.0, dimension)


def product_builder(bx: CertifiedBuilder, by: CertifiedBuilder) -> CertifiedBuilder:
    """Builder for a product of two factors, on concatenated flat coordinates.

    From (x1, y1) to (x2, y2): first the y-leg inside the slice {x1} x Y,
    then the x-leg inside X x {y2}.  Each leg's outer distance is at most
    the product outer distance, so the constants add.
    """
    dx, dy = bx.ambient_dimension, by.ambient_dimension

    def split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = as_matrix(z).reshape(-1)
        if z.shape != (dx + dy,):
            raise DimensionMismatch(
                f"product point must have {dx}+{dy} coordinates, got {z.shape}"
            )
        return z[:dx], z[dx:]

    def build(z1: np.ndarray, z2: np.ndarray):
        x1, y1 = split(z1)
        x2, y2 = split(z2)
        y_path, y_cert = by.build(y1, y2)
        x_path, x_cert = bx.build(x1, x2)
        points = [np.concatenate([x1, w.reshape(-1)]) for w in y_path.breakpoints]
        points += [
            np.concatenate([w.reshape(-1), y2]) for w in x_path.breakpoints[1:]
        ]
        return _certificate(
            points,
            bx.constant + by.constant,
            tuple(y_cert.branch_trace) + tuple(x_cert.branch_trace),
            max(y_cert.max_relative_residual, x_cert.max_relative_residual),
            max(y_cert.samples_per_segment, x_cert.samples_per_segment),
        )

    return CertifiedBuilder(build, bx.constant + by.constant, dx + dy)


def cone_builder(link: CertifiedBuilder) -> CertifiedBuilder:
    """Builder for the cone over a link, on ambient (radius-scaled) points.

    For ||x|| >= ||y|| > 0: a radial segment pulls x inward to
    x' = x * ||y||/||x||, then the link builder connects the unit points
    x/||x|| and y/||y|| and that path is scaled to radius ||y||.  The
    radial leg never exceeds the chord (reverse triangle inequality) and
    neither does the rescaling x -> x' lengthen the remaining gap, so the
    certified constant is the link constant plus one.  Both steps measure
    the radius in the Frobenius norm, the norm lengths are measured in;
    under any other radius the reverse triangle inequality, and with it
    the constant, fails.

    Rescaling the smaller point outward instead, and riding the link at
    the larger radius, does not certify: for nearly antipodal pairs at
    very different radii that route's link leg alone can exceed
    (K + 1) times the chord.
    """

    def build(x: np.ndarray, y: np.ndarray):
        x = as_matrix(x)
        y = as_matrix(y)
        rx, ry = frobenius_norm(x), frobenius_norm(y)
        if rx < ry:
            path, cert = build(y, x)
            return PiecewisePath(tuple(reversed(path.breakpoints))), cert
        if rx == 0.0:
            return _certificate([x.copy(), y.copy()], 1.0, (), 0.0)
        if ry == 0.0:
            return _certificate(
                [x.copy(), y.copy()], 1.0, (BranchTag(BranchKind.RADIAL, 0),), 0.0
            )
        unit_x, unit_y = x / rx, y / ry
        if frobenius_norm(unit_x - unit_y) <= 1e-12:
            # same ray: the straight segment is radial and exactly optimal
            return _certificate(
                [x.copy(), y.copy()], 1.0, (BranchTag(BranchKind.RADIAL, 0),), 0.0
            )
        link_path, link_cert = link.build(unit_x, unit_y)
        points = [w * ry for w in link_path.breakpoints]
        points[-1] = y.copy()
        trace = tuple(link_cert.branch_trace)
        if ry < rx:
            points.insert(0, x.copy())
            trace = (BranchTag(BranchKind.RADIAL, 0),) + trace
        else:
            points[0] = x.copy()
        return _certificate(
            points,
            link.constant + 1.0,
            trace,
            link_cert.max_relative_residual,
            link_cert.samples_per_segment,
        )

    return CertifiedBuilder(build, link.constant + 1.0, link.ambient_dimension)


#: largest angle one segment of a ``circle_builder`` path spans
_CIRCLE_MAX_STEP = np.pi / 1024


def circle_builder() -> CertifiedBuilder:
    """Arc-path builder on the unit circle in the plane (constant pi/2).

    Paths follow the shorter arc in equal steps of at most pi/1024, fine
    enough that the inscribed polyline is indistinguishable from the arc
    at test tolerances; inscribed chords can only undershoot the arc
    length, so the pi/2 bound is never at risk from discretization.
    """

    def build(a: np.ndarray, b: np.ndarray):
        a = as_matrix(a).reshape(-1)
        b = as_matrix(b).reshape(-1)
        if a.shape != (2,) or b.shape != (2,):
            raise DimensionMismatch("circle points live in the plane")
        for name, point in (("a", a), ("b", b)):
            if abs(frobenius_norm(point) - 1.0) > 1e-9:
                raise ValueError(f"{name} is not on the unit circle")
        theta_a = float(np.arctan2(a[1], a[0]))
        theta_b = float(np.arctan2(b[1], b[0]))
        delta = (theta_b - theta_a + np.pi) % (2.0 * np.pi) - np.pi
        if delta == -np.pi:
            delta = np.pi
        segments = max(1, int(np.ceil(abs(delta) / _CIRCLE_MAX_STEP)))
        thetas = theta_a + delta * np.arange(segments + 1) / segments
        points = [np.array([np.cos(t), np.sin(t)]) for t in thetas]
        points[0] = a.copy()
        points[-1] = b.copy()
        residual = max(abs(frobenius_norm(p) - 1.0) for p in points)
        return _certificate(points, np.pi / 2.0, (), residual)

    return CertifiedBuilder(build, np.pi / 2.0, 2)
