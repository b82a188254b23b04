"""Certified on-variety paths between bounded-rank matrices.

Given two members p, q of the variety {rank < t}, ``build_path`` constructs
a polyline that stays on the variety and whose length is certified against
the outer (Frobenius) distance:

* one endpoint zero, or the pair collinear: the straight segment, ratio 1;
* nearly orthogonal pair: the two-leg route through zero, ratio <= 2;
* otherwise: a coordinate change moves p's mass into the first column and
  q's into the first row, a segment trades p's first row for q's corner,
  the trailing (m-1) x (n-1) blocks are connected recursively inside the
  slice that fixes the corner, and a closing segment restores q's first
  column.  Each level strips one unit of rank, so the certified constant
  is 2 * min(rank p, rank q) <= 2t - 2.

Every branch decision is recorded in the certificate, and every breakpoint
and t + 1 Chebyshev points inside every segment are re-checked for
membership, which is enough to certify the whole segment (see ``certify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numkernel import (
    DimensionMismatch,
    NoUsableEigenpair,
    Side,
    UnitaryPair,
    as_matrix,
    frobenius_distance,
    frobenius_inner,
    frobenius_norm,
    leading_nonzero_eigenpair,
    make_unitary_pair,
    unitary_completion,
)
from .variety import (
    DEFAULT_MEMBERSHIP_TOL,
    VarietyDescriptor,
    membership_residual,
    membership_residuals,
    project,
    rank_of,
)

#: pairs with |<p,q>| below this (relative) threshold take the two-leg route
ORTHOGONALITY_THRESHOLD = 1e-8

#: relative threshold below which an endpoint counts as the cone point
_ZERO_TOL = 1e-12

#: relative threshold for treating q as a scalar multiple of p
_COLLINEAR_TOL = 1e-12

#: relative threshold for treating a pair as coincident
_DEGENERATE_TOL = 1e-14

#: internal sanity gate on the normal-form margins, relative to the operand
_NORMAL_FORM_GATE = 1e-6


class BranchKind(str, Enum):
    RADIAL = "Radial"
    ORTHOGONAL = "Orthogonal"
    GENERAL = "General"
    REAL_FALLBACK = "RealFallback"


@dataclass(frozen=True)
class BranchTag:
    """One branch decision: which case fired, at which recursion depth."""

    kind: BranchKind
    depth: int

    def __str__(self):
        return f"{self.kind.value}({self.depth})"


@dataclass(frozen=True)
class PiecewisePath:
    """Polyline through matrix space: an ordered tuple of breakpoints."""

    breakpoints: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.breakpoints) == 0:
            raise ValueError("a path needs at least one breakpoint")
        shape = self.breakpoints[0].shape
        dtype = self.breakpoints[0].dtype
        for b in self.breakpoints[1:]:
            if b.shape != shape or b.dtype != dtype:
                raise DimensionMismatch("breakpoints disagree in shape or field")

    def length(self) -> float:
        return float(
            sum(
                np.linalg.norm(b - a)
                for a, b in zip(self.breakpoints, self.breakpoints[1:])
            )
        )

    @property
    def start(self) -> np.ndarray:
        return self.breakpoints[0]

    @property
    def end(self) -> np.ndarray:
        return self.breakpoints[-1]


@dataclass(frozen=True)
class PathCertificate:
    """Audit record for one constructed path.

    ``ratio`` is length over outer distance (1 by convention for coincident
    endpoints) and, absent a RealFallback tag, is guaranteed not to exceed
    ``certified_bound``.  ``max_relative_residual`` is the worst membership
    residual over all breakpoints and the ``samples_per_segment`` Chebyshev
    points inside each segment; with at least t + 1 of them it bounds the
    residual along the whole segment (see ``certify``).
    """

    outer_distance: float
    length: float
    ratio: float
    certified_bound: float
    branch_trace: tuple[BranchTag, ...]
    max_relative_residual: float
    samples_per_segment: int

    @property
    def has_fallback(self) -> bool:
        return any(tag.kind is BranchKind.REAL_FALLBACK for tag in self.branch_trace)


class MembershipError(ValueError):
    """An input point is not on the target variety."""

    def __init__(self, which: str, residual: float, tol: float):
        self.residual = residual
        super().__init__(
            f"point {which!r} is off the variety: membership residual "
            f"{residual:.3e} exceeds tolerance {tol:.1e}"
        )


class BranchConditionError(ValueError):
    """A branch-specific precondition fails; the caller should dispatch."""


def radial_path(p) -> PiecewisePath:
    """Straight segment from p to the cone point 0.

    Scaling preserves rank, so every convex combination stays on whatever
    bounded-rank variety p belongs to; the path realizes the outer distance
    exactly.  The zero matrix yields the degenerate one-point path.
    """
    p = as_matrix(p)
    if frobenius_norm(p) == 0.0:
        return PiecewisePath((p.copy(),))
    return PiecewisePath((p.copy(), np.zeros_like(p)))


def orthogonal_path(p, q) -> PiecewisePath:
    """Two-leg route [p, 0, q] for a (numerically) orthogonal pair.

    Orthogonality makes the chord from p to q the hypotenuse of the right
    triangle through 0, so the two radial legs total at most twice the
    outer distance.
    """
    p = as_matrix(p)
    q = as_matrix(q, field=None)
    ip = abs(frobenius_inner(p, q))
    bound = ORTHOGONALITY_THRESHOLD * frobenius_norm(p) * frobenius_norm(q)
    if ip > bound:
        raise BranchConditionError(
            f"|<p,q>| = {ip:.3e} exceeds the orthogonality threshold {bound:.3e}"
        )
    points = [p.copy(), np.zeros_like(p), q.copy()]
    return PiecewisePath(tuple(_dedupe(points)))


def normalize_pair(p, q, min_rel_magnitude: float | None = None):
    """Unitary change of coordinates putting a non-orthogonal pair in normal form.

    Returns ``(pair, p_hat, q_hat)`` with ``p_hat = U p V`` having first
    column p11 * e1 (p11 nonzero) and ``q_hat = U q V`` having first row
    q11 * e1^T (q11 nonzero).  The construction: take the dominant
    eigenpair (mu, w) of p q^H, send w to e1 with a Householder row
    completion U, and complete b1 = q^H w / ||q^H w|| to V as a first
    column.  Then p V e1 = (mu/||q^H w||) w, which U maps onto e1.

    Over the real field a usable eigenpair may not exist; the
    NoUsableEigenpair raised by the kernel propagates so callers can fall
    back honestly.
    """
    p = as_matrix(p)
    q = as_matrix(q)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shape mismatch: {p.shape} vs {q.shape}")
    norm_p, norm_q = frobenius_norm(p), frobenius_norm(q)
    ip = abs(frobenius_inner(p, q))
    if ip <= ORTHOGONALITY_THRESHOLD * norm_p * norm_q:
        raise BranchConditionError(
            "normalize_pair requires |<p,q>| above the orthogonality threshold"
        )
    if min_rel_magnitude is None:
        min_rel_magnitude = ORTHOGONALITY_THRESHOLD / (2.0 * p.shape[0])

    cross = p @ q.conj().T
    mu, w = leading_nonzero_eigenpair(cross, min_rel_magnitude)
    u = unitary_completion(w, Side.FIRST_ROW)
    qh_w = q.conj().T @ w
    qh_w_norm = float(np.linalg.norm(qh_w))
    if qh_w_norm == 0.0:
        raise NoUsableEigenpair("q^H w vanished; eigenpair unusable")
    v = unitary_completion(qh_w / qh_w_norm, Side.FIRST_COLUMN)

    p_hat = u @ p @ v
    q_hat = u @ q @ v
    col_margin = float(np.linalg.norm(p_hat[1:, 0]))
    row_margin = float(np.linalg.norm(q_hat[0, 1:]))
    if col_margin > _NORMAL_FORM_GATE * norm_p or row_margin > _NORMAL_FORM_GATE * norm_q:
        raise NoUsableEigenpair(
            f"normal-form margins {col_margin:.2e}/{row_margin:.2e} too dirty"
        )
    return make_unitary_pair(u, v), p_hat, q_hat


def _dedupe(points: list[np.ndarray]) -> list[np.ndarray]:
    out = [points[0]]
    for b in points[1:]:
        if not np.array_equal(b, out[-1]):
            out.append(b)
    return out


def _dispatch(
    x: np.ndarray,
    y: np.ndarray,
    d: VarietyDescriptor,
    depth: int,
    scale: float,
) -> tuple[list[np.ndarray], list[BranchTag]]:
    """Pick and execute the branch for one pair; used recursively."""
    dist = frobenius_distance(x, y)
    if d.t == 1 or dist <= _DEGENERATE_TOL * scale:
        return _dedupe([x, y]), []

    norm_x, norm_y = frobenius_norm(x), frobenius_norm(y)
    if norm_x <= _ZERO_TOL * scale or norm_y <= _ZERO_TOL * scale:
        return [x, y], [BranchTag(BranchKind.RADIAL, depth)]

    # q a scalar multiple of p: the whole segment lies on one ray's span
    coef = frobenius_inner(y, x) / (norm_x * norm_x)
    if frobenius_distance(y, coef * x) <= _COLLINEAR_TOL * norm_y:
        return [x, y], [BranchTag(BranchKind.RADIAL, depth)]

    if abs(frobenius_inner(x, y)) <= ORTHOGONALITY_THRESHOLD * norm_x * norm_y:
        return [x, np.zeros_like(x), y], [BranchTag(BranchKind.ORTHOGONAL, depth)]

    swap = rank_of(x, d) > rank_of(y, d)
    lead, trail = (y, x) if swap else (x, y)
    try:
        points, tags = _general(lead, trail, d, depth, scale)
    except NoUsableEigenpair:
        return [x, np.zeros_like(x), y], [BranchTag(BranchKind.REAL_FALLBACK, depth)]
    if swap:
        points.reverse()
    return points, tags


def _general(
    p: np.ndarray,
    q: np.ndarray,
    d: VarietyDescriptor,
    depth: int,
    scale: float,
) -> tuple[list[np.ndarray], list[BranchTag]]:
    pair, p_hat, q_hat = normalize_pair(p, q)
    q11 = q_hat[0, 0]
    sub = VarietyDescriptor(d.m - 1, d.n - 1, d.t - 1, d.field)
    # Exact arithmetic leaves the trailing blocks one rank short; numerically
    # the normal-form margins get amplified for pairs near the orthogonality
    # threshold, so snap the blocks back onto the sub-variety.  The motion is
    # bounded by that noise and keeps p', q' exact members.
    block_p = project(p_hat[1:, 1:], sub)
    block_q = project(q_hat[1:, 1:], sub)
    sub_points, sub_tags = _dispatch(block_p, block_q, sub, depth + 1, scale)

    def embed(block: np.ndarray) -> np.ndarray:
        out = np.zeros(d.shape, dtype=p_hat.dtype)
        out[0, 0] = q11
        out[1:, 1:] = block
        return out

    staged = [p_hat] + [embed(b) for b in sub_points] + [q_hat]
    inverse = pair.inverse()
    points = [inverse.apply(b) for b in staged]
    points[0] = p.copy()
    points[-1] = q.copy()
    return _dedupe(points), [BranchTag(BranchKind.GENERAL, depth)] + sub_tags


def general_path(p, q, d: VarietyDescriptor) -> PiecewisePath:
    """Rank-stripping route for a non-orthogonal pair with rank(p) <= rank(q).

    In normalized coordinates: a segment trading p's first row for q's
    corner, a recursively built path between the trailing blocks inside
    the slice that fixes the corner, and a segment restoring q's first
    column; everything conjugated back to the original coordinates.  The
    total length never exceeds 2 * rank(p) times the outer distance.
    """
    p = as_matrix(p, d.field)
    q = as_matrix(q, d.field)
    if rank_of(p, d) > rank_of(q, d):
        raise BranchConditionError(
            "general_path pivots on p; swap the arguments so rank(p) <= rank(q)"
        )
    scale = max(frobenius_norm(p), frobenius_norm(q), 1e-300)
    points, _ = _general(p, q, d, 0, scale)
    return PiecewisePath(tuple(points))


def _chebyshev_offsets(count: int) -> np.ndarray:
    """The ``count`` Chebyshev points of the first kind, mapped into (0, 1)."""
    j = np.arange(count)
    return 0.5 * (1.0 - np.cos((2 * j + 1) * np.pi / (2 * count)))


def certify(
    path: PiecewisePath,
    d: VarietyDescriptor,
    samples_per_segment: int | None = None,
    branch_trace: tuple[BranchTag, ...] = (),
    certified_bound: float | None = None,
) -> PathCertificate:
    """Measure a path and re-check membership along it.

    Every breakpoint is checked, and every non-degenerate segment
    a + s (b - a) at ``samples_per_segment`` Chebyshev points inside
    (0, 1), t + 1 by default.  Along the segment each t x t minor is a
    polynomial in s of degree at most t, so if all of them vanish at t + 1
    distinct points they vanish identically and the whole segment lies on
    the variety; fewer samples are a spot check, not a proof.  Chebyshev
    points keep the interpolation (Lebesgue) constant small, about 2.9 for
    the 21 points at t = 20 against about 1.1e4 for 21 equispaced points,
    so small sampled residuals keep the residual between them small too.

    The breakpoints take one batched residual call and each segment one
    more.  The worst relative membership residual is recorded, never
    raised.  With no explicit bound the generic variety constant
    max(1, 2t - 2) is reported.
    """
    if samples_per_segment is None:
        samples_per_segment = d.t + 1
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be positive")
    points = path.breakpoints
    length = path.length()
    outer = frobenius_distance(points[0], points[-1])
    ratio = 1.0 if outer == 0.0 else max(1.0, length / outer)
    if certified_bound is None:
        certified_bound = max(1.0, 2.0 * d.t - 2.0)

    worst = float(membership_residuals(np.stack(points), d).max())
    offsets = _chebyshev_offsets(samples_per_segment)[:, np.newaxis, np.newaxis]
    for a, b in zip(points, points[1:]):
        step = b - a
        if not step.any():
            continue
        # stack one segment at a time, never the whole path: at 40x40, t = 20
        # all samples of a path together would take about 20 MB
        residuals = membership_residuals(a + offsets * step, d)
        worst = max(worst, float(residuals.max()))

    return PathCertificate(
        outer_distance=outer,
        length=length,
        ratio=ratio,
        certified_bound=float(certified_bound),
        branch_trace=tuple(branch_trace),
        max_relative_residual=float(worst),
        samples_per_segment=int(samples_per_segment),
    )


def conjugate_path(path: PiecewisePath, pair: UnitaryPair) -> PiecewisePath:
    """Apply x -> U x V to every breakpoint.

    Unitary conjugation preserves singular values, hence membership, every
    pairwise distance, and the path length.
    """
    shape = path.breakpoints[0].shape
    if len(shape) != 2 or pair.u.shape[1] != shape[0] or pair.v.shape[0] != shape[1]:
        raise DimensionMismatch(
            f"pair {pair.u.shape}x{pair.v.shape} cannot conjugate breakpoints of shape {shape}"
        )
    return PiecewisePath(tuple(pair.apply(b) for b in path.breakpoints))


def build_path(
    p,
    q,
    d: VarietyDescriptor,
    samples_per_segment: int | None = None,
    membership_tol: float = DEFAULT_MEMBERSHIP_TOL,
) -> tuple[PiecewisePath, PathCertificate]:
    """Construct and certify an on-variety path from p to q.

    Dispatch: coincident or collinear pairs ride their own ray (ratio 1,
    bound 1); a zero endpoint gives the radial segment (bound 1); nearly
    orthogonal pairs take the two-leg route (bound 2); everything else goes
    through the rank-stripping recursion pivoted on the smaller rank
    (bound 2 * min rank <= 2t - 2).  Over the real field the recursion can
    fail to find a real eigenvalue; the emitted path then detours through
    zero, carries a RealFallback tag, and reports its achieved ratio as the
    bound instead of claiming the variety constant.

    The path is certified by ``certify`` at ``samples_per_segment``
    Chebyshev points per segment, t + 1 by default, which certifies each
    whole segment, not only the samples, up to floating point.
    """
    p = as_matrix(p, d.field)
    q = as_matrix(q, d.field)
    for name, point in (("p", p), ("q", q)):
        if point.shape != d.shape:
            raise DimensionMismatch(f"{name}: expected shape {d.shape}, got {point.shape}")
        residual = membership_residual(point, d)
        if residual > membership_tol:
            raise MembershipError(name, residual, membership_tol)

    scale = max(frobenius_norm(p), frobenius_norm(q))
    if scale == 0.0:
        scale = 1.0
    points, tags = _dispatch(p, q, d, 0, scale)
    path = PiecewisePath(tuple(points))

    outer = frobenius_distance(p, q)
    root = tags[0].kind if tags else None
    fell_back = any(tag.kind is BranchKind.REAL_FALLBACK for tag in tags)
    if root is None or root is BranchKind.RADIAL:
        bound = 1.0
    elif root is BranchKind.ORTHOGONAL:
        bound = 2.0
    elif root is BranchKind.REAL_FALLBACK:
        bound = (frobenius_norm(p) + frobenius_norm(q)) / outer
    elif fell_back:
        bound = max(1.0, path.length() / outer)
    else:
        bound = 2.0 * min(rank_of(p, d), rank_of(q, d))

    cert = certify(path, d, samples_per_segment, tuple(tags), bound)
    return path, cert
