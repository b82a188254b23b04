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

Every branch decision is recorded in the certificate.  Every breakpoint is
re-checked for membership, and every segment a + s D at min(t, rank D) - 1
interior Chebyshev-Lobatto points, none for the rank-1 steps the recursion
emits.  Along the segment each t x t minor has degree at most
min(t, rank D) in s, so this certifies the whole segment; the numerical
tail sigma_{r+1}(D) of the step enters the residual through Weyl's
inequality (see ``certify``).

The construction commutes with unitary changes of coordinates, and both
endpoints lie in (col p + col q) x (row p + row q), of dimension at most
2(t - 1) on each side.  ``build_path`` therefore divides the pair by a
power of two, compresses it onto that core with orthonormal frames taken
from one stacked SVD of the endpoints, constructs and certifies the path
there, and lifts every breakpoint back isometrically.

The recursion never moves a breakpoint between levels.  Each level
returns its breakpoints in its own coordinates, tagged with its frame:
the composed left and right factors of the levels above (orthonormal
columns, one product per side per level) and the sum of the corners they
fixed.  ``build_path`` lifts every breakpoint once onto the core through
its frame, once more onto m x n, and drops repeated breakpoints once, at
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    numerical_ranks,
    unitary_completion,
)
from .variety import (
    DEFAULT_MEMBERSHIP_TOL,
    VarietyDescriptor,
    membership_residual,  # noqa: F401  unused here, but per-layer tracing wraps this name
    membership_residuals,
    project,  # noqa: F401  unused here, but per-layer tracing wraps this name
    rank_of,  # noqa: F401  unused here, but per-layer tracing wraps this name
    spectra,
    spectral_residuals,
    truncations,
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

#: largest relative residual the tail of a step may add to its segment
#: before ``certify`` checks the segment at full degree t instead
_TAIL_CHARGE_LIMIT = 1e-12


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

    def measure(self) -> tuple[float, float, float]:
        """Outer distance, length, and their ratio (1 for coincident endpoints).

        The ratio is length / outer unclamped: a value below 1 would mean a
        polyline shorter than its chord, a measurement fault, and shows as such.
        """
        length = self.length()
        outer = frobenius_distance(self.start, self.end)
        ratio = 1.0 if outer == 0.0 else length / outer
        return outer, length, ratio

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
    ``certified_bound``.  ``max_relative_residual`` bounds the membership
    residual along the whole path: the worst residual over all breakpoints
    and the min(t, r) - 1 Chebyshev-Lobatto points inside each segment whose
    step has rank r, plus for r < t the Weyl term 2 sigma_{r+1} / l of the
    step's tail against a lower bound l of sigma_1 on the segment (see
    ``certify``).  ``samples_per_segment`` is the largest number of interior
    points any segment took: 0 when every step has rank <= 1.

    From ``build_path``, distance, length and ratio are measured on the
    returned polyline.  When the path was built on a compressed core, the
    residual also includes the relative distance by which each endpoint was
    snapped back to the exact input: by Weyl's inequality sigma_t moves by
    at most that much, so the residual still bounds the returned path.
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


def normalize_pair(p, q):
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

    cross = p @ q.conj().T
    mu, w = leading_nonzero_eigenpair(cross, ORTHOGONALITY_THRESHOLD / (2.0 * p.shape[0]))
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


@dataclass(frozen=True)
class _Frame:
    """Where one recursion level's coordinates sit in the top level's.

    A point x of the level is the top-level point corner + left x right^H.
    ``left`` and ``right`` have orthonormal columns, and ``corner`` is the
    sum q11_i l_i r_i^H of the corners the levels above have fixed; at the
    top all three are None and the map is the identity.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None
    corner: np.ndarray | None = None

    def lift(self, x: np.ndarray) -> np.ndarray:
        if self.left is None:
            return x
        return self.corner + self.left @ x @ self.right.conj().T

    def descend(self, pair: UnitaryPair, q11) -> "_Frame":
        """The frame of the trailing block of U x V, whose level point b sits
        in this one as U^H [[q11, 0], [0, b]] V^H: one product per side."""
        left = pair.u.conj().T if self.left is None else self.left @ pair.u.conj().T
        right = pair.v if self.right is None else self.right @ pair.v
        corner = q11 * np.outer(left[:, 0], right[:, 0].conj())
        if self.corner is not None:
            corner += self.corner
        return _Frame(left[:, 1:], right[:, 1:], corner)


#: a breakpoint in the coordinates of the level that made it, with that level's frame
_Piece = tuple[np.ndarray, _Frame]


def _dispatch(
    x: np.ndarray,
    y: np.ndarray,
    d: VarietyDescriptor,
    depth: int,
    scale: float,
    ranks: tuple[int, int],
    frame: _Frame,
) -> tuple[list[_Piece], list[BranchTag], float | None]:
    """Pick and execute the branch for one pair; used recursively.

    ``ranks`` are the ranks of x and y: at the top the numerical ranks read
    off the endpoint SVD, deeper the known ranks the level above snapped its
    trailing blocks to.  ``frame`` places this level in the top level's
    coordinates.  Returns the breakpoints, each with the frame of the level
    that made it, the branch tags and the ratio bound of the branch taken;
    the bound is None once a RealFallback fired anywhere in the route, which
    then has no a-priori bound.
    """
    dist = frobenius_distance(x, y)
    if d.t == 1 or dist <= _DEGENERATE_TOL * scale:
        return [(b, frame) for b in _dedupe([x, y])], [], 1.0

    norm_x, norm_y = frobenius_norm(x), frobenius_norm(y)
    if norm_x <= _ZERO_TOL * scale or norm_y <= _ZERO_TOL * scale:
        return [(x, frame), (y, frame)], [BranchTag(BranchKind.RADIAL, depth)], 1.0

    # q a scalar multiple of p: the whole segment lies on one ray's span
    coef = frobenius_inner(y, x) / (norm_x * norm_x)
    if frobenius_distance(y, coef * x) <= _COLLINEAR_TOL * norm_y:
        return [(x, frame), (y, frame)], [BranchTag(BranchKind.RADIAL, depth)], 1.0

    if abs(frobenius_inner(x, y)) <= ORTHOGONALITY_THRESHOLD * norm_x * norm_y:
        pieces = [(x, frame), (np.zeros_like(x), frame), (y, frame)]
        return pieces, [BranchTag(BranchKind.ORTHOGONAL, depth)], 2.0

    rank_x, rank_y = ranks
    swap = rank_x > rank_y
    lead, trail = (y, x) if swap else (x, y)
    try:
        pieces, tags, sub_bound = _general(
            lead, trail, d, depth, scale, ranks[::-1] if swap else ranks, frame
        )
    except NoUsableEigenpair:
        pieces = [(x, frame), (np.zeros_like(x), frame), (y, frame)]
        return pieces, [BranchTag(BranchKind.REAL_FALLBACK, depth)], None
    if swap:
        pieces.reverse()
    return pieces, tags, None if sub_bound is None else 2.0 * min(rank_x, rank_y)


def _general(
    p: np.ndarray,
    q: np.ndarray,
    d: VarietyDescriptor,
    depth: int,
    scale: float,
    ranks: tuple[int, int],
    frame: _Frame,
) -> tuple[list[_Piece], list[BranchTag], float | None]:
    pair, p_hat, q_hat = normalize_pair(p, q)
    sub = VarietyDescriptor(d.m - 1, d.n - 1, d.t - 1, d.field)
    # p_hat's first column is p11 e1 and q_hat's first row q11 e1^T, both
    # nonzero, so each trailing block has exactly its endpoint's rank - 1.
    # Numerically the normal-form margins get amplified for pairs near the
    # orthogonality threshold, so snap each block back to that known rank
    # (never above the sub-variety's t - 1): the motion is bounded by the
    # noise, and a block whose rank is 0 becomes the cone point instead of
    # a noise direction.  One stacked SVD gives both snapped blocks.
    sub_ranks = tuple(min(r, d.t - 1) - 1 for r in ranks)
    (block_p, block_q), _ = truncations(
        np.stack([p_hat[1:, 1:], q_hat[1:, 1:]]), sub, sub_ranks
    )
    sub_pieces, sub_tags, sub_bound = _dispatch(
        block_p,
        block_q,
        sub,
        depth + 1,
        scale,
        sub_ranks,
        frame.descend(pair, q_hat[0, 0]),
    )
    pieces = [(p, frame)] + sub_pieces + [(q, frame)]
    return pieces, [BranchTag(BranchKind.GENERAL, depth)] + sub_tags, sub_bound


def _lobatto_interior(degree: int) -> np.ndarray:
    """The degree - 1 interior Chebyshev-Lobatto nodes (1 - cos(j pi / degree)) / 2."""
    j = np.arange(1, degree)
    return 0.5 * (1.0 - np.cos(j * np.pi / degree))


def certify(
    path: PiecewisePath,
    d: VarietyDescriptor,
    branch_trace: tuple[BranchTag, ...] = (),
    certified_bound: float | None = None,
) -> PathCertificate:
    """Measure a path and re-check membership along it.

    Every breakpoint is checked, and every segment a + s D, D = b - a, at
    as many interior points as the rank of its step requires (none for a
    repeated breakpoint, whose step has rank 0).  Split D = D_r + E with
    D_r its truncation to rank r (the ``numerical_ranks`` rule) and
    ||E||_2 = tau = sigma_{r+1}(D).  Along a + s D_r each t x t minor is a polynomial in s of degree at most
    k = min(t, r): its coefficient of s^j is a sum of products of minors
    of D_r of size j, which vanish for j > r.  So if the minors vanish at
    the k + 1 Chebyshev-Lobatto nodes s_j = (1 - cos(j pi / k)) / 2, the
    two breakpoints and k - 1 interior points, they vanish identically.  A
    rank-1 step, which is every step of the scalar recursion, needs no
    interior point at all.

    By Weyl's inequality every singular value of a + s D lies within
    s tau <= tau of that of a + s D_r.  On the segment sigma_1 is at least
    l = (sigma_1(a) + sigma_1(b) - sigma_1(D)) / 2: it is at least
    sigma_1(a) - s sigma_1(D) and at least sigma_1(b) - (1 - s) sigma_1(D),
    so at least their mean.  Carrying the sampled residuals over to the
    rank-r segment and its conclusion back each cost at most tau / l, so
    the segment's residual is its worst sampled one plus 2 tau / l.  When
    r >= t, or when that tail term would exceed ``_TAIL_CHARGE_LIMIT``
    (a segment passing within rounding of 0 has l ~ 0), the segment is
    checked at full degree k = t instead, which needs no truncation and
    adds no tail term.  Chebyshev-Lobatto nodes keep the interpolation
    (Lebesgue) constant small, about 2.9 for the 21 nodes at k = 20
    against about 1.1e4 for 21 equispaced ones, so small sampled residuals
    keep the residual between them small too.

    The breakpoints take one batched singular-value call, all steps one
    more, and each segment with k >= 2 one more.  The worst relative
    membership residual is recorded, never raised, and so is the largest
    number of interior points any segment took.  With no explicit bound
    the generic variety constant max(1, 2t - 2) is reported.
    """
    points = path.breakpoints
    outer, length, ratio = path.measure()
    if certified_bound is None:
        certified_bound = max(1.0, 2.0 * d.t - 2.0)

    stack = np.stack(points)
    sigma = spectra(stack, d)
    residuals = spectral_residuals(sigma, d)
    worst = float(residuals.max())
    samples = 0
    if len(points) > 1:
        # a repeated breakpoint gives a zero step: rank 0, nothing to sample
        steps = np.diff(stack, axis=0)
        step_sigma = spectra(steps, d)
        ranks = numerical_ranks(step_sigma)
        padded = np.concatenate([step_sigma, np.zeros((len(steps), 1))], axis=1)
        tails = padded[np.arange(len(steps)), ranks]
        floors = 0.5 * (sigma[:-1, 0] + sigma[1:, 0] - step_sigma[:, 0])
        bounded = (ranks < d.t) & (2.0 * tails <= _TAIL_CHARGE_LIMIT * floors)
        degrees = np.where(bounded, ranks, d.t)
        charges = np.divide(
            2.0 * tails, floors, out=np.zeros_like(tails), where=bounded & (tails > 0.0)
        )
        ends = np.maximum(residuals[:-1], residuals[1:])
        worst = max(worst, float((ends + charges).max()))
        for a, step, degree, charge in zip(points, steps, degrees, charges):
            if degree < 2:
                continue
            # one segment at a time, never the whole path: at 40x40, t = 20
            # all samples of a path together would take about 20 MB
            nodes = _lobatto_interior(degree)[:, np.newaxis, np.newaxis]
            sampled = membership_residuals(a + nodes * step, d)
            worst = max(worst, float(sampled.max()) + charge)
        samples = max(0, int(degrees.max()) - 1)

    return PathCertificate(
        outer_distance=outer,
        length=length,
        ratio=ratio,
        certified_bound=float(certified_bound),
        branch_trace=tuple(branch_trace),
        max_relative_residual=float(worst),
        samples_per_segment=samples,
    )


def _ldexp(x: np.ndarray, exponent: int) -> np.ndarray:
    """x * 2**exponent, exact unless an entry leaves the normal range."""
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x)
        return np.ldexp(x.view(np.float64), exponent).view(x.dtype)
    return np.ldexp(x, exponent)


def _core_frames(p: np.ndarray, q: np.ndarray, d: VarietyDescriptor):
    """Membership residuals and ranks of both endpoints, and frames of their core.

    One stacked SVD gives both spectra and singular vectors.  With ranks r_p
    and r_q (the ``rank_of`` rule) and k = max(r_p + r_q, t), QR of the
    leading singular vectors gives U (m x k) and V (n x k) with orthonormal
    columns spanning col p + col q and row p + row q, so p = U (U^H p V) V^H
    and likewise q.  When r_p + r_q < t, p's next singular vectors pad the
    frames to t columns, so the core lies on a variety with the same t and
    takes the same branches.  The frames are None when k >= min(m, n):
    compressing would not shrink the problem.
    """
    u, sigma, vh = np.linalg.svd(np.stack([p, q]), full_matrices=False)
    residuals = spectral_residuals(sigma, d)
    rank_p, rank_q = (int(r) for r in numerical_ranks(sigma))
    k = max(rank_p + rank_q, d.t)
    if k >= min(d.shape):
        return residuals, (rank_p, rank_q), None
    frame_u, _ = np.linalg.qr(np.concatenate([u[0, :, : k - rank_q], u[1, :, :rank_q]], axis=1))
    frame_v, _ = np.linalg.qr(np.concatenate([vh[0, : k - rank_q], vh[1, :rank_q]]).conj().T)
    return residuals, (rank_p, rank_q), (frame_u, frame_v)


def build_path(p, q, d: VarietyDescriptor) -> tuple[PiecewisePath, PathCertificate]:
    """Construct and certify an on-variety path from p to q.

    Dispatch: coincident or collinear pairs ride their own ray (ratio 1,
    bound 1); a zero endpoint gives the radial segment (bound 1); nearly
    orthogonal pairs take the two-leg route (bound 2); everything else goes
    through the rank-stripping recursion pivoted on the smaller rank
    (bound 2 * min rank <= 2t - 2).  Over the real field the recursion can
    fail to find a real eigenvalue; the emitted path then detours through
    zero, carries a RealFallback tag, and reports its achieved ratio as the
    bound instead of claiming the variety constant.

    Inputs with a non-finite entry, or whose Frobenius norms or distance
    overflow, are rejected with ValueError: their measurements would be
    meaningless.  The pair is divided by the power of two 2^e that brings
    its largest entry into [1/2, 1), which is exact, so tiny and huge pairs
    take the same route as at unit scale; breakpoints, distance and length
    are multiplied back by 2^e.  When k = max(rank p + rank q, t) is below
    min(m, n), the path is built and certified on the k x k core U^H p V,
    U^H q V (see ``_core_frames``) and lifted back by b -> U b V^H, an
    isometry that preserves rank.  The returned path starts and ends at
    exact copies of p and q.  The path is certified by ``certify``: every
    breakpoint, plus min(t, r) - 1 Chebyshev-Lobatto points inside each
    segment whose step has rank r (none for the rank-1 steps of the
    recursion) and the Weyl term of the step's numerical tail, which
    certifies each whole segment, not only the samples, up to floating
    point.

    The recursion takes one stacked SVD per level, which snaps both
    trailing blocks to their known ranks, rank p - 1 and rank q - 1; those
    are the ranks the next level dispatches on, and at the top the ranks
    come from the endpoint SVD.  Every breakpoint comes back in the
    coordinates of the level that made it, with that level's composed
    frame, and is lifted once onto the core and once onto m x n.
    """
    p = as_matrix(p, d.field)
    q = as_matrix(q, d.field)
    for name, point in (("p", p), ("q", q)):
        if point.shape != d.shape:
            raise DimensionMismatch(f"{name}: expected shape {d.shape}, got {point.shape}")
        if not np.isfinite(frobenius_norm(point)):
            raise ValueError(f"{name} has a non-finite entry or its Frobenius norm overflows")
    if not np.isfinite(frobenius_distance(p, q)):
        raise ValueError("the Frobenius distance between p and q overflows")

    exponent = int(np.frexp(max(np.abs(p).max(), np.abs(q).max()))[1])
    p_scaled, q_scaled = _ldexp(p, -exponent), _ldexp(q, -exponent)
    residuals, ranks, frames = _core_frames(p_scaled, q_scaled, d)
    for name, residual in zip("pq", residuals):
        if residual > DEFAULT_MEMBERSHIP_TOL:
            raise MembershipError(name, float(residual), DEFAULT_MEMBERSHIP_TOL)

    if frames is None:
        core_d, core_p, core_q = d, p_scaled, q_scaled
    else:
        u, v = frames
        core_d = VarietyDescriptor(u.shape[1], v.shape[1], d.t, d.field)
        core_p, core_q = u.conj().T @ p_scaled @ v, u.conj().T @ q_scaled @ v
    scale = max(frobenius_norm(core_p), frobenius_norm(core_q)) or 1.0
    pieces, tags, bound = _dispatch(core_p, core_q, core_d, 0, scale, ranks, _Frame())
    # each breakpoint is lifted once: onto the core through its level's frame
    points = _dedupe([frame.lift(b) for b, frame in pieces])
    lifted = points if frames is None else [u @ b @ v.conj().T for b in points]
    # relative distance from each endpoint to its lift (0 when not compressed)
    snap = max(
        (
            float(np.linalg.norm(x - end) / np.linalg.norm(x))
            for x, end in ((p_scaled, lifted[0]), (q_scaled, lifted[-1]))
            if x.any()
        ),
        default=0.0,
    )
    # measured on the polyline that is returned, with the exact endpoints
    interior = lifted[1:-1]
    scaled_path = PiecewisePath(tuple(_dedupe([p_scaled] + interior + [q_scaled])))
    outer, length, ratio = scaled_path.measure()
    if bound is None:
        bound = ratio
    cert = certify(PiecewisePath(tuple(points)), core_d, tuple(tags), bound)
    # copies, so a caller changing p or q afterwards cannot move the certified path
    path = PiecewisePath(
        tuple(_dedupe([p.copy()] + [_ldexp(b, exponent) for b in interior] + [q.copy()]))
    )
    return path, replace(
        cert,
        outer_distance=math.ldexp(outer, exponent),
        length=math.ldexp(length, exponent),
        ratio=ratio,
        max_relative_residual=cert.max_relative_residual + snap,
    )
