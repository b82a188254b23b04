"""Certified on-variety paths between bounded-rank matrices.

Given two members p, q of the variety {rank < t}, ``build_path`` constructs
a polyline that stays on the variety and whose length is certified against
the outer (Frobenius) distance:

* one endpoint zero, or the pair collinear: the straight segment, ratio 1;
* nearly orthogonal pair: the two-leg route through zero, ratio <= 2;
* otherwise: one unitary change of coordinates, an ordered Schur form of
  p q^H, puts the pair in a form where every recursion level can be read
  off.  Level j trades the leading rows of p's trailing block for q's
  corner, connects the blocks behind the corner recursively inside the
  slice that fixes it, and closes the leading columns of q's block.  A
  scalar Schur block strips one unit of rank; over the real field a 2 x 2
  block (a complex-conjugate eigenvalue pair) strips two with two legs.
  So the certified constant is 2 * min(rank p, rank q) <= 2t - 2.

Every branch decision is recorded in the certificate.  Every breakpoint is
re-checked for membership, and every segment a + s D at min(t, rank D) - 1
interior Chebyshev-Lobatto points: none for the rank-1 legs of a scalar
block, one for the rank-2 legs of a real 2 x 2 block.  Along the segment
each t x t minor has degree at most min(t, rank D) in s, so this
certifies the whole segment; the numerical tail sigma_{r+1}(D) of the
step enters the residual through Weyl's inequality (see ``certify``).

The construction commutes with unitary changes of coordinates, and both
endpoints lie in (col p + col q) x (row p + row q), of dimension at most
2(t - 1) on each side.  ``build_path`` therefore divides the pair by a
power of two, compresses it onto that core with orthonormal frames taken
from one stacked SVD of the endpoints, constructs and certifies the path
there, and lifts every breakpoint back isometrically.  On the core every
breakpoint past the endpoints is made in the Schur coordinates and mapped
back once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg import lapack, schur

from .numkernel import (
    DimensionMismatch,
    as_matrix,
    frobenius_distance,
    frobenius_inner,
    frobenius_norm,
    leading_nonzero_eigenpair,  # noqa: F401  unused here, but per-layer tracing wraps this name
    numerical_ranks,
    unitary_completion,  # noqa: F401  unused here, but per-layer tracing wraps this name
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
)

#: pairs with |<p,q>| below this (relative) threshold take the two-leg route
ORTHOGONALITY_THRESHOLD = 1e-8

#: relative threshold below which an endpoint counts as the cone point
_ZERO_TOL = 1e-12

#: relative threshold for treating q as a scalar multiple of p
_COLLINEAR_TOL = 1e-12

#: relative threshold for treating a pair as coincident
_DEGENERATE_TOL = 1e-14

#: largest relative residual the tail of a step may add to its segment
#: before ``certify`` checks the segment at full degree t instead
_TAIL_CHARGE_LIMIT = 1e-12


class BranchKind(str, Enum):
    RADIAL = "Radial"
    ORTHOGONAL = "Orthogonal"
    GENERAL = "General"
    REAL_BLOCK = "RealBlock"


@dataclass(frozen=True)
class BranchTag:
    """One branch decision: which case fired, and at which level, counted as
    the position j of the Schur block the level starts at (the recursion
    depth while every block is scalar)."""

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
    endpoints) and is guaranteed not to exceed ``certified_bound``.
    ``max_relative_residual`` bounds the membership residual along the whole
    path: the worst residual over all breakpoints and the min(t, r) - 1
    Chebyshev-Lobatto points inside each segment whose step has rank r, plus
    for r < t the Weyl term 2 sigma_{r+1} / l of the step's tail against a
    lower bound l of sigma_1 on the segment (see ``certify``).
    ``samples_per_segment`` is the largest number of interior points any
    segment took: 0 when every step has rank <= 1.

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
        """Always False: every route has an a-priori bound.  Kept because the
        benchmark's output checks (``perfbench/workloads.py``) read it."""
        return False


class MembershipError(ValueError):
    """An input point is not on the target variety."""

    def __init__(self, which: str, residual: float, tol: float):
        self.residual = residual
        super().__init__(
            f"point {which!r} is off the variety: membership residual "
            f"{residual:.3e} exceeds tolerance {tol:.1e}"
        )


def _block_eigenvalues(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first position of every diagonal block of a Schur form, and the
    eigenvalue of each block: of a real 2 x 2 block's conjugate pair, the
    one with positive imaginary part."""
    sub = np.diagonal(t, -1)
    first = np.flatnonzero(sub)
    eig = np.diagonal(t).astype(complex)
    if first.size == 0:
        return np.arange(len(t)), eig
    a, d = eig[first].real, eig[first + 1].real
    off = sub[first] * np.diagonal(t, 1)[first]
    eig[first] = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + off + 0j)
    starts = np.ones(len(t), dtype=bool)
    starts[first + 1] = False
    return np.flatnonzero(starts), eig[starts]


def _block_size(t: np.ndarray, j: int) -> int:
    """2 where a real 2 x 2 block starts at position j of a Schur form, else 1."""
    return 2 if j + 1 < len(t) and t[j + 1, j] != 0.0 else 1


def normalize_pair(p, q):
    """One ordered Schur form of C = p q^H, and the pair in its coordinates.

    Returns ``(z, v, p_hat, q_hat, t)`` with C = z t z^H, z and v unitary,
    p_hat = z^H p v and q_hat = z^H q v, so that p_hat q_hat^H = t.  Over
    the complex field t is upper triangular; over the real field it is the
    real Schur form, upper triangular but for 2 x 2 diagonal blocks that
    carry the complex-conjugate eigenvalue pairs.  The blocks are ordered
    dominant first by (-|lambda|, -Re lambda, -Im lambda), moved by LAPACK's
    ``trexc`` swaps; a swap LAPACK declines leaves a valid, less ordered
    form.  v comes from one QR factorization q^H z = v r, and q_hat is r^H:
    lower triangular, exactly.  Wherever the leading blocks of t are
    nonsingular, p_hat = t r^{-1} is block upper triangular in the matching
    leading columns, so every trailing pair (p_hat[j:, j:], q_hat[j:, j:])
    has the product t[j:, j:].  The pair need not clear any threshold.
    """
    p = as_matrix(p)
    q = as_matrix(q)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shape mismatch: {p.shape} vs {q.shape}")
    cross = p @ q.conj().T
    real = not np.iscomplexobj(cross)
    t, z = schur(cross, output="real" if real else "complex")
    trexc = lapack.dtrexc if real else lapack.ztrexc
    j = 0
    while j < len(t):
        starts, eig = _block_eigenvalues(t[j:, j:])
        first = j + starts[np.lexsort((-eig.imag, -eig.real, -np.abs(eig)))[0]]
        if first != j:
            t, z, _ = trexc(t, z, first + 1, j + 1)
        j += _block_size(t, j)
    v, r = np.linalg.qr(q.conj().T @ z, mode="complete")
    return z, v, z.conj().T @ p @ v, r.conj().T, t


def _dedupe(points: list[np.ndarray]) -> list[np.ndarray]:
    out = [points[0]]
    for b in points[1:]:
        if not np.array_equal(b, out[-1]):
            out.append(b)
    return out


def _corner_plus(corner: np.ndarray, block: np.ndarray) -> np.ndarray:
    """D_j + block: the fixed corner with ``block`` in the trailing position."""
    out = corner.copy()
    j = corner.shape[0] - block.shape[0]
    out[j:, j:] = block
    return out


def _dispatch(
    p: np.ndarray,
    q: np.ndarray,
    d: VarietyDescriptor,
    scale: float,
    ranks: tuple[int, int],
) -> tuple[list[np.ndarray], list[BranchTag], float]:
    """Breakpoints, branch tags and ratio bound of the route from p to q.

    ``ranks`` are the numerical ranks of p and q, read off the endpoint SVD.
    The route leads with the endpoint of smaller rank and is reversed when
    that is q.  Each pass of the loop is one level: the pair (x, y) of
    blocks behind the corner D_j fixed so far, at first (p, q) itself.  A
    coincident pair ends the route, a zero or collinear one ends it with
    the radial segment, and a nearly orthogonal one with the two legs
    through D_j.  Otherwise the Schur block of ``normalize_pair`` at
    position j is a step: from D_j + x to D_{j'} + x' its rows of x are
    traded for q_hat's corner block, and from D_{j'} + y' to D_j + y its
    columns of y are closed, with j' = j + block size.  The level after
    that has the pair (p_hat[j':, j':], q_hat[j':, j':]), whose product is
    t[j':, j':], so the orthogonality test reads |tr t[j':, j':]|; a block
    whose known rank, its endpoint's rank less j', is 0 is the cone point.
    Every point but the endpoints is made in the Schur coordinates and
    mapped back by z b v^H.  The bound is 2 * min rank once a step was
    taken, else 2 for the orthogonal route and 1 for the others.
    """
    if ranks[0] > ranks[1]:
        points, tags, bound = _dispatch(q, p, d, scale, (ranks[1], ranks[0]))
        return points[::-1], tags, bound

    known_p, known_q = (min(r, d.t - 1) for r in ranks)
    x, y, inner = p, q, frobenius_inner(p, q)
    left, right, middle, tags = [], [], [], []
    j, t = 0, None
    while frobenius_distance(x, y) > _DEGENERATE_TOL * scale:
        norm_x, norm_y = frobenius_norm(x), frobenius_norm(y)
        if norm_x <= _ZERO_TOL * scale or norm_y <= _ZERO_TOL * scale:
            tags.append(BranchTag(BranchKind.RADIAL, j))
            break
        # y a scalar multiple of x: the whole segment lies on one ray's span
        coef = frobenius_inner(y, x) / (norm_x * norm_x)
        if frobenius_distance(y, coef * x) <= _COLLINEAR_TOL * norm_y:
            tags.append(BranchTag(BranchKind.RADIAL, j))
            break
        if abs(inner) <= ORTHOGONALITY_THRESHOLD * norm_x * norm_y:
            tags.append(BranchTag(BranchKind.ORTHOGONAL, j))
            middle = [np.zeros_like(p) if t is None else corner]
            break
        if t is None:
            z, v, p_hat, q_hat, t = normalize_pair(p, q)
            corner = np.zeros_like(p_hat)
        size = _block_size(t, j)
        # |tr t[j:, j:]| above the threshold puts the dominant |lambda| at
        # twice this floor or more, so only rounding can land below it
        floor = ORTHOGONALITY_THRESHOLD / (2.0 * (len(t) - j)) * np.linalg.norm(t[j:, j:])
        if abs(np.linalg.det(t[j : j + size, j : j + size])) ** (1 / size) < floor:
            raise RuntimeError(
                f"Schur block {j} of the normal form is below the eigenvalue floor "
                "although the pair is not orthogonal"
            )
        kind = BranchKind.GENERAL if size == 1 else BranchKind.REAL_BLOCK
        tags.append(BranchTag(kind, j))
        corner[j : j + size, j : j + size] = q_hat[j : j + size, j : j + size]
        j += size
        x = p_hat[j:, j:] if known_p > j else np.zeros_like(p_hat[j:, j:])
        y = q_hat[j:, j:] if known_q > j else np.zeros_like(q_hat[j:, j:])
        inner = np.trace(t[j:, j:])
        left.append(_corner_plus(corner, x))
        right.append(_corner_plus(corner, y))

    interior = left + middle + right[::-1]
    if t is not None:
        interior = list(z @ np.stack(interior) @ v.conj().T)
    if j > 0:
        bound = 2.0 * min(ranks)
    else:
        bound = 2.0 if tags and tags[0].kind is BranchKind.ORTHOGONAL else 1.0
    return [p] + interior + [q], tags, bound


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
    rank-1 step, which is every leg of a scalar Schur block, needs no
    interior point at all, and a leg of a real 2 x 2 block needs one.

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
    (bound 2 * min rank <= 2t - 2), over either field: a real 2 x 2 Schur
    block takes a RealBlock step of two legs and two units of rank.

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
    segment whose step has rank r and the Weyl term of the step's
    numerical tail, which certifies each whole segment, not only the
    samples, up to floating point.

    The whole recursion reads one ordered Schur form of p q^H on the core
    (``normalize_pair``), taken once and only by routes that get past the
    first level's tests; the ranks of both endpoints come from the
    endpoint SVD.  Every breakpoint but the endpoints is mapped back from
    the Schur coordinates once, and lifted once more onto m x n.
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
    points, tags, bound = _dispatch(core_p, core_q, core_d, scale, ranks)
    points = _dedupe(points)
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
