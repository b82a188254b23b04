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

Every branch decision is recorded in the certificate, and the membership
residual is bounded at every point of every segment, not only at samples.
``build_path`` reads the bound off its route's Schur block structure, with
no SVD of a step, of a breakpoint or of a trailing block
(``_schur_residual``): every breakpoint is D_j + x, and sigma_t of any
matrix is at most the Frobenius norm of its rows from t - 1 on, and of its
columns from t - 1 on.  Along a leg each of these two strips is the norm of
a linear function of s, so at most its ends' strips interpolated, and it
is taken over a lower bound on sigma_1 from the corner and the trailing
block the leg keeps; the terminal legs are rays.  ``certify`` measures any
given path and bounds its residual from the exact spectra of its
breakpoints and steps (``_residual_bound``): it checks every segment
a + s D at min(t, rank D) - 1 interior Chebyshev-Lobatto points, since each
t x t minor has degree at most min(t, rank D) in s, and charges the
numerical tail of the step through Weyl's inequality.  A route's segment
that the structure cannot settle takes that rule on its two points.

The construction commutes with unitary changes of coordinates, and both
endpoints lie in (col p + col q) x (row p + row q), of dimension at most
2(t - 1) on each side.  ``build_path`` therefore divides the pair by a
power of two, compresses it onto that core with orthonormal frames taken
from one stacked SVD of the endpoints, and constructs the route there.
Where min(m, n) is at least 8 (t + 2), that SVD is taken of the pair
compressed onto a Gaussian sketch of its ranges, O(mn t) work, and only
where the small spectrum provably decides membership and ranks as the full
SVD would; any other pair takes the full SVD.  The route is one stack of breakpoints in
the Schur coordinates of the core, endpoints included, where its residual
is bounded and repeated points are dropped by one comparison.  The frames
and the Schur factors compose into one map b -> L b R^H onto m x n, which
carries every kept point onto the returned polyline in one product; a
route without a Schur form is its returned points, under the identity
map.  The residual bound charges that map, so it holds for the returned
polyline, the only one measured.

``build_paths`` builds a block of pairs on one descriptor in one
``_build_block`` call, and ``build_path`` is that call on a block of one.
Every stage that does not depend on a pair's route runs once for the
whole block, each stacked call bitwise the per-matrix one: the input
checks and the scaling, the endpoint SVD, the membership refusal, the
frames and the cores, and the measurement of the returned polylines.  The
routes, from the first level's tests through ``normalize_pair`` to the
map, are built one at a time, and so is each certificate.  So each pair's
path and certificate are the ones it gets alone.  ``_build_block`` raises
the first failure of any pair, and ``build_paths`` is the one place that
catches it: it then builds every pair of the block alone, so each pair's
result is its own path and certificate or its own exception, and a block
that holds a failing pair builds its clean pairs twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack, schur

from .numkernel import (
    _EPS,
    _SMALLEST_SUBNORMAL,
    RANK_REL_TOL,
    DimensionMismatch,
    ScalarField,
    as_matrix,
    frobenius_norm,
    frobenius_norms,
    ldexp,
    leading_nonzero_eigenpair,  # noqa: F401  unused here, but per-layer tracing wraps this name
    numerical_ranks,
    real_view,
    sequential_sum,
    step_norms,
    unitary_completion,  # noqa: F401  unused here, but per-layer tracing wraps this name
)
from .variety import (
    DEFAULT_MEMBERSHIP_TOL,
    UNDERFLOW_SAFE,
    VarietyDescriptor,
    _gamma,
    membership_residual,  # noqa: F401  unused here, but per-layer tracing wraps this name
    product_gamma,
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

#: largest relative residual a segment's bound may add to its ends' before
#: the segment takes a stronger rule: full degree t in ``certify``'s rule,
#: ``certify``'s rule itself in ``build_path``'s
_TAIL_CHARGE_LIMIT = 1e-12

#: columns the endpoints' range sketch (``_sketched_svd``) takes beyond the
#: rank t - 1 it must settle
_SKETCH_OVERSAMPLING = 3

#: the sketch is taken where this many times its width w is at most
#: min(m, n).  Measured on square pairs with one BLAS thread, it breaks even
#: with the full SVD at min(m, n) of about 36 to 44 for w = 4 to 7, and is
#: 20 to 45% faster at 48; smaller shapes keep the full SVD.
_SKETCH_RATIO = 8

#: seed of the sketch's Gaussian test matrix: fixed, so a path is a function
#: of its pair alone
_SKETCH_SEED = 0

#: below this sum of the norms of p and q their distance cannot overflow
_DISTANCE_SAFE = math.ldexp(1.0, 1023)


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
        """The sum of the segments' ``frobenius_norm``s (``step_norms``),
        added in order (``sequential_sum``).  A step whose squares underflow
        is normed after an exact rescaling, so the length of a tiny polyline
        is its true length, not 0."""
        return sequential_sum(step_norms(self.breakpoints))

    def measure(self) -> tuple[float, float, float]:
        """Outer distance, length, and their ratio (1 for coincident endpoints).

        The ratio is length / outer unclamped: a value below 1 would mean a
        polyline shorter than its chord, a measurement fault, and shows as such.
        """
        return _measure([self.breakpoints])[0]

    @property
    def start(self) -> np.ndarray:
        return self.breakpoints[0]

    @property
    def end(self) -> np.ndarray:
        return self.breakpoints[-1]


def _measure(lines) -> list[tuple[float, float, float]]:
    """``PiecewisePath.measure`` of each of ``lines``, sequences of
    breakpoints all of one shape and field: outer distance, length and
    ratio.

    The polylines are chained end to start, and one ``step_norms`` pass
    norms every step of the chain; each length adds its own steps by
    ``sequential_sum``, and the steps that join two polylines are not read.
    Every norm is that of one matrix, so each polyline measures bitwise as
    it would alone.
    """
    steps = step_norms([point for line in lines for point in line]).tolist()
    measures, start = [], 0
    for line in lines:
        end = start + len(line) - 1
        outer = frobenius_norm(line[0] - line[-1])
        # one segment is its own chord: ||a - b|| = ||b - a||, bitwise
        length = outer if len(line) == 2 else sequential_sum(steps[start:end])
        measures.append((outer, length, 1.0 if outer == 0.0 else length / outer))
        start = end + 1
    return measures


@dataclass(frozen=True)
class PathCertificate:
    """Audit record for one constructed path.

    ``ratio`` is length over outer distance (1 by convention for coincident
    endpoints) and is guaranteed not to exceed ``certified_bound``.
    ``max_relative_residual`` bounds the membership residual along the whole
    path.  From ``certify`` (``_residual_bound``) it is the worst residual
    over all breakpoints and the min(t, r) - 1 Chebyshev-Lobatto points
    inside each segment whose step has rank r, plus for r < t the Weyl term
    2 tau / l of the step's tail tau = sigma_{r+1} against a lower bound l
    of sigma_1 on the segment, r and tau read off each step's exact
    spectrum.  ``samples_per_segment`` is the largest number of interior
    points any segment took under that rule: 0 when every step has rank
    <= 1, and from ``build_path`` 0 unless a segment went to it.

    From ``build_path``, distance, length and ratio are measured on the
    returned polyline, and the residual is read off the structure of the
    route (``_schur_residual``): bounds on the trailing blocks' sigma_1 from
    the norms of their rows and columns, and on each point's sigma_t from
    its row and column strips (``_trailing_bounds``), each strip
    interpolated along every leg, rays for the terminal legs, ``certify``'s
    rule on the two points of a segment the structure cannot settle, and
    one Weyl charge for the map b -> L b R^H
    from the Schur coordinates onto the returned m x n polyline, L and R
    the core frames times the Schur factors.  That charge covers the
    unitarity defects of L and R, the rounding of the map's products, and
    the computed distance from each exact endpoint to the map of its Schur
    point, so the residual bounds the returned path.  A route without a
    Schur form is read on its returned points, under the identity.
    ``endpoint_ranks`` are the numerical ranks of p and q (the ``rank_of``
    rule) that ``build_path`` read off its endpoint SVD; None from
    ``certify`` and the ``combinators``, which do not read them.
    ``certify`` reports an empty ``branch_trace`` and the generic variety
    constant max(1, 2t - 2) as ``certified_bound``: it knows no route.
    """

    outer_distance: float
    length: float
    ratio: float
    certified_bound: float
    branch_trace: tuple[BranchTag, ...]
    max_relative_residual: float
    samples_per_segment: int
    endpoint_ranks: tuple[int, int] | None = None

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
    form.  The walk over the positions ranks the blocks from j on once, and
    again only after a swap.  It stops at the first ranking whose block
    starts are ascending: each later position then holds its own best
    block, and no swap can follow, so an ordered form takes no ``trexc``
    call and one ranking.  v comes from one QR factorization q^H z = v r,
    and q_hat is r^H: lower triangular, exactly.  Wherever the leading blocks of t are
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
    # the block starts from j on, best first; only trexc changes t, so they
    # are ranked again only after it runs (a declined swap included).  Once
    # a ranking is ascending, every later position holds its own block
    ranked = None
    j = 0
    while j < len(t):
        if ranked is None:
            starts, eig = _block_eigenvalues(t[j:, j:])
            ranked = j + starts[np.lexsort((-eig.imag, -eig.real, -np.abs(eig)))]
            if (ranked[1:] > ranked[:-1]).all():
                break
        ranked = ranked[ranked >= j]
        first = ranked[0]
        if first != j:
            t, z, _ = trexc(t, z, first + 1, j + 1)
            ranked = None
        j += _block_size(t, j)
    v, r = np.linalg.qr(q.conj().T @ z, mode="complete")
    return z, v, z.conj().T @ p @ v, r.conj().T, t


def _inner(a: np.ndarray, b: np.ndarray):
    """``frobenius_inner(a, b)`` of two blocks of one frame, unchecked."""
    value = (a * b.conj()).sum()
    return complex(value) if np.iscomplexobj(a) else float(value)


def _distance_floor(norm_x: float, norm_y: float, size: int) -> float:
    """A lower bound on the computed ``frobenius_norm(x - y)`` of two blocks
    of ``size`` entries, from their computed norms: |norm_x - norm_y| less
    4 gamma_{size+2} (norm_x + norm_y).

    ||x - y|| >= | ||x|| - ||y|| |.  A computed norm is within e = gamma_{size+2}
    of the exact one, relatively: the dots of the squares err by at most
    gamma_size over the reals, gamma_{size+1} over the complex numbers (two
    dots and their sum), and the square root halves that and adds u.  So the
    exact norms differ by at least |norm_x - norm_y| - e / (1 - e) (norm_x +
    norm_y), and the computed distance, one subtraction and one norm more, is
    at least (1 - u) (1 - e) times the exact one.  Those factors and the
    rounding of this bound itself stay inside the slack.  Squares lost to
    underflow cost a norm at most size units of 2^-1074 against a sum of
    squares of at least ``UNDERFLOW_SAFE`` (below it ``frobenius_norm``
    rescales exactly), about 2^-51 of gamma_size.
    """
    return abs(norm_x - norm_y) - 4.0 * _gamma(size + 2) * (norm_x + norm_y)


def _quotient(error: float, floor: float) -> float:
    """error / floor: 0 without an error, inf without a positive floor."""
    if error <= 0.0:
        return 0.0
    return error / floor if floor > 0.0 else math.inf


def _ratio(bottom: float, top: float) -> float:
    """A bound bottom / top on sigma_t / sigma_1 from bounds on both: 0 for
    bottom 0, and at most 1, which bounds every residual."""
    return 0.0 if bottom <= 0.0 else min(1.0, _quotient(bottom, top))


def _segment_ratios(pairs, tops, norms, floor: float) -> list[float]:
    """The largest ((1 - s) e_a + s e_b) / l(s) over s in [0, 1] for each
    pair (e_a, e_b) on a segment from a to b, where

        l(s) = max(floor, (1 - s) top_a - s norm_b, s top_b - (1 - s) norm_a)

    is at most sigma_1((1 - s) a + s b) for sigma_1 >= top and
    ||.||_F <= norm at both ends.  The quotient of two linear functions is
    monotone between the points where l changes line, so it is largest at
    one of them or at an end of the segment.
    """
    (top_a, top_b), (norm_a, norm_b) = (max(top, 0.0) for top in tops), norms
    turns = [0.0, 1.0]
    for above, below in (
        (top_a - floor, top_a + norm_b),
        (norm_a + floor, top_b + norm_a),
        (top_a + norm_a, top_a + norm_a + top_b + norm_b),
    ):
        if below > 0.0:
            turns.append(min(1.0, max(0.0, above / below)))
    worst = [0.0] * len(pairs)
    for s in turns:
        line = max(floor, (1.0 - s) * top_a - s * norm_b, s * top_b - (1.0 - s) * norm_a)
        for k, (error_a, error_b) in enumerate(pairs):
            worst[k] = max(worst[k], _quotient((1.0 - s) * error_a + s * error_b, line))
    return worst


@dataclass(frozen=True)
class _MapBound:
    """What a computed map x -> fl(fl(A x) B^H), A and B of nearly
    orthonormal columns, does to x: every singular value of the exact image
    A x B^H lies between ``lower`` and ``upper`` times the matching one of
    x, and the computed image lies within ``factor`` ||x||_F + ``absolute``
    of the exact one in Frobenius norm."""

    upper: float
    lower: float
    factor: float
    absolute: float

    def residual(self, residual: float, kappa: float) -> float:
        """A bound on sigma_t / sigma_1 of a point A x B^H + E, given
        rho >= sigma_t(x) / sigma_1(x) and kappa >= ||E||_2 / sigma_1(x).

        By Weyl's inequality sigma_t <= upper sigma_t(x) + ||E||_2 and
        sigma_1 >= lower sigma_1(x) - ||E||_2, so the residual is at most
        (upper rho + kappa) / (lower - kappa).
        """
        return _ratio(self.upper * residual + kappa, self.lower - kappa)


#: the exact map of a route built on the points it returns
_IDENTITY = _MapBound(1.0, 1.0, 0.0, 0.0)


def _frame_bounds(a: np.ndarray, field: ScalarField) -> tuple[float, float]:
    """Bounds sqrt(1 + delta) >= sigma_1(a) and sigma_min(a) >= sqrt(1 - delta)
    from the unitarity defect delta >= ||a^H a - I||_2: the computed
    ||fl(a^H a) - I||_F plus the rounding gamma ||a||_F^2 of the product."""
    gram = a.conj().T @ a
    gram.flat[:: len(gram) + 1] -= 1.0
    defect = math.sqrt(np.vdot(gram, gram).real) + product_gamma(len(a), field) * np.vdot(a, a).real
    return math.sqrt(1.0 + defect), math.sqrt(max(0.0, 1.0 - defect))


def _map_bound(a: np.ndarray, b: np.ndarray, field: ScalarField) -> _MapBound:
    """The ``_MapBound`` of x -> fl(fl(a x) b^H).

    The singular values of a x b^H lie within the products of those of a
    and b (``_frame_bounds``) times x's.  The first product errs by at most
    gamma_a || |a| |x| ||_F <= gamma_a ||a||_F ||x||_F (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.5), which b^H carries on at most
    ||b||_2 times, and the second by gamma_b ||fl(a x)||_F ||b||_F.  An
    underflowing product adds at most one subnormal unit per term.
    """
    (upper_a, lower_a), (upper_b, lower_b) = (_frame_bounds(x, field) for x in (a, b))
    first = float(product_gamma(a.shape[1], field)) * math.sqrt(np.vdot(a, a).real)
    second = float(product_gamma(b.shape[1], field)) * math.sqrt(np.vdot(b, b).real)
    return _MapBound(
        upper_a * upper_b,
        lower_a * lower_b,
        first * upper_b + second * (upper_a + first),
        2.0 * max(a.shape[1], b.shape[1]) * max(len(a), len(b)) * _SMALLEST_SUBNORMAL,
    )


class _Ends(NamedTuple):
    """The exact endpoints p, q of a returned path, as a (2, m, n) stack,
    their membership residuals and lower bounds on their sigma_1 from the
    endpoint SVD, the frames (U, V) of their core (None where the route is
    built on p and q themselves), and the descriptor of the returned path."""

    points: np.ndarray
    residuals: list[float]
    tops: list[float]
    frames: tuple[np.ndarray, np.ndarray] | None
    d: VarietyDescriptor

    def swapped(self) -> _Ends:
        reversed_ = (self.points[::-1], self.residuals[::-1], self.tops[::-1])
        return _Ends(*reversed_, self.frames, self.d)


def _ray_floor(coef, top: float, tail: float) -> float:
    """A lower bound on sigma_1 along the segment from x to y = c x + r, for
    sigma_1(x) >= ``top`` and ||r||_F <= ``tail``.

    The segment is (1 - s + s c) x + s r, and |1 - s + s c| is least at the
    point of the complex segment [1, c] nearest 0.
    """
    step = coef - 1.0
    s = 0.0 if step == 0.0 else min(1.0, max(0.0, -step.real / abs(step) ** 2))
    return abs(1.0 + s * step) * top - tail


def _nearest(a: np.ndarray, b: np.ndarray) -> float:
    """The least ||a + s (b - a)||_F over s in [0, 1]."""
    step = b - a
    squared = np.vdot(step, step).real
    s = 0.0 if squared == 0.0 else min(1.0, max(0.0, -np.vdot(step, a).real / squared))
    return frobenius_norm(a + s * step)


def _sampled_residual(a: np.ndarray, step: np.ndarray, degree: int, d: VarietyDescriptor) -> float:
    """The worst membership residual at the degree - 1 interior
    Chebyshev-Lobatto points s = (1 - cos(k pi / degree)) / 2 of the segment
    a + s step: ``_residual_bound``'s samples."""
    nodes = 0.5 * (1.0 - np.cos(np.arange(1, degree) * np.pi / degree))[:, np.newaxis, np.newaxis]
    return float(spectral_residuals(np.linalg.svd(a + nodes * step, compute_uv=False), d).max())


def _trailing_bounds(
    stack: np.ndarray, positions, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds on the spectrum of each point P = D_j + x of a (N, m, n)
    stack, read off its entries: ``positions[i]`` = j, and the point is
    block diagonal, D_j its leading j x j block and x its trailing block, so
    its rows and columns from j on are x's alone.

    Returns ``(tops, rows, cols)``.  top <= sigma_1(x) is the largest 2-norm
    of a row or column of x.  The row strip ||P[t-1:, :]||_F and the column
    strip ||P[:, t-1:]||_F each bound sigma_t(P), of any P: P less those
    rows, or those columns, has rank at most t - 1, so by Weyl's inequality
    sigma_t(P) is at most their 2-norm.  In ``normalize_pair``'s coordinates
    the strips are tight: p_hat's rows from t - 1 on, and q_hat's columns
    from t - 1 on, are rounding.  A square below the smallest normal number
    rounds by at most half a smallest-subnormal unit, to 0 below about
    1e-162, so each real or imaginary part of the point charges one unit
    inside the square roots: added to a strip, taken off a row or column.
    """
    count, m, n = stack.shape
    parts = real_view(stack)
    squares = np.square(parts)
    # over each row, then over each column (both parts of an entry)
    rows = squares @ np.ones(parts.shape[2])
    cols = (np.ones(m) @ squares).reshape(count, n, -1).sum(axis=2)
    sums = np.concatenate([rows, cols], axis=1)
    charge = parts[0].size * _SMALLEST_SUBNORMAL
    index = np.concatenate([np.arange(m), np.arange(n)])
    j = np.asarray(positions)[:, np.newaxis]
    tops = np.sqrt(np.maximum(np.where(index >= j, sums, 0.0).max(axis=1) - charge, 0.0))
    strips = np.where(index >= t - 1, sums, 0.0)
    row_strips = np.sqrt(strips[:, :m].sum(axis=1) + charge)
    col_strips = np.sqrt(strips[:, m:].sum(axis=1) + charge)
    return tops, row_strips, col_strips


def _schur_residual(stack, positions, kinds, tops_d, left, right, same, ends) -> tuple[float, int]:
    """The residual bound of the returned polyline whose breakpoints are
    L b R^H for the Schur-coordinate points b of ``stack``, and its samples
    per segment: the one residual bound of ``build_path``.

    ``stack`` holds the route in Schur coordinates, p_hat and q_hat at its
    ends.  A route without a Schur form (Radial, Orthogonal or coincident
    at the first level) is the stack of the scaled m x n points it returns,
    with the orthogonal route's 0 between them, all at position 0, and
    ``left`` None: the identity map, exact, with endpoint checks of 0.
    Point i is exactly D_j + x: ``positions[i]`` = j units of q_hat's
    diagonal blocks, whose sigma_1 is at least ``tops_d[j]``, and a trailing
    block x; its spectrum is D_j's and x's.  Every point's sigma_1(x), and
    its sigma_t through its row and column strips, are bounded at once from
    the norms of its rows and columns (``_trailing_bounds``), with no SVD;
    an interior point's residual takes the smaller strip, and the endpoints'
    spectra come from the endpoint SVD, through the map.  Segment i shares
    the corner D_j, j the smaller position of its ends, and is one of
    ``kinds``:

    * ("leg", r), a leg of a Schur block of size r.  Each strip of its point
      (1 - s) a + s b is at most (1 - s) times a's strip plus s times b's,
      whatever the step's rank and whatever entries the route drops.  Each
      strip is interpolated on its own: rows small at one end and columns
      at the other leave both ends' smaller strips small, and neither strip
      small in between.  sigma_1 is bounded below by the corner the leg
      keeps, by the trailing block it keeps, and at the first level by the
      least norm of the rows it moves; the bound is the smaller of the two
      strips' larger ends over that floor;
    * ("ray", base, c), a terminal leg from D_j + x to D_j + c x + r, x at
      the end ``base`` names: every point lies within s ||r||_2 of
      D_j + mu x, mu = 1 - s + s c, whose sigma_t is at most
      |mu| sigma_{t-j}(x) and whose sigma_1 is at least |mu| sigma_1(x) and
      sigma_1(D_j) >= |mu| sigma_1(D_j) / max(1, |c|), so its residual is at
      most sigma_{t-j}(x) / max(sigma_1(x), sigma_1(D_j) / max(1, |c|)); r
      is charged twice from x, by Weyl's inequality, over the floor of
      ``_ray_floor``.

    Where a segment's bound exceeds its ends' residual by more than
    ``_TAIL_CHARGE_LIMIT``, or the map's error against the floor does, it
    follows sigma_1 along the segment instead (``_segment_ratios``).  A
    segment whose bound still exceeds its ends' by that much (a dropped
    block far above rounding, or a pass near 0) is not settled by the
    structure: its two points go to ``_residual_bound``, whose bound from
    their exact spectra is its residual, and whose samples count.  Then every
    point and segment is carried onto the returned path through
    ``_MapBound.residual`` of the one map b -> L b R^H (``left`` and
    ``right``): its unitarity defects, the rounding of its products, and at
    each endpoint the computed ||p - L p_hat R^H||.  A point equal to p_hat
    or q_hat (``same`` tells whether each point equals the one before it) is
    returned as that endpoint, and charged as it.
    """
    t, count = ends.d.t, len(stack)
    core = VarietyDescriptor(*stack.shape[1:], t, ends.d.field)
    if left is None:
        route, errors = _IDENTITY, [0.0] * count
    else:
        route = _map_bound(left, right, ends.d.field)
        norms = frobenius_norms(stack).tolist()
        errors = [route.factor * norm + route.absolute for norm in norms]
        mapped = left @ stack[[0, -1]] @ right.conj().T
        checks = frobenius_norms(ends.points - mapped).tolist()
        for e, i in ((0, 0), (1, count - 1)):
            errors[i] = checks[e] + route.factor * norms[i] + route.absolute
        for i in range(1, count - 1):
            if not same[i - 1]:
                break
            errors[i] = errors[0]
        for i in range(count - 2, 0, -1):
            if not same[i]:
                break
            errors[i] = errors[-1]
    trail_tops, trail_bottoms = [0.0] * count, [0.0] * count
    if count > 3:  # a route of 2 or 3 points ends at its first level: no leg, no trailing block
        inner, rows, cols = _trailing_bounds(stack, positions, t)
        trail_tops[1:-1] = inner[1:-1].tolist()
        trail_bottoms[1:-1] = np.minimum(rows, cols)[1:-1].tolist()
        rows, cols = rows.tolist(), cols.tolist()
    for e, i in ((0, 0), (1, count - 1)):
        trail_tops[i] = (ends.tops[e] - errors[i]) / route.upper
        trail_bottoms[i] = (ends.residuals[e] * ends.tops[e] + errors[i]) / route.lower
    tops = [max(top, tops_d[j]) for top, j in zip(trail_tops, positions)]
    residuals = [_ratio(bottom, top) for bottom, top in zip(trail_bottoms, tops)]

    worst = max(ends.residuals)
    for i in range(1, count - 1):
        worst = max(worst, route.residual(residuals[i], _quotient(errors[i], tops[i])))
    samples = 0
    for i, kind in enumerate(kinds):
        j = min(positions[i], positions[i + 1])
        a, b = stack[i, j:, j:], stack[i + 1, j:, j:]
        start = max(residuals[i], residuals[i + 1])
        if kind[0] == "leg":
            # a first leg keeps D_j and the trailing block of its later end,
            # a closing leg the corner and trailing block of its earlier end
            first = positions[i + 1] > positions[i]
            deeper = i + 1 if first else i
            floor = max(tops_d[j if first else positions[i]], trail_tops[deeper])
            if i == 0:
                size = kind[1]
                floor = max(floor, _nearest(a[:size], b[:size]) / math.sqrt(size))
            # each strip of a point is the norm of a linear function of s
            pairs, weight, offset = [rows[i : i + 2], cols[i : i + 2]], 1.0, 0.0
        else:
            _, base, coef = kind
            x, y = (a, b) if base == 0 else (b, a)
            tail = frobenius_norm(y - coef * x if coef else y)
            floor = max(tops_d[j], _ray_floor(coef, trail_tops[i + base], tail))
            # sigma_1(D_j + mu x) >= |mu| sigma_1(D_j) / max(1, |c|), as |mu| <= max(1, |c|)
            top = max(trail_tops[i + base], tops_d[j] / max(1.0, abs(coef)))
            start = _ratio(trail_bottoms[i + base], top)
            # r enters twice, by Weyl's inequality, on top of the ray's residual
            pairs, weight, offset = [(0.0, tail) if base == 0 else (tail, 0.0)], 2.0, start
        kappa = _quotient(max(errors[i], errors[i + 1]), floor)
        bound = offset + weight * _quotient(min(map(max, pairs)), floor)
        if max(kappa, bound - start) > _TAIL_CHARGE_LIMIT:
            # near a point of small sigma_1: follow sigma_1 along the segment
            norms = frobenius_norms(stack[i : i + 2]).tolist()
            kappa, *ratios = _segment_ratios(
                [(errors[i], errors[i + 1]), *pairs], tops[i : i + 2], norms, floor
            )
            bound = offset + weight * min(ratios)
        if bound - start > _TAIL_CHARGE_LIMIT:  # not settled by the structure
            bound, taken = _residual_bound(stack[i : i + 2], core)
            samples = max(samples, taken)
        worst = max(worst, route.residual(bound, kappa))
    return float(worst), samples


def _dispatch(
    p: np.ndarray,
    q: np.ndarray,
    d: VarietyDescriptor,
    norms: tuple[float, float],
    ranks: tuple[int, int],
    ends: _Ends,
) -> tuple[np.ndarray, list[BranchTag], float, float, int]:
    """The (N, m, n) stack of the returned path's interior breakpoints, its
    branch tags, ratio bound, residual bound and samples per segment: the
    route from the core points p to q, mapped onto the returned path.

    ``ranks`` are the numerical ranks of p and q, read off the endpoint SVD,
    and ``ends`` holds what else that SVD tells of them and the frames.  The
    route leads with the endpoint of smaller rank and is reversed when that
    is q.  Each pass of the loop is one level: the pair (x, y) of blocks
    behind the corner D_j fixed so far, at first (p, q) itself.  A
    coincident pair ends the route, a zero or collinear one ends it with
    the radial segment, and a nearly orthogonal one with the two legs
    through D_j.  Otherwise the Schur block of ``normalize_pair`` at
    position j is a step: from D_j + x to D_{j'} + x' its rows of x are
    traded for q_hat's corner block, and from D_{j'} + y' to D_j + y its
    columns of y are closed, with j' = j + block size.  The level after
    that has the pair (p_hat[j':, j':], q_hat[j':, j':]), whose product is
    t[j':, j':], so the orthogonality test reads |tr t[j':, j':]|; a block
    whose known rank, its endpoint's rank less j', is 0 is the cone point.
    The tests read ||x||, ||y|| and <y, x> of these blocks directly, as
    views, and take a further pass over them only where those leave the
    outcome open:

    * the coincidence test, ||x - y|| <= ``_DEGENERATE_TOL`` times the
      larger endpoint norm, takes ||x - y|| only where
      | ||x|| - ||y|| | less its rounding slack 4 gamma_{n+2} (||x|| + ||y||),
      n the entries of x, does not already exceed that tolerance
      (``_distance_floor``), since ||x - y|| >= | ||x|| - ||y|| |;
    * the collinearity test, ||y - c x|| <= ``_COLLINEAR_TOL`` ||y|| with
      c = <y, x> / ||x||^2, takes ||y - c x|| only where
      |<y, x>| > ||x|| ||y|| / 2: otherwise ||y - c x|| >= (sqrt(3) / 2) ||y||
      for every c, and rounding, of relative order gamma_n, cannot bring it
      near the tolerance;
    * the eigenvalue floor of the step's Schur block is
      ``ORTHOGONALITY_THRESHOLD`` ||x|| ||y|| / (2 (k - j)), k the order
      of t: the orthogonality test just passed puts |tr t[j:, j:]| above
      ``ORTHOGONALITY_THRESHOLD`` ||x|| ||y||, so the dominant |lambda| is at
      least twice the floor, and no norm of t[j:, j:] is taken.

    So every decision is the one the unconditional passes would make.  The
    stack of Schur-coordinate points is written once the route ends: q_hat's
    diagonal block of level i lies in every point from the i-th after p to
    the i-th before q.  A point equal to the one before it adds nothing, and
    points equal to q_hat at the end are q, so both are dropped there, where
    they compare exactly.
    The frames and the normal form make one map b -> L b R^H with L = U z
    and R = V v (z and v without frames) from the Schur coordinates onto
    the returned path, which carries every kept point in one product.  A
    route that ends at the first level has no Schur form: its stack is the
    returned points ``ends.points`` (with 0 between them for the orthogonal
    route), its map the identity, and its interior is returned as it is.
    The residual is bounded on the stack and its map (``_schur_residual``).
    The first level's tests read ``norms``, those of p and q, and its
    orthogonality test the <q, p> that its collinearity test reads.
    The bound is 2 * min rank once a step was taken, else 2 for the
    orthogonal route and 1 for the others.
    """
    if ranks[0] > ranks[1]:
        interior, *route = _dispatch(q, p, d, norms[::-1], ranks[::-1], ends.swapped())
        return interior[::-1], *route

    known_p, known_q = (min(r, d.t - 1) for r in ranks)
    scale = max(norms) or 1.0
    x, y = p, q
    norm_x, norm_y = norms
    levels, tags = [], []
    j, t, middle = 0, None, 0
    # the terminal leg is the ray (base, c) from x to y = c x + r, or from y
    # to x = c y + r for base 1; a coincident pair is x to x + (y - x)
    ray = (0, 1.0)
    degenerate = _DEGENERATE_TOL * scale
    while True:
        if j > 0:
            norm_x, norm_y = frobenius_norm(x), frobenius_norm(y)
        if _distance_floor(norm_x, norm_y, x.size) <= degenerate and (
            frobenius_norm(x - y) <= degenerate
        ):
            break
        if norm_x <= _ZERO_TOL * scale or norm_y <= _ZERO_TOL * scale:
            tags.append(BranchTag(BranchKind.RADIAL, j))
            ray = (int(norm_x <= _ZERO_TOL * scale), 0.0)
            break
        cross = _inner(y, x)
        # y a scalar multiple of x: the whole segment lies on one ray's span.
        # |<y, x>| <= ||x|| ||y|| / 2 leaves ||y - c x|| >= (sqrt(3) / 2) ||y||
        if abs(cross) > 0.5 * norm_x * norm_y:
            coef = cross / (norm_x * norm_x)
            if frobenius_norm(y - coef * x) <= _COLLINEAR_TOL * norm_y:
                tags.append(BranchTag(BranchKind.RADIAL, j))
                ray = (0, coef)
                break
        inner = cross if j == 0 else np.trace(t[j:, j:])
        if abs(inner) <= ORTHOGONALITY_THRESHOLD * norm_x * norm_y:
            tags.append(BranchTag(BranchKind.ORTHOGONAL, j))
            middle = 1  # the two legs meet at D_j
            break
        if t is None:
            z, v, p_hat, q_hat, t = normalize_pair(p, q)
        size = _block_size(t, j)
        # |tr t[j:, j:]| above the threshold times ||x|| ||y|| puts the
        # dominant |lambda| at twice this floor or more, so only rounding can
        # land below it.  The determinant of a scalar block is lambda, of a
        # 2 x 2 block |lambda|^2
        floor = ORTHOGONALITY_THRESHOLD / (2.0 * (len(t) - j)) * norm_x * norm_y
        block = t[j : j + size, j : j + size]
        det = block[0, 0] if size == 1 else block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
        if abs(det) < floor**size:
            raise RuntimeError(
                f"Schur block {j} of the normal form is below the eigenvalue floor "
                "although the pair is not orthogonal"
            )
        kind = BranchKind.GENERAL if size == 1 else BranchKind.REAL_BLOCK
        tags.append(BranchTag(kind, j))
        j += size
        x = p_hat[j:, j:] if known_p > j else np.zeros_like(p_hat[j:, j:])
        y = q_hat[j:, j:] if known_q > j else np.zeros_like(q_hat[j:, j:])
        levels.append((j - size, j, x, y))

    bound = 2.0 * min(ranks) if j > 0 else 2.0 if middle else 1.0
    if t is None:
        # no Schur form: the stack is the returned points, mapped by the identity
        p_hat, q_hat, left, right = *ends.points, None, None
    else:
        left, right = (z, v) if ends.frames is None else (ends.frames[0] @ z, ends.frames[1] @ v)
    stack = np.zeros((2 * len(levels) + middle + 2,) + p_hat.shape, dtype=p.dtype)
    stack[0], stack[-1] = p_hat, q_hat
    # sigma_1 of the corner D_j is at least that of each of its blocks
    tops_d = [0.0] * (j + 1)
    for i, (start, end, x, y) in enumerate(levels):
        corner = q_hat[start:end, start:end]
        stack[1 + i : len(stack) - 1 - i, start:end, start:end] = corner
        stack[1 + i, end:, end:] = x
        stack[-2 - i, end:, end:] = y
        tops_d[end] = max(tops_d[start], frobenius_norm(corner) / math.sqrt(end - start))
    ends_at = [end for _, end, _, _ in levels]
    positions = [0, *ends_at, *[j] * middle, *ends_at[::-1], 0]
    legs = [("leg", end - start) for start, end, _, _ in levels]
    rays = [("ray", 0, 0.0), ("ray", 1, 0.0)] if middle else [("ray", *ray)]
    kinds = legs + rays + legs[::-1]
    same = ~(stack[1:] != stack[:-1]).any(axis=(1, 2))
    # whether each point equals q_hat, and so does every point after it
    at_q = np.logical_and.accumulate(same[::-1])[::-1]
    worst, samples = _schur_residual(
        stack, positions, kinds, tops_d, left, right, same.tolist(), ends
    )
    kept = stack[1:-1][~same[:-1] & ~at_q[1:]]
    return kept if left is None else left @ kept @ right.conj().T, tags, bound, worst, samples


def _on_negative_ray(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether b = -2^k a exactly for an integer k.  The segment from a to b
    is then (1 - s (1 + 2^k)) a, a multiple of a at every point: it runs
    along a's ray through 0."""
    x, y = real_view(a).ravel(), real_view(b).ravel()
    i = int(np.argmax(np.abs(x)))
    (mantissa, exponent), (image, k) = math.frexp(float(x[i])), math.frexp(float(y[i]))
    if mantissa == 0.0 or image != -mantissa:
        return False
    k -= exponent
    # the second comparison fails where scaling by 2^k lost bits to underflow
    return np.array_equal(y, -np.ldexp(x, k)) and np.array_equal(x, -np.ldexp(y, -k))


@functools.lru_cache(maxsize=32)
def _test_matrix(n: int, width: int) -> np.ndarray:
    """The Gaussian n x width test matrix Omega of the endpoints' range
    sketch, drawn once per shape and read-only."""
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((n, width))
    omega.flags.writeable = False
    return omega


def _sketch_margins(stack, basis, small, sigma, d: VarietyDescriptor):
    """How far each matrix x of a (k, m, n) stack may be from its sketch.

    ``basis`` is the orthonormal m x w basis Q that the matrices share,
    ``small`` holds the compressions B = Q^H x and ``sigma`` their singular
    values.  Every singular value of x lies within a margin delta
    of B's: B = Q^H x gives sigma_i(B) <= sigma_i(x), and Weyl's inequality
    with x = Q B + E gives sigma_i(x) <= sigma_i(Q B) + ||E||_2
    (sigma_i(B) = 0 for i > w).  delta is the computed ||E||_F, plus
    gamma (||x||_F + ||Q||_F ||B||_F) for its rounding
    (|fl(x - Q B) - (x - Q B)| <= gamma (|x| + |Q| |B|) entrywise,
    gamma = ``product_gamma(w + 1)``), plus max(m, n) eps sigma_1, an
    allowance for the SVD of B and for Q's departure from orthonormality,
    as ``bounded_projections`` makes for its own SVD.

    Returns the margins and whether each settles the ``numerical_ranks``
    rank of x: no singular value of B, nor the 0 beyond them, lies within
    (1 + tol) delta of the rank threshold tol sigma_1(B), or x = 0 (the
    margin and sigma_1(B) both 0).  A matrix whose largest entry is nonzero
    but below ``UNDERFLOW_SAFE`` is never settled: its roundings may
    underflow, and the rounding model of ``product_gamma`` fails.
    """
    norms = frobenius_norms(stack)
    rounding = product_gamma(basis.shape[1] + 1, d.field) * (
        norms + frobenius_norm(basis) * frobenius_norms(small)
    )
    residual = basis @ small
    np.subtract(stack, residual, out=residual)
    top = sigma[:, 0]
    margins = frobenius_norms(residual) + rounding + max(d.shape) * _EPS * top
    spectrum = np.concatenate([sigma, np.zeros((len(stack), 1))], axis=1)
    gaps = np.abs(spectrum - RANK_REL_TOL * top[:, np.newaxis]).min(axis=1)
    settled = (gaps > (1.0 + RANK_REL_TOL) * margins) | ((top == 0.0) & (margins == 0.0))
    # the largest entry is at least ||x||_F / sqrt(mn), so only a matrix
    # with a small norm needs its entries read
    for i in np.flatnonzero(norms < 2.0 * math.sqrt(stack[0].size) * UNDERFLOW_SAFE):
        scale = np.abs(stack[i]).max()
        settled[i] &= not 0.0 < scale < UNDERFLOW_SAFE
    return margins, settled


def _exact_step_bounds(steps: np.ndarray, d: VarietyDescriptor):
    """Each step's rank r, tail sigma_{r+1} and sigma_1, from its spectrum."""
    step_sigma = spectra(steps, d)
    ranks = numerical_ranks(step_sigma)
    padded = np.concatenate([step_sigma, np.zeros((len(steps), 1))], axis=1)
    return ranks, padded[np.arange(len(steps)), ranks], step_sigma[:, 0]


def _residual_bound(stack: np.ndarray, d: VarietyDescriptor) -> tuple[float, int]:
    """A bound on the membership residual along the polyline through a
    (N, m, n) stack of breakpoints, and the largest number of interior
    points any segment took.

    Every breakpoint is checked, and every segment a + s D, D = b - a, at
    as many interior points as the rank of its step requires (none for a
    repeated breakpoint, whose step has rank 0).  Split D = D_r + E with
    D_r its truncation to rank r (the ``numerical_ranks`` rule) and
    ||E||_2 = tau = sigma_{r+1}(D).  Along a + s D_r each t x t minor is a
    polynomial in s of degree at most k = min(t, r): its coefficient of s^j
    is a sum of products of minors of D_r of size j, which vanish for
    j > r.  So if the minors vanish at
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
    adds no tail term.  A segment with b = -2^k a exactly (p to -p, say)
    runs along a's ray through 0, every point a multiple of a, so its
    endpoints certify it and it takes no sample: one at its crossing of 0
    would hold only rounding.  Chebyshev-Lobatto nodes keep the interpolation
    (Lebesgue) constant small, about 2.9 for the 21 nodes at k = 20
    against about 1.1e4 for 21 equispaced ones, so small sampled residuals
    keep the residual between them small too.

    The breakpoints take one batched singular-value call, all steps one
    more (``_exact_step_bounds``), and each segment with k >= 2 one more.
    The worst relative membership residual is returned, never raised.
    """
    stack = as_matrix(stack, d.field)
    sigma = spectra(stack, d)
    residuals = spectral_residuals(sigma, d)
    worst = float(residuals.max())
    samples = 0
    if len(stack) > 1:
        # a repeated breakpoint gives a zero step: rank 0, nothing to sample
        steps = np.diff(stack, axis=0)
        ranks, tails, tops = _exact_step_bounds(steps, d)
        floors = 0.5 * (sigma[:-1, 0] + sigma[1:, 0] - tops)
        bounded = (ranks < d.t) & (2.0 * tails <= _TAIL_CHARGE_LIMIT * floors)
        degrees = np.where(bounded, ranks, d.t)
        # a ray through 0 has l = 0: it goes to full degree t unless its tail is 0
        for i in np.flatnonzero(~bounded & (sigma[:-1, 0] > 0.0) & (sigma[1:, 0] > 0.0)):
            if _on_negative_ray(stack[i], stack[i + 1]):
                degrees[i] = 0
        charges = np.divide(
            2.0 * tails, floors, out=np.zeros_like(tails), where=bounded & (tails > 0.0)
        )
        ends = np.maximum(residuals[:-1], residuals[1:])
        worst = max(worst, float((ends + charges).max()))
        for a, step, degree, charge in zip(stack, steps, degrees, charges):
            # one segment at a time, never the whole path: at 40x40, t = 20
            # all samples of a path together would take about 20 MB
            if degree >= 2:
                worst = max(worst, _sampled_residual(a, step, degree, d) + charge)
        samples = max(0, int(degrees.max()) - 1)
    return worst, samples


def certify(path: PiecewisePath, d: VarietyDescriptor) -> PathCertificate:
    """Measure a path and re-check membership along it (``_residual_bound``).

    It takes no branch trace and no bound: the trace is empty and the bound
    the generic variety constant max(1, 2t - 2).  ``build_path`` does not
    call it; it bounds the residual of its route from the route's structure
    and measures the polyline it returns, once each.
    """
    outer, length, ratio = path.measure()
    worst, samples = _residual_bound(np.stack(path.breakpoints), d)
    return PathCertificate(
        outer_distance=outer,
        length=length,
        ratio=ratio,
        certified_bound=max(1.0, 2.0 * d.t - 2.0),
        branch_trace=(),
        max_relative_residual=worst,
        samples_per_segment=samples,
    )


def _sketched_svd(stack: np.ndarray, d: VarietyDescriptor):
    """The SVD of a pair compressed onto a sketch of its ranges, or None.

    With w = t - 1 + ``_SKETCH_OVERSAMPLING`` and a Gaussian n x w matrix
    Omega drawn from a fixed seed, Q (m x 2w) is an orthonormal basis of
    [p Omega, q Omega] (Halko, Martinsson and Tropp, Finding structure with
    randomness, SIAM Review 2011), and each x of the pair splits as
    x = Q B + E with B = Q^H x.  Returns ``(Q, u, sigma, vh, residuals)``
    with u diag(sigma) vh the SVD of B, and residuals bounding sigma_t(x) /
    sigma_1(x).  It costs O(mn t), against O(mn min(m, n)) for the SVD of
    x, and is taken only where ``_SKETCH_RATIO`` w <= min(m, n).

    Every singular value of x lies within the margin delta of
    ``_sketch_margins`` of B's, so (sigma_t(B) + delta) / sigma_1(B) bounds
    the residual, and the ``numerical_ranks`` rank of B is that of x where
    the margin settles it.  None where the sketch is not taken, and where it
    cannot decide for both endpoints what the full SVD would: a residual
    bound above ``DEFAULT_MEMBERSHIP_TOL``, or a rank that is not settled
    (which includes an endpoint whose largest entry is nonzero but below
    ``UNDERFLOW_SAFE``).
    """
    width = d.t - 1 + _SKETCH_OVERSAMPLING
    if _SKETCH_RATIO * width > min(d.shape):
        return None
    basis, _ = np.linalg.qr(np.concatenate(list(stack @ _test_matrix(d.n, width)), axis=1))
    small = basis.conj().T @ stack
    u, sigma, vh = np.linalg.svd(small, full_matrices=False)
    margins, settled = _sketch_margins(stack, basis, small, sigma, d)
    # 0 for a zero endpoint (0 over the smallest subnormal), and inf, so
    # undecided, where sigma_1(B) is too small against the margin: that is
    # an endpoint the sketch missed
    with np.errstate(over="ignore"):
        residuals = (sigma[:, d.t - 1] + margins) / np.maximum(sigma[:, 0], _SMALLEST_SUBNORMAL)
    decided = (residuals <= DEFAULT_MEMBERSHIP_TOL) & settled
    return (basis, u, sigma, vh, residuals) if decided.all() else None


class _Spectra(NamedTuple):
    """What the endpoint SVD tells of a pair: the singular triplets
    ``(u, sigma, vh)`` of both endpoints, or of their compressions onto the
    range sketch ``basis`` (None without a sketch), their membership
    residuals and their ranks (the ``rank_of`` rule)."""

    basis: np.ndarray | None
    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray
    residuals: np.ndarray
    ranks: tuple[int, int]


def _endpoint_spectra(stack: np.ndarray, d: VarietyDescriptor) -> list[_Spectra]:
    """The ``_Spectra`` of each pair of a (B, 2, m, n) stack.

    A pair whose sketch decides membership and ranks as the full SVD would
    (``_sketched_svd``) keeps the sketch's; then the residuals are its upper
    bounds, sigma_1(Q^H x) <= sigma_1(x).  Every other pair takes the full
    SVD, all of them in one stacked call, bitwise the SVD of each.
    """
    found = [_sketched_svd(pair, d) for pair in stack]
    spectra = [
        None if sketch is None else _Spectra(*sketch, tuple(numerical_ranks(sketch[2]).tolist()))
        for sketch in found
    ]
    full = [i for i, sketch in enumerate(found) if sketch is None]
    if full:
        endpoints = (stack if len(full) == len(stack) else stack[full]).reshape(-1, *d.shape)
        u, sigma, vh = np.linalg.svd(endpoints, full_matrices=False)
        residuals = spectral_residuals(sigma, d)
        ranks = numerical_ranks(sigma).tolist()
        for k, i in enumerate(full):
            pair = slice(2 * k, 2 * k + 2)
            triplet = u[pair], sigma[pair], vh[pair]
            spectra[i] = _Spectra(None, *triplet, residuals[pair], tuple(ranks[pair]))
    return spectra


def _core_frames(spectra: list[_Spectra], d: VarietyDescriptor):
    """The pairs grouped by the size of their core, with their frames.

    With ranks r_p and r_q and k = max(r_p + r_q, t), QR of the leading
    singular vectors (the left ones mapped back by the sketch's Q) gives U
    (m x k) and V (n x k) with orthonormal columns spanning col p + col q
    and row p + row q, so p = U (U^H p V) V^H and likewise q.  When
    r_p + r_q < t, p's next singular vectors pad the frames to t columns, so
    the core lies on a variety with the same t and takes the same branches.
    Returns ``(k, members, frames)`` per core size: the positions of its
    pairs in ``spectra``, and the stacked frames (U, V) of all of them from
    one stacked QR per side, bitwise the QR of each.  Pairs with
    k >= min(m, n) have frames None: compressing would not shrink them.
    """
    groups: dict[int, list[int]] = {}
    for i, found in enumerate(spectra):
        groups.setdefault(max(sum(found.ranks), d.t), []).append(i)
    cores = []
    for k, members in sorted(groups.items()):
        if k >= min(d.shape):
            cores.append((k, members, None))
            continue
        lefts, rights = [], []
        for i in members:
            basis, u, _, vh, _, (_, rank_q) = spectra[i]
            left = np.concatenate([u[0, :, : k - rank_q], u[1, :, :rank_q]], axis=1)
            lefts.append(left if basis is None else basis @ left)
            rights.append(np.concatenate([vh[0, : k - rank_q], vh[1, :rank_q]]).conj().T)
        frames = np.linalg.qr(np.stack(lefts))[0], np.linalg.qr(np.stack(rights))[0]
        cores.append((k, members, frames))
    return cores


def _shaped_pair(p, q, d: VarietyDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """p and q over d's field, or DimensionMismatch for the first off d's
    shape; a p of non-finite norm is refused before a q of the wrong shape."""
    p, q = as_matrix(p, d.field), as_matrix(q, d.field)
    if p.shape != d.shape:
        raise DimensionMismatch(f"p: expected shape {d.shape}, got {p.shape}")
    if q.shape != d.shape:
        with np.errstate(over="ignore"):
            if not np.isfinite(frobenius_norm(p)):
                raise ValueError("p has a non-finite entry or its Frobenius norm overflows")
        raise DimensionMismatch(f"q: expected shape {d.shape}, got {q.shape}")
    return p, q


def _checked_pairs(pairs, d: VarietyDescriptor) -> np.ndarray:
    """The norm checks of ``build_path`` on pairs (p, q) already over d's
    field and shape (``_shaped_pair``).

    Returns the (B, 2, m, n) stack of the pairs, a copy of their own, which
    the caller may overwrite, or raises the ValueError of the first pair
    that fails: for a non-finite entry or a norm or distance beyond the
    double range, p checked before q, and the distance last.  One
    ``frobenius_norms`` pass takes the norms of all the endpoints; a
    distance is taken only where they could not bound it.
    """
    stack = np.stack([point for pair in pairs for point in pair])
    # squares that overflow are rescaled: only a norm beyond the double range reads inf
    with np.errstate(over="ignore"):
        norms = frobenius_norms(stack).reshape(-1, 2).tolist()
        stack = stack.reshape(-1, 2, *d.shape)
        for (norm_p, norm_q), (p, q) in zip(norms, stack):
            if not (math.isfinite(norm_p) and math.isfinite(norm_q)):
                name = "q" if math.isfinite(norm_p) else "p"
                raise ValueError(f"{name} has a non-finite entry or its Frobenius norm overflows")
            # ||p - q|| <= ||p|| + ||q||, so only norms that add up past 2^1023
            # leave the distance a chance to overflow
            if not norm_p + norm_q < _DISTANCE_SAFE and not math.isfinite(frobenius_norm(p - q)):
                raise ValueError("the Frobenius distance between p and q overflows")
    return stack


def _refuse_nonmembers(residuals) -> None:
    """MembershipError naming the first of p, q off the variety."""
    for name, residual in zip("pq", residuals):
        if not residual <= DEFAULT_MEMBERSHIP_TOL:
            raise MembershipError(name, float(residual), DEFAULT_MEMBERSHIP_TOL)


def _build_block(pairs, d: VarietyDescriptor) -> list:
    """``build_path`` of each of ``pairs`` (p, q), in order: its path and
    certificate.  Raises the first failure of any pair: its shape, its
    norms or distance, its membership, its route or its certificate (a
    length past the double range raises OverflowError)."""
    pairs = [_shaped_pair(p, q, d) for p, q in pairs]
    scaled = _checked_pairs(pairs, d)
    exponents = np.frexp(np.abs(scaled).max(axis=(1, 2, 3)))[1]
    # the checked stack is this call's own: divided by 2^e in place, exactly
    parts = real_view(scaled)
    np.ldexp(parts, -exponents[:, np.newaxis, np.newaxis, np.newaxis], out=parts)
    spectra = _endpoint_spectra(scaled, d)
    for found in spectra:
        _refuse_nonmembers(found.residuals)

    routes = [None] * len(pairs)
    for size, members, frames in _core_frames(spectra, d):
        # every pair in one group, as always for one pair: no copy
        group = scaled if len(members) == len(scaled) else scaled[members]
        if frames is None:
            core_d, cores = d, group
        else:
            u, v = frames
            core_d = VarietyDescriptor(size, size, d.t, d.field)
            cores = np.swapaxes(u, 1, 2).conj()[:, np.newaxis] @ group @ v[:, np.newaxis]
        for g, (k, (core_p, core_q)) in enumerate(zip(members, cores)):
            found = spectra[k]
            ends = _Ends(
                scaled[k],
                found.residuals.tolist(),
                found.sigma[:, 0].tolist(),
                None if frames is None else (u[g], v[g]),
                d,
            )
            norms = (frobenius_norm(core_p), frobenius_norm(core_q))
            routes[k] = _dispatch(core_p, core_q, core_d, norms, found.ranks, ends)

    # a coincident pair has no interior point; its path is the one point
    same = (scaled[:, 0] == scaled[:, 1]).all(axis=(1, 2)).tolist()
    # measured on the polylines that are returned, with the exact endpoints
    measures = _measure(
        [
            scaled[k, :1] if same[k] else (scaled[k, 0], *route[0], scaled[k, 1])
            for k, route in enumerate(routes)
        ]
    )
    results = []
    for k, (outer, length, ratio) in enumerate(measures):
        interior, tags, bound, worst, samples = routes[k]
        p, q = pairs[k]
        exponent = int(exponents[k])
        # copies, so a caller changing p or q afterwards cannot move the certified path
        copies = (p.copy(),) if same[k] else (p.copy(), q.copy())
        path = PiecewisePath(copies[:1] + tuple(ldexp(interior, exponent)) + copies[1:])
        # a length or distance past the double range raises OverflowError
        certificate = PathCertificate(
            outer_distance=math.ldexp(outer, exponent),
            length=math.ldexp(length, exponent),
            ratio=ratio,
            certified_bound=bound,
            branch_trace=tuple(tags),
            max_relative_residual=worst,
            samples_per_segment=samples,
            endpoint_ranks=spectra[k].ranks,
        )
        results.append((path, certificate))
    return results


def build_paths(P, Q, d: VarietyDescriptor) -> list:
    """``build_path`` of each pair (P[i], Q[i]), in order: its path and
    certificate, or the exception that ``build_path`` raises for it.  It
    never raises for a pair.

    The stages that do not depend on a pair's route run once for all the
    pairs (``_build_block``), each bitwise what it does for one pair, so
    every pair's path and certificate is the one it gets alone: the input
    checks (``_shaped_pair`` per pair, then ``_checked_pairs``) and the
    power-of-two scaling; the endpoint spectra, one stacked SVD of all the
    endpoints that no range sketch decides (``_endpoint_spectra``); the
    membership refusal; the frames, one stacked QR per core size and side
    (``_core_frames``), and the cores; and the measurement of every returned
    polyline (``_measure``).  The routes themselves (``_dispatch``) are
    built one at a time.  This is the build's one failure boundary: where
    anything in the block raises, every pair is built again alone, and a
    pair that raises alone has its exception as its result.  So a block
    that holds a failing pair builds its other pairs twice.
    """
    pairs = list(zip(P, Q, strict=True))
    if not pairs:
        return []
    try:
        return _build_block(pairs, d)
    except Exception as exc:
        if len(pairs) == 1:
            return [exc]
    return [result for p, q in pairs for result in build_paths([p], [q], d)]


def build_path(p, q, d: VarietyDescriptor) -> tuple[PiecewisePath, PathCertificate]:
    """Construct and certify an on-variety path from p to q: the block of
    one of ``_build_block``, raising the pair's exception.

    Dispatch: coincident or collinear pairs ride their own ray (ratio 1,
    bound 1); a zero endpoint gives the radial segment (bound 1); nearly
    orthogonal pairs take the two-leg route (bound 2); everything else goes
    through the rank-stripping recursion pivoted on the smaller rank
    (bound 2 * min rank <= 2t - 2), over either field: a real 2 x 2 Schur
    block takes a RealBlock step of two legs and two units of rank.

    Inputs with a non-finite entry, or whose Frobenius norms or distance
    lie beyond the double range, are rejected with ValueError: their
    measurements would be meaningless.  Finite entries whose squares
    overflow are measured after an exact rescaling, so a pair at 2^512
    takes its unit pair's route.  The pair is divided by the power of two
    2^e that brings its largest entry into [1/2, 1), which is exact, so
    tiny and huge pairs take the same route as at unit scale; breakpoints,
    distance and length are multiplied back by 2^e, the breakpoints by one
    ``ldexp`` of their stack.  When k = max(rank p + rank q, t) is below
    min(m, n), the route is built on the k x k core U^H p V, U^H q V (see
    ``_core_frames``), and its breakpoints are carried onto m x n by U and
    V, which preserve rank.  Where min(m, n) is large against t the
    endpoint SVD that finds the core is taken of the pair compressed onto a
    sketch of its ranges, and only where that decides membership and ranks
    as the full SVD would (``_sketched_svd``): every input is accepted or
    rejected as with the full SVD, with the same message.  The returned
    path starts and ends at exact copies of p and q, and the certificate
    carries the endpoint ranks.  The residual is bounded while the route is
    built, from its Schur block structure (``_schur_residual``): bounds on
    the breakpoints' spectra read off their entries (``_trailing_bounds``),
    the row and column strips of each leg's ends interpolated along it,
    rays for the terminal legs, and one Weyl charge for the map onto m x n,
    so it bounds each whole segment of the returned polyline, not only
    samples, up to floating point.  Only a segment that the structure cannot
    settle has its points decomposed (``certify``'s rule).
    Distance, length and ratio are measured once, on the returned polyline,
    and the certificate is built once from both.

    The whole recursion reads one ordered Schur form of p q^H on the core
    (``normalize_pair``), taken once and only by routes that get past the
    first level's tests; the ranks of both endpoints come from the
    endpoint SVD.  Every breakpoint but the endpoints goes from the Schur
    coordinates onto m x n by one map, b -> L b R^H with L = U z and
    R = V v, all of them in one product.
    """
    return _build_block([(p, q)], d)[0]
