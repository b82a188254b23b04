"""Independent inner-distance estimators.

These deliberately avoid the path construction's machinery: a proximity
graph over sampled variety points gives one estimate of the inner
distance, and local curve shortening with projection gives another.  Both
are estimates with stated tolerances, never certificates.  The shortened
length can only tighten the sandwich

    outer distance <= shortened length <= constructed length.

The graph's value is at least the outer distance but is not a proved upper
bound: it admits an edge from a few interior samples, so an admitted edge
may leave the variety between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .numkernel import (
    as_matrix,
    frobenius_norm,
    frobenius_norms,
    ldexp,
    sequential_sum,
    step_norms,
)
from .paths import PiecewisePath, _checked_pairs, _refuse_nonmembers, _shaped_pair, build_path
from .variety import (
    VarietyDescriptor,
    bounded_projections,
    membership_residual,  # noqa: F401  unused here, but per-layer tracing wraps this name
    membership_residuals,
    project,  # noqa: F401  unused here, but per-layer tracing wraps this name
    sample_stratum,
)

_RESIDUAL_CEILING = 1e-8

#: ``graph_upper_bound``'s edge tube: the largest membership residual an
#: interior point of an admitted edge may have
EDGE_MEMBERSHIP_TOL = 1e-6

#: equispaced interior points checked per proximity-graph edge in
#: ``graph_upper_bound``
CHECKS_PER_EDGE = 3

#: matrices per stacked call in ``shorten`` and steps per block of the
#: proximity graph's edge weights: blocks are independent, so results do not
#: depend on it, and peak memory stays flat on long polylines and large graphs
_BLOCK = 256


@dataclass(frozen=True)
class OracleConfig:
    n_samples: int = 64
    shorten_iterations: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.shorten_iterations < 1:
            raise ValueError("shorten_iterations must be positive")


def proximity_graph_distance(
    nodes: list[np.ndarray],
    source: int,
    target: int,
    residuals_of: Callable[[np.ndarray], np.ndarray],
    tol: float,
    checks_per_edge: int,
) -> float:
    """Shortest path between two nodes of a residual-tube proximity graph.

    Nodes i < j are joined when their step is zero, or when every one of
    ``checks_per_edge`` equispaced interior points of the segment from i to
    j has residual at most ``tol`` (a NaN residual rejects nothing); the
    weight is the step's Frobenius norm.  ``residuals_of`` maps a stack of
    points to their residuals.

    The search is lazy (LazySP, Dellin & Srinivasa 2016): it runs Dijkstra
    on the optimistic graph, where unchecked edges count as present and
    rejected ones are left out, and checks only the unchecked edges of the
    path it returns, all of them together, one interior offset at a time
    and each edge only until its first failure.  It stops when a returned
    path has only valid edges.  That path is a shortest one of the full
    graph, because the optimistic graph contains it, and its length is
    summed edge by edge from source to target.  Every point is evaluated
    at most once, and only if checking that edge alone would evaluate it,
    so the distance is the one the full graph gives, bit for bit, from far
    fewer residuals.  Returns ``math.inf`` when the sampled graph leaves
    the endpoints disconnected (a sampling artifact, not a statement about
    the space).
    """
    count = len(nodes)
    offsets = np.arange(1, checks_per_edge + 1) / (checks_per_edge + 1)
    stack = np.stack(nodes)
    rows, cols = np.triu_indices(count, 1)
    weights = np.empty(len(rows))
    valid = np.empty(len(rows), dtype=bool)
    for k in range(0, len(rows), _BLOCK):
        block = slice(k, k + _BLOCK)
        steps = stack[cols[block]] - stack[rows[block]]
        weights[block] = frobenius_norms(steps)
        valid[block] = ~steps.reshape(len(steps), -1).any(axis=1)
    rejected = np.zeros(len(rows), dtype=bool)
    edge_of = np.empty((count, count), dtype=np.intp)
    edge_of[rows, cols] = edge_of[cols, rows] = np.arange(len(rows))
    while True:
        kept = ~rejected
        graph = csr_matrix((weights[kept], (rows[kept], cols[kept])), shape=(count, count))
        dist, pred = dijkstra(graph, directed=False, indices=source, return_predecessors=True)
        if math.isinf(dist[target]):
            return math.inf
        path = [target]
        while path[-1] != source:
            path.append(int(pred[path[-1]]))
        path = np.array(path[::-1])
        edges = edge_of[path[:-1], path[1:]]
        unchecked = edges[~valid[edges]]
        if not unchecked.size:
            break
        alive = unchecked
        for s in offsets:
            if not alive.size:
                break
            base = stack[rows[alive]]
            # not `<= tol`: like the scalar check, a NaN residual rejects nothing
            alive = alive[~(residuals_of(base + s * (stack[cols[alive]] - base)) > tol)]
        valid[alive] = True
        rejected[unchecked] = ~valid[unchecked]
    # the edge weights, added in path order, are the sum Dijkstra made
    length = 0.0
    for edge in edges:
        length += float(weights[edge])
    return length


def graph_upper_bound(p, q, d: VarietyDescriptor, cfg: OracleConfig) -> float:
    """Inner-distance estimate from a sampled on-variety proximity graph.

    Samples ``cfg.n_samples`` stratum points (ranks cycling through the
    nonzero strata) inside the ball of radius twice the larger endpoint
    norm, always adding p, q and the cone point 0, and returns the p-q
    distance of their residual-tube graph (``proximity_graph_distance``:
    an edge's ``CHECKS_PER_EDGE`` = 3 interior points must have membership
    residual at most ``EDGE_MEMBERSHIP_TOL`` = 1e-6; both are fixed, and
    the oracle report records them in its ``config``).  The search
    is lazy, so only the edges of candidate shortest paths are checked,
    each point at most once, and the value is the one checking every edge
    would give.  A finite value is an estimate of the inner distance, not
    an upper bound: an edge is admitted from its checked points alone, so
    it may leave the variety between them.  No value can undercut the
    outer distance.

    p and q take ``build_path``'s checks: DimensionMismatch when either does
    not have the descriptor's shape, ValueError naming it when it has a
    non-finite entry or a norm beyond the double range, and MembershipError
    when its membership residual is not at most ``DEFAULT_MEMBERSHIP_TOL``,
    so ``math.inf`` only ever means a disconnected sample.  Squares of
    entries that overflow are rescaled, so a pair at 2^600 runs silently and
    gives its unit pair's value times 2^600.
    """
    pair = _checked_pairs([_shaped_pair(p, q, d)], d)[0]
    _refuse_nonmembers(membership_residuals(pair, d))
    p, q = pair
    rng = np.random.default_rng(cfg.seed)
    with np.errstate(over="ignore"):
        ball = 2.0 * max(frobenius_norm(p), frobenius_norm(q))
        nodes = [p, q, np.zeros(d.shape, dtype=d.field.dtype)]
        ranks = list(range(1, d.t)) or [0]
        if ball > 0.0:
            for i in range(cfg.n_samples):
                rank = ranks[i % len(ranks)]
                radius = ball * float(rng.uniform(0.0, 1.0))
                seed = int(rng.integers(0, 2**63 - 1))
                if rank == 0 or radius == 0.0:
                    continue
                nodes.append(sample_stratum(d, rank, radius, seed))
        return proximity_graph_distance(
            nodes,
            source=0,
            target=1,
            residuals_of=lambda stack: membership_residuals(stack, d),
            tol=EDGE_MEMBERSHIP_TOL,
            checks_per_edge=CHECKS_PER_EDGE,
        )


def _smoothing_sweep(
    points: np.ndarray, lengths: np.ndarray, d: VarietyDescriptor, parities=(1, 2)
) -> bool:
    """One red-black pass of corner cutting, in place; True on any change.

    The odd interior breakpoints move first, then the even ones (or only
    the given ``parities``).  Points of one parity share no segment, so each
    candidate's two segments are judged against its center's two entries of
    ``lengths``, the polyline's cached segment lengths, and every accepted
    move strictly shortens the polyline and rewrites those two entries.
    Only the candidates' own segments are measured.  A candidate is its
    neighbours' midpoint taken to rank <= t-1 by ``bounded_projections``:
    one stacked Gram eigendecomposition per block, not an SVD, and within
    c eps sigma_1^2 / sigma_{t-1} of the truncated SVD where
    sigma_{t-1} >= 2 sigma_t.  It must also have residual <= 1e-8: the
    bound ``bounded_projections`` proves from the candidate's own factors
    decides, and a singular-value residual check runs only where that bound
    is inconclusive.
    """
    changed = False
    for parity in parities:
        centers = points[parity:-1:2]
        before = points[parity - 1 : -2 : 2]
        after = points[parity + 1 :: 2]
        lefts = lengths[parity - 1 : -1 : 2]
        rights = lengths[parity::2]
        for k in range(0, len(centers), _BLOCK):
            block = slice(k, k + _BLOCK)
            a, b, c = before[block], centers[block], after[block]
            left, right = lefts[block], rights[block]
            candidate, bound = bounded_projections(0.5 * (a + c), d)
            new_left = frobenius_norms(candidate - a)
            new_right = frobenius_norms(c - candidate)
            accept = new_left + new_right < left + right
            unproven = accept & ~(bound <= _RESIDUAL_CEILING)
            if unproven.any():
                accept[unproven] = (
                    membership_residuals(candidate[unproven], d) <= _RESIDUAL_CEILING
                )
            if accept.any():
                b[accept] = candidate[accept]
                left[accept] = new_left[accept]
                right[accept] = new_right[accept]
                changed = True
    return changed


_MAX_BREAKPOINTS = 4097
_SWEEPS_PER_ROUND = 3


def _project_in_place(points: np.ndarray, d: VarietyDescriptor) -> None:
    for k in range(0, len(points), _BLOCK):
        points[k : k + _BLOCK] = bounded_projections(points[k : k + _BLOCK], d)[0]


def _refined(points: np.ndarray, d: VarietyDescriptor) -> np.ndarray:
    """The polyline with every segment's midpoint inserted and projected."""
    refined = np.empty((2 * len(points) - 1, *points.shape[1:]), points.dtype)
    refined[::2] = points
    midpoints = refined[1::2]
    np.add(points[:-1], points[1:], out=midpoints)
    midpoints *= 0.5
    _project_in_place(midpoints, d)
    return refined


def shorten(path: PiecewisePath, d: VarietyDescriptor, cfg: OracleConfig) -> PiecewisePath:
    """Locally shorten an on-variety polyline without leaving the variety.

    The polyline is divided by the power of two that brings its largest
    entry into [1/2, 1), which is exact, shortened, and multiplied back, as
    ``build_path`` does with its pair, so the result scales with the path
    even where the squares of its entries or steps would leave the normal
    range.  Every projection is ``bounded_projections``' one kernel, a Gram
    eigendecomposition rather than an SVD (see there for its scaling and
    accuracy).

    The interior breakpoints are projected onto the variety once.  Each
    round then refines the polyline (segment midpoints inserted while the
    count stays at most 4097, and only those new points projected) and runs
    up to three red-black corner-cutting sweeps: first every odd interior
    breakpoint, then every even one, is replaced by the projected midpoint
    of its neighbors wherever that strictly shortens its two segments and
    keeps the residual under 1e-8.  The residual is proved from the
    projection's own factors, with a singular-value check where that bound
    is inconclusive.  Right after refinement every odd breakpoint already
    is the projected midpoint of its neighbours, by the same kernel, so the
    first sweep of a refining round moves only the even ones.  A round's
    output is only accepted if it did not lengthen the path, so the length
    is non-increasing across rounds and the endpoints never move.  The
    segment lengths are measured once per round, after refinement, by
    ``step_norms``, and kept beside the breakpoints: a sweep measures only
    its candidates' segments, and the round compares the cached lengths'
    ``sequential_sum``s, the rule ``PiecewisePath.length`` sums by.
    """
    points = as_matrix(np.stack(path.breakpoints), d.field)
    exponent = int(np.frexp(np.abs(points).max())[1])
    current = ldexp(points, -exponent)
    _project_in_place(current[1:-1], d)
    lengths = step_norms(current)
    for _ in range(cfg.shorten_iterations):
        if len(current) < 2:
            break
        refine = len(current) * 2 - 1 <= _MAX_BREAKPOINTS
        if refine:
            candidate = _refined(current, d)
            candidate_lengths = step_norms(candidate)
        else:
            candidate, candidate_lengths = current.copy(), lengths.copy()
        for sweep in range(_SWEEPS_PER_ROUND):
            parities = (2,) if refine and sweep == 0 else (1, 2)
            if not _smoothing_sweep(candidate, candidate_lengths, d, parities):
                break
        if sequential_sum(candidate_lengths) <= sequential_sum(lengths):
            current, lengths = candidate, candidate_lengths
        elif not _smoothing_sweep(current, lengths, d):
            break
    current = ldexp(current, exponent)
    # the endpoints themselves, even where scaling rounded a subnormal entry
    current[0], current[-1] = points[0], points[-1]
    return PiecewisePath(tuple(current))


@dataclass(frozen=True)
class Sandwich:
    """Outer distance and two inner-distance estimates: the lengths of the
    shortened and of the constructed path."""

    outer: float
    shortened: float
    constructed: float


def sandwich(p, q, d: VarietyDescriptor, cfg: OracleConfig) -> Sandwich:
    """outer <= shortened <= constructed, all for the same pair of members.

    Each value scales with the pair: ``outer`` comes from
    ``frobenius_norm``, which rescales a step whose squares underflow or
    overflow, ``shortened`` from ``shorten``'s rescaled polyline, and
    ``constructed`` from ``build_path``'s certificate.
    """
    with np.errstate(over="ignore"):  # norms rescale exactly where squares overflow
        path, cert = build_path(p, q, d)
        shorter = shorten(path, d, cfg)
        return Sandwich(
            # the path runs from p to q (a coincident pair's path is p alone)
            outer=frobenius_norm(path.start - path.end),
            shortened=shorter.length(),
            constructed=cert.length,
        )
