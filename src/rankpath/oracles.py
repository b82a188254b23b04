"""Independent inner-distance estimators.

These deliberately avoid the path construction's machinery: a proximity
graph over sampled variety points gives one upper bound on the inner
distance, and local curve shortening with projection gives another.  Both
are estimates with stated tolerances, never certificates, and both can
only tighten the sandwich

    outer distance <= shortened length <= constructed length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .numkernel import DimensionMismatch, as_matrix, frobenius_distance, frobenius_norm
from .paths import MembershipError, PiecewisePath, build_path
from .variety import (
    DEFAULT_MEMBERSHIP_TOL,
    VarietyDescriptor,
    bounded_projections,
    membership_residual,  # noqa: F401  unused here, but per-layer tracing wraps this name
    membership_residuals,
    project,  # noqa: F401  unused here, but per-layer tracing wraps this name
    projections,
    sample_stratum,
)

_RESIDUAL_CEILING = 1e-8

#: matrices per stacked call in ``shorten``: blocks are independent, so
#: results do not depend on it, and peak memory stays flat on long polylines
_BLOCK = 256


@dataclass(frozen=True)
class OracleConfig:
    n_samples: int = 64
    edge_membership_tol: float = 1e-6
    midpoint_checks_per_edge: int = 3
    shorten_iterations: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.midpoint_checks_per_edge < 1:
            raise ValueError("sample and check counts must be positive")
        if self.shorten_iterations < 1:
            raise ValueError("shorten_iterations must be positive")
        if not 0.0 < self.edge_membership_tol < 1.0:
            raise ValueError("edge_membership_tol must lie in (0, 1)")


def proximity_graph_distance(
    nodes: list[np.ndarray],
    source: int,
    target: int,
    residuals_of: Callable[[np.ndarray], np.ndarray],
    tol: float,
    checks_per_edge: int,
) -> float:
    """Shortest path between two nodes of a residual-tube proximity graph.

    Two nodes are joined when every one of ``checks_per_edge`` equispaced
    interior points of their segment has residual at most ``tol``; edge
    weights are Euclidean.  ``residuals_of`` maps a stack of points to
    their residuals.  The edges out of one node are checked together, one
    interior offset at a time and only on the edges no earlier offset
    rejected, so each point is evaluated exactly when an edge-by-edge check
    that stops at its first failure would evaluate it.  Returns
    ``math.inf`` when the sampled graph leaves the endpoints disconnected
    (a sampling artifact, not a statement about the space).
    """
    count = len(nodes)
    offsets = np.arange(1, checks_per_edge + 1) / (checks_per_edge + 1)
    stack = np.stack(nodes)
    rows, cols, weights = [], [], []
    for i in range(count - 1):
        steps = stack[i + 1 :] - stack[i]
        moving = steps.reshape(len(steps), -1).any(axis=1)
        alive = np.flatnonzero(moving)
        for s in offsets:
            if not alive.size:
                break
            # not `<= tol`: like the scalar check, a NaN residual rejects nothing
            alive = alive[~(residuals_of(stack[i] + s * steps[alive]) > tol)]
        admitted = ~moving
        admitted[alive] = True
        for j in np.flatnonzero(admitted):
            rows.append(i)
            cols.append(i + 1 + int(j))
            weights.append(float(np.linalg.norm(steps[j])))
    graph = csr_matrix((weights, (rows, cols)), shape=(count, count))
    dist = dijkstra(graph, directed=False, indices=source)
    return float(dist[target])


def graph_upper_bound(p, q, d: VarietyDescriptor, cfg: OracleConfig) -> float:
    """Inner-distance upper bound from a sampled on-variety proximity graph.

    Samples ``cfg.n_samples`` stratum points (ranks cycling through the
    nonzero strata) inside the ball of radius twice the larger endpoint
    norm, always adding p, q and the cone point 0.  Any finite value is an
    upper bound on the inner distance up to the edge-tube tolerance, and
    no value can undercut the outer distance.

    Raises DimensionMismatch when p or q does not have the descriptor's
    shape, and MembershipError when either is off the variety (membership
    residual above ``DEFAULT_MEMBERSHIP_TOL``), so ``math.inf`` only ever
    means a disconnected sample.
    """
    p = as_matrix(p, d.field)
    q = as_matrix(q, d.field)
    for name, point in (("p", p), ("q", q)):
        if point.shape != d.shape:
            raise DimensionMismatch(f"{name}: expected shape {d.shape}, got {point.shape}")
    for name, residual in zip("pq", membership_residuals(np.stack([p, q]), d)):
        if residual > DEFAULT_MEMBERSHIP_TOL:
            raise MembershipError(name, float(residual), DEFAULT_MEMBERSHIP_TOL)
    rng = np.random.default_rng(cfg.seed)
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
        tol=cfg.edge_membership_tol,
        checks_per_edge=cfg.midpoint_checks_per_edge,
    )


def _segment_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(b - a, axis=(1, 2))


def _total_length(points: np.ndarray) -> float:
    starts, ends = points[:-1], points[1:]
    return float(
        sum(
            _segment_lengths(starts[k : k + _BLOCK], ends[k : k + _BLOCK]).sum()
            for k in range(0, len(starts), _BLOCK)
        )
    )


def _smoothing_sweep(points: np.ndarray, d: VarietyDescriptor, parities=(1, 2)) -> bool:
    """One red-black pass of corner cutting, in place; True on any change.

    The odd interior breakpoints move first, then the even ones (or only
    the given ``parities``).  Points of one parity share no segment, so each
    candidate (the projected midpoint of its two neighbours) is judged on
    its own two segments, and every accepted move strictly shortens the
    polyline.  A candidate must also have residual <= 1e-8: the bound
    ``bounded_projections`` proves from the projection's own factorization
    decides, and a singular-value residual check runs only where that
    bound is inconclusive.
    """
    changed = False
    for parity in parities:
        centers = points[parity:-1:2]
        before = points[parity - 1 : -2 : 2]
        after = points[parity + 1 :: 2]
        for k in range(0, len(centers), _BLOCK):
            block = slice(k, k + _BLOCK)
            a, b, c = before[block], centers[block], after[block]
            candidate, bound = bounded_projections(0.5 * (a + c), d)
            accept = _segment_lengths(a, candidate) + _segment_lengths(candidate, c) < (
                _segment_lengths(a, b) + _segment_lengths(b, c)
            )
            unproven = accept & ~(bound <= _RESIDUAL_CEILING)
            if unproven.any():
                accept[unproven] = (
                    membership_residuals(candidate[unproven], d) <= _RESIDUAL_CEILING
                )
            if accept.any():
                b[accept] = candidate[accept]
                changed = True
    return changed


_MAX_BREAKPOINTS = 4097
_SWEEPS_PER_ROUND = 3


def _project_in_place(points: np.ndarray, d: VarietyDescriptor) -> None:
    for k in range(0, len(points), _BLOCK):
        points[k : k + _BLOCK] = projections(points[k : k + _BLOCK], d)


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

    The interior breakpoints are projected onto the variety once.  Each
    round then refines the polyline (segment midpoints inserted while the
    count stays at most 4097, and only those new points projected) and runs
    up to three red-black corner-cutting sweeps: first every odd interior
    breakpoint, then every even one, is replaced by the projected midpoint
    of its neighbors wherever that strictly shortens its two segments and
    keeps the residual under 1e-8.  The residual is proved from the
    projection's own factorization, with a singular-value check where that
    bound is inconclusive.  Right after refinement every odd breakpoint
    already is the projected midpoint of its neighbours, so the first sweep
    of a refining round moves only the even ones.  A round's output is only
    accepted if it did not lengthen the path, so the length is
    non-increasing across rounds and the endpoints never move.
    """
    current = as_matrix(np.stack(path.breakpoints), d.field)
    _project_in_place(current[1:-1], d)
    for _ in range(cfg.shorten_iterations):
        if len(current) < 2:
            break
        refine = len(current) * 2 - 1 <= _MAX_BREAKPOINTS
        candidate = _refined(current, d) if refine else current.copy()
        for sweep in range(_SWEEPS_PER_ROUND):
            parities = (2,) if refine and sweep == 0 else (1, 2)
            if not _smoothing_sweep(candidate, d, parities):
                break
        if _total_length(candidate) <= _total_length(current):
            current = candidate
        elif not _smoothing_sweep(current, d):
            break
    return PiecewisePath(tuple(current))


@dataclass(frozen=True)
class Sandwich:
    """Outer distance and the two inner-distance upper bounds around it."""

    outer: float
    shortened: float
    constructed: float


def sandwich(p, q, d: VarietyDescriptor, cfg: OracleConfig) -> Sandwich:
    """outer <= shortened <= constructed, all for the same pair of members."""
    path, cert = build_path(p, q, d)
    shorter = shorten(path, d, cfg)
    return Sandwich(
        outer=frobenius_distance(p, q),
        shortened=shorter.length(),
        constructed=cert.length,
    )
