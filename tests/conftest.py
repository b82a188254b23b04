import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from rankpath import PiecewisePath, ScalarField, VarietyDescriptor, oracles, sample_stratum
from rankpath.numkernel import as_matrix, ldexp
from rankpath.variety import membership_residuals

# derandomized and without an example database, so property tests replay the
# same examples on every run; hypothesis still caches the source constants it
# mines, so its storage goes to the temp directory, not into the checkout
settings.register_profile("rankpath", derandomize=True, database=None, deadline=None)
settings.load_profile("rankpath")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "rankpath-hypothesis")
)


def random_unitary(k: int, rng: np.random.Generator, field: ScalarField) -> np.ndarray:
    """Haar-ish unitary from QR with the phase of R's diagonal fixed."""
    if field is ScalarField.COMPLEX:
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    else:
        g = rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_member(
    d: VarietyDescriptor, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(1, d.t)) if d.t > 1 else 0
    if rank == 0:
        return np.zeros(d.shape, dtype=d.field.dtype)
    radius = float(rng.uniform(0.5, 2.0))
    return sample_stratum(d, rank, radius, int(rng.integers(0, 2**62)))


def reference_graph_distance(nodes, source, target, residual_of, tol, checks_per_edge):
    """Edge by edge, one point at a time, stopping at an edge's first failed
    check: the eager scalar loop whose distance the lazy search must reproduce."""
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _reference_total_length(points):
    starts, ends, size = points[:-1], points[1:], oracles._BLOCK
    return float(
        sum(
            oracles._segment_lengths(starts[k : k + size], ends[k : k + size]).sum()
            for k in range(0, len(starts), size)
        )
    )


def _reference_sweep(points, d, parities=(1, 2)):
    changed = False
    for parity in parities:
        centers = points[parity:-1:2]
        before = points[parity - 1 : -2 : 2]
        after = points[parity + 1 :: 2]
        for k in range(0, len(centers), oracles._BLOCK):
            block = slice(k, k + oracles._BLOCK)
            a, b, c = before[block], centers[block], after[block]
            candidate, bound = oracles.bounded_projections(0.5 * (a + c), d)
            lengths = oracles._segment_lengths
            accept = lengths(a, candidate) + lengths(candidate, c) < lengths(a, b) + lengths(b, c)
            unproven = accept & ~(bound <= oracles._RESIDUAL_CEILING)
            if unproven.any():
                accept[unproven] = (
                    membership_residuals(candidate[unproven], d) <= oracles._RESIDUAL_CEILING
                )
            if accept.any():
                b[accept] = candidate[accept]
                changed = True
    return changed


def reference_shorten(path, d, cfg):
    """``shorten`` measuring every segment afresh in every sweep and every
    round comparison: the loop whose breakpoints the length cache must
    reproduce bit for bit.  It reads ``oracles``' kernels and ``_BLOCK`` at
    call time, so a test that patches them patches both."""
    points = as_matrix(np.stack(path.breakpoints), d.field)
    exponent = int(np.frexp(np.abs(points).max())[1])
    current = ldexp(points, -exponent)
    oracles._project_in_place(current[1:-1], d)
    for _ in range(cfg.shorten_iterations):
        if len(current) < 2:
            break
        refine = len(current) * 2 - 1 <= oracles._MAX_BREAKPOINTS
        candidate = oracles._refined(current, d) if refine else current.copy()
        for sweep in range(oracles._SWEEPS_PER_ROUND):
            parities = (2,) if refine and sweep == 0 else (1, 2)
            if not _reference_sweep(candidate, d, parities):
                break
        if _reference_total_length(candidate) <= _reference_total_length(current):
            current = candidate
        elif not _reference_sweep(current, d):
            break
    current = ldexp(current, exponent)
    current[0], current[-1] = points[0], points[-1]
    return PiecewisePath(tuple(current))
