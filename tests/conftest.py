import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from rankpath import ScalarField, VarietyDescriptor, sample_stratum

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
