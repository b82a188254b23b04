import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
