"""Dense-matrix numeric kernel.

Scalar fields, Frobenius geometry (the package's one norm and its one
rule for the length of a polyline) and the numerical rank rule that the
path construction is built on, plus two small factorizations it no longer
calls (unitary completions and dominant eigenpairs), kept while the
benchmark's per-layer tracer still looks them up by name.  Everything here
is a pure function of its arguments; inputs are never mutated, so all
routines are safe to call from any number of threads.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

_REAL_DTYPE = np.dtype(np.float64)
_COMPLEX_DTYPE = np.dtype(np.complex128)

#: unit-norm / unitarity acceptance threshold (relative to dimension)
UNITARITY_TOL = 1e-12

#: eigenpair residual acceptance threshold, relative to the Frobenius norm
EIGENPAIR_RESIDUAL_TOL = 1e-10

#: numerical rank rule: a singular value counts when it exceeds this times
#: the largest one of its spectrum
RANK_REL_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)

#: below this largest entry a product's roundings may underflow, and the
#: rounding model of ``variety.product_gamma`` fails
UNDERFLOW_SAFE = float(np.finfo(np.float64).tiny) / _EPS

#: ``step_norms`` norms the steps of a polyline with this many breakpoints or
#: more in batches, which saves a call per step; below it a batch's fixed
#: cost is more than the calls it saves
_BATCH_MIN_POINTS = 10

#: entries per batch of steps, so that a batch stays in cache: batching all
#: the steps of 40 breakpoints at 40 x 40 took twice as long as one norm per
#: step
_BATCH_ENTRIES = 2**14


class ScalarField(str, Enum):
    """The scalar field a matrix lives over."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return _REAL_DTYPE if self is ScalarField.REAL else _COMPLEX_DTYPE


class Side(str, Enum):
    """Which slot of a unitary completion carries the given vector."""

    FIRST_ROW = "FirstRow"
    FIRST_COLUMN = "FirstColumn"


class DimensionMismatch(ValueError):
    """Operands disagree in shape or scalar field."""


class NormalizationError(ValueError):
    """A vector required to have unit norm does not."""


class NoUsableEigenpair(RuntimeError):
    """No admissible (real, over the real field) eigenvalue clears the floor."""


def as_matrix(values, field: ScalarField | None = None) -> np.ndarray:
    """Coerce ``values`` to a float64 or complex128 array.

    With ``field=None`` the field is inferred from the data; otherwise the
    array is cast to the requested field.  Casting complex data to the real
    field is rejected.
    """
    a = np.asarray(values)
    if field is None:
        field = ScalarField.COMPLEX if np.iscomplexobj(a) else ScalarField.REAL
    if field is ScalarField.REAL and np.iscomplexobj(a):
        raise DimensionMismatch("complex data cannot be coerced to the real field")
    return np.asarray(a, dtype=field.dtype)


def scalar_field_of(a: np.ndarray) -> ScalarField:
    if a.dtype == _REAL_DTYPE:
        return ScalarField.REAL
    if a.dtype == _COMPLEX_DTYPE:
        return ScalarField.COMPLEX
    raise DimensionMismatch(f"unsupported dtype {a.dtype}; use as_matrix first")


def _check_same_frame(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    if scalar_field_of(a) is not scalar_field_of(b):
        raise DimensionMismatch(f"field mismatch: {a.dtype} vs {b.dtype}")


def frobenius_inner(a, b):
    """Frobenius inner product sum_ij a_ij * conj(b_ij).

    Conjugate-symmetric; real nonnegative on the diagonal.  Returns a float
    for real operands and a complex scalar otherwise.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    _check_same_frame(a, b)
    value = np.sum(a * np.conjugate(b))
    return complex(value) if np.iscomplexobj(a) else float(value)


def frobenius_norm(a) -> float:
    """The Frobenius norm of a, also where the squares of its entries
    underflow: ``np.linalg.norm(a)`` bitwise, one dot of each real part of
    a.ravel("K"), down to sqrt(``UNDERFLOW_SAFE``), and below it
    ``frobenius_norms``, which rescales a exactly.  Either way it is
    ``frobenius_norms(a[np.newaxis])[0]`` of a C-ordered a, bitwise."""
    flat = np.asarray(a).ravel(order="K")
    if flat.dtype.kind == "c":
        squares = flat.real.dot(flat.real) + flat.imag.dot(flat.imag)
    else:
        squares = flat.dot(flat)
    norm = math.sqrt(squares)
    if norm >= math.sqrt(UNDERFLOW_SAFE) or not flat.any():
        return norm
    return float(frobenius_norms(flat[np.newaxis])[0])


def _dot_norms(flat: np.ndarray) -> np.ndarray:
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(np.vecdot(x, x) for x in parts))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each matrix of a (k, m, n) stack, bitwise,
    wherever the squares of its entries stay clear of underflow.

    ``np.linalg.norm`` takes one BLAS dot per real part, and ``np.vecdot``
    runs that same dot on each row; a summing reduction rounds differently
    in the last bit for about a quarter of 6 x 6 steps.
    A matrix whose norm comes out below sqrt(``UNDERFLOW_SAFE``) may have
    lost its squares to underflow (a matrix of entries near 1e-160 reads 0),
    so it is divided by the power of two that brings its largest real or
    imaginary part into [1/2, 1), which is exact, normed, and multiplied
    back.
    """
    flat = stack.reshape(len(stack), -1)
    norms = _dot_norms(flat)
    for i in np.flatnonzero(norms < math.sqrt(UNDERFLOW_SAFE)):
        row = flat[i : i + 1]
        top = float(np.abs(real_view(row)).max())
        if top > 0.0:
            exponent = math.frexp(top)[1]
            norms[i] = math.ldexp(float(_dot_norms(ldexp(row, -exponent))[0]), exponent)
    return norms


def step_norms(points) -> np.ndarray:
    """``frobenius_norm(b - a)`` of each step a -> b of a polyline, given as a
    sequence or a stack of same-shape matrices.  From ``_BATCH_MIN_POINTS``
    points on the steps are normed by ``frobenius_norms``, bitwise the same,
    in batches of about ``_BATCH_ENTRIES`` entries."""
    if len(points) < _BATCH_MIN_POINTS:
        return np.array([frobenius_norm(b - a) for a, b in zip(points, points[1:])])
    size = max(1, _BATCH_ENTRIES // points[0].size)
    return np.concatenate(
        [
            frobenius_norms(np.diff(points[k : k + size + 1], axis=0))
            for k in range(0, len(points) - 1, size)
        ]
    )


def sequential_sum(values) -> float:
    """The sum of ``values`` added one at a time, first to last, the rule by
    which every polyline length is summed: ``np.cumsum``'s order is fixed,
    where ``np.sum`` adds pairwise and Python's ``sum`` compensates from
    Python 3.12 on."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def real_view(x: np.ndarray) -> np.ndarray:
    """The float64 entries of x: of a complex x, its real and imaginary parts."""
    return np.ascontiguousarray(x).view(np.float64) if np.iscomplexobj(x) else x


def ldexp(x: np.ndarray, exponent) -> np.ndarray:
    """x * 2**exponent, exact unless an entry leaves the normal range; x
    itself, not a copy, for the integer 0.  An array of exponents broadcasts
    against x's real view: shape (k, 1, 1) scales each matrix of a stack by
    its own power of two."""
    if np.ndim(exponent) == 0 and exponent == 0:
        return x
    return np.ldexp(real_view(x), exponent).view(x.dtype)


def frobenius_distance(a, b) -> float:
    """Euclidean (Frobenius) distance between two same-shape arrays."""
    a = as_matrix(a)
    b = as_matrix(b)
    _check_same_frame(a, b)
    return frobenius_norm(a - b)


def numerical_ranks(sigma) -> np.ndarray:
    """Rank of each row of a (k, r) array of nonincreasing singular values:
    the count of values exceeding ``RANK_REL_TOL`` times the row's largest
    one.

    A zero (or empty) spectrum has rank 0.
    """
    sigma = np.asarray(sigma, dtype=float)
    return np.count_nonzero(sigma > RANK_REL_TOL * sigma[:, :1], axis=1)


def unitary_completion(w, side: Side) -> np.ndarray:
    """Complete a unit vector to a k x k unitary via a Householder reflection.

    ``Side.FIRST_ROW`` returns U with U @ w = e1 (so row one of U is the
    conjugate of w); ``Side.FIRST_COLUMN`` returns a unitary whose first
    column is w.  Real input yields a real orthogonal matrix.
    """
    w = np.ravel(as_matrix(w))
    k = w.shape[0]
    norm = frobenius_norm(w)
    if abs(norm - 1.0) > UNITARITY_TOL:
        raise NormalizationError(f"expected a unit vector, got norm {norm!r}")

    alpha = w[0] / abs(w[0]) if w[0] != 0 else w.dtype.type(1.0)
    v = w.copy()
    v[0] += alpha
    vnorm_sq = float(np.real(np.vdot(v, v)))
    if vnorm_sq < 1e-30:
        # w is already -alpha * e1; a diagonal phase suffices
        u = np.eye(k, dtype=w.dtype)
        u[0, 0] = np.conjugate(w[0])
    else:
        house = np.eye(k, dtype=w.dtype) - (2.0 / vnorm_sq) * np.outer(v, np.conjugate(v))
        house[0] *= -np.conjugate(alpha)
        u = house
    if side is Side.FIRST_ROW:
        return u
    return u.conj().T


def _real_eigenvalue_candidates(m: np.ndarray) -> np.ndarray:
    # dgeev works off the real Schur form: genuinely real eigenvalues come
    # back with imaginary part exactly zero, so this scan is exact.
    eigs = np.linalg.eigvals(m)
    return eigs[eigs.imag == 0.0].real


def leading_nonzero_eigenpair(m, min_rel_magnitude: float = 1e-12):
    """Dominant admissible eigenpair of a square matrix.

    Picks the eigenvalue of largest magnitude (over the real field, largest
    among the exactly-real ones), requiring |mu| >= min_rel_magnitude times
    ||M||_F.  Magnitude ties break by descending (real, imag); the unit
    eigenvector comes from the smallest singular direction of M - mu*I and
    has its largest component rotated to the positive real axis.

    Raises NoUsableEigenpair when nothing admissible clears the floor or
    the residual check fails.
    """
    m = as_matrix(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("eigenpair extraction expects a square matrix")
    fro = frobenius_norm(m)
    if fro == 0.0:
        raise NoUsableEigenpair("zero matrix has no nonzero eigenvalue")

    real_field = scalar_field_of(m) is ScalarField.REAL
    if real_field:
        candidates = _real_eigenvalue_candidates(m)
    else:
        candidates = np.linalg.eigvals(m)
    if candidates.size == 0:
        raise NoUsableEigenpair("no real eigenvalue exists for this real matrix")

    order = sorted(
        range(candidates.size),
        key=lambda i: (-abs(candidates[i]), -candidates[i].real, -np.imag(candidates[i]), i),
    )
    mu = candidates[order[0]]
    if abs(mu) == 0.0 or abs(mu) < min_rel_magnitude * fro:
        raise NoUsableEigenpair(
            f"leading admissible eigenvalue {mu!r} below floor "
            f"{min_rel_magnitude:g} * {fro:g}"
        )

    shifted = m - mu * np.eye(m.shape[0], dtype=m.dtype)
    _, _, vh = np.linalg.svd(shifted)
    w = vh[-1].conj()
    pivot = int(np.argmax(np.abs(w)))
    phase = w[pivot] / abs(w[pivot])
    w = w / phase
    w = w / np.linalg.norm(w)

    residual = float(np.linalg.norm(m @ w - mu * w))
    if residual > EIGENPAIR_RESIDUAL_TOL * fro:
        raise NoUsableEigenpair(f"eigenpair residual {residual:g} too large")
    if real_field:
        return float(mu.real if np.iscomplexobj(mu) else mu), w.real.copy()
    return complex(mu), w
