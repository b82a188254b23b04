"""Bounded-rank matrix varieties.

A descriptor (m, n, t) names the set of m x n matrices of rank strictly
below t.  Membership is decided through singular values: the relative size
of the t-th singular value is the residual, which is zero exactly on the
variety and scale-free off it, down to the smallest nonzero matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    UNDERFLOW_SAFE,
    DimensionMismatch,
    ScalarField,
    as_matrix,
    frobenius_norm,
    ldexp,
    numerical_ranks,
    real_view,
)

#: default membership acceptance threshold on the relative residual
DEFAULT_MEMBERSHIP_TOL = 1e-8

# the smallest positive double: max(sigma_1, it) is sigma_1 for every nonzero
# spectrum, and a zero spectrum gives 0 / it = 0
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)

_EPS = float(np.finfo(np.float64).eps)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff eps / 2."""
    return n * (_EPS / 2) / (1.0 - n * (_EPS / 2))


def product_gamma(k: int, field: ScalarField) -> float:
    """The constant gamma with |fl(A B) - A B| <= gamma |A| |B| entrywise for
    a product of inner dimension k: gamma_k over the reals, sqrt(2)
    gamma_{k+2} over the complex numbers (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.5-3.6), while nothing underflows."""
    if field is ScalarField.REAL:
        return _gamma(k)
    return np.sqrt(2.0) * _gamma(k + 2)


class StratumError(ValueError):
    """Requested rank stratum does not exist inside the variety."""


@dataclass(frozen=True)
class VarietyDescriptor:
    """The variety of m x n matrices over ``field`` with rank < t."""

    m: int
    n: int
    t: int
    field: ScalarField = ScalarField.COMPLEX

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 1 <= self.t <= min(self.m, self.n):
            raise ValueError(f"t={self.t} outside 1..min({self.m},{self.n})")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def max_rank(self) -> int:
        """Largest rank attained on the variety (the top stratum)."""
        return self.t - 1


def _checked(p, d: VarietyDescriptor) -> np.ndarray:
    p = as_matrix(p, d.field)
    if p.shape != d.shape:
        raise DimensionMismatch(f"expected shape {d.shape}, got {p.shape}")
    return p


def _checked_stack(stack, d: VarietyDescriptor) -> np.ndarray:
    stack = as_matrix(stack, d.field)
    if stack.ndim != 3 or stack.shape[1:] != d.shape:
        raise DimensionMismatch(
            f"expected a stack of {d.shape} matrices, got shape {stack.shape}"
        )
    return stack


def spectral_residuals(sigma, d: VarietyDescriptor) -> np.ndarray:
    """Residual sigma_t / sigma_1 of each row of a (k, min(m, n)) array of
    nonincreasing singular values; 0 for a zero spectrum.

    The membership rule itself, for callers that already hold the spectra.
    """
    return sigma[:, d.t - 1] / np.maximum(sigma[:, 0], _SMALLEST_SUBNORMAL)


def spectra(stack, d: VarietyDescriptor) -> np.ndarray:
    """Singular values of every matrix in a (k, m, n) stack, one batched call."""
    return np.linalg.svd(_checked_stack(stack, d), compute_uv=False)


def membership_residuals(stack, d: VarietyDescriptor) -> np.ndarray:
    """Residual sigma_t / sigma_1 of every matrix in a (k, m, n) stack.

    All k matrices go through one batched singular-value decomposition, so
    checking many points costs one call instead of k.
    """
    return spectral_residuals(spectra(stack, d), d)


def membership_residual(p, d: VarietyDescriptor) -> float:
    """Relative size of the t-th singular value, sigma_t / sigma_1.

    Zero on the variety (and for the zero matrix), of order one far away,
    and invariant under both rescaling and unitary conjugation: there is no
    absolute floor, so a tiny matrix off the variety reads as off it.
    """
    return float(membership_residuals(_checked(p, d)[np.newaxis], d)[0])


def is_member(p, d: VarietyDescriptor) -> bool:
    return membership_residual(p, d) <= DEFAULT_MEMBERSHIP_TOL


def projections(stack, d: VarietyDescriptor) -> np.ndarray:
    """Nearest matrix of rank <= t-1 to every matrix of a (k, m, n) stack.

    One batched decomposition gives the truncated SVD of each matrix.  Ties
    between equal singular values keep the first t-1 in the order the
    decomposition returns them, so the output is deterministic.
    """
    stack = _checked_stack(stack, d)
    keep = d.t - 1
    if keep == 0:
        return np.zeros(stack.shape, dtype=d.field.dtype)
    u, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    return (u[..., :keep] * sigma[:, np.newaxis, :keep]) @ vh[:, :keep]


def bounded_projections(stack, d: VarietyDescriptor):
    """A matrix C of rank <= t-1 near every matrix M of a (k, m, n) stack,
    and for each an upper bound on its membership residual read off the
    factors C is made from.

    The kernel takes no SVD.  M is divided by the power of two that brings
    its largest real or imaginary part into [1/2, 1), which is exact, so
    nothing below over- or underflows at any scale.  One batched
    ``np.linalg.eigh`` of the Gram matrices M^H M (M M^H when m < n) gives
    the t-1 leading eigenvectors V of each, and C = fl(A B) with A = fl(M V)
    and B = V^H (A = V and B = fl(V^H M) when m < n), multiplied back by
    the same power of two.  ``projections`` and ``project`` stay the exact
    truncated SVD.

    Accuracy.  Where sigma_{t-1} >= 2 sigma_t, to first order in eps,

        ||C - projections(M)||_F <= c eps sigma_1^2 / sigma_{t-1},
        c = r (3 g / 2 + 3 h + 4 sqrt(r) + 1 / 2) + 4 sqrt(r) N,

    with r = min(m, n), N = max(m, n), g eps = ``product_gamma(N)`` and
    h eps = ``product_gamma(r)``.  The terms: the Gram product's rounding
    (g eps ||M||_F^2 <= g r eps sigma_1^2) and ``eigh``'s backward error
    (modelled as LAPACK's p(r) eps ||M^H M||, p(r) = r, as the allowance
    below models the SVD's) perturb the leading eigenspace by a first-order
    mixing of each leading direction i with each trailing one j, which
    moves C by at most sqrt(sigma_i^2 + sigma_j^2) / (sigma_i^2 - sigma_j^2)
    <= sqrt(20 / 9) / sigma_{t-1} per unit of perturbation; V's departure
    from orthonormality (r eps), the two products (h eps each), and the
    reference SVD (N eps sigma_1 of backward error, which its truncation
    amplifies at most twofold, and N eps of departure from orthonormality,
    by the same model) add the rest.  Where the gap is small, C is still a
    point of rank <= t-1 whose residual the bound below certifies; it is
    just not the nearest one.

    Bound.  The exact product A B has rank <= t-1 whatever V is, and the
    rounding obeys |C - A B| <= gamma |A| |B| entrywise (gamma_{t-1} over
    the reals, sqrt(2) gamma_{t+1} over the complex numbers; Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5-3.6).  By Weyl's
    inequality and sigma_1(C) >= ||C||_F / sqrt(min(m, n)),

        sigma_t(C) / sigma_1(C) <= gamma sqrt(min(m, n)) ||A||_F ||B||_F / ||C||_F,

    read off the scaled factors.  The bound adds max(m, n) eps, an
    allowance for the error a computed SVD of C makes in sigma_t relative
    to sigma_1 (LAPACK's p(m, n) eps; under 2 eps as measured up to
    100 x 60), so it also covers the residual ``membership_residuals``
    reads.  A zero C has residual 0.  Multiplying back is exact unless an
    entry of C falls below the normal range, so where the largest entry of
    the returned C is below tiny / eps the bound is inf: inconclusive, not
    a rejection.
    """
    stack = _checked_stack(stack, d)
    keep = d.t - 1
    if keep == 0:
        return np.zeros(stack.shape, dtype=d.field.dtype), np.zeros(len(stack))
    wide = d.m < d.n
    # x is tall or square, so x^H x is the smaller Gram matrix
    x = stack.conj().swapaxes(1, 2) if wide else stack
    top = np.abs(real_view(stack)).max(axis=(1, 2))
    exponents = np.frexp(top)[1][:, np.newaxis, np.newaxis]
    x = ldexp(x, -exponents)
    _, vectors = np.linalg.eigh(x.conj().swapaxes(1, 2) @ x)
    v = vectors[..., -keep:]
    a, b = x @ v, v.conj().swapaxes(1, 2)
    if wide:
        a, b = b.conj().swapaxes(1, 2), a.conj().swapaxes(1, 2)
    c = a @ b
    norm_c = np.linalg.norm(c, axis=(1, 2))
    ratio = (
        np.linalg.norm(a, axis=(1, 2))
        * np.linalg.norm(b, axis=(1, 2))
        / np.where(norm_c > 0.0, norm_c, 1.0)
    )
    gamma = product_gamma(keep, d.field)
    bound = gamma * np.sqrt(min(d.m, d.n)) * ratio + max(d.m, d.n) * _EPS
    c = ldexp(c, exponents)
    scale = np.abs(c).max(axis=(1, 2))
    bound[scale < UNDERFLOW_SAFE] = np.inf
    bound[scale == 0.0] = 0.0
    return c, bound


def project(p, d: VarietyDescriptor) -> np.ndarray:
    """Nearest matrix of rank <= t-1 in Frobenius norm (truncated SVD)."""
    return projections(_checked(p, d)[np.newaxis], d)[0]


def sample_stratum(d: VarietyDescriptor, r: int, radius: float, seed: int) -> np.ndarray:
    """Random member of exact rank r, rescaled to Frobenius norm ``radius``.

    The sample is a product G @ H of an m x r and an r x n matrix with
    independent standard Gaussian entries (independent real and imaginary
    parts over the complex field), so the rank is exactly r.  Deterministic
    given the seed; r = 0 yields the zero matrix.
    """
    if r < 0 or r > d.max_rank:
        raise StratumError(f"rank {r} not in 0..{d.max_rank} for this variety")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if r == 0:
        return np.zeros(d.shape, dtype=d.field.dtype)
    rng = np.random.default_rng(seed)
    if d.field is ScalarField.COMPLEX:
        g = rng.standard_normal((d.m, r)) + 1j * rng.standard_normal((d.m, r))
        h = rng.standard_normal((r, d.n)) + 1j * rng.standard_normal((r, d.n))
    else:
        g = rng.standard_normal((d.m, r))
        h = rng.standard_normal((r, d.n))
    sample = g @ h
    norm = frobenius_norm(sample)
    if norm == 0.0:
        raise StratumError("degenerate Gaussian draw; use a different seed")
    return np.asarray(sample * (radius / norm), dtype=d.field.dtype)


def rank_of(p, d: VarietyDescriptor) -> int:
    """Numerical rank of a point of the variety's ambient space: the
    ``numkernel.numerical_ranks`` rule applied to its singular values."""
    return int(numerical_ranks(spectra(_checked(p, d)[np.newaxis], d))[0])


def codimension(d: VarietyDescriptor) -> int:
    """Codimension (m - t + 1) * (n - t + 1) of the variety in matrix space."""
    return (d.m - d.t + 1) * (d.n - d.t + 1)
