"""Operational matrix of integration for the hybrid basis.

With H(t) the MK-vector of hybrid functions stacked block-major,
integral from t_0 to t of H is approximately P H(t).  On column coefficient
vectors the map is the transpose: coeffs of the running integral of f equal
P^T coeffs(f).

The within-block matrix is

    Phat = E_11 - (3/4) E_21
         + (1/2) [ sum_{k=1}^{M-1} (1/k) E_{k,k+1} - sum_{k=2}^{M-1} (1/(k+1)) E_{k+1,k} ]
         + sum_{k=3}^{M} ((-1)^{k-1}/k) E_{k1},

whose row m+1 holds the degree-truncated coefficients of the antiderivative
of S_m on [-1, 1].  The full matrix has diagonal K-blocks (d_k/2) Phat and,
for every later block j > i, the first-column entries d_i/(2kappa-1) at rows
2kappa-1 (the full-block integrals of the even-degree polynomials).

pt_parts is the only code that writes this structure down.  apply_pt
applies P^T kron I_n from its two pieces without forming P, and every dense
form is apply_pt of an identity: build_p returns P as a plain read-only
array, and the solver's P^T kron I_n is apply_pt(cfg, I_{KMn}).  The
solver's block march takes the two pieces, build_phat and
block_integral_weights, folded into the product tensor.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import BasisConfig, read_only

__all__ = [
    "build_phat",
    "build_p",
    "block_integral_weights",
    "pt_parts",
    "apply_pt",
]


@lru_cache(maxsize=None, typed=True)
def build_phat(M: int) -> np.ndarray:
    """The M x M within-block integration matrix (local interval [-1, 1]).

    Cached per M: every call with the same M returns the same read-only
    array, shared for the life of the process.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    phat = np.zeros((M, M))
    phat[0, 0] = 1.0
    if M >= 2:
        phat[1, 0] = -0.75
    for k in range(1, M):  # superdiagonal 1/(2k)
        phat[k - 1, k] = 0.5 / k
    for k in range(2, M):  # subdiagonal -1/(2(k+1))
        phat[k, k - 1] = -0.5 / (k + 1)
    for k in range(3, M + 1):  # first column tail (-1)^(k-1)/k
        phat[k - 1, 0] = (-1.0) ** (k - 1) / k
    return read_only(phat)


def build_p(cfg: BasisConfig) -> np.ndarray:
    """The full MK x MK operational matrix P for cfg, read off apply_pt; read-only."""
    return read_only(apply_pt(cfg, np.eye(cfg.M * cfg.K)).T)


@lru_cache(maxsize=None, typed=True)
def block_integral_weights(M: int) -> np.ndarray:
    """v_m = 1/(m+1) for even m, 0 for odd m, m < M: half the integral of S_m over [-1, 1].

    Cached per M: every call with the same M returns the same read-only
    array, shared for the life of the process.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    m = np.arange(M)
    return read_only(np.where(m % 2 == 0, 1.0 / (m + 1.0), 0.0))


def pt_parts(cfg: BasisConfig, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of P^T applied to coefficients z of shape (K, M, ...).

    Returns (within, totals): within[k-1] = (d_k/2) Phat^T z[k-1], the running
    integral inside block k, shaped like z; and totals[k-1] =
    d_k sum_m v_m z[k-1, m], the full integral over block k, shape (K, ...).
    Every later block adds totals[k-1] to its degree-0 coefficient.
    """
    z = np.asarray(z, dtype=float)
    K, M = cfg.K, cfg.M
    cols = z.reshape(K, M, -1)
    d = cfg.partition.width_array[:, np.newaxis]
    within = build_phat(M).T @ cols
    within *= 0.5 * d[:, np.newaxis]
    totals = d * (block_integral_weights(M) @ cols)
    return within.reshape(z.shape), totals.reshape((K,) + z.shape[2:])


def apply_pt(cfg: BasisConfig, z: np.ndarray) -> np.ndarray:
    """(P^T kron I_n) z without forming it: z is any array of K*M*n entries in
    the (K, M, n) stacking of expand_vector; the result has the shape of z."""
    within, totals = pt_parts(cfg, np.reshape(z, (cfg.K, cfg.M, -1)))
    within[1:, 0] += np.cumsum(totals[:-1], axis=0)
    return within.reshape(np.shape(z))
