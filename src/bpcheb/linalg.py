"""Dense matrix utilities: Kronecker products, pivoted LU.

Matrices are plain 2-D numpy arrays.  The LU solve is scipy's partial-pivot
factorization plus an explicit pivot-magnitude check so that singular systems
fail loudly with the offending pivot, instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["SingularMatrixError", "kron", "LU", "inf_norm"]

# pivots below this times the matrix inf-norm count as singular
PIVOT_RTOL = 1e-13

# refuse Kronecker results over ~one billion entries
MAX_KRON_ENTRIES = 2**30


class SingularMatrixError(Exception):
    """A pivot fell below the singularity threshold.

    block, when given, is the 1-based diagonal block whose factorization failed.
    """

    def __init__(self, pivot_index: int, pivot: float, threshold: float,
                 block: int | None = None):
        self.pivot_index = pivot_index
        self.pivot = pivot
        self.threshold = threshold
        self.block = block
        where = "" if block is None else f" in diagonal block {block}"
        super().__init__(
            f"matrix numerically singular{where}: |pivot {pivot_index}| = {abs(pivot):.3e} "
            f"is at or below the threshold {threshold:.3e}"
        )


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 2-D arrays."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    entries = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if entries > MAX_KRON_ENTRIES:
        raise ValueError(f"kron result would have {entries} entries")
    return np.kron(a, b)


def inf_norm(a: np.ndarray) -> float:
    """Infinity norm: max absolute entry for vectors, max row sum for matrices."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim <= 1:
        return float(np.max(np.abs(a)))
    return float(np.max(np.abs(a).sum(axis=1)))


class LU:
    """Partial-pivot LU factorization reusable across many right-hand sides."""

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        self._lu, self._piv = scipy.linalg.lu_factor(a)
        threshold = PIVOT_RTOL * inf_norm(a)
        diag = np.abs(np.diag(self._lu))
        worst = int(np.argmin(diag))
        if diag[worst] <= threshold:
            raise SingularMatrixError(worst, float(diag[worst]), threshold)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve((self._lu, self._piv), np.asarray(b, dtype=float))
