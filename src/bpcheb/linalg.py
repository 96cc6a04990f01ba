"""Checked LU: scipy's partial-pivot factorization plus a pivot-magnitude check.

Matrices are plain numpy arrays: one (m, m) matrix, or a stack (K, m, m) of
independent ones factored and solved in one call each.  The pivot check
makes singular systems fail loudly with the offending pivot (and, in a
stack, the offending matrix), instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["SingularMatrixError", "LU", "inf_norm"]

# pivots below this times the matrix inf-norm count as singular
PIVOT_RTOL = 1e-13


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


def inf_norm(a: np.ndarray) -> float:
    """Infinity norm: max absolute entry for vectors, max row sum for matrices."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim <= 1:
        return float(np.max(np.abs(a)))
    return float(np.max(np.abs(a).sum(axis=1)))


class LU:
    """Partial-pivot LU factorization reusable across many right-hand sides.

    a is one square matrix (m, m) or a stack (K, m, m) of them.  A stack is
    factored by one scipy call, and a singular or non-finite matrix in it is
    named by its 1-based index as SingularMatrixError.block or in the
    ValueError.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"need a square matrix or a stack of them, got shape {a.shape}")
        stack = a if a.ndim == 3 else a[np.newaxis]
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            where = f" (diagonal block {np.argmin(finite) + 1})" if a.ndim == 3 else ""
            raise ValueError(f"matrix must not contain infs or NaNs{where}")
        self._lu, self._piv = scipy.linalg.lu_factor(a, check_finite=False)
        thresholds = PIVOT_RTOL * np.abs(stack).sum(axis=2).max(axis=1)
        diag = np.abs(np.diagonal(self._lu, axis1=-2, axis2=-1)).reshape(len(stack), -1)
        singular = (diag <= thresholds[:, np.newaxis]).any(axis=1)
        if singular.any():
            k = int(np.argmax(singular))
            worst = int(np.argmin(diag[k]))
            raise SingularMatrixError(worst, float(diag[k, worst]), float(thresholds[k]),
                                      block=k + 1 if a.ndim == 3 else None)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with a x = b: b is (m,) or (m, p) for one matrix, (K, m) or
        (K, m, p) for a stack."""
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():  # one check for the whole stack, not one per slice
            raise ValueError("right-hand side must not contain infs or NaNs")
        lu_piv = (self._lu, self._piv)
        if self._lu.ndim == 3 and b.ndim == 2:  # scipy reads a 2-D b as one (m, p) matrix
            return scipy.linalg.lu_solve(lu_piv, b[..., np.newaxis], check_finite=False)[..., 0]
        return scipy.linalg.lu_solve(lu_piv, b, check_finite=False)
