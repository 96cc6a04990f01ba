"""Checked LU: LAPACK's partial-pivot getrf/getrs plus a pivot-magnitude check.

Matrices come as a stack (K, m, m) of independent plain numpy arrays; one
matrix is a stack of one.  Each matrix is factored by one direct getrf call
into Fortran-ordered storage, which getrs then reads without a copy, so the
factors and solutions are those of scipy.linalg.lu_factor/lu_solve without
their per-call wrappers.  LU.solve makes one getrs call per matrix, and
with a coupling S of each matrix's unknowns to the later matrices' rows it
solves the block lower-triangular system in the same one forward sweep.
The pivot check makes singular systems fail loudly with the offending
pivot and the offending matrix, instead of returning garbage.

LAPACK is reached through scipy's compiled module scipy.linalg._flapack,
loaded straight from its file after importing only the top-level scipy
package: scipy.linalg's __init__ is not run, because it would add about
0.3 s to every import of bpcheb (mostly array-api set-up that clones numpy).
The module is entered in sys.modules under its own name, or taken from there
when scipy.linalg came first, so getrf and getrs are the very objects
scipy.linalg.lapack.get_lapack_funcs returns for float64.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from typing import Iterator

import numpy as np
import scipy

__all__ = ["SingularMatrixError", "LU", "inf_norm"]

# pivots below this times the matrix inf-norm count as singular
PIVOT_RTOL = 1e-13
# a stack is worked on this many float entries at a time (see _chunks)
_CHUNK_ENTRIES = 2**15


def _load_extension(name: str, directory: str):
    """The compiled module name, loaded from directory and entered in
    sys.modules under name, without running its parent packages' __init__."""
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"{name} not found in {directory}", name=name, path=directory)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_FLAPACK = "scipy.linalg._flapack"
_flapack = sys.modules.get(_FLAPACK) or _load_extension(
    _FLAPACK, os.path.join(scipy.__path__[0], "linalg"))
_getrf, _getrs = _flapack.dgetrf, _flapack.dgetrs
# OpenBLAS's getrf/getrs give wrong results or corrupt memory when two threads call them
_LAPACK_LOCK = threading.Lock()


class SingularMatrixError(Exception):
    """A pivot fell below the singularity threshold.

    block, when given, is the 1-based matrix of the stack whose factorization
    failed (LU always gives it); for a stack of one it is 1, the whole matrix.
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


def _chunks(K: int, size: int) -> Iterator[slice]:
    """Slices that cover range(K) in order, each of as many items of size
    entries as fit in _CHUNK_ENTRIES, and at least one."""
    step = max(1, _CHUNK_ENTRIES // max(1, size))
    return (slice(start, min(start + step, K)) for start in range(0, K, step))


def inf_norm(a: np.ndarray) -> float:
    """Infinity norm of a vector: its largest absolute entry, 0 when empty."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


class LU:
    """Partial-pivot LU factorization reusable across many right-hand sides.

    a is a stack (K, m, m) of square matrices, one matrix being a stack of
    one; any other shape raises ValueError naming it.  A singular or
    non-finite matrix, or one whose inf-norm overflows, is named by its
    1-based index in the stack, as SingularMatrixError.block or in the
    ValueError.

    The factors are held in Fortran-ordered storage, a copy of a by default.
    With overwrite_a=True, as in scipy.linalg.lu_factor, a's own storage may
    hold them: a float64 array that is writeable and whose matrices are each
    Fortran-ordered is factored in place, so its contents are the factors
    afterwards, and any other a is copied.  The stack is checked, measured
    and copied chunk by chunk, so the only array of its size is the factors.
    """

    def __init__(self, a: np.ndarray, overwrite_a: bool = False):
        a = np.asarray(a, dtype=float)
        if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"need a stack (K, m, m) of square matrices, got shape {a.shape}")
        K, m, _ = a.shape
        if overwrite_a and a.flags.writeable and a.transpose(0, 2, 1).flags.c_contiguous:
            lu = a
        else:
            lu = np.empty((K, m, m)).transpose(0, 2, 1)  # every slice Fortran-ordered
        piv = np.empty((K, m), dtype=np.int32)
        thresholds = np.empty(K)
        for rows in _chunks(K, m * m):
            block = a[rows]
            # PIVOT_RTOL times the inf-norm of each matrix, measured before it is factored:
            # a NaN or inf entry makes it non-finite, and so does a row sum that overflows
            with np.errstate(over="ignore"):
                thresholds[rows] = PIVOT_RTOL * (np.abs(block) @ np.ones(m)).max(axis=1)
            finite = np.isfinite(thresholds[rows])
            if not finite.all():
                raise ValueError("matrix must not contain infs or NaNs (diagonal block "
                                 f"{rows.start + np.argmin(finite) + 1}) nor overflow its inf-norm")
            if lu is not a:
                lu[rows] = block
            with _LAPACK_LOCK:
                for k in range(rows.start, rows.stop):
                    _, piv[k], info = _getrf(lu[k], overwrite_a=True)  # factors lu[k] in place
                    if info < 0:
                        raise ValueError(f"illegal value in argument {-info} of getrf")
        diag = np.abs(np.diagonal(lu, axis1=1, axis2=2))
        singular = (diag <= thresholds[:, np.newaxis]).any(axis=1)
        if singular.any():
            k = int(np.argmax(singular))
            worst = int(np.argmin(diag[k]))
            raise SingularMatrixError(worst, float(diag[k, worst]), float(thresholds[k]),
                                      block=k + 1)
        self._lu, self._piv = lu, piv  # (K, m, m) and (K, m)

    def solve(self, b: np.ndarray, S: np.ndarray | None = None,
              rows: slice = slice(0)) -> np.ndarray:
        """x with a x = b, matrix by matrix: b is (K, m) or (K, m, p).

        With S, a (K, q, m) stack, x solves instead the block lower-triangular
        system with the matrices a_k on its diagonal and -E S_i in block (k, i)
        for i < k, E placing a q-vector on the given rows of a block.  One forward
        sweep solves a_k x_k = b_k + E c_k block by block, with the carry
        c_1 = 0 and c_{k+1} = c_k + S_k x_k: K getrs calls, as without S."""
        b = np.asarray(b, dtype=float)
        K, m, _ = self._lu.shape
        if b.shape[:2] != (K, m) or b.ndim not in (2, 3):
            raise ValueError(f"right-hand side of shape {b.shape} does not fit the stack of "
                             f"shape {self._lu.shape}: expected ({K}, {m}) or ({K}, {m}, p)")
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        x = b.swapaxes(1, -1).copy().swapaxes(1, -1)  # each x_k Fortran-ordered (or a vector)
        S = np.zeros((K, 0, m)) if S is None else S
        c = np.zeros(S.shape[1:2] + x.shape[2:])
        with _LAPACK_LOCK:
            for lu_k, piv_k, x_k, s_k, carried in zip(self._lu, self._piv, x, S, x[:, rows],
                                                      strict=True):
                carried += c
                _, info = _getrs(lu_k, piv_k, x_k, overwrite_b=True)  # solves in x_k
                if info < 0:
                    raise ValueError(f"illegal value in argument {-info} of getrs")
                c += np.dot(s_k, x_k)
        return np.ascontiguousarray(x)  # C order, like b
