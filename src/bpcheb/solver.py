"""Assembly and solution of linear integrodifferential initial-value systems.

The problem

    x'(t) = A(t) x(t) + integral over [t0, tf] of N(t, s) x(s) ds + B(t) u(t),
    x(t0) = x0,

is integrated once in time and written in hybrid coefficients, giving the
single linear system

    [I - (P^T kron I_n) Phi] Xhat = (P^T kron I_n) Bop Uhat + X0hat,

with Phi the sum of the block-diagonal product operator of A and the
Fredholm operator Q of N.  It is solved one of two ways:

* Without a kernel, Phi is block diagonal, and P is block upper-triangular:
  a finished block adds only a constant, its full integral, to each later
  block.  The system matrix is then block lower-triangular.  The K diagonal
  blocks (Mn x Mn) are factored as one linalg.LU stack (one LAPACK getrf
  per block), every block's right-hand side is solved by one LU.solve, and
  the only Python loop over the blocks carries an n-vector forward (see
  AssembledSystem).  Nothing of size (KMn)^2 is formed.
* With a kernel, Q couples every pair of blocks, so the dense system matrix
  is formed and LU-factored.  Its P^T kron I_n is operational.apply_pt
  applied to the identity; no Kronecker product is taken.

The stages pass plain arrays: the product operators of A and B are stacked
diagonal blocks (K, Mn, Mn) and (K, Mn, Mr), Q is a (KMn, KMn) array.

Either way the factors are computed at the first solve and serve any number
of controls, and every solve checks the defect of its answer by applying
the operator blockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .basis import BasisConfig, as_index, chebyshev_u_derivative_coeffs
from .expansion import (
    CoeffVector,
    expand_matrix,
    expand_vector,
    product_blocks,
    require_finite,
    sample,
    synthesize,
)
from .kernel import fredholm_operator, sample_kernel
from .linalg import LU, inf_norm
from .operational import apply_pt, pt_parts
from .quadrature import WeightedRule

__all__ = [
    "SystemSpec",
    "AssembledSystem",
    "HybridSolution",
    "SolveError",
    "assemble",
    "solve",
    "hybrid_solve",
    "residual",
]

RESIDUAL_RTOL = 1e-10


class SolveError(Exception):
    """The linear solve did not meet its residual contract."""


@dataclass(frozen=True)
class SystemSpec:
    """Problem statement: dimensions, time window, initial state and data.

    A maps t to an (n, n) matrix, B to (n, r), N maps (t, s) to (n, n) with s
    the integration variable, u maps t to an r-vector.  Any of A, B, N, u may
    be None, meaning identically zero.  Each is first called on whole arrays
    of nodes (N on chunks of whole outer blocks, see kernel.sample_kernel),
    then with all nodes in one scalar-like object (for code written for a
    scalar t), and one call per node is the last fallback (see
    expansion.sample).
    """

    n: int
    r: int
    t0: float
    tf: float
    x0: np.ndarray
    A: Callable[[float], np.ndarray] | None = None
    B: Callable[[float], np.ndarray] | None = None
    N: Callable[[float, float], np.ndarray] | None = None
    u: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        for key in ("n", "r"):
            object.__setattr__(self, key, as_index(key, getattr(self, key)))
        if self.n < 1 or self.r < 1:
            raise ValueError(f"dimensions must be positive, got n={self.n}, r={self.r}")
        for key in ("t0", "tf"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not self.tf > self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != self.n:
            raise ValueError(f"x0 has {x0.size} components, expected n={self.n}")
        if not np.isfinite(x0).all():
            raise ValueError(f"x0 must be finite, got {x0}")
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)


class AssembledSystem:
    """Discretized operators of one system on one basis; immutable.

    phi_blocks (K, Mn, Mn) holds the block-k product operator of A at index
    k-1 and b_blocks (K, Mn, Mr) that of B; Q is the (KMn x KMn) Fredholm
    operator of N, or None without a kernel.

    Without a kernel, block k satisfies D_k x_k = rhs_k + (e_0 kron I_n) c_k
    with D_k = I - (d_k/2)(Phat^T kron I_n) Phi_k and the carry
    c_k = sum_{i<k} S_i x_i, where the rows S_k = d_k (v^T kron I_n) Phi_k
    (v_m = 1/(m+1) for even m, else 0) give block k's full integral.  The
    first solve factors all D_k as one LU stack and keeps S_k,
    G_k = D_k^-1 (e_0 kron I_n) and T_k = I_n + S_k G_k.  A solve is then
    y_k = D_k^-1 rhs_k for all blocks at once, the n-dimensional recurrence
    c_1 = 0, c_{k+1} = T_k c_k + S_k y_k, and x_k = y_k + G_k c_k.  With a
    kernel, the first solve LU-factors the dense system_matrix
    I - PkronT @ Phi.  Later solves share the factors (concurrent reads are
    safe).
    """

    def __init__(self, cfg: BasisConfig, n: int, r: int, phi_blocks: np.ndarray,
                 b_blocks: np.ndarray, Q: np.ndarray | None, X0hat: CoeffVector,
                 rule: WeightedRule | None):
        for arr in (phi_blocks, b_blocks, Q):
            if arr is not None:
                arr.flags.writeable = False
        self.cfg = cfg
        self.n = n
        self.r = r
        self.phi_blocks = phi_blocks
        self.b_blocks = b_blocks
        self.Q = Q
        self.X0hat = X0hat
        self.rule = rule

    def apply(self, x: np.ndarray) -> np.ndarray:
        """[I - (P^T kron I_n) Phi] x, without forming the matrix."""
        phix = _apply_blocks(self.phi_blocks, x)
        if self.Q is not None:
            phix += self.Q @ x
        return x - apply_pt(self.cfg, phix)

    # dense operators, which solve uses only for systems with a kernel

    @cached_property
    def PkronT(self) -> np.ndarray:
        return _read_only(apply_pt(self.cfg, np.eye(self.cfg.K * self.cfg.M * self.n)))

    @cached_property
    def Bop(self) -> np.ndarray:
        return _read_only(_block_diagonal(self.b_blocks))

    @cached_property
    def system_matrix(self) -> np.ndarray:
        Phi = _block_diagonal(self.phi_blocks)
        if self.Q is not None:
            Phi += self.Q
        return _read_only(np.eye(len(Phi)) - self.PkronT @ Phi)

    @cached_property
    def _lu(self) -> LU:
        return LU(self.system_matrix)

    # block march, for systems without a kernel

    @cached_property
    def _march(self) -> tuple[LU, np.ndarray, np.ndarray, np.ndarray]:
        """The stacked LU of every D_k, G_k = D_k^-1 (e_0 kron I_n) as
        (K, Mn, n), S_k as (K, n, Mn), and T_k = I_n + S_k G_k as (K, n, n)."""
        K, M, n = self.cfg.K, self.cfg.M, self.n
        within, S = pt_parts(self.cfg, self.phi_blocks.reshape(K, M, n, M * n))
        D = within.reshape(K, M * n, M * n)
        lu = LU(np.subtract(np.eye(M * n), D, out=D))  # in place: one stack fewer
        E = np.zeros((K, M * n, n))
        E[:, :n, :] = np.eye(n)
        G = lu.solve(E)
        return lu, G, S, np.eye(n) + S @ G

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.Q is not None:
            return self._lu.solve(rhs)
        lu, G, S, T = self._march
        y = lu.solve(rhs.reshape(self.cfg.K, -1))
        Sy = (S @ y[..., np.newaxis])[..., 0]
        c = np.zeros((self.cfg.K, self.n))  # c_k: sum over i < k of S_i x_i
        for k in range(self.cfg.K - 1):
            c[k + 1] = T[k] @ c[k] + Sy[k]
        return (y + (G @ c[..., np.newaxis])[..., 0]).reshape(-1)


def _apply_blocks(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix times vector, from the stacked diagonal blocks."""
    return np.matmul(blocks, np.reshape(z, (len(blocks), -1, 1))).reshape(-1)


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the stacked blocks (K, p, q), shape (Kp, Kq)."""
    K, p, q = blocks.shape
    out = np.zeros((K, p, K, q))
    k = np.arange(K)
    out[k, :, k, :] = blocks
    return out.reshape(K * p, K * q)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def assemble(spec: SystemSpec, cfg: BasisConfig, rule: WeightedRule | None = None) -> AssembledSystem:
    """Expand the system data on cfg and build all coefficient-space operators."""
    if (cfg.partition.t0, cfg.partition.tf) != (spec.t0, spec.tf):
        raise ValueError(
            f"basis covers [{cfg.partition.t0}, {cfg.partition.tf}] "
            f"but the system lives on [{spec.t0}, {spec.tf}]"
        )
    M, K, n, r = cfg.M, cfg.K, spec.n, spec.r

    if spec.A is None:
        phi_blocks = np.zeros((K, M * n, M * n))
    else:
        phi_blocks = product_blocks(expand_matrix(spec.A, cfg, rule, expect=("A", (n, n))))
    if spec.B is None:
        b_blocks = np.zeros((K, M * n, M * r))
    else:
        b_blocks = product_blocks(expand_matrix(spec.B, cfg, rule, expect=("B", (n, r))))
    Q = None
    if spec.N is not None:
        Q = fredholm_operator(spec.N, cfg, rule).Q
        if Q.shape != (K * M * n, K * M * n):
            shape = (Q.shape[0] // (M * K), Q.shape[1] // (M * K))
            raise ValueError(f"N(t, s) has shape {shape}, expected {(n, n)}")

    x0tensor = np.zeros((K, M, n))
    x0tensor[:, 0, :] = spec.x0
    return AssembledSystem(cfg, n, r, phi_blocks, b_blocks, Q, CoeffVector.from_tensor(x0tensor),
                           rule)


def solve(asm: AssembledSystem, u: Callable[[float], np.ndarray] | None) -> "HybridSolution":
    """Solve for the hybrid coefficients of the state under the control u."""
    cfg = asm.cfg
    rhs = asm.X0hat.data.copy()
    if u is not None:
        uhat = expand_vector(u, cfg, asm.rule, expect=("u", (asm.r,))).data
        if asm.Q is None:
            rhs += apply_pt(cfg, _apply_blocks(asm.b_blocks, uhat))
        else:
            rhs += asm.PkronT @ (asm.Bop @ uhat)
    xhat = asm._solve(rhs)
    defect = inf_norm(asm.apply(xhat) - rhs)
    bound = RESIDUAL_RTOL * (1.0 + inf_norm(rhs))
    if not defect <= bound:  # a NaN defect fails too
        raise SolveError(
            f"linear-system residual {defect:.3e} exceeds {bound:.3e}; "
            "the discretized operator is too ill-conditioned to trust"
        )
    return HybridSolution(cfg, CoeffVector(xhat, cfg.K, cfg.M, asm.n))


def hybrid_solve(spec: SystemSpec, cfg: BasisConfig, rule: WeightedRule | None = None) -> "HybridSolution":
    """assemble + solve with the system's own control."""
    return solve(assemble(spec, cfg, rule), spec.u)


@dataclass(frozen=True)
class HybridSolution:
    """Solved coefficients, evaluable anywhere in [t0, tf]."""

    cfg: BasisConfig
    xhat: CoeffVector

    def evaluate(self, t: float) -> np.ndarray:
        """State vector at time t (t0 <= t <= tf)."""
        return self.evaluate_many([t])[0]

    def evaluate_many(self, ts: Sequence[float]) -> np.ndarray:
        """State vectors at every t in ts, shape (len(ts), n); same values as evaluate."""
        p = self.cfg.partition
        ts = np.asarray(ts, dtype=float).reshape(-1)
        outside = ~((ts >= p.t0) & (ts <= p.tf))
        if outside.any():
            raise ValueError(f"t={ts[np.argmax(outside)]} outside [{p.t0}, {p.tf}]")
        return synthesize(self.xhat, self.cfg, ts)

    def derivative(self, t: float) -> np.ndarray:
        """d/dt of the reconstruction, by exact per-block series differentiation."""
        return self._derivative().evaluate(t)

    def _derivative(self) -> "HybridSolution":
        """The derivative of the reconstruction as a solution on the same basis:
        each block's differentiated series, scaled by 2/d_k."""
        coeffs = np.moveaxis(self.xhat.tensor(), 1, 0)  # degree first: (M, K, n)
        scale = 2.0 / np.asarray(self.cfg.partition.widths)[:, np.newaxis]
        dcoef = np.moveaxis(chebyshev_u_derivative_coeffs(coeffs) * scale, 0, 1)
        return HybridSolution(self.cfg, CoeffVector.from_tensor(dcoef))


def residual(spec: SystemSpec, sol: HybridSolution, tgrid: Sequence[float],
             quad_order: int = 64) -> float:
    """Max defect of the original equation over tgrid, over all components.

    The time derivative uses the exact per-block Chebyshev differentiation.
    A, B and u are sampled exactly as assemble samples them (see
    expansion.sample), with the times of tgrid as the one row of an
    evaluation grid, so the "(block 1)" that their sampling errors name
    counts rows of that grid, not blocks of the partition.  The Fredholm
    term integrates the reconstructed solution with Gauss-Legendre
    quadrature on every block, sampling N on those nodes for chunks of
    tgrid at a time (kernel.sample_kernel).  A non-finite, complex or
    misshapen sample raises ExpansionError naming the datum and its t or
    (t, s).
    """
    ts = np.asarray(tgrid, dtype=float).reshape(-1)
    if not ts.size:
        return 0.0
    x = sol.evaluate_many(ts)  # (len(ts), n); rejects times outside [t0, tf]
    defect = sol._derivative().evaluate_many(ts)
    grid = ts[np.newaxis]
    if spec.A is not None:
        A = _sample_data(spec.A, grid, 2, ("A", (spec.n, spec.n)))
        defect -= (A @ x[..., np.newaxis])[..., 0]
    if spec.N is not None:
        glx, glw = np.polynomial.legendre.leggauss(quad_order)
        bp = np.asarray(sol.cfg.partition.breakpoints)
        a, b = bp[:-1, np.newaxis], bp[1:, np.newaxis]
        inner_nodes = 0.5 * ((b - a) * glx + a + b)  # (K, quad_order)
        # weighted states at the inner nodes, (K, quad_order, n)
        inner_states = sol.evaluate_many(inner_nodes).reshape(inner_nodes.shape + (-1,))
        inner_states *= (0.5 * (b - a) * glw)[..., np.newaxis]
        for rows, kvals in sample_kernel(spec.N, inner_nodes, ts):
            require_finite(kvals, inner_nodes, "kernel", t=ts[rows])
            defect[rows] -= np.einsum("jkqac,kqc->ja", kvals, inner_states)
    if spec.B is not None and spec.u is not None:
        B = _sample_data(spec.B, grid, 2, ("B", (spec.n, spec.r)))
        u = _sample_data(spec.u, grid, 1, ("u", (spec.r,)))
        defect -= (B @ u[..., np.newaxis])[..., 0]
    return float(np.abs(defect).max())


def _sample_data(f: Callable, grid: np.ndarray, ndim: int,
                 expect: tuple[str, tuple[int, ...]]) -> np.ndarray:
    """f's finite samples at the one row of times in grid, as expand_vector
    (ndim 1) and expand_matrix (ndim 2) take them: shape (len(row),) + expect[1]."""
    what = "vector function" if ndim == 1 else "matrix function"
    vals = sample(f, grid, what, ndim, expect=expect)
    require_finite(vals, grid, expect[0])
    return vals[0]
