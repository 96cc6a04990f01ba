"""Assembly and solution of linear integrodifferential initial-value systems.

The problem

    x'(t) = A(t) x(t) + integral over [t0, tf] of N(t, s) x(s) ds + B(t) u(t),
    x(t0) = x0,

is integrated once in time and written in hybrid coefficients, giving the
single linear system

    [I - (P^T kron I_n) Phi] Xhat = (P^T kron I_n) Bop Uhat + X0hat,

with Phi the sum of the block-diagonal product operator of A and the
Fredholm operator Q of N, and X0hat the coefficients of the constant x0
(x0 at degree 0 of every block).  It is solved one of two ways:

* Without a kernel, Phi is block diagonal, and P is block upper-triangular:
  a finished block adds only a constant, its full integral, to each later
  block.  The system matrix is then block lower-triangular.  The K diagonal
  blocks (Mn x Mn) are factored as one linalg.LU stack (one LAPACK getrf
  per block), every block's right-hand side is solved by one LU.solve, and
  the only Python loop over the blocks carries an n-vector forward (see
  AssembledSystem).  Nothing of size (KMn)^2 is formed.
* With a kernel, Q couples every pair of blocks, so the dense system matrix
  is formed and LU-factored.  Its dense P^T kron I_n and Bop are their
  structured operators (operational.apply_pt, _apply_blocks) applied to an
  identity, so no Kronecker product is taken; its Phi is Q with the blocks
  of A added onto its diagonal blocks.

The operators are plain arrays: the product operators of A and B are
stacked diagonal blocks (K, Mn, Mn) and (K, Mn, Mr), Q is a (KMn, KMn)
array.  AssembledSystem(spec, cfg) builds them and holds them read-only,
without copying them.

Either way the factors are computed at the first solve and serve any number
of controls, and every solve checks the defect of its answer by applying
the operator blockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .basis import (
    BasisConfig, as_index, as_real, chebyshev_u_derivative_coeffs, read_only, real_array,
)
from .expansion import expand_matrix, expand_vector, nodes, product_blocks, sample, synthesize
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


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Problem statement: dimensions, time window, initial state and data.

    A maps t to an (n, n) matrix, B to (n, r), N maps (t, s) to (n, n) with s
    the integration variable, u maps t to an r-vector.  Any of A, B, N, u may
    be None, meaning identically zero.  Each is first called on whole arrays
    of nodes (N on chunks of whole outer blocks, see kernel.sample_kernel),
    then with all nodes in one scalar-like object (for code written for a
    scalar t), and one call per node is the last fallback.  Every datum is
    checked where it is sampled (expansion.sample): a failing call and a
    complex, misshapen, NaN or infinite sample raise ExpansionError naming
    the key (A, B, N or u), the t or (t, s), and the block.  t0 and tf are
    kept as floats and x0 as a read-only flat float copy.
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
            object.__setattr__(self, key, as_real(key, getattr(self, key)))
        if not self.tf > self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")
        x0 = read_only(real_array("x0", self.x0).reshape(-1))
        if x0.size != self.n:
            raise ValueError(f"x0 has {x0.size} components, expected n={self.n}")
        if not np.isfinite(x0).all():
            raise ValueError(f"x0 must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)


class AssembledSystem:
    """Discretized operators of one system on one basis; immutable.

    AssembledSystem(spec, cfg) expands the system's data on cfg.  phi_blocks
    (K, Mn, Mn) holds the block-k product operator of A at index k-1 and
    b_blocks (K, Mn, Mr) that of B; Q is the (KMn x KMn) Fredholm operator
    of N (kernel.fredholm_operator), or None without a kernel.  All of them,
    and the control's coefficients in solve, are projections on
    expansion.default_rule.  x0 is spec.x0 itself, the spec's read-only copy;
    n and r are the spec's.

    Without a kernel, block k satisfies D_k x_k = rhs_k + (e_0 kron I_n) c_k
    with D_k = I - (d_k/2)(Phat^T kron I_n) Phi_k and the carry
    c_k = sum_{i<k} S_i x_i, where the rows S_k = d_k (v^T kron I_n) Phi_k
    (v_m = 1/(m+1) for even m, else 0) give block k's full integral.  The
    first solve factors all D_k as one LU stack and keeps S_k,
    G_k = D_k^-1 (e_0 kron I_n) and T_k = I_n + S_k G_k.  A solve is then
    y_k = D_k^-1 rhs_k for all blocks at once, the n-dimensional recurrence
    c_1 = 0, c_{k+1} = T_k c_k + S_k y_k, and x_k = y_k + G_k c_k.  With a
    kernel, the first solve LU-factors the dense system_matrix
    I - PkronT @ Phi, with Phi a copy of Q plus phi_blocks on its diagonal
    blocks.  PkronT and Bop, the control's dense operator, are apply_pt and
    _apply_blocks(b_blocks, .) applied to the identity.  Later solves share
    the factors; concurrent solves are safe, since linalg serializes its
    LAPACK calls.  The system owns the arrays it builds: each is made here,
    frozen in place and never copied.  The dense operators are read-only too.
    """

    def __init__(self, spec: SystemSpec, cfg: BasisConfig):
        _check_window(spec, cfg)
        M, K, n, r = cfg.M, cfg.K, spec.n, spec.r
        self.cfg, self.n, self.r, self.x0 = cfg, n, r, spec.x0

        def blocks(f, name: str, cols: int) -> np.ndarray:  # A's or B's product operators
            if f is None:
                return read_only(np.zeros((K, M * n, M * cols)))
            return read_only(product_blocks(expand_matrix(f, cfg, expect=(name, (n, cols)))))

        self.phi_blocks, self.b_blocks = blocks(spec.A, "A", n), blocks(spec.B, "B", r)
        self.Q = None if spec.N is None else fredholm_operator(spec.N, cfg, expect=("N", (n, n)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """[I - (P^T kron I_n) Phi] x, without forming the matrix."""
        phix = _apply_blocks(self.phi_blocks, x)
        if self.Q is not None:
            phix += self.Q @ x
        return x - apply_pt(self.cfg, phix)

    # dense operators, which solve uses only for systems with a kernel

    @cached_property
    def PkronT(self) -> np.ndarray:
        return read_only(apply_pt(self.cfg, np.eye(self.cfg.K * self.cfg.M * self.n)))

    @cached_property
    def Bop(self) -> np.ndarray:
        return read_only(_apply_blocks(self.b_blocks, np.eye(self.cfg.K * self.cfg.M * self.r)))

    @cached_property
    def system_matrix(self) -> np.ndarray:
        K, Mn = self.phi_blocks.shape[:2]
        Phi = np.zeros((K * Mn, K * Mn)) if self.Q is None else self.Q.copy()
        k = np.arange(K)
        Phi.reshape(K, Mn, K, Mn)[k, :, k, :] += self.phi_blocks  # the diagonal blocks
        return read_only(np.eye(K * Mn) - self.PkronT @ Phi)

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
        G = lu.solve(np.broadcast_to(np.eye(M * n, n), (K, M * n, n)))
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


def _check_window(spec: SystemSpec, cfg: BasisConfig) -> None:
    """ValueError unless the basis covers the system's [t0, tf]."""
    if (cfg.partition.t0, cfg.partition.tf) != (spec.t0, spec.tf):
        raise ValueError(
            f"basis covers [{cfg.partition.t0}, {cfg.partition.tf}] "
            f"but the system lives on [{spec.t0}, {spec.tf}]"
        )


def _apply_blocks(blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the stacked blocks (K, p, q) times z, a
    vector (Kq,) or a matrix (Kq, c); the result is (Kp,) or (Kp, c)."""
    K, p, q = blocks.shape
    return np.matmul(blocks, z.reshape(K, q, -1)).reshape((K * p,) + z.shape[1:])


def assemble(spec: SystemSpec, cfg: BasisConfig) -> AssembledSystem:
    """Expand the system data on cfg and build all coefficient-space operators."""
    return AssembledSystem(spec, cfg)


def solve(asm: AssembledSystem, u: Callable[[float], np.ndarray] | None) -> "HybridSolution":
    """Solve for the hybrid coefficients of the state under the control u."""
    cfg = asm.cfg
    rhs = np.zeros(cfg.K * cfg.M * asm.n)
    rhs.reshape(cfg.K, cfg.M, asm.n)[:, 0] = asm.x0  # X0hat
    if u is not None:
        uhat = expand_vector(u, cfg, expect=("u", (asm.r,))).reshape(-1)
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
    return HybridSolution(cfg, xhat.reshape(cfg.K, cfg.M, asm.n))


def hybrid_solve(spec: SystemSpec, cfg: BasisConfig) -> "HybridSolution":
    """assemble + solve with the system's own control."""
    return solve(assemble(spec, cfg), spec.u)


@dataclass(frozen=True, eq=False)
class HybridSolution:
    """Solved coefficients, evaluable anywhere in [t0, tf].

    xhat is a read-only copy of the coefficients given, shape (K, M, n) as
    expand_vector stacks them: block k's are xhat[k - 1], shape (M, n).  Any
    other shape raises ValueError naming xhat.
    """

    cfg: BasisConfig
    xhat: np.ndarray

    def __post_init__(self):
        xhat = read_only(real_array("xhat", self.xhat))
        K, M = self.cfg.K, self.cfg.M
        if xhat.ndim != 3 or xhat.shape[:2] != (K, M) or not xhat.shape[2]:
            raise ValueError(f"xhat has shape {xhat.shape}, expected ({K}, {M}, n), n >= 1")
        object.__setattr__(self, "xhat", xhat)

    def evaluate(self, t) -> np.ndarray:
        """State at a time t or at each time of an array t, shape np.shape(t) + (n,),
        by expansion.synthesize, which rejects times outside [t0, tf]."""
        return synthesize(self.xhat, self.cfg, t)

    def evaluate_many(self, ts: Sequence[float]) -> np.ndarray:
        """evaluate of the flattened times ts: shape (np.size(ts), n)."""
        return self.evaluate(np.reshape(ts, -1))

    def derivative(self, t) -> np.ndarray:
        """d/dt of the reconstruction at t (as in evaluate), by exact per-block differentiation."""
        return self._derivative().evaluate(t)

    def _derivative(self) -> "HybridSolution":
        """The derivative of the reconstruction as a solution on the same basis:
        each block's differentiated series, scaled by 2/d_k."""
        coeffs = np.moveaxis(self.xhat, 1, 0)  # degree first: (M, K, n)
        scale = 2.0 / self.cfg.partition.width_array[:, np.newaxis]
        dcoef = np.moveaxis(chebyshev_u_derivative_coeffs(coeffs) * scale, 0, 1)
        return HybridSolution(self.cfg, dcoef)


def residual(spec: SystemSpec, sol: HybridSolution, tgrid: Sequence[float],
             quad_order: int = 64) -> float:
    """Max defect of the original equation over tgrid, over all components.

    The time derivative uses the exact per-block Chebyshev differentiation.
    A, B and u are sampled and checked exactly as assemble samples them
    (see expansion.sample), with the times of tgrid as the one row of an
    evaluation grid, so the "(block 1)" that their sampling errors name
    counts rows of that grid, not blocks of the partition.  The Fredholm
    term integrates the reconstructed solution with Gauss-Legendre
    quadrature on every block, sampling N on those nodes for chunks of
    tgrid at a time (kernel.sample_kernel) with the shape (n, n).  A
    failing call or a non-finite, complex or misshapen sample raises
    ExpansionError naming the datum, its t or (t, s), and the block (for N,
    the inner block of the quadrature).  quad_order must be an integer >= 1,
    with or without a kernel.  A spec whose n or [t0, tf] differs from the
    solution's raises ValueError before anything is sampled.
    """
    quad_order = as_index("quad_order", quad_order)
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")
    _check_window(spec, sol.cfg)
    if spec.n != sol.xhat.shape[2]:
        raise ValueError(f"the system has n={spec.n} but the solution has n={sol.xhat.shape[2]}")
    ts = np.asarray(tgrid, dtype=float).reshape(-1)
    if not ts.size:
        return 0.0
    x = sol.evaluate(ts)  # (len(ts), n); rejects times outside [t0, tf]
    defect = sol._derivative().evaluate(ts)
    grid = ts[np.newaxis]
    if spec.A is not None:
        A = sample(spec.A, grid, "A", 2, shape=(spec.n, spec.n))[0]
        defect -= (A @ x[..., np.newaxis])[..., 0]
    if spec.N is not None:
        glx, glw = np.polynomial.legendre.leggauss(quad_order)
        inner_nodes = nodes(sol.cfg, WeightedRule(glx, glw))  # (K, quad_order)
        # weighted states at the inner nodes, (K, quad_order, n)
        inner_states = sol.evaluate(inner_nodes)
        inner_states *= (0.5 * sol.cfg.partition.width_array[:, np.newaxis] * glw)[..., np.newaxis]
        for rows, kvals in sample_kernel(spec.N, inner_nodes, ts, "N", (spec.n, spec.n)):
            defect[rows] -= np.einsum("jkqac,kqc->ja", kvals, inner_states)
    if spec.B is not None and spec.u is not None:
        B = sample(spec.B, grid, "B", 2, shape=(spec.n, spec.r))[0]
        u = sample(spec.u, grid, "u", 1, shape=(spec.r,))[0]
        defect -= (B @ u[..., np.newaxis])[..., 0]
    return float(np.abs(defect).max())
