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
  block.  The system matrix is then block lower-triangular.  Its K diagonal
  blocks (Mn x Mn) are written straight from A's coefficients into one
  Fortran-ordered stack, a chunk of blocks at a time, and factored there
  as one linalg.LU stack (one LAPACK getrf per block).  A solve is one
  forward sweep over the blocks, LU.solve with the coupling of each block
  to the later ones: one getrs per block, with an n-vector carried from
  block to block (see AssembledSystem).  The LU factors are the one array
  of size K(Mn)^2, every temporary holds at most one chunk of blocks, and
  no product operator is formed.
* With a kernel, Q couples every pair of blocks, so the dense system matrix
  is formed and LU-factored as a linalg.LU stack of one.  Its dense
  P^T kron I_n is apply_pt applied to an identity, so no Kronecker product
  is taken; its Phi is Q with the product operators of A
  (expansion.product_blocks) added onto its diagonal blocks, and Bop holds
  those of B on its diagonal blocks; each set of product operators is built
  where it is read, and not kept.

AssembledSystem(spec, cfg) holds what these are built from, as plain
read-only arrays it made and never copies: the hybrid coefficients of A and
B, (K, M, n, n) and (K, M, n, r), and Q, a (KMn, KMn) array.

Either way the factors are computed at the first solve and serve any number
of controls.  Every solve checks the defect b - S x of its answer x against
the matrix S that it inverted, by AssembledSystem.apply: with a kernel, one
product with system_matrix, the dense matrix the LU factored; without one,
S is not formed, so A's part is applied by the product rule on its
coefficients (expansion.product_tensor) and integrated by apply_pt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .basis import (
    BasisConfig, as_index, as_real, chebyshev_u_derivative_coeffs, read_only, real_array,
)
from .expansion import (
    expand_matrix, expand_vector, nodes, product_blocks, product_tensor, sample, synthesize,
)
from .kernel import fredholm_operator, sample_kernel
from .linalg import LU, _chunks, inf_norm
from .operational import apply_pt, block_integral_weights, build_phat
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
        x0 = read_only(real_array("x0", self.x0).flatten())  # a copy: the caller keeps its flags
        if x0.size != self.n:
            raise ValueError(f"x0 has {x0.size} components, expected n={self.n}")
        if not np.isfinite(x0).all():
            raise ValueError(f"x0 must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)


class AssembledSystem:
    """Discretized system on one basis; immutable.

    AssembledSystem(spec, cfg) expands the system's data on cfg.  Ahat
    (K, M, n, n) holds A's hybrid coefficients and Bhat (K, M, n, r) B's, as
    expand_matrix returns them; Ahat is zero without A, and Bhat is None
    without B, so that solve samples no control.  Q is the (KMn x KMn)
    Fredholm operator of N (kernel.fredholm_operator), or None without a
    kernel.  All of them, and the control's coefficients in solve, are
    projections on expansion.default_rule.  x0 is spec.x0 itself, the spec's
    read-only copy; n and r are the spec's.

    Without a kernel, block k satisfies D_k x_k = rhs_k + (e_0 kron I_n) c_k
    with D_k = I - (d_k/2)(Phat^T kron I_n) Phi_k and the carry
    c_k = sum_{i<k} S_i x_i, where the rows S_k = d_k (v^T kron I_n) Phi_k
    (v_m = 1/(m+1) for even m, else 0) give block k's full integral.  The
    first solve writes every D_k and S_k straight from Ahat, a chunk of
    blocks at a time, through one tensor per M (_march_weights), into the
    storage where LU factors them in place (with each block's unknowns
    ordered by component, then degree), and keeps the factors and S_k.
    Every solve is then one forward sweep, block by block: add c_k to the
    degree-0 rows of rhs_k, solve D_k x_k = rhs_k by the factors, and set
    c_{k+1} = c_k + S_k x_k (LU.solve with S), with c_1 = 0.  With a
    kernel, the first solve LU-factors the dense system_matrix
    I - PkronT @ Phi as a stack of one, with Phi a copy of Q plus the product
    operators of A (expansion.product_blocks, block k's on diagonal block k)
    added in place.  PkronT is apply_pt applied to the identity, and Bop, the
    control's dense operator, holds the product operators of B on its
    diagonal blocks; neither set of product operators is kept.  Later
    solves share the factors; concurrent solves are safe, since linalg
    serializes its LAPACK calls.  apply(x), which solve's defect check uses,
    is S x for the S that the solves invert: system_matrix @ x with a kernel,
    and without one the product rule on Ahat integrated by apply_pt.  The
    system owns the arrays it builds: each is made here, frozen in place and
    never copied.  The dense operators are read-only too.
    """

    def __init__(self, spec: SystemSpec, cfg: BasisConfig):
        _check_window(spec, cfg)
        M, K, n, r = cfg.M, cfg.K, spec.n, spec.r
        self.cfg, self.n, self.r, self.x0 = cfg, n, r, spec.x0
        self.Ahat = (read_only(np.zeros((K, M, n, n))) if spec.A is None
                     else expand_matrix(spec.A, cfg, expect=("A", (n, n))))
        self.Bhat = None if spec.B is None else expand_matrix(spec.B, cfg, expect=("B", (n, r)))
        self.Q = None if spec.N is None else fredholm_operator(spec.N, cfg, expect=("N", (n, n)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """S x, for the matrix S = I - (P^T kron I_n) Phi that the solves invert.
        With a kernel S is system_matrix, the dense matrix the LU factors, so
        this is one matrix-vector product; without one, S is not formed, and A's
        part is applied by the product rule on its coefficients and apply_pt."""
        if self.Q is not None:
            return self.system_matrix @ x
        K, M, n = self.cfg.K, self.cfg.M, self.n
        return x - apply_pt(self.cfg, _products(self.Ahat, x.reshape(K, M, n))).reshape(-1)

    # dense operators, which solve uses only for systems with a kernel

    @cached_property
    def PkronT(self) -> np.ndarray:
        return read_only(apply_pt(self.cfg, np.eye(self.cfg.K * self.cfg.M * self.n)))

    @cached_property
    def Bop(self) -> np.ndarray:
        blocks = product_blocks(self.Bhat)
        K, Mn, Mr = blocks.shape
        return read_only(_add_diagonal_blocks(np.zeros((K * Mn, K * Mr)), blocks))

    @cached_property
    def system_matrix(self) -> np.ndarray:
        Phi = _add_diagonal_blocks(self.Q.copy(), product_blocks(self.Ahat))
        return read_only(np.eye(len(Phi)) - self.PkronT @ Phi)

    @cached_property
    def _lu(self) -> LU:
        return LU(self.system_matrix[np.newaxis])

    # block march, for systems without a kernel

    @cached_property
    def _march(self) -> tuple[LU, np.ndarray]:
        """The stacked LU of every D_k and S_k as (K, n, Mn).  Each block's
        unknowns are ordered (component, degree), the transpose of the
        (degree, component) stacking, so that the copy into D runs over whole
        degree ranges; _solve transposes in and out."""
        K, M, n = self.cfg.K, self.cfg.M, self.n
        m = M * n
        w = _march_weights(M).reshape(M, -1)
        minus_half_widths = -0.5 * self.cfg.partition.width_array
        # D[k - 1] holds D_k transposed, so each D_k is Fortran-ordered, as getrf factors it
        D, S = np.empty((K, m, m)), np.empty((K, n, m))
        for rows in _chunks(K, m * m):
            # terms[k, a, b, j, p] = -(d_k/2) sum_i Ahat[k, i, a, b] w[i, j, p]
            scaled = np.moveaxis(self.Ahat[rows], 1, -1) * minus_half_widths[rows, None, None, None]
            terms = (scaled.reshape(-1, M) @ w).reshape(-1, n, n, M, M + 1)
            Dt = D[rows]  # (k, (b, j), (a, p)): entry (a, p), (b, j) of D_k
            Dt.reshape(-1, n, M, n, M)[...] = terms[..., :M].transpose(0, 2, 3, 1, 4)
            Dt.reshape(len(Dt), -1)[:, :: m + 1] += 1.0
            np.negative(terms[..., M].reshape(-1, n, m), out=S[rows])
            del scaled, terms  # before the next chunk
        return LU(D.transpose(0, 2, 1), overwrite_a=True), S  # factors D in place

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.Q is not None:
            return self._lu.solve(rhs[np.newaxis])[0]
        K, M, n = self.cfg.K, self.cfg.M, self.n
        lu, S = self._march
        x = lu.solve(rhs.reshape(K, M, n).transpose(0, 2, 1).reshape(K, -1), S,
                     slice(None, None, M))  # the carry enters at degree 0
        return x.reshape(K, n, M).transpose(0, 2, 1).reshape(-1)


@lru_cache(maxsize=None, typed=True)
def _march_weights(M: int) -> np.ndarray:
    """w[i, j, p] (coefficient degree i of A, column degree j, row p): the
    product tensor with the block integrals folded in, so that D_k and S_k
    are (d_k/2) sums over i of w times A's coefficients.  Rows p < M give
    sum_m d[i, j, m] Phat[m, p], the running integral inside the block; row
    M gives sum_m d[i, j, m] 2 v_m, its full integral.  Read-only, built
    once per M and shared for the life of the process."""
    fold = np.column_stack([build_phat(M), 2.0 * block_integral_weights(M)])  # (m, p)
    return read_only(np.einsum("ijm,mp->ijp", product_tensor(M), fold))


def _check_window(spec: SystemSpec, cfg: BasisConfig) -> None:
    """ValueError unless the basis covers the system's [t0, tf]."""
    if (cfg.partition.t0, cfg.partition.tf) != (spec.t0, spec.tf):
        raise ValueError(
            f"basis covers [{cfg.partition.t0}, {cfg.partition.tf}] "
            f"but the system lives on [{spec.t0}, {spec.tf}]"
        )


def _add_diagonal_blocks(out: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """out, a (Kp, Kq) array, with the stacked blocks (K, p, q) added onto its
    K diagonal blocks in place."""
    K, p, q = blocks.shape
    k = np.arange(K)
    out.reshape(K, p, K, q)[k, :, k, :] += blocks
    return out


def _products(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The hybrid coefficients (K, M, n_out) of M(t) f(t), by the product rule
    on coeffs (K, M, n_out, n_in), M's as expand_matrix returns them, and z
    (K, M, n_in), f's: block k's are product_blocks(coeffs)[k-1] applied to
    z[k-1], without those operators, a chunk of blocks at a time."""
    K, M, n_out, n_in = coeffs.shape
    # d[i, j, m] is symmetric in i and j, so row m of this is d[:, :, m] over (j, i)
    d = product_tensor(M).reshape(M * M, M).T
    out = np.empty((K, M, n_out))
    for rows in _chunks(K, M * M * n_out):
        # pairs[k, j, (i, a)] = sum_b z[k, j, b] coeffs[k, i, a, b]
        pairs = z[rows] @ coeffs[rows].reshape(-1, M * n_out, n_in).transpose(0, 2, 1)
        np.matmul(d, pairs.reshape(-1, M * M, n_out), out=out[rows])
    return out


def assemble(spec: SystemSpec, cfg: BasisConfig) -> AssembledSystem:
    """Expand the system data on cfg and build all coefficient-space operators."""
    return AssembledSystem(spec, cfg)


def solve(asm: AssembledSystem, u: Callable[[float], np.ndarray] | None) -> "HybridSolution":
    """Solve for the hybrid coefficients of the state under the control u.

    u is not sampled when the system has no B: the control term is zero."""
    cfg = asm.cfg
    rhs = np.zeros(cfg.K * cfg.M * asm.n)
    rhs.reshape(cfg.K, cfg.M, asm.n)[:, 0] = asm.x0  # X0hat
    if u is not None and asm.Bhat is not None:
        uhat = expand_vector(u, cfg, expect=("u", (asm.r,)))
        if asm.Q is None:
            rhs += apply_pt(cfg, _products(asm.Bhat, uhat)).reshape(-1)
        else:
            rhs += asm.PkronT @ (asm.Bop @ uhat.reshape(-1))
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
    other shape raises ValueError naming xhat, and a cfg that is not a
    BasisConfig TypeError naming cfg.
    """

    cfg: BasisConfig
    xhat: np.ndarray

    def __post_init__(self):
        if not isinstance(self.cfg, BasisConfig):
            raise TypeError(f"cfg must be a BasisConfig, got {self.cfg!r}")
        xhat = read_only(real_array("xhat", self.xhat).copy())
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
    solution's raises ValueError before anything is sampled, and a string or
    complex time in tgrid raises TypeError naming tgrid
    (basis.real_array).
    """
    quad_order = as_index("quad_order", quad_order)
    if quad_order < 1:
        raise ValueError(f"quad_order must be >= 1, got {quad_order}")
    _check_window(spec, sol.cfg)
    if spec.n != sol.xhat.shape[2]:
        raise ValueError(f"the system has n={spec.n} but the solution has n={sol.xhat.shape[2]}")
    ts = real_array("tgrid", tgrid).reshape(-1)
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
