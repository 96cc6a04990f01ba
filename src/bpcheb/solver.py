"""Assembly and solution of linear integrodifferential initial-value systems.

The problem

    x'(t) = A(t) x(t) + integral over [t0, tf] of N(t, s) x(s) ds + B(t) u(t),
    x(t0) = x0,

is integrated once in time and written in hybrid coefficients, giving the
single linear system

    [I - (P^T kron I_n) Phi] Xhat = (P^T kron I_n) Bop Uhat + X0hat,

with Phi the sum of the block-diagonal product operator of A and the
Fredholm operator of N.  One LU factorization serves any number of controls:
both the control-to-state map and the free response reuse it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .basis import (
    BasisConfig,
    block_of,
    chebyshev_u_derivative_coeffs,
    chebyshev_u_series,
    to_local,
)
from .expansion import CoeffVector, build_product_matrix, expand_matrix, expand_vector, synthesize
from .kernel import fredholm_operator
from .linalg import LU, inf_norm, kron
from .operational import build_p
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
    be None, meaning identically zero.
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


def _shape_checked(f, shape: tuple[int, int], what: str):
    def wrapped(t: float) -> np.ndarray:
        val = np.atleast_2d(np.asarray(f(t), dtype=float))
        if val.shape != shape:
            raise ValueError(f"{what}({t}) has shape {val.shape}, expected {shape}")
        return val

    return wrapped


class AssembledSystem:
    """Discretized operators of one system on one basis; immutable.

    The LU factorization of I - (P^T kron I_n) Phi is computed at the first
    solve and shared by later solves (concurrent reads are safe).
    """

    def __init__(self, cfg: BasisConfig, n: int, r: int, Phi: np.ndarray,
                 PkronT: np.ndarray, Bop: np.ndarray, X0hat: CoeffVector,
                 rule: WeightedRule | None):
        for arr in (Phi, PkronT, Bop):
            arr.flags.writeable = False
        self.cfg = cfg
        self.n = n
        self.r = r
        self.Phi = Phi
        self.PkronT = PkronT
        self.Bop = Bop
        self.X0hat = X0hat
        self.rule = rule

    @cached_property
    def system_matrix(self) -> np.ndarray:
        m = np.eye(self.Phi.shape[0]) - self.PkronT @ self.Phi
        m.flags.writeable = False
        return m

    @cached_property
    def _lu(self) -> LU:
        return LU(self.system_matrix)


def assemble(spec: SystemSpec, cfg: BasisConfig, rule: WeightedRule | None = None) -> AssembledSystem:
    """Expand the system data on cfg and build all coefficient-space operators."""
    if (cfg.partition.t0, cfg.partition.tf) != (spec.t0, spec.tf):
        raise ValueError(
            f"basis covers [{cfg.partition.t0}, {cfg.partition.tf}] "
            f"but the system lives on [{spec.t0}, {spec.tf}]"
        )
    M, K, n, r = cfg.M, cfg.K, spec.n, spec.r
    size = M * K * n

    PkronT = kron(build_p(cfg).P.T, np.eye(n))

    Phi = np.zeros((size, size))
    if spec.A is not None:
        aset = expand_matrix(_shape_checked(spec.A, (n, n), "A"), cfg, rule)
        for k in range(1, K + 1):
            sl = slice((k - 1) * M * n, k * M * n)
            Phi[sl, sl] += build_product_matrix(aset, k)
    if spec.N is not None:
        Q = fredholm_operator(spec.N, cfg, rule).Q
        if Q.shape != Phi.shape:
            shape = (Q.shape[0] // (M * K), Q.shape[1] // (M * K))
            raise ValueError(f"N(t, s) has shape {shape}, expected {(n, n)}")
        Phi += Q

    Bop = np.zeros((size, M * K * r))
    if spec.B is not None:
        bset = expand_matrix(_shape_checked(spec.B, (n, r), "B"), cfg, rule)
        for k in range(1, K + 1):
            Bop[(k - 1) * M * n : k * M * n, (k - 1) * M * r : k * M * r] = build_product_matrix(
                bset, k
            )

    x0tensor = np.zeros((K, M, n))
    x0tensor[:, 0, :] = spec.x0
    return AssembledSystem(cfg, n, r, Phi, PkronT, Bop, CoeffVector.from_tensor(x0tensor), rule)


def solve(asm: AssembledSystem, u: Callable[[float], np.ndarray] | None) -> "HybridSolution":
    """Solve for the hybrid coefficients of the state under the control u."""
    cfg = asm.cfg
    rhs = asm.X0hat.data.copy()
    if u is not None:
        def u_vec(t: float) -> np.ndarray:
            val = np.atleast_1d(np.asarray(u(t), dtype=float)).reshape(-1)
            if val.size != asm.r:
                raise ValueError(f"u({t}) has {val.size} components, expected r={asm.r}")
            return val

        uhat = expand_vector(u_vec, cfg, asm.rule)
        rhs += asm.PkronT @ (asm.Bop @ uhat.data)
    xhat = asm._lu.solve(rhs)
    defect = inf_norm(asm.system_matrix @ xhat - rhs)
    bound = RESIDUAL_RTOL * (1.0 + inf_norm(rhs))
    if defect > bound:
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
        if block_of(t, self.cfg.partition) is None:
            raise ValueError(
                f"t={t} outside [{self.cfg.partition.t0}, {self.cfg.partition.tf}]"
            )
        return synthesize(self.xhat, self.cfg, t)

    def evaluate_many(self, ts: Sequence[float]) -> np.ndarray:
        return np.array([self.evaluate(t) for t in ts])

    def derivative(self, t: float) -> np.ndarray:
        """d/dt of the reconstruction, by exact per-block series differentiation."""
        p = self.cfg.partition
        k = block_of(t, p)
        if k is None:
            raise ValueError(f"t={t} outside [{p.t0}, {p.tf}]")
        dcoef = chebyshev_u_derivative_coeffs(self.xhat.block(k))
        scale = 2.0 / p.widths[k - 1]
        return scale * np.asarray(chebyshev_u_series(dcoef, to_local(t, k, p)))


def residual(spec: SystemSpec, sol: HybridSolution, tgrid: Sequence[float],
             quad_order: int = 64) -> float:
    """Max defect of the original equation over tgrid.

    The time derivative uses the exact per-block Chebyshev differentiation;
    the Fredholm term integrates the reconstructed solution with Gauss-
    Legendre quadrature on every block.
    """
    p = sol.cfg.partition
    glx, glw = np.polynomial.legendre.leggauss(quad_order)
    inner_nodes, inner_weights, inner_states = [], [], []
    if spec.N is not None:
        for k in range(1, p.num_blocks + 1):
            a, b = p.block_bounds(k)
            ts = 0.5 * ((b - a) * glx + a + b)
            inner_nodes.append(ts)
            inner_weights.append(0.5 * (b - a) * glw)
            inner_states.append(np.array([sol.evaluate(s) for s in ts]))

    worst = 0.0
    for t in tgrid:
        defect = sol.derivative(t)
        xt = sol.evaluate(t)
        if spec.A is not None:
            defect = defect - np.atleast_2d(np.asarray(spec.A(t), dtype=float)) @ xt
        if spec.N is not None:
            acc = np.zeros(spec.n)
            for ts, ws, xs in zip(inner_nodes, inner_weights, inner_states):
                kvals = np.array([np.atleast_2d(np.asarray(spec.N(t, s), dtype=float)) for s in ts])
                acc += np.einsum("q,qac,qc->a", ws, kvals, xs)
            defect = defect - acc
        if spec.B is not None and spec.u is not None:
            bt = np.atleast_2d(np.asarray(spec.B(t), dtype=float))
            ut = np.atleast_1d(np.asarray(spec.u(t), dtype=float)).reshape(-1)
            defect = defect - bt @ ut
        worst = max(worst, inf_norm(defect))
    return worst
