"""Shared reference systems and oracles.

Two closed-form benchmark systems are used throughout:

* poly_system: 2-state system with polynomial data whose exact solution is
  [t^2, t^3]; on K=3, M=4 the discretization reproduces it exactly.
* expdecay_system: 2-state system with exponential data whose exact solution
  is [exp(-t), 3 exp(-t)]; the calibrated basis uses K=4 blocks.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from bpcheb import SystemSpec, build_p, expand_vector, linalg
from bpcheb.basis import chebyshev_u_derivative_coeffs, chebyshev_u_series
from bpcheb.expansion import product_blocks
from bpcheb.operational import apply_pt
from bpcheb.solver import _products

E1 = np.exp(-1.0)


def in_threads(work, count: int = 4, timeout: float = 60.0) -> list:
    """work() run by count threads at once, with the interpreter switching
    threads every microsecond so that their calls interleave; returns the
    results, and re-raises the first exception or a TimeoutError."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = ThreadPoolExecutor(count)
    try:
        futures = [pool.submit(work) for _ in range(count)]
        return [f.result(timeout=timeout) for f in futures]
    finally:
        pool.shutdown(wait=False)
        sys.setswitchinterval(old)


def count_lapack_calls(monkeypatch) -> dict:
    """The number of linalg's getrf and getrs calls from here on, by name,
    counted by wrappers around them that monkeypatch removes."""
    calls = {"getrf": 0, "getrs": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(linalg, f"_{name}"), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(linalg, f"_{name}", counted)
    return calls


def block_of(t: float, p) -> int | None:
    """Block index k with t_{k-1} <= t < t_k; t = t_f maps to block K.

    Returns None unless t_0 <= t <= t_f (so for NaN too).
    """
    bp = p.breakpoints
    if not bp[0] <= t <= bp[-1]:
        return None
    if t == bp[-1]:
        return p.num_blocks
    # rightmost breakpoint <= t; half-open blocks make this unique
    return int(np.searchsorted(bp, t, side="right"))


def to_local(t: float, k: int, p) -> float:
    """Affine map of block k onto [-1, 1]: t_{k-1} -> -1, t_k -> +1."""
    a, b = p.breakpoints[k - 1:k + 1]
    if t < a or t > b:
        raise ValueError(f"t={t} outside block {k} = [{a}, {b}]")
    return (2.0 * t - a - b) / (b - a)


def global_of_local(x, k, p):
    """Inverse of to_local: x in [-1, 1] back to global time in block k."""
    a, b = p.breakpoints[k - 1:k + 1]
    return 0.5 * ((b - a) * x + a + b)


def reference_derivative(sol, t: float) -> np.ndarray:
    """Oracle for HybridSolution.derivative at one t: the block lookup, the
    local map and the differentiated series of that block, scaled by 2/d_k."""
    p = sol.cfg.partition
    k = block_of(t, p)
    if k is None:
        raise ValueError(f"t={t} outside [{p.t0}, {p.tf}]")
    dcoef = chebyshev_u_derivative_coeffs(sol.xhat[k - 1])
    return 2.0 / p.width_array[k - 1] * np.asarray(chebyshev_u_series(dcoef, to_local(t, k, p)))


def reference_residual(spec: SystemSpec, sol, tgrid, quad_order: int = 64) -> float:
    """Oracle for solver.residual: the defect at one t at a time, with one
    call of A, B, u and (per inner node) N per t, and the Fredholm term by
    Gauss-Legendre quadrature block by block."""
    glx, glw = np.polynomial.legendre.leggauss(quad_order)
    bp = sol.cfg.partition.breakpoints
    worst = 0.0
    for t in tgrid:
        defect = reference_derivative(sol, t)
        xt = sol.evaluate(t)
        if spec.A is not None:
            defect = defect - np.atleast_2d(np.asarray(spec.A(t), dtype=float)) @ xt
        if spec.N is not None:
            integral = 0.0
            for a, b in zip(bp[:-1], bp[1:]):
                ss = 0.5 * ((b - a) * glx + a + b)
                kv = np.array([np.atleast_2d(spec.N(t, s)) for s in ss])
                integral += np.einsum("q,qac,qc->a", 0.5 * (b - a) * glw, kv,
                                      sol.evaluate_many(ss))
            defect = defect - integral
        if spec.B is not None and spec.u is not None:
            bt = np.atleast_2d(np.asarray(spec.B(t), dtype=float))
            ut = np.atleast_1d(np.asarray(spec.u(t), dtype=float)).reshape(-1)
            defect = defect - bt @ ut
        worst = max(worst, np.abs(defect).max())
    return worst

# ten-point comparison grid and high-precision reference values for the
# exponential benchmark (14 significant digits)
EXP_TS = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
EXP_X1 = np.exp(-EXP_TS)
EXP_X2 = 3.0 * np.exp(-EXP_TS)

# calibrated block count for the exponential benchmark (see test_acceptance)
EXP_K = 4


def poly_A(t):
    return np.array([[t**2 + 1.0, -t], [0.0, 1.0]])


def poly_N(t, s):
    return np.array([[s, 3.0], [3.0 * t**2, 0.0]])


def poly_B(t):
    return np.array([[-((t - 1.0) ** 2)], [2.0 * t**2 - t**3]])


@pytest.fixture
def poly_system() -> SystemSpec:
    return SystemSpec(
        n=2, r=1, t0=0.0, tf=1.0, x0=[0.0, 0.0],
        A=poly_A, N=poly_N, B=poly_B, u=lambda t: np.array([1.0]),
    )


def expdecay_A(t):
    return np.array([[1.0, t], [t, t**2 + 1.0]])


def expdecay_N(t, s):
    return np.array(
        [[3.0 * s**2, np.exp(-t) - s**2], [3.0 * t**2 + s * np.exp(-t), -(t**2)]]
    )


def expdecay_B(t):
    return np.array([[3.0 * E1 - 5.0 - 3.0 * t], [2.0 * E1 - 7.0 - t - 3.0 * t**2]])


@pytest.fixture
def expdecay_system() -> SystemSpec:
    return SystemSpec(
        n=2, r=1, t0=0.0, tf=1.0, x0=[1.0, 3.0],
        A=expdecay_A, N=expdecay_N, B=expdecay_B,
        u=lambda t: np.array([np.exp(-t)]),
    )


def pointwise(f):
    """f on expansion.sample's pointwise path: float() of a whole grid
    raises, so the grid call is dropped and f sees one point per call."""
    return lambda *args: f(*(float(a) for a in args))


def in_order(w, terms):
    """sum over y of w[y, p] * terms[y], added one term at a time from zero."""
    total = 0.0
    for wy, term in zip(w, terms):
        total = total + np.multiply.outer(wy, term)
    return total


def rk4_reference(spec: SystemSpec, ts, step: float = 1e-4) -> np.ndarray:
    """Classic fixed-step 4th-order integrator for zero-kernel systems.

    Independent cross-check oracle; ts must be increasing and start at t0.
    """
    assert spec.N is None, "reference integrator handles ordinary systems only"

    def rhs(t, x):
        out = np.zeros_like(x)
        if spec.A is not None:
            out += np.atleast_2d(spec.A(t)) @ x
        if spec.B is not None and spec.u is not None:
            out += np.atleast_2d(spec.B(t)) @ np.atleast_1d(spec.u(t))
        return out

    x = np.asarray(spec.x0, dtype=float).copy()
    t = spec.t0
    results = []
    for target in ts:
        span = target - t
        nsteps = max(int(round(span / step)), 0)
        h = span / nsteps if nsteps else 0.0
        for _ in range(nsteps):
            k1 = rhs(t, x)
            k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = rhs(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        t = target
        results.append(x.copy())
    return np.array(results)


def x0_coefficients(asm) -> np.ndarray:
    """X0hat, the coefficients of the constant x0: x0 at degree 0 of every block."""
    x0hat = np.zeros((asm.cfg.K, asm.cfg.M, asm.n))
    x0hat[:, 0] = asm.x0
    return x0hat.reshape(-1)


def dense_reference_system(asm, u) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for solve: the dense matrix I - kron(P^T, I_n) Phi and its right-hand side.

    Phi is the block diagonal of A's product operators (product_blocks) plus
    the Fredholm operator; the control enters through kron(P^T, I_n) times the
    block diagonal of B's, and not at all without B.  Every system was solved
    this way before the block march, and kernel systems still are.
    """
    pkron = np.kron(build_p(asm.cfg).T, np.eye(asm.n))
    phi = scipy.linalg.block_diag(*product_blocks(asm.Ahat))
    if asm.Q is not None:
        phi += asm.Q
    rhs = x0_coefficients(asm)
    if u is not None and asm.Bhat is not None:
        uhat = expand_vector(lambda t: np.atleast_1d(u(t)), asm.cfg).reshape(-1)
        rhs += pkron @ (scipy.linalg.block_diag(*product_blocks(asm.Bhat)) @ uhat)
    return np.eye(rhs.size) - pkron @ phi, rhs


def structured_apply(asm, x: np.ndarray) -> np.ndarray:
    """Oracle for AssembledSystem.apply: [I - (P^T kron I_n) Phi] x without
    forming the matrix, A's part by the product rule on its coefficients
    (solver._products), Q's by one product with Q, then integrated by apply_pt."""
    K, M, n = asm.cfg.K, asm.cfg.M, asm.n
    phix = _products(asm.Ahat, x.reshape(K, M, n))
    if asm.Q is not None:
        phix += (asm.Q @ x).reshape(K, M, n)
    return x - apply_pt(asm.cfg, phix).reshape(-1)


def dense_reference_solve(asm, u) -> np.ndarray:
    """The oracle system solved by one dense LU factorization."""
    matrix, rhs = dense_reference_system(asm, u)
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), rhs)
