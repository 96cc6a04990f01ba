"""Manufactured polynomial solutions: the forcing is derived in exact arithmetic.

For a polynomial state x of degree at most M-1, a polynomial A of degree at
most M-1 and a separable kernel N(t, s) = sum of C_ij t^i s^j with i <= M-1
and j <= M-1-deg x, every term of the integrated equation is a polynomial the
hybrid basis represents, and the product and Fredholm operators project it
exactly.  With u = 1 and B = x' - A x - integral of N x ds, computed with
Fraction, the solver must reproduce x up to rounding: within 1e-12, or within
N eps kappa_1 for an ill-conditioned draw, where N = KMn and kappa_1 is numpy's
1-norm condition number of the system matrix.  A draw whose system matrix numpy
finds singular may raise SingularMatrixError instead.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bpcheb import BasisConfig, Partition, SingularMatrixError, SystemSpec, assemble, solve

from conftest import dense_reference_system


def _fractions(draw, shape, num, den):
    """An object array of Fractions k/den, |k| <= num."""
    ks = draw(st.lists(st.integers(-num, num), min_size=int(np.prod(shape)),
                       max_size=int(np.prod(shape))))
    return np.array([Fraction(k, den) for k in ks], dtype=object).reshape(shape)


def _forcing(x, A, C, t0, tf):
    """B = x' - A x - integral over [t0, tf] of N(t, s) x(s) ds, exactly.

    Coefficients run along axis 0 (power of t): x is (dx+1, n), A is
    (da+1, n, n), C is (I, J, n, n) for the powers t^i s^j.  Returns
    (deg+1, n) Fractions."""
    dx, n = x.shape[0] - 1, x.shape[1]
    deg = max(dx + A.shape[0] - 1, C.shape[0] - 1, 0)
    B = np.full((deg + 1, n), Fraction(0), dtype=object)
    for k in range(1, dx + 1):
        B[k - 1] += k * x[k]
    for p in range(A.shape[0]):
        for q in range(dx + 1):
            B[p + q] -= A[p].dot(x[q])
    # m[j, b] = integral of s^j x_b(s) ds over [t0, tf]
    m = np.array([
        sum(x[q] * (tf ** (j + q + 1) - t0 ** (j + q + 1)) / (j + q + 1) for q in range(dx + 1))
        for j in range(C.shape[1])
    ], dtype=object).reshape(C.shape[1], n)
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            B[i] -= C[i, j].dot(m[j])
    return B


def _as_float(c):
    return np.array(c.tolist(), dtype=float)


@st.composite
def _systems(draw):
    """(spec, cfg, coefficients of x as floats)."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 4))
    M = draw(st.integers(1, 8))
    t0 = Fraction(draw(st.integers(-2, 2)), 2)
    tf = t0 + draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    inner = sorted(draw(st.lists(st.integers(1, 99), min_size=K - 1, max_size=K - 1, unique=True)))
    breakpoints = [t0] + [t0 + (tf - t0) * Fraction(i, 100) for i in inner] + [tf]
    cfg = BasisConfig(Partition(tuple(float(b) for b in breakpoints)), M)

    dx = draw(st.integers(0, M - 1))
    x = _fractions(draw, (dx + 1, n), 4, 2)
    A = _fractions(draw, (draw(st.integers(1, M)), n, n), 2, 2 * n)
    with_kernel = draw(st.booleans())
    C = _fractions(draw, (draw(st.integers(1, M)), draw(st.integers(1, M - dx)), n, n), 1, 4 * n)
    if not with_kernel:
        C = C[:0, :0]
    B = _forcing(x, A, C, t0, tf)

    Af, Bf, Cf = _as_float(A), _as_float(B)[..., np.newaxis], _as_float(C)

    def N(t, s):
        t, s = np.broadcast_arrays(t, s)
        return npoly.polyval2d(t, s, Cf)

    spec = SystemSpec(
        n=n, r=1, t0=float(t0), tf=float(tf),
        x0=_as_float(sum(x[k] * t0**k for k in range(dx + 1))),
        A=lambda t: npoly.polyval(t, Af),
        B=lambda t: npoly.polyval(t, Bf),
        N=N if with_kernel else None,
        u=lambda t: np.ones((1,) + np.shape(t)),
    )
    return spec, cfg, _as_float(x)


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_solver_reproduces_polynomial_solution(system):
    spec, cfg, x = system
    asm = assemble(spec, cfg)
    # the matrix the solve inverts, formed by the dense oracle with or without a kernel
    S = dense_reference_system(asm, None)[0]
    kappa = np.linalg.cond(S, 1)  # inf when numpy cannot invert S
    try:
        sol = solve(asm, spec.u)
    except SingularMatrixError:
        assert np.linalg.matrix_rank(S) < len(S) or kappa >= 1 / np.finfo(float).eps
        return
    ts = np.concatenate([np.linspace(spec.t0, spec.tf, 17), cfg.partition.breakpoint_array])
    exact = npoly.polyval(ts, x).T  # (len(ts), n)
    scale = 1.0 + np.abs(exact).max()
    tol = max(1e-12, len(S) * np.finfo(float).eps * kappa)
    assert np.abs(sol.evaluate(ts) - exact).max() <= tol * scale
