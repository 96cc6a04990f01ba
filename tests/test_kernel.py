import math
import os
import tracemalloc

import numpy as np
import pytest

from bpcheb import exprlang
from bpcheb import kernel as kernel_module
from bpcheb.basis import BasisConfig, Partition
from bpcheb.expansion import (
    ExpansionError,
    default_rule,
    expand_vector,
    nodes,
    product_tensor,
    sample,
    _Nodes,
)
from bpcheb.kernel import fredholm_operator
from bpcheb.operational import block_integral_weights
from bpcheb.problem import load
from bpcheb.quadrature import gauss_u_rule, projection_matrix

from conftest import expdecay_N, in_order, pointwise, poly_N

PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def oracle_fredholm_image(kernel, f, cfg, inner_order=80):
    """Independent 2-D quadrature oracle for w(t) = integral of N(t, s) f(s) ds.

    Gauss-Legendre on every block for the inner integral (a different rule
    family than the implementation uses), then the ordinary expansion of the
    resulting function of t.
    """
    glx, glw = np.polynomial.legendre.leggauss(inner_order)
    points, weights = [], []
    for k in range(1, cfg.K + 1):
        a, b = cfg.partition.breakpoints[k - 1:k + 1]
        points.append(0.5 * ((b - a) * glx + a + b))
        weights.append(0.5 * (b - a) * glw)
    points = np.concatenate(points)
    weights = np.concatenate(weights)
    fvals = np.array([np.atleast_1d(f(s)) for s in points])

    def w(t):
        kv = np.array([np.atleast_2d(kernel(t, s)) for s in points])
        return np.einsum("q,qac,qc->a", weights, kv, fvals)

    return expand_vector(w, cfg, gauss_u_rule(cfg.M + 20))


class TestBlockIntegral:
    """block_integral_weights(M)[m] is half the integral of S_m over [-1, 1]."""

    @pytest.mark.parametrize("m", range(13))
    def test_closed_form_matches_legendre(self, m):
        from bpcheb.basis import chebyshev_u_eval

        glx, glw = np.polynomial.legendre.leggauss(40)
        brute = float(np.dot(glw, [chebyshev_u_eval(m, x) for x in glx]))
        assert 2.0 * block_integral_weights(13)[m] == pytest.approx(brute, abs=1e-13)
        assert block_integral_weights(m + 1)[m] == block_integral_weights(13)[m]

    def test_odd_degrees_vanish_exactly(self):
        assert not block_integral_weights(10)[1::2].any()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            block_integral_weights(-1)


def separable_q(ahat, bhat, cfg):
    """Q of the scalar kernel a(t) b(s) from the coefficients of a and b.

    ahat and bhat have shape (K, M); the (j, l), (k, p) entry is
    (d_k / 2) * ahat[j, l] * sum over i of bhat[k, i] * g[i, p], with g the
    product tensor folded with the block integrals.
    """
    g = fold_weights(cfg.M)
    inner = 0.5 * cfg.partition.width_array[:, None] * (np.asarray(bhat) @ g)
    return np.outer(np.asarray(ahat).reshape(-1), inner.reshape(-1))


class TestProjection:
    def test_zero_scalar_kernel(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        q = fredholm_operator(lambda t, s: 0.0, cfg)
        assert q.shape == (6, 6)
        assert not q.any()

    def test_zero_matrix_kernel(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        q = fredholm_operator(lambda t, s: np.zeros((2, 2)), cfg)
        assert q.shape == (12, 12)
        assert not q.any()

    def test_constant_kernel_single_block(self):
        # only C_{00} = 1 survives; row 0 holds the integrals of S_p(2s-1)
        # over [0, 1]: 1 for p = 0, 1/3 for p = 2, 0 otherwise
        cfg = BasisConfig.uniform(0, 1, 1, 3)
        q = fredholm_operator(lambda t, s: 1.0, cfg)
        expected = np.zeros((3, 3))
        expected[0, 0], expected[0, 2] = 1.0, 1.0 / 3.0
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-13)

    def test_kernel_constant_in_inner_variable(self):
        # N(t, s) = exp(t): only the degree-0 inner coefficient survives
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        q = fredholm_operator(lambda t, s: np.array([[np.exp(t)]]), cfg)
        ahat = expand_vector(np.exp, cfg)[:, :, 0]
        expected = separable_q(ahat, [[1.0, 0, 0, 0]], cfg)
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-13)

    def test_inner_variable_kernel(self):
        # N(t, s) = s: constant in t, and s on [0, 1] is (1/2) S_0 + (1/4) S_1
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        q = fredholm_operator(lambda t, s: np.array([[s]]), cfg)
        expected = separable_q([[1.0, 0, 0, 0]], [[0.5, 0.25, 0, 0]], cfg)
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-13)

    def test_separable_kernel_is_outer_product(self):
        cfg = BasisConfig(Partition((0.0, 0.4, 1.0)), 4)
        rule = gauss_u_rule(24)
        a = lambda t: np.cos(t)
        b = lambda s: s**2 - 0.5
        q = fredholm_operator(lambda t, s: a(t) * b(s), cfg, rule)
        ahat = expand_vector(lambda t: np.array([a(t)]), cfg, rule)[:, :, 0]
        bhat = expand_vector(lambda s: np.array([b(s)]), cfg, rule)[:, :, 0]
        np.testing.assert_allclose(q, separable_q(ahat, bhat, cfg), rtol=0, atol=1e-12)


def fold_weights(M):
    """g[i, p]: the product tensor folded with the block integrals."""
    return np.einsum("ipm,m->ip", product_tensor(M), 2.0 * block_integral_weights(M))


def einsum_fredholm_q(kernel, cfg, rule):
    """Reference Q by the einsum formula: the inner and the outer projection
    per outer block, then the fold, as three unoptimized np.einsum calls on
    one sample of the whole grid."""
    proj = projection_matrix(cfg.M - 1, rule)
    grid = nodes(cfg, rule)
    vals = sample(kernel, grid, "kernel", 2, t=grid)
    data = np.array([np.einsum("lx,xkiac->lkiac", proj, np.einsum("my,xkyac->xkmac", proj, slab))
                     for slab in vals])
    out = np.einsum("jlkiac,ip->jlakpc", data, fold_weights(cfg.M))
    out *= 0.5 * cfg.partition.width_array[None, None, None, :, None, None]
    size = cfg.K * cfg.M
    return out.reshape(size * data.shape[4], size * data.shape[5])


def pointwise_fredholm_q(kernel, cfg, rule):
    """Reference Q by one inner projection per (outer node, inner block).

    Same sums as fredholm_operator, each added in index order, one point at a
    time, so the two must agree exactly.
    """
    proj = projection_matrix(cfg.M - 1, rule)
    grid = nodes(cfg, rule)
    g = fold_weights(cfg.M)
    half_widths = 0.5 * cfg.partition.width_array
    rows = []
    for ts in grid:
        # inner[x, k] = (m, a, c) coefficients in s for outer node x, inner block k
        inner = np.array([
            [in_order(proj.T, np.array([np.atleast_2d(kernel(t, s)) for s in ss])) for ss in grid]
            for t in ts
        ])
        data = in_order(proj.T, inner)  # (l, k, i, a, c)
        fold = in_order(g, data.transpose(2, 0, 3, 1, 4))  # (p, l, a, k, c)
        rows.append(fold.transpose(1, 2, 3, 0, 4) * half_widths[:, None, None])
    size = cfg.K * cfg.M
    return np.array(rows).reshape(size * data.shape[3], -1)


def random_kernel(rng, shape):
    """A smooth kernel of value shape `shape` with random coefficients, that
    broadcasts over arrays of t and s."""
    c = rng.uniform(-1.0, 1.0, size=(3,) + shape)
    outer = np.multiply.outer
    return lambda t, s: np.cos(outer(c[0], t) + outer(c[1], s)) * np.exp(outer(c[2], t * s))


def random_config(rng, K):
    inner = np.sort(rng.uniform(0.05, 0.95, K - 1))
    return BasisConfig(Partition((0.0, *inner, 1.0)), int(rng.integers(3, 13)))


class TestEinsumReference:
    """fredholm_operator adds its sums in unoptimized einsum's order, so Q is
    bit-identical to the einsum formula for every kernel with two or more
    entries.  numpy could change einsum's loops; the golden CLI outputs rest
    on this test."""

    @staticmethod
    def check(kernel, cfg):
        rule = default_rule(cfg)
        got = fredholm_operator(kernel, cfg, rule)
        want = einsum_fredholm_q(kernel, cfg, rule)
        if got.shape == (cfg.K * cfg.M,) * 2:  # scalar kernel: einsum picks another loop
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("K,M", [(None, None), (8, 12)])
    @pytest.mark.parametrize("name", ["exp_decay_ivp.prob", "polynomial_ivp.prob"])
    def test_problem_file_kernels(self, name, K, M):
        problem = load(os.path.join(PROBLEMS_DIR, name)).with_overrides(K=K, M=M)
        self.check(problem.system_spec().N, problem.basis_config())

    def test_benchmark_kernel(self):
        # the fredholm_solve workload: exp-decay kernel, K=8, M=12, jittered blocks
        rng = np.random.default_rng(804)
        bp = np.arange(9) / 8
        bp[1:-1] += rng.uniform(-0.3, 0.3, 7) / 8
        self.check(expdecay_N, BasisConfig(Partition(tuple(bp)), 12))

    @pytest.mark.parametrize("K", [1, 2, 5, 8, 16])
    @pytest.mark.parametrize("shape", [(), (1, 1), (1, 2), (1, 3), (2, 2), (3, 3), (4, 4)])
    def test_random_kernels(self, shape, K):
        rng = np.random.default_rng([K, *shape])
        self.check(random_kernel(rng, shape), random_config(rng, K))

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_several_chunks(self, monkeypatch, shape):
        rng = np.random.default_rng(7)
        cfg = random_config(rng, 5)
        q = len(default_rule(cfg).nodes)
        monkeypatch.setattr(kernel_module, "_CHUNK_NODES", 2 * q * cfg.K * q)  # 2, 2 and 1 blocks
        self.check(random_kernel(rng, shape), cfg)


class TestSampling:
    @pytest.mark.parametrize("kernel,bp,M", [
        (expdecay_N, (0.0, 1 / 3, 2 / 3, 1.0), 4),
        (poly_N, (0.0, 0.25, 1.0), 5),
        (lambda t, s: np.array([[t, s, t * s], [np.exp(t - s), 1.0, s**2]]),
         (-0.5, 0.1, 0.3, 1.2), 3),
        (lambda t, s: np.cos(t * s), (0.0, 2.0), 6),
    ])
    def test_matches_pointwise_reference_exactly(self, kernel, bp, M):
        cfg = BasisConfig(Partition(bp), M)
        rule = default_rule(cfg)
        want = pointwise_fredholm_q(kernel, cfg, rule)
        assert np.array_equal(fredholm_operator(pointwise(kernel), cfg, rule), want)
        # the einsum formula sums in another loop for scalar kernels
        np.testing.assert_allclose(einsum_fredholm_q(pointwise(kernel), cfg, rule), want,
                                   rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("kernel,bp,M", [
        (expdecay_N, (0.0, 1 / 3, 2 / 3, 1.0), 4),
        (expdecay_N, (0.0, 0.1, 0.45, 0.5, 1.0), 12),
        (lambda t, s: np.cos(t * s) + s**3, (0.0, 2.0), 6),
    ])
    def test_grid_path_matches_pointwise_reference(self, kernel, bp, M):
        # numpy rounds some array powers and functions differently from scalar ones
        cfg = BasisConfig(Partition(bp), M)
        rule = default_rule(cfg)
        want = pointwise_fredholm_q(kernel, cfg, rule)
        np.testing.assert_allclose(fredholm_operator(kernel, cfg, rule), want,
                                   rtol=0, atol=1e-13 * np.abs(want).max())

    def test_kernel_called_once_per_grid_point(self):
        cfg = BasisConfig(Partition((0.0, 0.3, 1.0)), 4)
        q = len(default_rule(cfg).nodes)
        calls = []

        def kernel(t, s):  # scalar-only: math.sin of a whole grid raises
            val = math.sin(t) * s
            calls.append((t, s))
            return np.array([[val]])

        fredholm_operator(kernel, cfg)
        assert len(calls) == (cfg.K * q) ** 2
        assert len(set(calls)) == len(calls)

    def test_ragged_kernel_sampled_per_node_in_every_chunk_matches_the_grid_path(
            self, monkeypatch):
        # with one outer block per chunk, float() fails both grid calls of every
        # chunk, so each is sampled per node
        cfg = BasisConfig(Partition((0.0, 0.3, 0.55, 1.0)), 4)
        q = len(default_rule(cfg).nodes)
        calls = []

        def ragged(t, s):
            calls.append(type(t))
            t, s = float(t), float(s)
            return np.array([[1.0, t * s], [s, t - s]])

        broadcasting = lambda t, s: np.array([[np.ones_like(t * s), t * s],  # noqa: E731
                                              [s + 0 * t, t - s]])
        with monkeypatch.context() as m:
            m.setattr(kernel_module, "_CHUNK_NODES", q * cfg.K * q)
            got = fredholm_operator(ragged, cfg)
        assert calls.count(np.float64) == (cfg.K * q) ** 2
        assert calls.count(np.ndarray) == calls.count(_Nodes) == cfg.K  # one per chunk
        assert np.array_equal(got, fredholm_operator(broadcasting, cfg))

    def test_shape_change_in_a_later_chunk_names_t_and_s(self, monkeypatch):
        # every chunk is consistent in itself; only the first chunk's shape,
        # handed on to the later ones, tells that block 3 is misshapen
        cfg = BasisConfig(Partition((0.0, 0.3, 0.7, 1.0)), 4)
        grid = nodes(cfg, default_rule(cfg))
        q = grid.shape[1]

        def kernel(t, s):
            rows = 1 if np.min(t) > 0.7 else 2
            return np.ones((rows, 2) + np.shape(t * s))

        monkeypatch.setattr(kernel_module, "_CHUNK_NODES", q * cfg.K * q)
        t, s = grid[2, 0], grid[0, 0]  # the first node of the chunk of block 3
        where = rf"\(t={t}, s={s}\) \(inner block 1\)"
        misfit = rf"kernel\({t}, {s}\) has shape \(1, 2\), expected \(2, 2\)"
        with pytest.raises(ExpansionError, match=rf"^kernel failed at {where}: {misfit}$"):
            fredholm_operator(kernel, cfg)

    @pytest.mark.parametrize("grid_call", [True, False])
    def test_complex_kernel_names_t_s_and_inner_block(self, grid_call):
        cfg = BasisConfig(Partition((0.0, 0.3, 0.55, 1.0)), 4)
        grid = nodes(cfg, default_rule(cfg))
        s = grid[1][np.argmax(grid[1] > 0.4)]  # the first bad inner node: block 2
        kernel = lambda t, s: np.array([[1.0 + 0 * t, 2j * (s > 0.4)]])  # noqa: E731
        where = rf"\(t={grid[0, 0]}, s={s}\) \(inner block 2\)"
        with pytest.raises(ExpansionError, match=rf"^kernel is 2j at {where}: data must be real$"):
            fredholm_operator(kernel if grid_call else pointwise(kernel), cfg)

    def test_kernel_failure_names_t_and_s(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)

        def bad(t, s):
            if s > 0.5:
                raise ArithmeticError("nope")
            return 1.0

        # the first failing sample: the first outer node, the first node of block 2
        grid = nodes(cfg, default_rule(cfg))
        where = rf"\(t={grid[0, 0]}, s={grid[1, 0]}\) \(inner block 2\): nope"
        with pytest.raises(ExpansionError, match=f"kernel failed at {where}"):
            fredholm_operator(bad, cfg)

    @pytest.mark.parametrize("late", [np.zeros((2, 1)), 0.0])
    def test_kernel_shape_change_names_t_and_s(self, late):
        # a preallocated slab would broadcast these silently
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        kernel = lambda t, s: late if t > 0.6 and s > 0.6 else np.ones((2, 2))
        expected = r"\(t=.*, s=.*\) .* has shape .* expected \(2, 2\)"
        with pytest.raises(ExpansionError, match=expected):
            fredholm_operator(kernel, cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_kernel_names_t_s_and_inner_block(self, bad):
        cfg = BasisConfig(Partition((0.0, 0.3, 0.55, 1.0)), 4)
        grid = nodes(cfg, default_rule(cfg))
        ts = grid.reshape(-1)
        t = ts[np.argmax((ts > 0.5) & (ts < 0.7))]  # the first outer time where N is bad
        s = grid[1][np.argmax(grid[1] > 0.4)]  # its first bad inner node: block 2
        kernel = lambda t, s: np.where((t > 0.5) & (t < 0.7) & (s > 0.4), bad, 1.0 + 0 * s)
        where = rf"\(t={t}, s={s}\) \(inner block 2\)"
        with pytest.raises(ExpansionError, match=rf"^kernel is {bad} at {where}$"):
            fredholm_operator(kernel, cfg)

    def test_grid_kernel_failing_at_one_interior_node_is_named(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        grid = nodes(cfg, default_rule(cfg))
        c = float(grid[1, 2])  # 1/(s - c) fails only where s is this node of block 2
        compiled = exprlang.as_function(exprlang.parse(f"1/(s-{c!r})"))
        shapes = []

        def kernel(t, s):
            shapes.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
            return compiled(t, s)

        where = rf"\(t={grid[0, 0]}, s={c}\) \(inner block 2\): division by zero"
        with pytest.raises(ExpansionError, match=f"kernel failed at {where}"):
            fredholm_operator(kernel, cfg)
        q = grid.shape[1]
        # one grid call for all outer blocks, then points
        assert shapes[0] == (3, q, 3, q) and set(shapes[1:]) == {()}

    def test_grid_kernel_called_once_per_chunk(self):
        cfg = BasisConfig(Partition((0.0, 0.3, 0.7, 1.0)), 4)
        calls = []

        def kernel(t, s):
            calls.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
            return np.array([[t * s, np.cos(t - s)]])

        q = len(default_rule(cfg).nodes)
        got = fredholm_operator(kernel, cfg)
        # all outer blocks fit in one chunk: the grid, then the two probes
        assert calls == [(cfg.K, q, cfg.K, q), (), ()]
        assert np.array_equal(got, fredholm_operator(pointwise(kernel), cfg))

    def test_chunks_give_the_same_operator(self, monkeypatch):
        cfg = BasisConfig(Partition((0.0, 0.15, 0.3, 0.7, 0.8, 1.0)), 4)
        q = len(default_rule(cfg).nodes)
        calls = []

        def kernel(t, s):
            calls.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
            return np.array([[t * s, np.cos(t - s)]])

        one_chunk = fredholm_operator(kernel, cfg)
        calls.clear()
        # room for two outer blocks and part of a third: chunks of 2, 2 and 1
        monkeypatch.setattr(kernel_module, "_CHUNK_NODES", 3 * q * cfg.K * q - 1)
        got = fredholm_operator(kernel, cfg)
        assert calls == [(j, q, cfg.K, q) if i == 0 else () for j in (2, 2, 1) for i in range(3)]
        assert np.array_equal(got, one_chunk)
        assert np.array_equal(got, fredholm_operator(pointwise(kernel), cfg))

    def test_chunks_leave_what_the_kernel_returned_alone(self, monkeypatch):
        # a scalar kernel's grid samples are a view of the array it returned,
        # which the next chunk must not overwrite
        cfg = BasisConfig(Partition((0.0, 0.3, 0.55, 1.0)), 4)
        q = len(default_rule(cfg).nodes)
        returned = []

        def kernel(t, s):
            v = np.exp(-t * s)
            returned.append((v, np.copy(v)))
            return v

        monkeypatch.setattr(kernel_module, "_CHUNK_NODES", q * cfg.K * q)
        got = fredholm_operator(kernel, cfg)
        assert len(returned) == 3 * cfg.K
        assert all(np.array_equal(v, kept) for v, kept in returned)
        assert np.array_equal(got, fredholm_operator(pointwise(kernel), cfg))

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_non_finite_kernel_in_the_last_chunk_is_named(self, monkeypatch, chunk):
        # chunk 1: one outer block per call, the last (block 5) its own chunk
        cfg = BasisConfig(Partition((0.0, 0.15, 0.3, 0.7, 0.8, 1.0)), 4)
        grid = nodes(cfg, default_rule(cfg))
        t, s = grid[4, 2], grid[1, 3]
        kernel = lambda u, v: np.where((u == t) & (v == s), math.nan, u * v)  # noqa: E731
        if chunk is not None:
            monkeypatch.setattr(kernel_module, "_CHUNK_NODES", chunk)
        where = rf"\(t={t}, s={s}\) \(inner block 2\)"
        with pytest.raises(ExpansionError, match=rf"^kernel is nan at {where}$"):
            fredholm_operator(kernel, cfg)

    def test_kernel_singular_at_endpoint(self):
        # ln(s) raises at s = 0, which no Gauss node reaches; w(t) is the
        # integral of ln(s) over [0, 1] = -1 on every block
        ln_s = exprlang.as_function(exprlang.parse("ln(s)"))
        with pytest.raises(exprlang.ExprEvalError):
            ln_s(0.0, 0.0)
        cfg = BasisConfig.uniform(0, 1, 4, 6)
        q = fredholm_operator(ln_s, cfg)
        what = (q @ expand_vector(lambda t: 1.0, cfg).reshape(-1)).reshape(cfg.K, cfg.M, 1)
        np.testing.assert_allclose(what[:, 0, 0], -1.0, rtol=0, atol=1e-2)


class TestFredholmOperator:
    def test_zero_kernel_gives_zero_operator(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        q = fredholm_operator(lambda t, s: np.zeros((2, 2)), cfg)
        assert not q.any()
        fhat = expand_vector(lambda t: np.array([1.0, -2.0]), cfg)
        assert not (q @ fhat.reshape(-1)).any()

    @pytest.mark.parametrize("K,M", [(1, 3), (2, 4), (3, 5)])
    def test_unit_kernel_unit_input(self, K, M):
        # w(t) = integral of 1 over [0, 1] = 1
        cfg = BasisConfig.uniform(0, 1, K, M)
        q = fredholm_operator(lambda t, s: 1.0, cfg)
        fhat = expand_vector(lambda t: 1.0, cfg)
        what = q @ fhat.reshape(-1)
        np.testing.assert_allclose(what, expand_vector(lambda t: 1.0, cfg).reshape(-1), atol=1e-12)

    def test_inner_variable_kernel_unit_input(self):
        # w(t) = integral of s ds over [0, 1] = 1/2
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        q = fredholm_operator(lambda t, s: s, cfg)
        what = q @ expand_vector(lambda t: 1.0, cfg).reshape(-1)
        np.testing.assert_allclose(
            what, expand_vector(lambda t: 0.5, cfg).reshape(-1), atol=1e-12
        )
        oracle = oracle_fredholm_image(lambda t, s: np.array([[s]]), lambda s: 1.0, cfg)
        np.testing.assert_allclose(what, oracle.reshape(-1), atol=1e-12)

    def test_oracle_equivalence_reference_kernels(self, ):
        # the two benchmark kernels against the 2-D quadrature oracle
        cfg = BasisConfig.uniform(0, 1, 3, 8)
        for kernel in (poly_N, expdecay_N):
            q = fredholm_operator(kernel, cfg)
            f = lambda s: np.array([0.3 - s, 1.0 + 0.5 * s])
            fhat = expand_vector(f, cfg)
            got = q @ fhat.reshape(-1)
            want = oracle_fredholm_image(kernel, f, cfg)
            assert np.max(np.abs(got - want.reshape(-1))) <= 1e-9

    def test_oracle_equivalence_random_polynomial_kernels(self):
        # kernels of degree <= M-2 in each variable; inputs chosen so the
        # inner product stays inside the basis (see ledger note on degrees)
        rng = np.random.default_rng(21)
        cfg = BasisConfig(Partition((0.0, 0.35, 1.0)), 6)
        polyval = np.polynomial.polynomial.polyval
        for trial in range(20):
            p = int(rng.integers(0, cfg.M - 1))  # kernel inner degree <= M-2
            q_deg = int(rng.integers(0, cfg.M - p))  # p + q <= M-1
            kc = rng.uniform(-1, 1, size=(p + 1, cfg.M - 1))  # (s-degree, t-degree)
            fc = rng.uniform(-1, 1, size=(q_deg + 1,))
            kernel = lambda t, s, kc=kc: polyval(t, polyval(s, kc))
            f = lambda s, fc=fc: polyval(s, fc)
            qop = fredholm_operator(kernel, cfg)
            got = qop @ expand_vector(f, cfg).reshape(-1)
            want = oracle_fredholm_image(
                lambda t, s: np.array([[kernel(t, s)]]), f, cfg
            )
            assert np.max(np.abs(got - want.reshape(-1))) <= 1e-9

    def test_truncation_boundary_documented(self):
        # N = s^2 against f = s^2 at M=4 overflows the basis: the dropped
        # even block integral contributes exactly 1/1280
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        q = fredholm_operator(lambda t, s: s**2, cfg)
        got = q @ expand_vector(lambda s: s**2, cfg).reshape(-1)
        exact = expand_vector(lambda t: 0.2, cfg)  # integral of s^4 over [0,1]
        assert np.max(np.abs(got - exact.reshape(-1))) == pytest.approx(1 / 1280, rel=1e-10)

    def test_separable_kernel_has_rank_one(self):
        cfg = BasisConfig.uniform(0, 1, 2, 5)
        q = fredholm_operator(lambda t, s: np.sin(t) * (1.0 + s), cfg)
        svals = np.linalg.svd(q, compute_uv=False)
        assert svals[1] <= 1e-10 * svals[0]

    def test_linearity_witness(self):
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        q = fredholm_operator(poly_N, cfg)
        f1 = expand_vector(lambda t: np.array([t, 1.0]), cfg)
        f2 = expand_vector(lambda t: np.array([1.0 - t, t * t]), cfg)
        combo = 2.0 * (q @ f1.reshape(-1)) - 3.0 * (q @ f2.reshape(-1))
        mixed = q @ (2.0 * f1.reshape(-1) - 3.0 * f2.reshape(-1))
        np.testing.assert_allclose(mixed, combo, atol=1e-14)

    def test_peak_memory_stays_near_the_size_of_q(self):
        # no (K, M, K, M, n, n) intermediate next to Q: per-block einsums
        # into a full data tensor peaked at 3.2 times Q.nbytes here
        cfg = BasisConfig.uniform(0, 1, 32, 16)
        tracemalloc.start()
        try:
            q = fredholm_operator(expdecay_N, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * q.nbytes
