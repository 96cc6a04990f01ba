import numpy as np
import pytest

from bpcheb.basis import (
    BasisConfig,
    Partition,
    block_of,
    chebyshev_u_eval,
    chebyshev_u_series,
    global_of_local,
    to_local,
)
from bpcheb.expansion import (
    CoeffVector,
    ExpansionError,
    default_rule,
    expand_matrix,
    expand_vector,
    nodes,
    product_blocks,
    product_coeff,
    product_tensor,
    sample,
    synthesize,
)
from bpcheb.quadrature import gauss_u_rule

from conftest import poly_A


class TestCoeffVector:
    def test_layout_contract(self):
        K, M, n = 3, 4, 2
        tensor = np.arange(K * M * n, dtype=float).reshape(K, M, n)
        cv = CoeffVector.from_tensor(tensor)
        for k in range(1, K + 1):
            for m in range(M):
                for c in range(n):
                    flat = CoeffVector.flat_index(k, m, c, M, n)
                    assert cv.data[flat] == tensor[k - 1, m, c]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            CoeffVector(np.zeros(5), K=2, M=2, n=2)

    def test_zeros(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        cv = CoeffVector.zeros(cfg, 2)
        assert cv.data.shape == (12,)
        assert not cv.data.any()


class TestNodesAndSample:
    def test_nodes_pull_back_to_every_block(self):
        cfg = BasisConfig(Partition((0.0, 0.25, 0.6, 1.0)), 4)
        rule = default_rule(cfg)
        grid = nodes(cfg, rule)
        assert grid.shape == (3, len(rule.nodes))
        for k in (1, 2, 3):
            for x, t in zip(rule.nodes, grid[k - 1]):
                assert t == global_of_local(x, k, cfg.partition)

    def test_sample_stacks_by_block_and_node(self):
        grid = np.array([[0.1, 0.2], [0.6, 0.9]])
        got = sample(lambda t: [t, 2 * t], grid, "vector function", 1)
        np.testing.assert_array_equal(got, np.stack([grid, 2 * grid], axis=-1))
        kern = sample(lambda t, s: t - s, grid, "kernel", 2, t=0.5)
        np.testing.assert_array_equal(kern, (0.5 - grid)[:, :, None, None])

    def test_sample_shape_change_names_the_point(self):
        grid = np.array([[0.1, 0.2], [0.6, 0.9]])
        f = lambda t: [1.0, 2.0] if t < 0.5 else [1.0]
        expected = r"t=0.6 \(block 2\) has shape \(1,\), expected \(2,\)"
        with pytest.raises(ExpansionError, match=expected):
            sample(f, grid, "vector function", 1)


class TestExpandScalarBlock:
    """Scalar functions through expand_vector, checked block by block."""

    def test_constant(self):
        cfg = BasisConfig.uniform(0, 2, 3, 5)
        coeffs = expand_vector(lambda t: 1.0, cfg).tensor()[:, :, 0]
        np.testing.assert_allclose(coeffs, [[1, 0, 0, 0, 0]] * 3, atol=1e-14)

    def test_linear_single_block(self):
        # t on [0, 1] pulls back to (x+1)/2 = (1/2) S_0 + (1/4) S_1
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        coeffs = expand_vector(lambda t: t, cfg).block(1)[:, 0]
        np.testing.assert_allclose(coeffs, [0.5, 0.25, 0, 0], atol=1e-14)

    def test_quadratic_reconstructs(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        coeffs = expand_vector(lambda t: t**2, cfg).block(1)[:, 0]
        for x in np.linspace(-1, 1, 50):
            t = global_of_local(x, 1, cfg.partition)
            val = sum(c * chebyshev_u_eval(m, x) for m, c in enumerate(coeffs))
            assert val == pytest.approx(t**2, abs=1e-13)

    def test_evaluation_failure_carries_context(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)

        def bad(t):
            if t > 0.5:
                raise ArithmeticError("boom")
            return 1.0

        with pytest.raises(ExpansionError, match=r"failed at t=.* \(block 2\): boom"):
            expand_vector(bad, cfg)


class TestExpandVector:
    def test_zero_function(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        cv = expand_vector(lambda t: np.array([0.0, 0.0]), cfg)
        assert not cv.data.any()

    def test_constant_control(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        cv = expand_vector(lambda t: np.array([1.0]), cfg)
        tensor = cv.tensor()
        np.testing.assert_allclose(tensor[:, 0, 0], 1.0, atol=1e-14)
        np.testing.assert_allclose(tensor[:, 1:, 0], 0.0, atol=1e-14)

    def test_exponential_pair_reconstructs(self):
        cfg = BasisConfig.uniform(0, 1, 4, 9)
        cv = expand_vector(lambda t: np.array([np.exp(-t), 3 * np.exp(-t)]), cfg)
        ts = np.linspace(0, 1, 100)
        worst = max(
            np.max(np.abs(synthesize(cv, cfg, t) - np.array([np.exp(-t), 3 * np.exp(-t)])))
            for t in ts
        )
        assert worst < 1e-9

    def test_scalar_return_accepted(self):
        cfg = BasisConfig.uniform(0, 1, 1, 3)
        cv = expand_vector(lambda t: 2.5, cfg)
        assert cv.n == 1
        np.testing.assert_allclose(cv.tensor()[0, :, 0], [2.5, 0, 0], atol=1e-14)


class TestExpandMatrix:
    def test_identity(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.eye(2), cfg)
        for k in range(2):
            np.testing.assert_allclose(mset.blocks[k, 0], np.eye(2), atol=1e-14)
            np.testing.assert_allclose(mset.blocks[k, 1:], 0.0, atol=1e-14)

    def test_zero(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.zeros((2, 2)), cfg)
        assert not mset.blocks.any()

    def test_polynomial_matrix_reconstructs(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        mset = expand_matrix(poly_A, cfg)
        for t in np.linspace(0, 1, 60):
            k = min(int(t * 3) + 1, 3)
            a, b = cfg.partition.block_bounds(k)
            x = (2 * t - a - b) / (b - a)
            rec = sum(
                mset.blocks[k - 1, m] * chebyshev_u_eval(m, x) for m in range(4)
            )
            np.testing.assert_allclose(rec, poly_A(t), rtol=0, atol=1e-13)


class TestProductCoeff:
    def test_degree_zero_factor(self):
        for j in range(6):
            for m in range(6):
                assert product_coeff(0, j, m) == (1.0 if m == j else 0.0)

    def test_s1_squared(self):
        # S_1^2 = S_0 + S_2
        assert product_coeff(1, 1, 0) == 1.0
        assert product_coeff(1, 1, 2) == 1.0
        assert product_coeff(1, 1, 1) == 0.0

    def test_2_3_1(self):
        assert product_coeff(2, 3, 1) == 1.0

    def test_oracle_equivalence_up_to_degree_10(self):
        rule = gauss_u_rule(64)
        for i in range(11):
            for j in range(11):
                si = chebyshev_u_eval
                integrand = (2 / np.pi) * rule.weights
                vals_i = np.array([si(i, x) for x in rule.nodes])
                vals_j = np.array([si(j, x) for x in rule.nodes])
                for m in range(11):
                    vals_m = np.array([si(m, x) for x in rule.nodes])
                    brute = float(np.dot(integrand, vals_i * vals_j * vals_m))
                    assert abs(product_coeff(i, j, m) - brute) <= 1e-12

    def test_symmetry_and_binary_values(self):
        d = product_tensor(8).d
        np.testing.assert_allclose(d, np.swapaxes(d, 0, 1), atol=0)
        assert set(np.unique(d)) <= {0.0, 1.0}

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError):
            product_coeff(-1, 0, 0)


class TestBuildProductMatrix:
    def test_identity_matrix_function(self):
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        mset = expand_matrix(lambda t: np.eye(3), cfg)
        for k in (1, 2):
            np.testing.assert_allclose(product_blocks(mset)[k - 1], np.eye(12), atol=1e-13)

    def test_scalar_constant(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.array([[2.5]]), cfg)
        np.testing.assert_allclose(product_blocks(mset)[0], 2.5 * np.eye(3), atol=1e-13)

    def test_t_times_t_single_block(self):
        # on [-1, 1]: t * t = t^2 = (1/4) S_0 + (1/4) S_2
        cfg = BasisConfig(Partition((-1.0, 1.0)), 4)
        mset = expand_matrix(lambda t: np.array([[t]]), cfg)
        fhat = expand_vector(lambda t: np.array([t]), cfg)
        got = product_blocks(mset)[0] @ fhat.block(1).reshape(-1)
        direct = expand_vector(lambda t: np.array([t * t]), cfg).block(1).reshape(-1)
        np.testing.assert_allclose(got, direct, atol=1e-12)
        np.testing.assert_allclose(direct, [0.25, 0, 0.25, 0], atol=1e-13)

    def test_product_consistency_random_polynomials(self):
        rng = np.random.default_rng(5)
        cfg = BasisConfig(Partition((0.0, 0.4, 1.0)), 5)
        rule = gauss_u_rule(cfg.M + 20)
        polyval = np.polynomial.polynomial.polyval
        for _ in range(20):
            mc = rng.uniform(-1, 1, size=(cfg.M - 1, 2, 2))  # degree <= M-2
            fc = rng.uniform(-1, 1, size=(cfg.M - 1, 2))
            mfun = lambda t, mc=mc: polyval(t, mc)
            ffun = lambda t, fc=fc: polyval(t, fc)
            mset = expand_matrix(mfun, cfg, rule)
            fhat = expand_vector(ffun, cfg, rule)
            prod = expand_vector(lambda t: mfun(t) @ ffun(t), cfg, rule)
            for k in (1, 2):
                got = product_blocks(mset)[k - 1] @ fhat.block(k).reshape(-1)
                np.testing.assert_allclose(got, prod.block(k).reshape(-1), rtol=0, atol=1e-10)

    def test_truncation_matches_projection_of_exact_product(self):
        # degree M-1 factors: the product overflows the basis, but the
        # operator must still produce the first M exact-expansion coefficients
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        rule = gauss_u_rule(cfg.M + 20)
        mfun = lambda t: np.array([[t**3 + 0.5 * t]])
        ffun = lambda t: np.array([t**3 - 1.0])
        mset = expand_matrix(mfun, cfg, rule)
        fhat = expand_vector(ffun, cfg, rule)
        prod = expand_vector(lambda t: mfun(t) @ ffun(t), cfg, rule)
        for k in (1, 2):
            got = product_blocks(mset)[k - 1] @ fhat.block(k).reshape(-1)
            np.testing.assert_allclose(got, prod.block(k).reshape(-1), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("K,M,shape", [(1, 1, (1, 1)), (3, 4, (2, 2)), (5, 7, (2, 1)),
                                           (8, 12, (3, 2)), (16, 16, (2, 2))])
    def test_matches_per_block_reference(self, K, M, shape):
        # the batched einsum sums in the same order as one einsum per block
        rng = np.random.default_rng(K * M)
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, K - 1)), [1.0]])
        cfg = BasisConfig(Partition(tuple(bp)), M)
        phase = rng.uniform(0, 3, shape)
        mset = expand_matrix(lambda t: np.cos(phase * t) + t * t, cfg)
        d = product_tensor(M).d
        got = product_blocks(mset)
        assert got.shape == (K, M * shape[0], M * shape[1])
        for k in range(K):
            hat = np.einsum("ijm,iab->majb", d, mset.blocks[k])
            assert np.array_equal(got[k], hat.reshape(M * shape[0], M * shape[1]))

    def test_dimension_mismatch(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.eye(2), cfg)
        fhat = expand_vector(lambda t: np.array([1.0, 2.0, 3.0]), cfg)
        with pytest.raises(ValueError):
            product_blocks(mset)[0] @ fhat.block(1).reshape(-1)


class TestSynthesize:
    def test_reconstructs_per_block_polynomials(self):
        rng = np.random.default_rng(9)
        cfg = BasisConfig(Partition((0.0, 0.25, 0.6, 1.0)), 5)
        tensor = rng.uniform(-1, 1, size=(3, 5, 2))
        cv = CoeffVector.from_tensor(tensor)
        # evaluate the same per-block series directly
        for t in np.linspace(0, 1, 40):
            k = next(
                k for k in range(1, 4)
                if cfg.partition.breakpoints[k - 1] <= t
                and (t < cfg.partition.breakpoints[k] or k == 3)
            )
            a, b = cfg.partition.block_bounds(k)
            x = (2 * t - a - b) / (b - a)
            direct = sum(
                tensor[k - 1, m] * chebyshev_u_eval(m, x) for m in range(5)
            )
            np.testing.assert_allclose(synthesize(cv, cfg, t), direct, atol=1e-12)

    def test_expand_then_synthesize_is_identity_on_basis_polynomials(self):
        cfg = BasisConfig.uniform(0, 2, 2, 4)
        f = lambda t: np.array([0.3 * t**3 - t + 1.0])
        cv = expand_vector(f, cfg)
        for t in np.linspace(0, 2, 60):
            np.testing.assert_allclose(synthesize(cv, cfg, t), f(t), rtol=0, atol=1e-12)

    def test_many_times_match_pointwise_reference_exactly(self):
        # reference: the per-point block lookup, local map and Clenshaw sum
        rng = np.random.default_rng(12)
        cfg = BasisConfig(Partition((0.0, 0.25, 0.6, 1.0)), 6)
        cv = CoeffVector.from_tensor(rng.uniform(-1, 1, size=(3, 6, 2)))
        ts = np.concatenate([cfg.partition.breakpoints, rng.uniform(0, 1, 40)])
        got = synthesize(cv, cfg, ts)
        assert got.shape == (ts.size, 2)
        for t, row in zip(ts, got):
            k = block_of(t, cfg.partition)
            expected = chebyshev_u_series(cv.block(k), to_local(t, k, cfg.partition))
            assert np.array_equal(row, expected)
        assert synthesize(cv, cfg, ts.reshape(2, -1)).shape == (2, ts.size // 2, 2)

    def test_zero_outside_domain(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        cv = expand_vector(lambda t: np.array([1.0]), cfg)
        np.testing.assert_allclose(synthesize(cv, cfg, 1.5), [0.0])
        np.testing.assert_allclose(synthesize(cv, cfg, [-0.5, 0.5, 1.5]), [[0.0], [1.0], [0.0]])
