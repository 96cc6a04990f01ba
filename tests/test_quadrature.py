import math

import numpy as np
import pytest

from bpcheb.basis import chebyshev_u_all, chebyshev_u_eval
from bpcheb.quadrature import gauss_u_rule, projection_matrix


def project_scalar(f, m, rule):
    """Oracle: the coefficient of S_m in f, (2/pi) * sum_i w_i f(x_i) S_m(x_i),
    one call of f per node.

    Exact when f is a polynomial with deg f + m <= 2n - 1 for the n-point rule.
    """
    fx = np.array([f(x) for x in rule.nodes], dtype=float)
    sm = chebyshev_u_all(m, rule.nodes)[m]
    return float((2.0 / np.pi) * np.dot(rule.weights, fx * sm))


class TestGaussURule:
    def test_one_point_rule(self):
        rule = gauss_u_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [math.pi / 2], atol=1e-15)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            gauss_u_rule(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 40])
    def test_weights_integrate_weight_function(self, n):
        rule = gauss_u_rule(n)
        assert rule.weights.sum() == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_odd_moment_vanishes(self, n):
        rule = gauss_u_rule(n)
        assert abs(np.dot(rule.weights, rule.nodes)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_nodes_strictly_decreasing_in_open_interval(self, n):
        rule = gauss_u_rule(n)
        assert np.all(np.diff(rule.nodes) < 0)
        assert np.all(np.abs(rule.nodes) < 1)

    def test_even_moment_closed_form(self):
        # integral of x^2 sqrt(1-x^2) over [-1, 1] is pi/8
        rule = gauss_u_rule(2)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(math.pi / 8, abs=1e-15)

    def test_polynomial_exactness_degree_2n_minus_1(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            coeffs = rng.standard_normal(2 * n)  # degree 2n-1
            poly = np.polynomial.Polynomial(coeffs)
            rule = gauss_u_rule(n)
            big = gauss_u_rule(n + 20)
            approx = np.dot(rule.weights, poly(rule.nodes))
            ref = np.dot(big.weights, poly(big.nodes))
            assert approx == pytest.approx(ref, abs=1e-12)


class TestProjectScalar:
    def test_constant_projects_to_s0(self):
        rule = gauss_u_rule(12)
        assert project_scalar(lambda x: 1.0, 0, rule) == pytest.approx(1.0, abs=1e-14)
        assert project_scalar(lambda x: 1.0, 2, rule) == pytest.approx(0.0, abs=1e-14)

    def test_identity_projects_to_half_s1(self):
        # x = (1/2) S_1, so the degree-1 coefficient must be 1/2; pinned by
        # the 64-point brute-force rule before being frozen here
        oracle = project_scalar(lambda x: x, 1, gauss_u_rule(64))
        assert oracle == pytest.approx(0.5, abs=1e-14)
        assert project_scalar(lambda x: x, 1, gauss_u_rule(9)) == pytest.approx(0.5, abs=1e-14)

    def test_orthonormality_matrix_is_identity(self):
        M = 13
        rule = gauss_u_rule(M)
        gram = np.empty((M, M))
        for i in range(M):
            for j in range(M):
                gram[i, j] = project_scalar(lambda x, i=i: chebyshev_u_eval(i, x), j, rule)
        np.testing.assert_allclose(gram, np.eye(M), rtol=0, atol=1e-12)

    def test_node_count_independence_for_polynomials(self):
        rng = np.random.default_rng(11)
        for n in (6, 9):
            for m in (0, 2, 5):
                deg = 2 * n - 1 - m
                poly = np.polynomial.Polynomial(rng.standard_normal(deg + 1))
                a = project_scalar(poly, m, gauss_u_rule(n))
                b = project_scalar(poly, m, gauss_u_rule(n + 5))
                assert a == pytest.approx(b, abs=1e-12)

    def test_parity_selection(self):
        rule = gauss_u_rule(20)
        even = lambda x: math.cos(3 * x)
        odd = lambda x: x**3 - 0.2 * x
        for m in (1, 3, 5):
            assert abs(project_scalar(even, m, rule)) <= 1e-13
        for m in (0, 2, 4):
            assert abs(project_scalar(odd, m, rule)) <= 1e-13

    def test_projection_matrix_consistency(self):
        rule = gauss_u_rule(10)
        proj = projection_matrix(4, rule)
        f = lambda x: x**2 - 0.3 * x + 1.0
        samples = np.array([f(x) for x in rule.nodes])
        stacked = proj @ samples
        for m in range(5):
            assert stacked[m] == pytest.approx(project_scalar(f, m, rule), abs=1e-14)
