import numpy as np
import pytest

from bpcheb.basis import BasisConfig, Partition
from bpcheb.expansion import expand_vector
from bpcheb.operational import apply_pt, block_integral_weights, build_p, build_phat, pt_parts
from bpcheb.quadrature import gauss_u_rule
from bpcheb.solver import SystemSpec, assemble

from test_quadrature import project_scalar


def loop_built_p(cfg):
    """Oracle for build_p: P filled entry by entry from its definition.

    Diagonal blocks (d_i/2) Phat; every later block j > i gets block i's full
    integral d_i/(m+1) for even degree m in its degree-0 column.
    """
    M, K = cfg.M, cfg.K
    widths = cfg.partition.width_array
    phat = build_phat(M)
    P = np.zeros((M * K, M * K))
    for i in range(K):
        P[i * M : (i + 1) * M, i * M : (i + 1) * M] = 0.5 * widths[i] * phat
    rows = np.arange(0, M, 2)  # even degrees
    for i in range(K):
        for j in range(i + 1, K):
            P[i * M + rows, j * M] = widths[i] * (1.0 / (rows + 1.0))
    return P


def random_cfg(rng, K, M):
    t0 = rng.uniform(-2, 2)
    edges = np.sort(rng.uniform(t0, t0 + 3, size=K - 1))
    return BasisConfig(Partition((t0, *edges, t0 + 3)), M)


class TestBuildPhat:
    def test_m1(self):
        np.testing.assert_allclose(build_phat(1), [[1.0]])

    def test_m2(self):
        np.testing.assert_allclose(build_phat(2), [[1.0, 0.5], [-0.75, 0.0]])

    def test_m3(self):
        expected = [[1.0, 0.5, 0.0], [-0.75, 0.0, 0.25], [1 / 3, -1 / 6, 0.0]]
        np.testing.assert_allclose(build_phat(3), expected)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_phat(0)

    @pytest.mark.parametrize("m", range(11))
    def test_rows_match_antiderivative_projection(self, m):
        # row m+1 of Phat holds the degree-truncated coefficients of the
        # antiderivative of S_m on [-1, 1]; verified against quadrature
        M = 12
        phat = build_phat(M)
        rule = gauss_u_rule(40)
        s_m = np.polynomial.Polynomial(_chebu_poly_coeffs(m))
        antideriv = s_m.integ()
        for j in range(M):
            coeff = project_scalar(lambda x: antideriv(x) - antideriv(-1.0), j, rule)
            assert phat[m, j] == pytest.approx(coeff, abs=1e-12)


def _chebu_poly_coeffs(m: int) -> np.ndarray:
    """Power-basis coefficients of S_m, by the recurrence."""
    prev = np.array([1.0])
    cur = np.array([0.0, 2.0])
    if m == 0:
        return prev
    for _ in range(m - 1):
        nxt = np.zeros(cur.size + 1)
        nxt[1:] = 2.0 * cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return cur


class TestBuildP:
    def test_single_block(self):
        cfg = BasisConfig.uniform(0, 1, 1, 2)
        np.testing.assert_allclose(build_p(cfg), [[0.5, 0.25], [-0.375, 0.0]])

    def test_two_blocks_m1(self):
        cfg = BasisConfig.uniform(0, 1, 2, 1)
        np.testing.assert_allclose(build_p(cfg), [[0.25, 0.5], [0.0, 0.25]])

    def test_lower_block_triangle_vanishes(self):
        cfg = BasisConfig(Partition((0.0, 0.2, 0.5, 1.0)), 4)
        P = build_p(cfg)
        M = 4
        for i in range(3):
            for j in range(i):
                assert not P[i * M : (i + 1) * M, j * M : (j + 1) * M].any()

    def test_diagonal_blocks_scale_phat(self):
        cfg = BasisConfig(Partition((0.0, 0.2, 1.0)), 3)
        P = build_p(cfg)
        phat = build_phat(3)
        np.testing.assert_allclose(P[:3, :3], 0.5 * 0.2 * phat)
        np.testing.assert_allclose(P[3:, 3:], 0.5 * 0.8 * phat)

    def test_off_diagonal_column_structure(self):
        cfg = BasisConfig(Partition((0.0, 0.3, 0.7, 1.0)), 5)
        P = build_p(cfg)
        M = 5
        for i in range(3):
            for j in range(i + 1, 3):
                blk = P[i * M : (i + 1) * M, j * M : (j + 1) * M]
                assert not blk[:, 1:].any()
                d_i = cfg.partition.width_array[i]
                expected = np.array([d_i / (m + 1) if m % 2 == 0 else 0.0 for m in range(M)])
                np.testing.assert_allclose(blk[:, 0], expected)


def _random_per_block_poly(rng, cfg, deg, n):
    """Per-block polynomial (possibly discontinuous) and its running integral."""
    coeffs = [rng.uniform(-1, 1, size=(deg + 1, n)) for _ in range(cfg.K)]
    polys = [[np.polynomial.Polynomial(c[:, i]) for i in range(n)] for c in coeffs]

    def f(t):
        k = _find_block(t, cfg)
        return np.array([p(t) for p in polys[k - 1]])

    # accumulate block integrals so the antiderivative is continuous
    offsets = [np.zeros(n)]
    for k in range(1, cfg.K + 1):
        a, b = cfg.partition.breakpoints[k - 1:k + 1]
        ints = np.array([p.integ()(b) - p.integ()(a) for p in polys[k - 1]])
        offsets.append(offsets[-1] + ints)

    def integral(t):
        k = _find_block(t, cfg)
        a, _ = cfg.partition.breakpoints[k - 1:k + 1]
        part = np.array([p.integ()(t) - p.integ()(a) for p in polys[k - 1]])
        return offsets[k - 1] + part

    return f, integral


def _find_block(t, cfg):
    bp = cfg.partition.breakpoints
    for k in range(1, cfg.K + 1):
        if t < bp[k] or k == cfg.K:
            return k
    return cfg.K


class TestIntegrationProperty:
    @pytest.mark.parametrize("M,K", [(3, 1), (4, 2), (5, 3), (6, 4), (8, 2)])
    def test_integral_coefficients_by_transpose(self, M, K):
        rng = np.random.default_rng(100 * M + K)
        edges = np.sort(rng.uniform(0.1, 0.9, size=K - 1)) if K > 1 else np.array([])
        cfg = BasisConfig(Partition((0.0, *edges, 1.0)), M)
        P = build_p(cfg)
        rule = gauss_u_rule(M + 20)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            f, integral = _random_per_block_poly(rng, cfg, M - 2, n)
            fhat = expand_vector(f, cfg, rule)
            ihat = expand_vector(integral, cfg, rule)
            got = np.kron(P.T, np.eye(n)) @ fhat.reshape(-1)
            np.testing.assert_allclose(got, ihat.reshape(-1), rtol=0, atol=1e-11)

    def test_degree_m_minus_1_projection_equality(self):
        # top-degree inputs truncate; the transpose map still equals the
        # projection of the true integral, within a width-scaled tolerance
        cfg = BasisConfig(Partition((0.0, 0.5, 1.0)), 4)
        rng = np.random.default_rng(77)
        P = build_p(cfg)
        rule = gauss_u_rule(30)
        f, integral = _random_per_block_poly(rng, cfg, cfg.M - 1, 1)
        fhat = expand_vector(f, cfg, rule)
        ihat = expand_vector(integral, cfg, rule)
        tol = 1e-11 * cfg.partition.width_array.max() + 1e-12
        np.testing.assert_allclose(P.T @ fhat.reshape(-1), ihat.reshape(-1), rtol=0,
                                   atol=max(tol, 1e-11))

    def test_matrix_is_read_only(self):
        P = build_p(BasisConfig.uniform(0, 1, 2, 2))
        with pytest.raises(ValueError):
            P[0, 0] = 5.0


class TestDenseFromApplyPt:
    """P and P^T kron I_n are apply_pt of identities, equal to the loop-built P."""

    @pytest.mark.parametrize("K", [1, 2, 7])
    @pytest.mark.parametrize("M", [1, 2, 5, 12])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exactly_equal_to_loop_built_oracle(self, K, M, n):
        cfg = random_cfg(np.random.default_rng(100 * K + 10 * M + n), K, M)
        oracle = loop_built_p(cfg)
        assert np.array_equal(build_p(cfg), oracle)
        p = cfg.partition
        asm = assemble(SystemSpec(n, 1, p.t0, p.tf, np.zeros(n)), cfg)
        assert np.array_equal(asm.PkronT, np.kron(oracle.T, np.eye(n)))


class TestApplyPt:
    @pytest.mark.parametrize("M,K,n", [(1, 1, 1), (3, 1, 2), (4, 2, 1), (5, 3, 3), (8, 6, 2)])
    def test_matches_kron_oracle(self, M, K, n):
        rng = np.random.default_rng(10 * M + K + n)
        edges = np.sort(rng.uniform(0.1, 1.9, size=K - 1))
        cfg = BasisConfig(Partition((0.0, *edges, 2.0)), M)
        z = rng.standard_normal(M * K * n)
        expected = np.kron(loop_built_p(cfg).T, np.eye(n)) @ z
        np.testing.assert_allclose(apply_pt(cfg, z), expected, rtol=0, atol=1e-14)

    def test_keeps_shape_and_columns(self):
        # a (K, M, n, c) stack is c independent coefficient vectors
        rng = np.random.default_rng(3)
        cfg = BasisConfig(Partition((0.0, 0.3, 0.5, 1.0)), 4)
        z = rng.standard_normal((3, 4, 2, 5))
        got = apply_pt(cfg, z)
        assert got.shape == z.shape
        pkron = np.kron(loop_built_p(cfg).T, np.eye(2))
        for c in range(5):
            np.testing.assert_allclose(got[..., c].reshape(-1), pkron @ z[..., c].reshape(-1),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(30))
    def test_parts_match_einsum_oracle_on_random_shapes(self, seed):
        # oracle: pt_parts as two einsums; the matmuls sum in another order,
        # so random coefficients can differ in the last bit
        rng = np.random.default_rng(seed)
        K, M, n, c = (int(v) for v in rng.integers(1, [9, 20, 4, 6], endpoint=True))
        cfg = random_cfg(rng, K, M)
        z = rng.standard_normal((K, M, n, c)[: int(rng.integers(2, 4, endpoint=True))])
        d = cfg.partition.width_array.reshape((K,) + (1,) * (z.ndim - 2))
        within = np.einsum("pm,kp...->km...", build_phat(M), z) * (0.5 * d[:, np.newaxis])
        totals = d * np.einsum("m,km...->k...", block_integral_weights(M), z)
        got_within, got_totals = pt_parts(cfg, z)
        assert got_within.shape == within.shape and got_totals.shape == totals.shape
        tol = 1e-13 * np.abs(z).max()
        np.testing.assert_allclose(got_within, within, rtol=0, atol=tol)
        np.testing.assert_allclose(got_totals, totals, rtol=0, atol=tol)

    def test_parts(self):
        # totals are the full block integrals: d_k times the even-degree weights 1/(m+1)
        cfg = BasisConfig(Partition((0.0, 0.25, 1.0)), 3)
        z = np.arange(6.0).reshape(2, 3, 1)
        within, totals = pt_parts(cfg, z)
        np.testing.assert_allclose(totals, [[0.25 * (0 + 2 / 3)], [0.75 * (3 + 5 / 3)]])
        np.testing.assert_allclose(within[1, :, 0], 0.375 * build_phat(3).T @ z[1, :, 0])
