import numpy as np
import pytest

from bpcheb.linalg import LU, SingularMatrixError, inf_norm


class TestLuSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(LU(np.eye(3)).solve(b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(LU(np.diag([2.0, 4.0])).solve([2.0, 8.0]), [1.0, 2.0])

    def test_random_system_residual(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((50, 50)) + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x = LU(a).solve(b)
        assert inf_norm(a @ x - b) <= 1e-10 * (1.0 + inf_norm(b))

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((30, 30)) + 10 * np.eye(30)
        x = rng.standard_normal(30)
        np.testing.assert_allclose(LU(a).solve(a @ x), x, rtol=0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_reports_pivot(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError, match="pivot") as excinfo:
            LU(a).solve(np.array([1.0, 1.0]))
        assert excinfo.value.pivot_index == 1

    def test_factorization_reuse(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        lu = LU(a)
        for _ in range(3):
            b = rng.standard_normal(10)
            np.testing.assert_allclose(a @ lu.solve(b), b, rtol=0, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            LU(np.zeros((2, 3)))


class TestStack:
    """A (K, m, m) stack is K independent matrices factored in one call."""

    @staticmethod
    def _stack(seed, K=6, m=7):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((K, m, m)) + 3 * np.eye(m), rng

    def test_matches_per_slice_lu_exactly(self):
        a, rng = self._stack(31)
        stack = LU(a)
        singles = [LU(block) for block in a]
        assert np.array_equal(stack._lu, np.stack([lu._lu for lu in singles]))
        assert np.array_equal(stack._piv, np.stack([lu._piv for lu in singles]))
        for b in (rng.standard_normal((6, 7)), rng.standard_normal((6, 7, 3))):
            got = stack.solve(b)
            assert got.shape == b.shape
            assert np.array_equal(got, np.stack([lu.solve(bk) for lu, bk in zip(singles, b)]))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_names_the_first_singular_block(self):
        a, _ = self._stack(37)
        a[2, :, 4] = 0.0  # blocks 3 and 5 are singular; block 3 is named
        a[4] = a[4, 0]
        with pytest.raises(SingularMatrixError, match="diagonal block 3") as excinfo:
            LU(a)
        assert excinfo.value.block == 3
        assert excinfo.value.pivot == 0.0
        with pytest.raises(SingularMatrixError) as excinfo:
            LU(a[2])
        assert excinfo.value.block is None

    def test_pivot_threshold_is_per_block(self):
        # a tiny but regular block next to a large one is not singular
        a = np.stack([1e-20 * np.eye(3), 1e20 * np.eye(3)])
        x = LU(a).solve(np.ones((2, 3)))
        np.testing.assert_allclose(x, [[1e20] * 3, [1e-20] * 3], rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a, _ = self._stack(41)
        b = np.ones((6, 7))
        a[3, 1, 2] = bad
        with pytest.raises(ValueError, match=r"infs or NaNs \(diagonal block 4\)"):
            LU(a)
        with pytest.raises(ValueError, match="infs or NaNs"):
            LU(a[3])
        lu = LU(self._stack(41)[0])
        b[5, 0] = bad
        with pytest.raises(ValueError, match="right-hand side must not contain infs or NaNs"):
            lu.solve(b)
        with pytest.raises(ValueError, match="right-hand side"):
            LU(np.eye(2)).solve([1.0, bad])

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            LU(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            LU(np.zeros((2, 2, 2, 2)))


class TestInfNorm:
    def test_vector(self):
        assert inf_norm(np.array([1.0, -3.5, 2.0])) == 3.5

    def test_matrix_row_sum(self):
        assert inf_norm(np.array([[1.0, -2.0], [3.0, 0.5]])) == 3.5

    def test_empty(self):
        assert inf_norm(np.array([])) == 0.0
