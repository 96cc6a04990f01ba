import numpy as np
import pytest

from bpcheb.linalg import LU, SingularMatrixError, inf_norm, kron


class TestKron:
    def test_identity_left(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = kron(np.eye(2), b)
        expected = np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        np.testing.assert_allclose(got, expected)

    def test_unit_matrix_placement(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = kron(np.array([[0.0, 1.0], [0.0, 0.0]]), b)  # E_12
        assert not got[:2, :2].any()
        np.testing.assert_allclose(got[:2, 2:], b)
        assert not got[2:, :].any()

    def test_hand_expansion(self):
        got = kron(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(got, [[3.0, 6.0], [4.0, 8.0]])

    def test_mixed_product_property(self):
        rng = np.random.default_rng(13)
        a, c = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        b, d = rng.standard_normal((2, 2)), rng.standard_normal((2, 4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_dimension_overflow_guard(self):
        # zero-stride inputs: the guard must fire before anything is allocated
        huge = np.broadcast_to(0.0, (40000, 40000))
        with pytest.raises(ValueError, match="entries"):
            kron(huge, huge)


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


class TestInfNorm:
    def test_vector(self):
        assert inf_norm(np.array([1.0, -3.5, 2.0])) == 3.5

    def test_matrix_row_sum(self):
        assert inf_norm(np.array([[1.0, -2.0], [3.0, 0.5]])) == 3.5

    def test_empty(self):
        assert inf_norm(np.array([])) == 0.0
