import re

import numpy as np
import pytest
import scipy.linalg

from bpcheb import linalg
from bpcheb.linalg import LU, SingularMatrixError, inf_norm

from conftest import in_threads


class TestLuSolve:
    """One matrix is factored and solved as a stack of one."""

    def test_identity(self):
        b = np.array([[3.0, -1.0, 2.0]])
        np.testing.assert_allclose(LU(np.eye(3)[np.newaxis]).solve(b), b)

    def test_diagonal(self):
        got = LU(np.diag([2.0, 4.0])[np.newaxis]).solve([[2.0, 8.0]])
        np.testing.assert_allclose(got, [[1.0, 2.0]])

    def test_random_system_residual(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((50, 50)) + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x = LU(a[np.newaxis]).solve(b[np.newaxis])[0]
        assert inf_norm(a @ x - b) <= 1e-10 * (1.0 + inf_norm(b))

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((30, 30)) + 10 * np.eye(30)
        x = rng.standard_normal(30)
        got = LU(a[np.newaxis]).solve((a @ x)[np.newaxis])[0]
        np.testing.assert_allclose(got, x, rtol=0, atol=1e-9)

    def test_singular_matrix_reports_pivot(self):
        a = np.array([[[1.0, 2.0], [2.0, 4.0]]])
        with pytest.raises(SingularMatrixError, match="pivot") as excinfo:
            LU(a)
        assert excinfo.value.pivot_index == 1
        assert excinfo.value.block == 1  # a stack of one names its one matrix

    def test_factorization_reuse(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        lu = LU(a[np.newaxis])
        for _ in range(3):
            b = rng.standard_normal(10)
            np.testing.assert_allclose(a @ lu.solve(b[np.newaxis])[0], b, rtol=0, atol=1e-10)

    def test_rejects_non_square(self):
        # a lone matrix, square or not, is not a stack: it raises, naming its shape
        for shape in [(2, 3), (3, 3), (3,), ()]:
            match = rf"stack \(K, m, m\) of square matrices, got shape {re.escape(str(shape))}"
            with pytest.raises(ValueError, match=match):
                LU(np.zeros(shape))


class TestStack:
    """A (K, m, m) stack is K independent matrices factored in one call."""

    @staticmethod
    def _stack(seed, K=6, m=7):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((K, m, m)) + 3 * np.eye(m), rng

    def test_matches_per_slice_lu_exactly(self):
        a, rng = self._stack(31)
        stack = LU(a)
        singles = [LU(block[np.newaxis]) for block in a]
        assert np.array_equal(stack._lu, np.concatenate([lu._lu for lu in singles]))
        assert np.array_equal(stack._piv, np.concatenate([lu._piv for lu in singles]))
        for b in (rng.standard_normal((6, 7)), rng.standard_normal((6, 7, 3))):
            got = stack.solve(b)
            assert got.shape == b.shape
            want = np.concatenate([lu.solve(bk[np.newaxis]) for lu, bk in zip(singles, b)])
            assert np.array_equal(got, want)

    def test_names_the_first_singular_block(self):
        a, _ = self._stack(37)
        a[2, :, 4] = 0.0  # blocks 3 and 5 are singular; block 3 is named
        a[4] = a[4, 0]
        with pytest.raises(SingularMatrixError, match="diagonal block 3") as excinfo:
            LU(a)
        assert excinfo.value.block == 3
        assert excinfo.value.pivot == 0.0
        with pytest.raises(SingularMatrixError, match="diagonal block 1") as excinfo:
            LU(a[2:3])
        assert excinfo.value.block == 1

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
        with pytest.raises(ValueError, match=r"infs or NaNs \(diagonal block 1\)"):
            LU(a[3:4])
        lu = LU(self._stack(41)[0])
        b[5, 0] = bad
        with pytest.raises(ValueError, match="right-hand side must not contain infs or NaNs"):
            lu.solve(b)
        with pytest.raises(ValueError, match="right-hand side"):
            LU(np.eye(2)[np.newaxis]).solve([[1.0, bad]])

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            LU(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            LU(np.zeros((2, 2, 2, 2)))


class TestAgainstScipy:
    """The direct getrf/getrs calls give scipy.linalg.lu_factor/lu_solve's
    factors, pivots and solutions bit for bit."""

    @staticmethod
    def _scipy_solve(a, b):
        """scipy's solution of every a_k x = b_k, with b (K, m) or (K, m, p)."""
        lu_piv = scipy.linalg.lu_factor(a, check_finite=False)
        if b.ndim == 2:
            return scipy.linalg.lu_solve(lu_piv, b[..., np.newaxis], check_finite=False)[..., 0]
        return scipy.linalg.lu_solve(lu_piv, b, check_finite=False)

    @pytest.mark.parametrize("K", [1, 5, 64])
    @pytest.mark.parametrize("m", [1, 2, 32])
    def test_stack_matches_scipy_exactly(self, K, m):
        rng = np.random.default_rng(1000 * K + m)
        a = rng.standard_normal((K, m, m)) + np.eye(m)
        lu = LU(a)
        factors, piv = scipy.linalg.lu_factor(a, check_finite=False)
        assert np.array_equal(lu._lu, factors) and np.array_equal(lu._piv, piv)
        assert all(lu_k.flags.f_contiguous for lu_k in lu._lu)
        for b in (rng.standard_normal((K, m)), rng.standard_normal((K, m, 3))):
            x = lu.solve(b)
            assert x.shape == b.shape and x.flags.c_contiguous
            assert np.array_equal(x, self._scipy_solve(a, b))

    def test_single_matrix_matches_scipy_exactly(self):
        # the dense kernel system's LU: one large matrix as a stack of one
        rng = np.random.default_rng(192)
        a = rng.standard_normal((192, 192))
        lu = LU(a[np.newaxis])
        lu_piv = scipy.linalg.lu_factor(a)
        assert np.array_equal(lu._lu[0], lu_piv[0]) and np.array_equal(lu._piv[0], lu_piv[1])
        assert lu._lu.shape == (1, 192, 192) and lu._lu[0].flags.f_contiguous
        for b in (rng.standard_normal(192), rng.standard_normal((192, 4))):
            assert np.array_equal(lu.solve(b[np.newaxis])[0], scipy.linalg.lu_solve(lu_piv, b))

    def test_fortran_ordered_input(self):
        rng = np.random.default_rng(7)
        a = np.asfortranarray(rng.standard_normal((4, 6, 6)) + 2 * np.eye(6))
        lu = LU(a)
        assert all(lu_k.flags.f_contiguous for lu_k in lu._lu)
        assert np.array_equal(lu._lu, scipy.linalg.lu_factor(a)[0])

    def test_singular_block_in_a_large_stack(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 32, 32)) + np.eye(32)
        a[40, 7] = 2.0 * a[40, 3]  # rank-deficient block 41
        with pytest.raises(SingularMatrixError, match="diagonal block 41") as excinfo:
            LU(a)
        assert excinfo.value.block == 41


class TestOverwrite:
    """LU(a, overwrite_a=True) gives LU(a)'s factors, pivots and solutions bit
    for bit, in a's own storage when its matrices are Fortran-ordered."""

    @staticmethod
    def _fortran_stack(K, m, seed):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((K, m, m)) + 2 * np.eye(m)).transpose(0, 2, 1).copy()
        return a.transpose(0, 2, 1), rng  # every slice Fortran-ordered

    @pytest.mark.parametrize("K", [1, 3, 64])
    def test_in_place_is_bit_identical_to_a_copy(self, K):
        a, rng = self._fortran_stack(K, 9, K)
        want = LU(a)
        original = a.copy()
        got = LU(a, overwrite_a=True)
        assert np.shares_memory(got._lu, a) and not np.array_equal(a, original)
        assert np.array_equal(got._lu, want._lu) and np.array_equal(got._piv, want._piv)
        b = rng.standard_normal((K, 9, 2))
        assert np.array_equal(got.solve(b), want.solve(b))

    @pytest.mark.parametrize("make", [
        lambda a: np.ascontiguousarray(a),  # C-ordered slices
        lambda a: np.asfortranarray(a),  # Fortran-ordered as a whole, not per slice
        lambda a: a[::2],  # strided
        lambda a: np.asfortranarray(a[:1]).astype(np.float32),  # another dtype
    ])
    def test_other_layouts_are_copied(self, make):
        a = make(self._fortran_stack(4, 6, 5)[0])
        before = a.copy()
        got = LU(a, overwrite_a=True)
        assert np.array_equal(a, before) and not np.shares_memory(got._lu, a)
        assert np.array_equal(got._lu, LU(a)._lu)

    def test_single_matrix_in_place(self):
        a = np.asfortranarray(self._fortran_stack(1, 12, 3)[0][0])[np.newaxis]
        want = LU(a)
        got = LU(a, overwrite_a=True)
        assert np.shares_memory(got._lu, a) and got._lu.shape == (1, 12, 12)
        assert np.array_equal(got._lu, want._lu) and np.array_equal(got._piv, want._piv)

    def test_read_only_input_is_copied(self):
        a, _ = self._fortran_stack(2, 4, 8)
        a.flags.writeable = False
        got = LU(a, overwrite_a=True)
        assert not np.shares_memory(got._lu, a) and np.array_equal(got._lu, LU(a)._lu)

    @pytest.mark.parametrize("overwrite_a", [False, True])
    def test_last_chunk_is_checked(self, overwrite_a, monkeypatch):
        # chunks of 3 blocks: block 7 is alone in the last chunk, and is named
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 3 * 5 * 5)
        a, _ = self._fortran_stack(7, 5, 13)
        bad = a.copy()
        bad[6, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"infs or NaNs \(diagonal block 7\)"):
            LU(bad, overwrite_a=overwrite_a)
        singular = a.copy()
        # column 4 = 2 * column 1, and row 3 holds the largest row sum, which
        # elimination changes: the threshold is measured before factoring
        singular[6, :, 4] = 2.0 * singular[6, :, 1]
        singular[6, 3, 2] += 50.0
        norm = np.abs(singular[6]).sum(axis=1).max()
        with pytest.raises(SingularMatrixError, match="diagonal block 7") as excinfo:
            LU(singular, overwrite_a=overwrite_a)
        assert excinfo.value.block == 7
        assert excinfo.value.threshold == pytest.approx(linalg.PIVOT_RTOL * norm, rel=1e-14, abs=0)

    def test_chunks_cover_the_stack_in_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 100)
        assert list(linalg._chunks(7, 30)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert list(linalg._chunks(2, 1000)) == [slice(0, 1), slice(1, 2)]
        assert list(linalg._chunks(0, 30)) == []


class TestRightHandSideShape:
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 4), (5,), (5, 4, 2, 1), (5, 3)])
    def test_stack_rejects(self, shape):
        lu = LU(np.stack([np.eye(4)] * 5))
        match = rf"shape \({shape[0]},.*\) does not fit the stack of shape \(5, 4, 4\)"
        with pytest.raises(ValueError, match=match):
            lu.solve(np.ones(shape))

    @pytest.mark.parametrize("shape", [(4,), (1, 3), (1, 4, 2, 1), ()])
    def test_single_matrix_rejects(self, shape):
        with pytest.raises(ValueError, match=r"does not fit the stack of shape \(1, 4, 4\)"):
            LU(np.eye(4)[np.newaxis]).solve(np.ones(shape))

    def test_accepted_shapes(self):
        assert LU(np.eye(4)[np.newaxis]).solve(np.ones((1, 4, 1))).shape == (1, 4, 1)
        assert LU(np.stack([np.eye(4)] * 5)).solve(np.ones((5, 4, 1))).shape == (5, 4, 1)

    def test_illegal_lapack_argument_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_getrf", lambda a, overwrite_a: (a, np.arange(len(a)), -4))
        with pytest.raises(ValueError, match="argument 4 of getrf"):
            LU(np.eye(3)[np.newaxis])
        monkeypatch.undo()
        lu = LU(np.eye(3)[np.newaxis])
        monkeypatch.setattr(linalg, "_getrs", lambda lu, piv, b, overwrite_b: (b, -2))
        with pytest.raises(ValueError, match="argument 2 of getrs"):
            lu.solve(np.ones((1, 3)))


class TestInfNorm:
    def test_vector(self):
        assert inf_norm(np.array([1.0, -3.5, 2.0])) == 3.5

    def test_empty(self):
        assert inf_norm(np.array([])) == 0.0


class TestThreads:
    def test_concurrent_factors_and_solves_match_one_thread_bit_for_bit(self):
        # OpenBLAS's getrf/getrs are not safe to call from two threads at once
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal((8, 6))
        shared = LU(a)
        want = shared.solve(b)

        def work():
            solves = sum(not np.array_equal(shared.solve(b), want) for _ in range(2000))
            factors = sum(not np.array_equal(LU(a).solve(b), want) for _ in range(200))
            return solves, factors

        assert in_threads(work) == [(0, 0)] * 4
