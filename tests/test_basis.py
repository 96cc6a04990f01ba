import math
import re
import warnings

import numpy as np
import pytest

from bpcheb.basis import (
    BasisConfig,
    Partition,
    chebyshev_u_all,
    chebyshev_u_derivative_coeffs,
    chebyshev_u_eval,
    chebyshev_u_series,
    real_array,
)
from bpcheb.operational import build_p

from conftest import block_of, global_of_local, to_local


class TestPartition:
    def test_uniform(self):
        p = Partition.uniform(0.0, 1.0, 3)
        assert p.num_blocks == 3
        np.testing.assert_allclose(p.breakpoints, [0, 1 / 3, 2 / 3, 1])
        np.testing.assert_allclose(p.width_array, [1 / 3, 1 / 3, 1 / 3])

    def test_widths_cover_interval(self):
        p = Partition((0.0, 0.1, 0.25, 0.7, 1.3))
        assert all(d > 0 for d in p.width_array)
        assert math.isclose(sum(p.width_array), p.tf - p.t0, rel_tol=0, abs_tol=1e-15)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Partition((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Partition((0.0, 0.7, 0.3))

    @pytest.mark.parametrize("bp", [(0.0, math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite(self, bp):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            Partition(bp)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            Partition((1.0,))

    # t0 and tf follow SystemSpec's rule (basis.as_real): real numbers but bools, finite
    @pytest.mark.parametrize("t0,tf,error,message", [
        ("0", "1", TypeError, "t0 must be a real number, got '0'"),
        (0, "1", TypeError, "tf must be a real number, got '1'"),
        (False, 1, TypeError, "t0 must be a real number, got False"),
        (0, np.True_, TypeError, f"tf must be a real number, got {np.True_!r}"),
        (0, math.nan, ValueError, "tf must be finite, got nan"),
        (-math.inf, 1, ValueError, "t0 must be finite, got -inf"),
    ])
    def test_uniform_checks_t0_and_tf(self, t0, tf, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            BasisConfig.uniform(t0, tf, 2, 3)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Partition.uniform(t0, tf, 2)

    def test_uniform_accepts_real_numbers_of_any_kind(self):
        p = Partition.uniform(np.float32(0.5), np.int64(2), 3)
        assert p.breakpoints == (0.5, 1.0, 1.5, 2.0)

    def test_uniform_rejects_zero_blocks(self):
        with pytest.raises(ValueError, match="^need at least one block$"):
            Partition.uniform(0, 1, 0)

    @pytest.mark.parametrize("bp", [("0", "1"), (0.0, "0.5", 1.0), (0.0, 1j), (None, 1.0)])
    def test_rejects_non_real_breakpoints(self, bp):
        with pytest.raises(TypeError, match=r"^breakpoints must be real numbers, got \("):
            Partition(bp)


class TestBasisConfig:
    def test_size(self):
        # M*K hybrid functions, which P integrates
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        assert (cfg.K, cfg.M) == (3, 4)
        assert build_p(cfg).shape == (12, 12)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            BasisConfig.uniform(0, 1, 3, 0)

    # a Python bool is an int to operator.index and a numpy bool is not: both are refused
    @pytest.mark.parametrize("key,bad", [("M", 2.5), ("M", 3.0), ("M", "3"),
                                         ("num_blocks", 2.0), ("num_blocks", 1.5),
                                         ("M", True), ("M", np.True_),
                                         ("num_blocks", False), ("num_blocks", np.False_)])
    def test_rejects_non_integer_sizes(self, key, bad):
        sizes = {"num_blocks": 2, "M": 3, key: bad}
        with pytest.raises(TypeError, match=re.escape(f"{key} must be an integer, got {bad!r}")):
            BasisConfig.uniform(0, 1, sizes["num_blocks"], sizes["M"])

    def test_accepts_numpy_integers(self):
        cfg = BasisConfig.uniform(0, 1, np.int64(2), np.int32(3))
        assert (cfg.K, cfg.M) == (2, 3) and type(cfg.M) is int

    # rejected where they enter, naming the key, not by numpy or a later attribute lookup
    @pytest.mark.parametrize("make, error, message", [
        (lambda: Partition([[0, 1], [2, 3]]), ValueError,
         "breakpoints must be a 1-D sequence, got shape (2, 2)"),
        (lambda: Partition(5.0), ValueError, "breakpoints must be a 1-D sequence, got shape ()"),
        (lambda: BasisConfig("x", 3), TypeError, "partition must be a Partition, got 'x'"),
    ], ids=["2-D breakpoints", "scalar breakpoints", "partition not a Partition"])
    def test_malformed_partition_names_its_key(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()


class TestRealArray:
    def test_a_float_array_is_not_copied(self):
        # evaluation times pass here on every evaluate
        a = np.linspace(0.0, 1.0, 5)
        assert real_array("t", a) is a


class TestChebyshevU:
    @pytest.mark.parametrize(
        "m, x, expected",
        [
            (0, 0.7, 1.0),
            (1, 0.5, 1.0),
            (2, 0.5, 0.0),  # 2*0.5*(2*0.5) - 1 = 0
            (3, 1.0, 4.0),  # S_m(1) = m + 1
        ],
    )
    def test_fixed_values(self, m, x, expected):
        assert chebyshev_u_eval(m, x) == pytest.approx(expected, abs=1e-14)

    def test_recurrence_matches_closed_form(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-1, 1, size=1000) * 0.999999
        for m in range(13):
            closed = np.sin((m + 1) * np.arccos(xs)) / np.sqrt(1 - xs**2)
            rec = np.array([chebyshev_u_eval(m, x) for x in xs])
            np.testing.assert_allclose(rec, closed, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", range(13))
    def test_endpoint_values(self, m):
        assert chebyshev_u_eval(m, 1.0) == pytest.approx(m + 1, abs=1e-12)
        assert chebyshev_u_eval(m, -1.0) == pytest.approx((-1) ** m * (m + 1), abs=1e-12)

    def test_all_matches_scalar(self):
        """chebyshev_u_eval, one entry of chebyshev_u_all, equals the recurrence
        on Python floats bit for bit, and overflows as silently."""

        def scalar(m, x):
            prev, cur = 1.0, 2.0 * x
            if m == 0:
                return prev
            for _ in range(m - 1):
                prev, cur = cur, 2.0 * x * cur - prev
            return cur

        xs = np.linspace(-1.5, 1.5, 61).tolist() + [-1.0, -0.3, 0.0, 0.7, 1.0]
        for m in range(41):
            for x in xs:
                assert chebyshev_u_eval(m, x) == scalar(m, x), (m, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in range(2, 41):
                got, want = chebyshev_u_eval(m, 1e200), scalar(m, 1e200)
                assert not math.isfinite(got)
                assert got == want or (math.isnan(got) and math.isnan(want))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_u_eval(-1, 0.0)

    def test_series_clenshaw(self):
        coeffs = np.array([1.0, -2.0, 0.5, 3.0])
        for x in (-0.9, -0.3, 0.0, 0.4, 1.0):
            direct = sum(c * chebyshev_u_eval(m, x) for m, c in enumerate(coeffs))
            assert chebyshev_u_series(coeffs, x) == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3, 8, 17])
    @pytest.mark.parametrize("shape", [(), (5,), (9, 1), (4, 3)])
    def test_hoisted_two_x_is_bit_identical(self, M, shape):
        """chebyshev_u_series and chebyshev_u_all equal the recurrences written
        with 2.0 * x inside the loop, bit for bit: Python evaluates
        2.0 * x * b as (2.0 * x) * b."""
        rng = np.random.default_rng(M * 10 + len(shape))
        x = rng.uniform(-1.2, 1.2, shape)
        coeffs = rng.standard_normal((M,) + shape[1:])

        b1, b2 = np.zeros_like(coeffs[0]), np.zeros_like(coeffs[0])
        for m in range(M - 1, -1, -1):
            b1, b2 = coeffs[m] + 2.0 * x * b1 - b2, b1
        assert np.array_equal(chebyshev_u_series(coeffs, x), b1)

        flat = x.reshape(-1)
        table = np.empty((M + 1, flat.size))
        table[0] = 1.0
        table[1] = 2.0 * flat
        for m in range(1, M):
            table[m + 1] = 2.0 * flat * table[m] - table[m - 1]
        assert np.array_equal(chebyshev_u_all(M, flat), table)

    def test_derivative_coeffs_against_finite_difference(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(6)
        dcoeffs = chebyshev_u_derivative_coeffs(coeffs)
        h = 1e-6
        for x in (-0.5, 0.0, 0.3, 0.8):
            fd = (chebyshev_u_series(coeffs, x + h) - chebyshev_u_series(coeffs, x - h)) / (2 * h)
            assert chebyshev_u_series(dcoeffs, x) == pytest.approx(fd, rel=1e-7, abs=1e-6)

    def test_derivative_coeffs_vector_valued(self):
        coeffs = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        d = chebyshev_u_derivative_coeffs(coeffs)
        assert d.shape == coeffs.shape
        # column 0 is S_0 + S_2, whose derivative is 4 S_1
        np.testing.assert_allclose(d[:, 0], [0.0, 4.0, 0.0])


class TestBlockMaps:
    @pytest.fixture
    def p3(self):
        return Partition.uniform(0, 1, 3)

    def test_block_of_left_endpoint(self, p3):
        assert block_of(0.0, p3) == 1

    def test_block_of_interior_breakpoint_goes_right(self, p3):
        assert block_of(1 / 3, p3) == 2

    def test_block_of_final_time_closure(self, p3):
        assert block_of(1.0, p3) == 3

    def test_block_of_outside(self, p3):
        assert block_of(-0.01, p3) is None
        assert block_of(1.01, p3) is None
        assert block_of(math.nan, p3) is None

    def test_to_local_endpoints_and_midpoint(self, p3):
        assert to_local(0.0, 1, p3) == pytest.approx(-1.0)
        assert to_local(1 / 3, 1, p3) == pytest.approx(1.0)
        assert to_local(0.5, 2, p3) == pytest.approx(0.0)

    def test_to_local_quarter_point(self):
        p = Partition.uniform(0, 1, 2)
        assert to_local(0.25, 1, p) == pytest.approx(0.0)

    def test_to_local_rejects_outside_block(self, p3):
        with pytest.raises(ValueError, match="outside block"):
            to_local(0.5, 1, p3)

    def test_affine_round_trip(self):
        p = Partition((0.0, 0.3, 1.0))
        for k in (1, 2):
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                back = to_local(global_of_local(x, k, p), k, p)
                assert back == pytest.approx(x, abs=1e-14)

