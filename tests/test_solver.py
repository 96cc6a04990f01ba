import dataclasses
import itertools
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from bpcheb import exprlang, linalg, solver
from bpcheb.problem import load
from bpcheb import kernel as kernel_module
from bpcheb.basis import BasisConfig, Partition
from bpcheb.expansion import ExpansionError, _Nodes, expand_vector, product_blocks
from bpcheb.linalg import LU, SingularMatrixError, inf_norm
from bpcheb.solver import (
    HybridSolution, SolveError, SystemSpec, assemble, hybrid_solve, residual, solve,
)

from conftest import (
    EXP_K,
    EXP_TS,
    count_lapack_calls,
    dense_reference_solve,
    dense_reference_system,
    expdecay_A,
    in_threads,
    pointwise,
    reference_derivative,
    reference_residual,
    rk4_reference,
    structured_apply,
    x0_coefficients,
)


def _manufactured_B(t):
    """With expdecay_A, no kernel and u = exp(-t): exact solution [exp(-t), 3 exp(-t)]."""
    return np.array([[-2.0 - 3.0 * t], [-6.0 - t - 3.0 * t**2]])


def _decay_u(t):
    return np.array([np.exp(-t)])


class TestSystemSpec:
    def test_validates_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            SystemSpec(n=0, r=1, t0=0, tf=1, x0=[])
        with pytest.raises(ValueError, match="tf > t0"):
            SystemSpec(n=1, r=1, t0=1, tf=1, x0=[0.0])
        with pytest.raises(ValueError, match="components"):
            SystemSpec(n=2, r=1, t0=0, tf=1, x0=[0.0])

    @pytest.mark.parametrize("key,value", [
        ("t0", math.nan), ("t0", -math.inf), ("tf", math.inf), ("tf", math.nan),
        ("x0", [math.nan]), ("x0", [math.inf]),
    ])
    def test_rejects_non_finite(self, key, value):
        fields = dict(n=1, r=1, t0=0.0, tf=1.0, x0=[0.0])
        fields[key] = value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            SystemSpec(**fields)

    # a bool is an int to numbers.Real, but not a time, as it is not a size
    @pytest.mark.parametrize("key,value", [("t0", False), ("tf", True),
                                           ("t0", np.False_), ("tf", np.True_)])
    def test_rejects_bool_times(self, key, value):
        fields = dict(n=1, r=1, t0=0.0, tf=2.0, x0=[0.0])
        fields[key] = value
        with pytest.raises(TypeError, match=re.escape(f"{key} must be a real number, got {value!r}")):
            SystemSpec(**fields)

    def test_rejects_a_bool_interval_naming_t0(self):
        with pytest.raises(TypeError, match="^t0 must be a real number, got False$"):
            SystemSpec(1, 1, False, True, [0.0])

    @pytest.mark.parametrize("key,value", [("n", 1.5), ("n", 1.0), ("r", 2.0), ("r", "1"),
                                           ("n", True), ("n", np.True_), ("r", True), ("r", np.True_)])
    def test_rejects_non_integer_dimensions(self, key, value):
        fields = dict(n=1, r=1, t0=0.0, tf=1.0, x0=[0.0])
        fields[key] = value
        with pytest.raises(TypeError, match=f"{key} must be an integer, got {value!r}"):
            SystemSpec(**fields)

    def test_accepts_numpy_integer_dimensions(self):
        spec = SystemSpec(n=np.int64(2), r=np.int32(1), t0=0, tf=1, x0=[0.0, 1.0])
        assert (spec.n, spec.r) == (2, 1) and type(spec.n) is int

    def test_x0_read_only(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0])
        with pytest.raises(ValueError):
            spec.x0[0] = 2.0

    @pytest.mark.parametrize("key,value", [
        ("t0", "0"), ("tf", "1"), ("t0", None), ("tf", np.array([1.0])), ("t0", 1j),
        ("x0", [1 + 1j, 2.0]), ("x0", ["a", 1.0]), ("x0", ["1", "2"]), ("x0", [None, 1.0]),
    ])
    def test_rejects_non_real_input_naming_the_key(self, key, value):
        fields = dict(n=2, r=1, t0=0.0, tf=1.0, x0=[1.0, 2.0])
        fields[key] = value
        with pytest.raises(TypeError, match=f"^{key} must be (a real number|real numbers), got "):
            SystemSpec(**fields)

    def test_accepts_real_numbers_of_any_kind(self):
        spec = SystemSpec(n=3, r=1, t0=np.float32(0.5), tf=2, x0=[True, np.int8(2), 0.25])
        assert (spec.t0, spec.tf) == (0.5, 2.0)
        assert type(spec.t0) is float and type(spec.tf) is float
        assert spec.x0.dtype == float and spec.x0.tolist() == [1.0, 2.0, 0.25]


class TestAssemble:
    def test_empty_system(self):
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, -2.0])
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        asm = assemble(spec, cfg)
        assert asm.Ahat.shape == (2, 3, 2, 2) and not asm.Ahat.any()
        assert asm.Bhat is None and asm.Q is None
        sol = solve(asm, None)
        np.testing.assert_allclose(sol.xhat[:, 0, :], [[1.0, -2.0]] * 2, atol=1e-12)
        np.testing.assert_allclose(sol.xhat[:, 1:, :], 0.0, atol=1e-12)

    def test_constant_scalar_a_gives_scaled_identity_blocks(self):
        a = 1.7
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], A=lambda t: np.array([[a]]))
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        asm = assemble(spec, cfg)
        np.testing.assert_allclose(product_blocks(asm.Ahat), [a * np.eye(4)] * 2, atol=1e-12)

    def test_basis_domain_mismatch(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=2, x0=[0.0])
        with pytest.raises(ValueError, match="lives on"):
            assemble(spec, BasisConfig.uniform(0, 1, 2, 3))

    def test_shape_mismatch_reported(self):
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[0.0, 0.0], A=lambda t: np.eye(3))
        with pytest.raises(Exception, match="shape"):
            assemble(spec, BasisConfig.uniform(0, 1, 2, 3))

    def test_kernel_shape_mismatch_names_n(self):
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[0.0, 0.0], N=lambda t, s: np.eye(3))
        message = (r"^N failed at \(t=(.*), s=(.*)\) \(inner block 1\): "
                   r"N\(\1, \2\) has shape \(3, 3\), expected \(2, 2\)$")
        with pytest.raises(ExpansionError, match=message):
            assemble(spec, BasisConfig.uniform(0, 1, 2, 3))

    def test_control_failure_names_t_and_block(self):
        # ln(t-0.5) fails on the first block's nodes, all below 0.5
        ln = exprlang.as_function(exprlang.parse("ln(t-0.5)"))
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]]),
                          u=lambda t: np.array([ln(t)]))
        with pytest.raises(ExpansionError, match=r"failed at t=.* \(block 1\): .*ln"):
            hybrid_solve(spec, BasisConfig.uniform(0, 1, 2, 3))


class TestSolve:
    def test_pure_integrator(self):
        # x' = u with u = 1 and x(0) = 0 has solution t = (1/2)S_0 + (1/4)S_1
        spec = SystemSpec(
            n=1, r=1, t0=0, tf=1, x0=[0.0],
            B=lambda t: np.array([[1.0]]), u=lambda t: np.array([1.0]),
        )
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        sol = hybrid_solve(spec, cfg)
        np.testing.assert_allclose(sol.xhat.reshape(-1), [0.5, 0.25, 0, 0], atol=1e-12)

    def test_constant_solution(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[3.25])
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 3, 4))
        for k in (1, 2, 3):
            np.testing.assert_allclose(sol.xhat[k - 1][:, 0], [3.25, 0, 0, 0], atol=1e-12)

    def test_polynomial_benchmark_coefficients(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        x1_block1 = sol.xhat[0, :, 0]
        np.testing.assert_allclose(x1_block1, [5 / 144, 1 / 36, 1 / 144, 0], atol=1e-10)

    def test_initial_condition_honored(self, poly_system, expdecay_system):
        for spec, cfg in (
            (poly_system, BasisConfig.uniform(0, 1, 3, 4)),
            (expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 7)),
        ):
            sol = hybrid_solve(spec, cfg)
            np.testing.assert_allclose(sol.evaluate(spec.t0), spec.x0, rtol=0, atol=1e-9)

    def test_superposition_in_the_control(self):
        spec = SystemSpec(
            n=1, r=1, t0=0, tf=1, x0=[0.5],
            A=lambda t: np.array([[np.sin(t)]]),
            B=lambda t: np.array([[1.0 + t]]),
        )
        cfg = BasisConfig.uniform(0, 1, 3, 6)
        asm = assemble(spec, cfg)
        u1 = lambda t: np.array([np.cos(t)])
        u2 = lambda t: np.array([t * t])
        x0_part = solve(asm, None).xhat.reshape(-1)
        xs = solve(asm, lambda t: u1(t) + u2(t)).xhat.reshape(-1)
        x1 = solve(asm, u1).xhat.reshape(-1)
        x2 = solve(asm, u2).xhat.reshape(-1)
        np.testing.assert_allclose(xs - x0_part, (x1 - x0_part) + (x2 - x0_part), atol=1e-10)

    def test_two_input_control(self):
        # x' = u1 + t*u2 with u = [1, t]: x = t + t^3/3 exactly at M=5
        spec = SystemSpec(
            n=1, r=2, t0=0, tf=1, x0=[0.0],
            B=lambda t: np.array([[1.0, t]]),
            u=lambda t: np.array([1.0, t]),
        )
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 2, 5))
        for t in np.linspace(0, 1, 21):
            assert sol.evaluate(t)[0] == pytest.approx(t + t**3 / 3, abs=1e-11)

    def test_polynomial_benchmark_on_non_uniform_partition(self, poly_system):
        # the full pipeline (A, kernel, control) stays exact on uneven blocks
        cfg = BasisConfig(Partition((0.0, 0.2, 0.5, 1.0)), 4)
        sol = hybrid_solve(poly_system, cfg)
        ts = np.linspace(0, 1, 101)
        exact = np.stack([ts**2, ts**3], axis=1)
        assert np.max(np.abs(sol.evaluate_many(ts) - exact)) <= 1e-10

    def test_linear_system_residual_contract(self, expdecay_system):
        asm = assemble(expdecay_system, BasisConfig.uniform(0, 1, 4, 7))
        sol = solve(asm, expdecay_system.u)
        # rebuild the right-hand side the way solve does and check the defect
        uhat = expand_vector(lambda t: np.atleast_1d(expdecay_system.u(t)), asm.cfg)
        rhs = x0_coefficients(asm) + asm.PkronT @ (asm.Bop @ uhat.reshape(-1))
        defect = inf_norm(asm.system_matrix @ sol.xhat.reshape(-1) - rhs)
        assert defect <= 1e-10 * (1.0 + inf_norm(rhs))

    def test_linear_system_residual_contract_without_kernel(self):
        asm = assemble(SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 3.0], A=expdecay_A,
                                  B=_manufactured_B), BasisConfig.uniform(0, 1, 8, 9))
        sol = solve(asm, _decay_u)
        matrix, rhs = dense_reference_system(asm, _decay_u)
        assert inf_norm(matrix @ sol.xhat.reshape(-1) - rhs) <= 1e-10 * (1.0 + inf_norm(rhs))
        np.testing.assert_allclose(asm.apply(sol.xhat.reshape(-1)), matrix @ sol.xhat.reshape(-1),
                                   rtol=0, atol=1e-13)

    def test_zero_kernel_matches_reference_integrator(self):
        spec = SystemSpec(
            n=2, r=1, t0=0, tf=1, x0=[1.0, 0.0],
            A=lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
            B=lambda t: np.array([[0.0], [1.0]]),
            u=lambda t: np.array([np.sin(2 * t)]),
        )
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 3, 8))
        ts = np.linspace(0.1, 1.0, 10)
        ref = rk4_reference(spec, ts)
        assert np.max(np.abs(sol.evaluate_many(ts) - ref)) < 1e-6

    def test_singular_discretization_raises(self):
        # x' = 2x on one block with one polynomial: I - P^T Phi = 1 - 0.5*2 = 0,
        # the eigenvalue-one resonance of the discretized operator
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], A=lambda t: np.array([[2.0]]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 1, 1))
        with pytest.raises(SingularMatrixError, match=r"diagonal block 1: \|pivot 0\|"):
            solve(asm, None)

    def test_singular_kernel_system_names_block_1(self):
        # the dense kernel system is factored as a stack of one, so block 1 is the whole
        # matrix: S = diag(1 - 2/2, 1 - 1/2), singular in its first unknown
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 1.0], A=lambda t: np.diag([2.0, 0.0]),
                          N=lambda t, s: np.diag([0.0, 1.0]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 1, 1))
        with pytest.raises(SingularMatrixError, match=r"diagonal block 1: \|pivot 0\|") as excinfo:
            solve(asm, None)
        assert (excinfo.value.block, excinfo.value.pivot_index) == (1, 0)

    def test_singular_block_is_named(self):
        # D_2 = I - (d_2/2) diag(4, 0) = diag(0, 1) on a block of width 1/2;
        # block 1 (A = diag(1, 0)) is regular
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 1.0],
                          A=lambda t: np.diag([1.0 if t < 0.5 else 4.0, 0.0]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 1))
        with pytest.raises(SingularMatrixError, match="diagonal block 2") as excinfo:
            solve(asm, None)
        assert (excinfo.value.block, excinfo.value.pivot_index) == (2, 0)

    def test_factorization_reused_across_controls(self):
        spec = SystemSpec(
            n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]])
        )
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 4))
        solve(asm, lambda t: np.array([1.0]))
        first = asm._march
        solve(asm, lambda t: np.array([t]))
        assert asm._march is first
        # no dense operator is formed without a kernel
        formed = {"PkronT", "Bop", "system_matrix", "_lu"}
        assert not formed & set(vars(asm))

    def test_factorization_reused_across_controls_on_non_uniform_partition(self, monkeypatch):
        spec = SystemSpec(n=2, r=2, t0=-0.5, tf=1.5, x0=[1.0, -2.0], A=expdecay_A,
                          B=lambda t: np.array([[1.0, t], [np.cos(t), -1.0]]))
        cfg = BasisConfig(Partition((-0.5, -0.4, 0.1, 0.15, 0.9, 1.5)), 9)
        asm = assemble(spec, cfg)
        factored = []
        monkeypatch.setattr(solver, "LU", lambda a, **kw: factored.append(a.shape) or LU(a, **kw))
        controls = [lambda t: np.array([1.0, 0.0]), lambda t: np.array([np.sin(3 * t), t]),
                    None, lambda t: np.array([np.exp(t), -t * t])]
        for u in controls:
            got = solve(asm, u).xhat.reshape(-1)
            expected = dense_reference_solve(asm, u)
            assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))
        assert factored == [(5, 18, 18)]  # one stack of K = 5 blocks, factored once

    @pytest.mark.parametrize("with_kernel", [False, True])
    def test_control_is_not_sampled_without_b(self, with_kernel, expdecay_system):
        # residual ignores u without B; solve does too, so a failing u cannot stop it
        def failing_u(t):
            raise ZeroDivisionError("division by zero")

        spec = dataclasses.replace(expdecay_system, B=None,
                                   N=expdecay_system.N if with_kernel else None)
        cfg = BasisConfig(Partition((0.0, 0.3, 0.45, 1.0)), 6)
        asm = assemble(spec, cfg)
        want = solve(asm, None).xhat
        assert np.array_equal(solve(asm, failing_u).xhat, want)
        sol = hybrid_solve(dataclasses.replace(spec, u=failing_u), cfg)
        assert np.array_equal(sol.xhat, want)
        assert math.isfinite(residual(dataclasses.replace(spec, u=failing_u), sol, [0.2, 0.49]))

    def test_factorization_reused_across_controls_with_kernel(self, expdecay_system):
        asm = assemble(expdecay_system, BasisConfig.uniform(0, 1, 2, 4))
        solve(asm, lambda t: np.array([1.0]))
        first = asm._lu
        solve(asm, lambda t: np.array([t]))
        assert asm._lu is first
        assert "_march" not in vars(asm)

    @pytest.mark.parametrize("with_kernel", [False, True])
    def test_non_finite_answer_is_rejected(self, with_kernel, expdecay_system, monkeypatch):
        spec = expdecay_system if with_kernel else dataclasses.replace(expdecay_system, N=None)
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 4))
        monkeypatch.setattr(asm, "_solve", lambda rhs: np.full_like(rhs, np.nan))
        with pytest.raises(SolveError, match="residual nan exceeds"):
            solve(asm, spec.u)

    # a kernel system's defect is measured against system_matrix, the matrix its LU
    # factors, and agrees with the structured product to rounding, relative to |S| |x|
    @pytest.mark.parametrize("K", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 2])
    def test_kernel_apply_is_the_structured_product(self, K, n):
        spec, cfg = _random_kernel_system(n, 2, 5, K)
        asm = assemble(spec, cfg)
        x = np.random.default_rng([K, n]).uniform(-1, 1, K * cfg.M * n)
        for v in (x, solve(asm, spec.u).xhat.reshape(-1)):
            scale = np.abs(asm.system_matrix).sum(axis=1).max() * inf_norm(v)
            assert inf_norm(asm.apply(v) - structured_apply(asm, v)) <= 1e-13 * scale
            assert np.array_equal(asm.apply(v), asm.system_matrix @ v)

    def test_near_singular_kernel_defects_agree(self):
        # N = 2 - delta on [0, 1] makes S nearly singular: |x| is about 2/delta
        delta = 1e-8
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], N=lambda t, s: 2.0 - delta + 0 * (t + s))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 4, 6))
        rhs = x0_coefficients(asm)
        x = asm._solve(rhs)
        scale = np.abs(asm.system_matrix).sum(axis=1).max() * inf_norm(x)
        assert inf_norm(x) > 1e8
        defect, oracle = inf_norm(asm.apply(x) - rhs), inf_norm(structured_apply(asm, x) - rhs)
        assert abs(defect - oracle) <= 1e-13 * scale
        assert max(defect, oracle) <= 1e-14 * scale

    @pytest.mark.parametrize("datum", ["A", "N", "u"])
    def test_complex_data_are_rejected(self, datum, expdecay_system):
        # solving for the real part alone would answer a different problem, silently
        complex_data = {
            "A": lambda t: np.array([[1.0 + 0 * t, t], [t, 1j * t]]),
            "N": lambda t, s: np.array([[1j * s, 0 * t], [0 * s, t]]),
            "u": lambda t: np.array([1 + 1j * t]),
        }
        spec = dataclasses.replace(expdecay_system, **{datum: complex_data[datum]})
        with pytest.raises(ExpansionError, match=rf"^{datum} is .*j\)? at .*: data must be real$"):
            hybrid_solve(spec, BasisConfig.uniform(0, 1, 2, 4))

    def test_dense_block_diagonals_match_scipy(self, expdecay_system):
        asm = assemble(expdecay_system, BasisConfig(Partition((0.0, 0.2, 0.7, 1.0)), 6))
        assert np.array_equal(asm.Bop, scipy.linalg.block_diag(*product_blocks(asm.Bhat)))
        phi = scipy.linalg.block_diag(*product_blocks(asm.Ahat)) + asm.Q
        assert np.array_equal(asm.system_matrix, np.eye(len(phi)) - asm.PkronT @ phi)

    def test_control_shape_mismatch(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 3))
        with pytest.raises(Exception, match="components"):
            solve(asm, lambda t: np.array([1.0, 2.0]))

    def test_grid_data_shape_mismatch_names_the_datum(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]]),
                          A=lambda t: np.array([[t, t], [t, t]]))
        with pytest.raises(ExpansionError, match=r"A\(.*\) has shape \(2, 2\), expected \(1, 1\)"):
            assemble(spec, cfg)
        asm = assemble(dataclasses.replace(spec, A=None), cfg)
        with pytest.raises(ExpansionError, match=r"u\(.*\) has 2 components, expected 1"):
            solve(asm, lambda t: np.array([t, t]))

    def test_scalar_control_flattened(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 3))
        want = solve(asm, lambda t: np.array([2.0 * t])).xhat.reshape(-1)
        for u in (lambda t: 2.0 * t, lambda t: np.array([[2.0 * t]]), pointwise(lambda t: 2.0 * t)):
            assert np.array_equal(solve(asm, u).xhat.reshape(-1), want)


def _random_system(rng, n, r, with_a, with_b, with_u):
    """Smooth random data on a random non-uniform partition of a random interval."""
    t0 = float(rng.uniform(-1, 1))
    K, M = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    inner = np.sort(rng.uniform(0, 1, K - 1))
    width = float(rng.uniform(0.5, 2))
    cfg = BasisConfig(Partition((t0, *(t0 + width * inner), t0 + width)), M)
    a0, a1 = rng.uniform(-1, 1, (2, n, n))
    b0, b1 = rng.uniform(-1, 1, (2, n, r))
    w = rng.uniform(0.5, 3, r)
    spec = SystemSpec(
        n=n, r=r, t0=t0, tf=t0 + width, x0=rng.uniform(-1, 1, n),
        A=(lambda t: a0 + a1 * np.sin(t)) if with_a else None,
        B=(lambda t: b0 + b1 * t * t) if with_b else None,
        u=(lambda t: np.cos(w * t)) if with_u else None,
    )
    return spec, cfg


def _random_kernel_system(n, r, M, K=4):
    """Smooth random data with a kernel on a random non-uniform partition of [0, 1]."""
    rng = np.random.default_rng([n, r, M])
    cfg = BasisConfig(Partition((0.0, *np.sort(rng.uniform(0, 1, K - 1)), 1.0)), M)
    a0, c0 = rng.uniform(-1, 1, (2, n, n))
    b0, b1 = rng.uniform(-1, 1, (2, n, r))
    w = rng.uniform(0.5, 3, r)
    spec = SystemSpec(
        n=n, r=r, t0=0.0, tf=1.0, x0=rng.uniform(-1, 1, n),
        A=lambda t: np.multiply.outer(a0, np.cos(t)),
        B=lambda t: np.multiply.outer(b0, np.ones_like(t)) + np.multiply.outer(b1, t * t),
        N=lambda t, s: np.multiply.outer(0.5 * c0, np.exp(-(t - s) ** 2)),
        u=lambda t: np.cos(np.multiply.outer(w, t)),
    )
    return spec, cfg


class TestBlockMarch:
    @pytest.mark.parametrize("n,r,with_a,with_b,with_u", [
        (n, r, *mask) for n in (1, 2, 3) for r in (1, 2)
        for mask in itertools.product((True, False), repeat=3)
    ])
    def test_agrees_with_dense_oracle(self, n, r, with_a, with_b, with_u):
        rng = np.random.default_rng([n, r, with_a, with_b, with_u])
        for _ in range(3):
            spec, cfg = _random_system(rng, n, r, with_a, with_b, with_u)
            asm = assemble(spec, cfg)
            got = solve(asm, spec.u).xhat.reshape(-1)
            expected = dense_reference_solve(asm, spec.u)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale

    def test_kernel_path_is_the_dense_oracle(self, poly_system, expdecay_system):
        # M r of 3, 5, 6 and 10 too: where M r is not a multiple of 4, BLAS lane
        # alignment changes the control term's bits, so Bop must hold the oracle's entries
        systems = [(poly_system, BasisConfig(Partition((0.0, 0.2, 0.5, 1.0)), 4)),
                   (expdecay_system, BasisConfig.uniform(0, 1, 3, 7))]
        systems += [_random_kernel_system(n, r, M)
                    for n, r, M in itertools.product((1, 3), (1, 2), (3, 5))]
        for spec, cfg in systems:
            asm = assemble(spec, cfg)
            got = solve(asm, spec.u).xhat.reshape(-1)
            assert np.array_equal(got, dense_reference_solve(asm, spec.u))

    @pytest.mark.parametrize("n,M,chunk", [(2, 16, None), (1, 5, 3), (2, 3, 4), (3, 4, 1)])
    def test_chunk_edges_agree_with_dense_oracle(self, n, M, chunk, monkeypatch):
        # K of one block, one chunk less one, one chunk and one chunk more, on random
        # partitions; chunk=None is the library's own chunk size at M=16, n=2
        m = M * n
        if chunk is not None:
            monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", chunk * m * m)
        chunk = linalg._CHUNK_ENTRIES // (m * m)
        rng = np.random.default_rng([n, M])
        a0, a1 = rng.uniform(-1, 1, (2, n, n))
        b0 = rng.uniform(-1, 1, (n, 1))
        spec = SystemSpec(n=n, r=1, t0=0.0, tf=1.0, x0=rng.uniform(-1, 1, n),
                          A=lambda t: a0 + a1 * np.sin(3 * t), B=lambda t: b0 * np.exp(t),
                          u=lambda t: np.cos(t))
        for K in sorted({1, chunk - 1, chunk, chunk + 1} - {0}):
            bp = np.sort(rng.uniform(0, 1, K - 1))
            asm = assemble(spec, BasisConfig(Partition((0.0, *bp, 1.0)), M))
            got = solve(asm, spec.u).xhat.reshape(-1)
            expected = dense_reference_solve(asm, spec.u)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale, K

    def test_singular_block_in_the_last_chunk_is_named(self, monkeypatch):
        # M=1: D_k = I - (d_k/2) A_k, so A_K = (2/d_K)(I - D_K) gives the singular
        # D_K = [[0, 0, 0], [1, 1, 0], [1, 0, 1]], whose LU factors have a larger
        # row sum (3) than D_K (2); with chunks of 3 blocks, block K=7 is alone
        # in the last chunk
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 3 * 3 * 3)
        K = 7
        last = 2.0 * K * np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        spec = SystemSpec(n=3, r=1, t0=0, tf=1, x0=[1.0, 1.0, 1.0],
                          A=lambda t: last if t > (K - 1) / K else np.eye(3))
        asm = assemble(spec, BasisConfig.uniform(0, 1, K, 1))
        with pytest.raises(SingularMatrixError, match=f"diagonal block {K}") as excinfo:
            solve(asm, None)
        assert excinfo.value.block == K
        assert abs(excinfo.value.pivot) <= excinfo.value.threshold
        # the threshold is PIVOT_RTOL times the inf-norm of the oracle's block D_K,
        # measured before it is factored
        D_K = dense_reference_system(asm, None)[0][-3:, -3:]
        want = linalg.PIVOT_RTOL * np.abs(D_K).sum(axis=1).max()
        assert want == pytest.approx(2 * linalg.PIVOT_RTOL, rel=1e-14, abs=0)
        assert excinfo.value.threshold == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("K", [1, 5, 64])
    def test_one_getrs_per_block_on_every_solve(self, K, monkeypatch):
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 3.0], A=expdecay_A, B=_manufactured_B)
        asm = assemble(spec, BasisConfig.uniform(0, 1, K, 16))
        calls = count_lapack_calls(monkeypatch)
        solve(asm, _decay_u)
        assert calls == {"getrf": K, "getrs": K}
        for u in (_decay_u, lambda t: np.array([np.sin(t)]), None):
            solve(asm, u)
        assert calls == {"getrf": K, "getrs": 4 * K}

    def test_overflowing_block_in_a_later_chunk_is_named_before_any_getrs(self, monkeypatch):
        # chunks of one block; every sample of A is finite, but D_2's row sums overflow
        monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 32 * 32)
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 1.0],
                          A=lambda t: np.full((2, 2), 1e308 if t > 0.5 else 1.0))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 16))
        calls = count_lapack_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"infs or NaNs \(diagonal block 2\)"):
            solve(asm, None)
        assert calls == {"getrf": 1, "getrs": 0}

    @pytest.mark.parametrize("n_out,n_in,M", [(1, 1, 1), (2, 3, 5), (3, 1, 8)])
    def test_products_match_the_product_operators(self, n_out, n_in, M):
        rng = np.random.default_rng([n_out, n_in, M])
        coeffs, z = rng.standard_normal((4, M, n_out, n_in)), rng.standard_normal((4, M, n_in))
        blocks = product_blocks(coeffs)
        want = np.stack([blocks[k] @ z[k].reshape(-1) for k in range(4)]).reshape(4, M, n_out)
        np.testing.assert_allclose(solver._products(coeffs, z), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("K", [64, 512])
    def test_peak_memory_stays_near_the_lu_factors(self, K):
        # the LU factors are the only array of size K (Mn)^2 that a kernel-free solve makes
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 3.0], A=expdecay_A, B=_manufactured_B,
                          u=_decay_u)
        cfg = BasisConfig.uniform(0, 1, K, 16)
        tracemalloc.start()
        try:
            hybrid_solve(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = K * (16 * 2) ** 2 * 8
        assert peak < 2.5 * stack, peak / stack

    def test_fine_mesh_without_dense_matrix(self):
        # K=512, M=16, n=2: the dense system matrix alone would take 2 GiB
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, 3.0], A=expdecay_A, B=_manufactured_B,
                          u=_decay_u)
        tracemalloc.start()
        try:
            sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 512, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        ts = np.linspace(0, 1, 201)
        exact = np.stack([np.exp(-ts), 3 * np.exp(-ts)], axis=1)
        assert np.max(np.abs(sol.evaluate_many(ts) - exact)) <= 1e-12


class TestEvaluate:
    def test_out_of_domain(self, poly_system):
        # NaN is outside too: no silent zeros, no IndexError
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        for bad in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError, match=f"t={bad} outside"):
                sol.evaluate(bad)
            with pytest.raises(ValueError, match=f"t={bad} outside"):
                sol.derivative(bad)

    @pytest.mark.parametrize("system", ["poly_system", "expdecay_system"])
    def test_derivative_matches_per_point_reference(self, request, system):
        cfg = BasisConfig(Partition((0.0, 0.15, 0.4, 0.9, 1.0)), 6)
        sol = hybrid_solve(request.getfixturevalue(system), cfg)
        rng = np.random.default_rng(5)
        ts = np.concatenate([cfg.partition.breakpoints, rng.uniform(0, 1, 40)])
        want = np.array([reference_derivative(sol, t) for t in ts])
        got = np.array([sol.derivative(t) for t in ts])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_evaluate_many_matches_pointwise(self, expdecay_system):
        cfg = BasisConfig(Partition((0.0, 0.15, 0.4, 0.9, 1.0)), 6)
        sol = hybrid_solve(expdecay_system, cfg)
        rng = np.random.default_rng(31)
        ts = np.concatenate([cfg.partition.breakpoints, rng.uniform(0, 1, 50), [0.0, 1.0]])
        got = sol.evaluate_many(ts)
        assert got.shape == (ts.size, 2)
        assert np.array_equal(got, np.array([sol.evaluate(t) for t in ts]))
        assert np.array_equal(sol.evaluate_many([1.0]), [sol.evaluate(1.0)])

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("method", ["evaluate", "derivative"])
    def test_array_of_times_keeps_its_shape(self, expdecay_system, method, shape):
        # one state per time, not the state at the first time alone
        sol = hybrid_solve(expdecay_system, BasisConfig(Partition((0.0, 0.15, 0.4, 0.9, 1.0)), 6))
        ts = np.random.default_rng(7).uniform(0, 1, shape)
        f = getattr(sol, method)
        got = f(ts)
        assert got.shape == shape + (2,)
        assert np.array_equal(got, np.reshape([f(float(t)) for t in ts.flat], got.shape))
        series = sol if method == "evaluate" else sol._derivative()
        assert np.array_equal(got, series.evaluate_many(ts.reshape(-1)).reshape(got.shape))

    @pytest.mark.parametrize("method", ["evaluate", "derivative", "evaluate_many"])
    def test_array_out_of_domain_names_the_first_time_in_c_order(self, poly_system, method):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        ts = np.array([[0.5, 0.25, 1.5], [-0.5, 0.75, 2.0]])  # -0.5 comes first in F order
        with pytest.raises(ValueError, match=r"t=1\.5 outside"):
            getattr(sol, method)(ts)

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_evaluate_many_out_of_domain_names_t(self, poly_system, bad):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        with pytest.raises(ValueError, match=f"t={bad} outside"):
            sol.evaluate_many([0.5, bad, 0.25])

    def test_polynomial_benchmark_midpoint(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        np.testing.assert_allclose(sol.evaluate(0.5), [0.25, 0.125], rtol=0, atol=1e-10)

    def test_exponential_benchmark_midpoint(self, expdecay_system):
        sol = hybrid_solve(expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 9))
        np.testing.assert_allclose(
            sol.evaluate(0.5), [0.60653065971263, 1.81959197913790], rtol=0, atol=1e-11
        )

    def test_right_endpoint_evaluable(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        np.testing.assert_allclose(sol.evaluate(1.0), [1.0, 1.0], rtol=0, atol=1e-10)

    def test_non_uniform_partition(self):
        spec = SystemSpec(
            n=1, r=1, t0=0, tf=1, x0=[0.0],
            B=lambda t: np.array([[1.0]]), u=lambda t: np.array([2.0 * t]),
        )
        cfg = BasisConfig(Partition((0.0, 0.2, 1.0)), 5)
        sol = hybrid_solve(spec, cfg)
        for t in np.linspace(0, 1, 21):
            assert sol.evaluate(t)[0] == pytest.approx(t * t, abs=1e-11)


class TestHybridSolution:
    CFG = BasisConfig.uniform(0, 1, 2, 3)

    @pytest.mark.parametrize("shape", [(2, 4, 1), (3, 3, 1), (1, 6, 1), (6, 1), (6,), (2, 3, 0)],
                             ids=["M=4", "K=3", "K=1-M=6", "2-D", "flat", "n=0"])
    def test_rejects_coefficients_that_do_not_fit_the_basis(self, shape):
        # a series of another degree or block count would evaluate silently or fail in numpy
        message = f"xhat has shape {shape}, expected (2, 3, n), n >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HybridSolution(self.CFG, np.ones(shape))

    @pytest.mark.parametrize("cfg", ["x", None, Partition((0.0, 1.0))], ids=["str", "None", "Partition"])
    def test_rejects_a_cfg_that_is_not_a_basis_config(self, cfg):
        with pytest.raises(TypeError, match=f"^cfg must be a BasisConfig, got {re.escape(repr(cfg))}$"):
            HybridSolution(cfg, np.zeros((2, 3, 1)))

    def test_block_k_coefficients_are_xhat_k_minus_1(self):
        xhat = np.arange(12.0).reshape(2, 3, 2)
        sol = HybridSolution(self.CFG, xhat)
        assert sol.xhat.shape == (2, 3, 2) and np.array_equal(sol.xhat, xhat)
        # at each block's midpoint S_0 = 1, S_1 = 0 and S_2 = -1
        assert np.array_equal(sol.evaluate(0.25), xhat[0, 0] - xhat[0, 2])
        assert np.array_equal(sol.evaluate(0.75), xhat[1, 0] - xhat[1, 2])


def _at_times(method: str, spec: SystemSpec, sol, ts):
    """A solution method at the times ts, or residual over ts."""
    return residual(spec, sol, ts) if method == "residual" else getattr(sol, method)(ts)


class TestTimeRange:
    """Every way to evaluate a solution keeps synthesize's one range rule."""

    METHODS = ["evaluate", "evaluate_many", "derivative", "residual"]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12, 1.0 + 1e-12])
    def test_rejects_times_outside(self, poly_system, method, bad):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        message = "^" + re.escape(f"t={np.float64(bad)} outside [0.0, 1.0]") + "$"
        for ts in (bad, np.array([[0.5, 1.0, bad], [2.0, 0.25, -1.0]])):  # 2.0: later in C order
            with pytest.raises(ValueError, match=message):
                _at_times(method, poly_system, sol, ts)

    @pytest.mark.parametrize("method", METHODS)
    def test_accepts_the_ends_0d_and_empty_arrays(self, poly_system, method):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        ends = _at_times(method, poly_system, sol, np.array([0.0, 1.0]))
        for i, t in enumerate((0.0, 1.0)):
            at = _at_times(method, poly_system, sol, np.array(t))
            if method == "residual":
                assert at <= ends <= 1e-10
            else:
                assert np.array_equal(np.reshape(at, -1), ends[i])
        empty = _at_times(method, poly_system, sol, np.empty(0))
        assert empty == 0.0 if method == "residual" else np.shape(empty) == (0, 2)

    # a string is not parsed, and a complex time is not cut to its real part
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", ["0.5", np.array([0.5 + 0.5j]), np.array([0.5 + 1j]),
                                     ["0.25", "0.5"]], ids=["str", "complex", "complex-1j", "strs"])
    def test_rejects_non_real_times(self, poly_system, method, bad):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        key = "tgrid" if method == "residual" else "t"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(TypeError, match=f"^{key} must be real numbers, got "):
                _at_times(method, poly_system, sol, bad)

    def test_evaluation_goes_through_solver_synthesize(self, poly_system, monkeypatch):
        # the benchmark self-test perturbs every state through this name
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        ts = np.array([0.0, 0.3, 1.0])
        before = {m: getattr(sol, m)(ts) for m in ("evaluate", "evaluate_many", "derivative")}
        original = solver.synthesize
        monkeypatch.setattr(solver, "synthesize", lambda *args: original(*args) + 1.0)
        for m, want in before.items():
            assert np.array_equal(getattr(sol, m)(ts), want + 1.0), m


class TestStiffDecay:
    """x' = -lam (x - cos t) - sin t, x(0) = 1, exact solution cos t: a
    regression guard, accurate to about 1e-11 from lam = 1 to 1e6."""

    @pytest.mark.parametrize("K,M", [(4, 12), (16, 16)])
    @pytest.mark.parametrize("lam", [1.0, 1e2, 1e4, 1e6])
    def test_error_stays_small_as_lambda_grows(self, lam, K, M):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], A=lambda t: np.array([[-lam]]),
                          B=lambda t: np.array([[1.0]]),
                          u=lambda t: np.array([lam * np.cos(t) - np.sin(t)]))
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, K, M))
        ts = np.linspace(0, 1, 201)
        assert np.max(np.abs(sol.evaluate_many(ts)[:, 0] - np.cos(ts))) <= 1e-10


class TestKinkedKernels:
    """x' = integral over [0, 1] of N(t, s) x(s) ds + u(t), x(0) = 1, with the
    exact solution e^t: regression guards on the worst error over 201 points.
    A kernel with a kink on t = s converges only algebraically in M, because N
    is projected on the tensor basis in (t, s); the bounds are 1.5 times the
    measured errors, so that exact inner integration may only tighten them."""

    KERNELS = {
        "min": (lambda t, s: np.minimum(t, s), lambda t: 2 * np.exp(t) - 1 - np.e * t),
        "exp_abs": (lambda t, s: np.exp(-np.abs(t - s)), lambda t: t * np.exp(t) - np.sinh(t)),
        "ts": (lambda t, s: t * s, lambda t: np.exp(t) - t),
    }
    MEASURED = {  # worst error at K=4, M = 4, 8, 16, 32, and at K=16, M=16
        "min": ((1.21e-4, 6.37e-5, 2.87e-5, 1.06e-5), 1.80e-6),
        "exp_abs": ((3.02e-4, 1.54e-4, 6.94e-5, 2.57e-5), 4.33e-6),
    }

    @classmethod
    def worst_error(cls, kernel, K, M):
        N, u = cls.KERNELS[kernel]
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], N=N, B=lambda t: np.array([[1.0]]),
                          u=lambda t: np.array([u(t)]))
        ts = np.linspace(0, 1, 201)
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, K, M))
        return np.max(np.abs(sol.evaluate_many(ts)[:, 0] - np.exp(ts)))

    @pytest.mark.parametrize("kernel", ["min", "exp_abs"])
    def test_kinked_kernel_converges_algebraically(self, kernel):
        measured, fine = self.MEASURED[kernel]
        errors = [self.worst_error(kernel, 4, M) for M in (4, 8, 16, 32)]
        assert all(e <= 1.5 * m for e, m in zip(errors, measured))
        assert errors[-1] <= errors[0] / 8
        assert self.worst_error(kernel, 16, 16) <= 1.5 * fine

    def test_smooth_kernel_reaches_rounding(self):
        assert self.worst_error("ts", 4, 8) <= 1.5 * 1.3e-13
        assert max(self.worst_error("ts", 4, M) for M in (12, 16)) <= 1e-12


class TestThreads:
    """Threads solve and evaluate at once: sampling takes no lock, and the
    LAPACK calls take turns."""

    @pytest.mark.parametrize("system", ["kernel", "kernel-free", "problem file"])
    def test_concurrent_solves_match_one_thread_bit_for_bit(self, expdecay_system, system):
        spec, cfg = expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 9)  # A takes the _Nodes call
        if system == "kernel-free":
            spec = dataclasses.replace(spec, N=None)
        elif system == "problem file":
            problem = load(os.path.join(os.path.dirname(__file__), os.pardir, "problems",
                                        "exp_decay_ivp.prob"))
            spec, cfg = problem.system_spec(), problem.basis_config()
        ts = np.linspace(0, 1, 101)

        def work():
            sol = hybrid_solve(spec, cfg)
            return sol.xhat.tobytes() + sol.evaluate_many(ts).tobytes()

        one = work()
        before = list(warnings.filters)
        assert in_threads(lambda: [work() for _ in range(5)]) == [[one] * 5] * 4
        assert warnings.filters == before


class TestGridPath:
    """The exp-decay system (the data of the benchmark workloads) sampled
    with one grid call per sample call, against the pointwise path."""

    @pytest.mark.parametrize("K,M", [(4, 9), (8, 12), (16, 12)])
    def test_agrees_with_pointwise_sampling(self, expdecay_system, K, M):
        rng = np.random.default_rng(K)
        bp = np.arange(K + 1) / K
        bp[1:-1] += rng.uniform(-0.3, 0.3, K - 1) / K
        cfg = BasisConfig(Partition(tuple(bp)), M)
        grid_calls = {name: [] for name in "ABNu"}

        def recorded(name, f):
            def g(*args):
                grid_calls[name].append(isinstance(args[-1], (np.ndarray, _Nodes)))
                return f(*args)
            return g

        data = {name: getattr(expdecay_system, name) for name in "ABNu"}
        spec = dataclasses.replace(expdecay_system, **{k: recorded(k, f) for k, f in data.items()})
        asm = assemble(spec, cfg)
        sol = solve(asm, spec.u)
        # the grid, then two probes, per chunk of outer blocks; at K=16, M=12 an
        # outer block has 20 * 320 (t, s) nodes and chunks hold 10 and 6 blocks
        assert grid_calls["N"] == [True, False, False] * (2 if K == 16 else 1)
        assert grid_calls["B"] == grid_calls["u"] == [True, False, False]
        # ragged constants fail the array call; the _Nodes call is kept
        assert grid_calls["A"] == [True, True, False, False]

        ref_spec = dataclasses.replace(expdecay_system,
                                       **{k: pointwise(f) for k, f in data.items()})
        ref_asm = assemble(ref_spec, cfg)
        ref = solve(ref_asm, ref_spec.u)
        ts = np.sort(rng.uniform(0.0, 1.0, 101))
        for got, want in ((asm.Q, ref_asm.Q), (sol.xhat.reshape(-1), ref.xhat.reshape(-1)),
                          (sol.evaluate_many(ts), ref.evaluate_many(ts))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestResidual:
    def test_grid_kernel_sampled_once_per_chunk(self, expdecay_system):
        sol = hybrid_solve(expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 5))
        calls = []

        def kernel(t, s):
            calls.append(np.shape(s))
            return np.array([[t * s, t - s], [s, t + s]])

        grid_spec = dataclasses.replace(expdecay_system, N=kernel)
        got = residual(grid_spec, sol, EXP_TS, quad_order=10)
        # all times fit in one chunk: the grid, then two probes
        assert calls == [(len(EXP_TS), EXP_K, 10), (), ()]
        plain_spec = dataclasses.replace(expdecay_system, N=pointwise(kernel))
        assert got == residual(plain_spec, sol, EXP_TS, quad_order=10)

    def test_chunks_agree_with_per_time_quadrature(self, expdecay_system, monkeypatch):
        sol = hybrid_solve(expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 5))
        spec = SystemSpec(n=2, r=1, t0=0.0, tf=1.0, x0=[1.0, 3.0], N=expdecay_system.N)
        glx, glw = np.polynomial.legendre.leggauss(10)
        bp = np.linspace(0.0, 1.0, EXP_K + 1)
        defects = []
        for t in EXP_TS:  # N(t, .) at one t at a time, block by block
            integral = np.zeros(2)
            for a, b in zip(bp[:-1], bp[1:]):
                ss = 0.5 * ((b - a) * glx + a + b)
                kv = np.array([expdecay_system.N(t, s) for s in ss])
                ws = 0.5 * (b - a) * glw
                integral += np.einsum("q,qac,qc->a", ws, kv, sol.evaluate_many(ss))
            defects.append(inf_norm(sol.derivative(t) - integral))
        want = max(defects)
        got = residual(spec, sol, EXP_TS, quad_order=10)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        # room for 4 times per call: chunks of 4, 4 and 2
        monkeypatch.setattr(kernel_module, "_CHUNK_NODES", 4 * EXP_K * 10)
        np.testing.assert_allclose(residual(spec, sol, EXP_TS, quad_order=10), want, rtol=1e-13)

    def test_kernel_failure_names_t_s_and_block(self, expdecay_system):
        sol = hybrid_solve(expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 5))

        def kernel(t, s):
            if s > 0.5:
                raise ArithmeticError("nope")
            return expdecay_system.N(t, s)

        spec = dataclasses.replace(expdecay_system, N=kernel)
        with pytest.raises(ExpansionError, match=r"^N failed at \(t=0.1, s=.*\) \(inner block 3\): nope$"):
            residual(spec, sol, EXP_TS, quad_order=10)

    @pytest.mark.parametrize("system", ["poly_system", "expdecay_system"])
    @pytest.mark.parametrize("with_kernel", [True, False])
    @pytest.mark.parametrize("bp", [(0.0, 1 / 3, 2 / 3, 1.0), (0.0, 0.15, 0.4, 0.9, 1.0)])
    def test_matches_per_time_reference(self, request, system, with_kernel, bp):
        spec = request.getfixturevalue(system)
        if not with_kernel:
            spec = dataclasses.replace(spec, N=None)
        # M=3 leaves a defect far above the rounding of its terms
        sol = hybrid_solve(spec, BasisConfig(Partition(bp), 3))
        rng = np.random.default_rng(len(bp))
        ts = np.concatenate([bp, rng.uniform(0, 1, 30)])  # t0, every breakpoint and tf
        want = reference_residual(spec, sol, ts, quad_order=12)
        np.testing.assert_allclose(residual(spec, sol, ts, quad_order=12), want, rtol=1e-13)

    def test_data_calls_do_not_grow_with_the_grid(self, expdecay_system):
        sol = hybrid_solve(expdecay_system, BasisConfig.uniform(0, 1, EXP_K, 5))
        counts = []
        for size in (11, 101):
            calls = dict.fromkeys("ABu", 0)

            def counted(name, f):
                def g(t):
                    calls[name] += 1
                    return f(t)
                return g

            spec = dataclasses.replace(
                expdecay_system, N=None,
                **{name: counted(name, getattr(expdecay_system, name)) for name in calls})
            residual(spec, sol, np.linspace(0, 1, size))
            counts.append(calls)
        assert counts[0] == counts[1]
        # the grid call, then two probes; A's ragged constants fail the array
        # call, and the _Nodes call is kept
        assert counts[1] == {"A": 4, "B": 3, "u": 3}

    def test_nan_A_is_named(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], A=lambda t: -1.0)
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 4, 8))
        bad = dataclasses.replace(spec, A=lambda t: np.nan)
        with pytest.raises(ExpansionError, match=r"^A is nan at t=0.2 \(block 1\)$"):
            residual(bad, sol, [0.2, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_kernel_names_t_and_s(self, bad):
        cfg = BasisConfig.uniform(0, 1, EXP_K, 5)
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], A=lambda t: -1.0)
        sol = hybrid_solve(spec, cfg)
        glx = np.polynomial.legendre.leggauss(10)[0]
        bp = np.asarray(cfg.partition.breakpoints)
        inner = 0.5 * ((bp[1:] - bp[:-1])[:, np.newaxis] * glx + (bp[:-1] + bp[1:])[:, np.newaxis])
        s = inner.flat[np.argmax(inner.reshape(-1) > 0.6)]  # in block 3, [0.5, 0.75]
        kernel = lambda t, s: np.where((t == 0.5) & (s > 0.6), bad, 1.0 + 0 * t * s)  # noqa: E731
        with pytest.raises(ExpansionError,
                           match=rf"^N is {bad} at \(t=0.5, s={s}\) \(inner block 3\)$"):
            residual(dataclasses.replace(spec, N=kernel), sol, EXP_TS, quad_order=10)

    @pytest.mark.parametrize("kernel, problem", [
        pytest.param(lambda t, s: t * s,
                     r"failed at {where}: N\(.*\) has shape \(1, 1\), expected \(2, 2\)", id="scalar"),
        pytest.param(lambda t, s: np.array([[t, s, t * s]]),
                     r"failed at {where}: N\(.*\) has shape \(1, 3\), expected \(2, 2\)", id="1x3"),
        pytest.param(lambda t, s: np.eye(3) * t,
                     r"failed at {where}: N\(.*\) has shape \(3, 3\), expected \(2, 2\)", id="3x3"),
        pytest.param(lambda t, s: np.array([[t, s], [s, np.nan * t]]), r"is nan at {where}", id="nan"),
        pytest.param(lambda t, s: np.array([[1j * t, s], [s, t]]),
                     r"is .*j\)? at {where}: data must be real", id="complex"),
    ])
    @pytest.mark.parametrize("stage", ["assemble", "residual"])
    def test_bad_kernel_names_n_t_s_and_block(self, expdecay_system, kernel, problem, stage):
        # residual's kernel einsum would broadcast a scalar N to (2, 2) and answer, and
        # fail unlocated for the (1, 3) and (3, 3) ones: only the sampling check names N
        cfg = BasisConfig.uniform(0, 1, EXP_K, 5)
        sol = hybrid_solve(expdecay_system, cfg)
        spec = dataclasses.replace(expdecay_system, N=kernel)
        where = r"\(t=[^,]+, s=[^)]+\) \(inner block 1\)"
        with pytest.raises(ExpansionError, match="^N " + problem.format(where=where) + "$"):
            if stage == "assemble":
                assemble(spec, cfg)
            else:
                residual(spec, sol, EXP_TS)

    def test_complex_u_is_rejected_like_in_solve(self, expdecay_system):
        cfg = BasisConfig.uniform(0, 1, EXP_K, 5)
        sol = hybrid_solve(expdecay_system, cfg)
        spec = dataclasses.replace(expdecay_system, u=lambda t: np.array([np.exp(-t) + 1j * t]))
        message = r"^u is \(.*j\) at t=.* \(block 1\): data must be real$"
        with pytest.raises(ExpansionError, match=message):
            solve(assemble(spec, cfg), spec.u)
        with pytest.raises(ExpansionError, match=message):
            residual(spec, sol, EXP_TS)

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_rejects_bad_t(self, poly_system, bad):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        with pytest.raises(ValueError, match=f"t={bad} outside"):
            residual(poly_system, sol, [0.5, bad])

    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("bad,error,message", [
        (0, ValueError, "quad_order must be >= 1, got 0"),
        (-3, ValueError, "quad_order must be >= 1, got -3"),
        (2.5, TypeError, "quad_order must be an integer, got 2.5"),
        (True, TypeError, "quad_order must be an integer, got True"),
        (np.True_, TypeError, re.escape(f"quad_order must be an integer, got {np.True_!r}")),
    ])
    def test_rejects_bad_quad_order(self, expdecay_system, kernel, bad, error, message):
        spec = expdecay_system if kernel else dataclasses.replace(expdecay_system, N=None)
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 2, 4))
        with pytest.raises(error, match=f"^{message}$"):
            residual(spec, sol, EXP_TS, quad_order=bad)

    @pytest.mark.parametrize("n,tf,message", [
        (2, 1.0, r"^the system has n=2 but the solution has n=1$"),
        (1, 2.0, r"^basis covers \[0\.0, 1\.0\] but the system lives on \[0\.0, 2\.0\]$"),
    ], ids=["n", "interval"])
    def test_rejects_a_spec_that_does_not_fit_the_solution(self, n, tf, message):
        # checked before anything is sampled; the interval by assemble's rule and message
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        sol = hybrid_solve(SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0]), cfg)
        calls = []
        A = lambda t: calls.append(t) or np.eye(n)  # noqa: E731
        with pytest.raises(ValueError, match=message):
            residual(SystemSpec(n=n, r=1, t0=0, tf=tf, x0=np.zeros(n), A=A), sol, [0.5])
        assert calls == []

    def test_empty_grid_has_zero_residual(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        assert residual(poly_system, sol, []) == 0.0

    def test_zero_system_zero_residual(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[2.0])
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 2, 3))
        assert residual(spec, sol, np.linspace(0, 1, 11)) <= 1e-13

    def test_polynomial_benchmark_residual(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        assert residual(poly_system, sol, np.linspace(0, 1, 21)) <= 1e-9

    def test_residual_decreases_with_m(self, expdecay_system):
        grid = EXP_TS
        values = []
        for M in (5, 7):
            sol = hybrid_solve(expdecay_system, BasisConfig.uniform(0, 1, EXP_K, M))
            values.append(residual(expdecay_system, sol, grid))
        assert values[0] > values[1] > 0.0
