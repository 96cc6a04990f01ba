import math

import numpy as np
import pytest

from bpcheb import exprlang
from bpcheb.basis import BasisConfig, Partition
from bpcheb.expansion import ExpansionError
from bpcheb.linalg import SingularMatrixError
from bpcheb.solver import SystemSpec, assemble, hybrid_solve, residual, solve

from conftest import EXP_K, EXP_TS, rk4_reference


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

    def test_x0_read_only(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0])
        with pytest.raises(ValueError):
            spec.x0[0] = 2.0


class TestAssemble:
    def test_empty_system(self):
        spec = SystemSpec(n=2, r=1, t0=0, tf=1, x0=[1.0, -2.0])
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        asm = assemble(spec, cfg)
        assert not asm.Phi.any()
        assert not asm.Bop.any()
        sol = solve(asm, None)
        np.testing.assert_allclose(sol.xhat.tensor()[:, 0, :], [[1.0, -2.0]] * 2, atol=1e-12)
        np.testing.assert_allclose(sol.xhat.tensor()[:, 1:, :], 0.0, atol=1e-12)

    def test_constant_scalar_a_gives_scaled_identity_blocks(self):
        a = 1.7
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], A=lambda t: np.array([[a]]))
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        asm = assemble(spec, cfg)
        np.testing.assert_allclose(asm.Phi, a * np.eye(8), atol=1e-12)

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
        with pytest.raises(ValueError, match=r"N\(t, s\) has shape \(3, 3\), expected \(2, 2\)"):
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
        np.testing.assert_allclose(sol.xhat.data, [0.5, 0.25, 0, 0], atol=1e-12)

    def test_constant_solution(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[3.25])
        sol = hybrid_solve(spec, BasisConfig.uniform(0, 1, 3, 4))
        for k in (1, 2, 3):
            np.testing.assert_allclose(sol.xhat.block(k)[:, 0], [3.25, 0, 0, 0], atol=1e-12)

    def test_polynomial_benchmark_coefficients(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        x1_block1 = sol.xhat.tensor()[0, :, 0]
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
        x0_part = solve(asm, None).xhat.data
        xs = solve(asm, lambda t: u1(t) + u2(t)).xhat.data
        x1 = solve(asm, u1).xhat.data
        x2 = solve(asm, u2).xhat.data
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
        from bpcheb.expansion import expand_vector
        from bpcheb.linalg import inf_norm

        asm = assemble(expdecay_system, BasisConfig.uniform(0, 1, 4, 7))
        sol = solve(asm, expdecay_system.u)
        # rebuild the right-hand side the way solve does and check the defect
        uhat = expand_vector(lambda t: np.atleast_1d(expdecay_system.u(t)), asm.cfg, asm.rule)
        rhs = asm.X0hat.data + asm.PkronT @ (asm.Bop @ uhat.data)
        defect = inf_norm(asm.system_matrix @ sol.xhat.data - rhs)
        assert defect <= 1e-10 * (1.0 + inf_norm(rhs))

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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_discretization_raises(self):
        # x' = 2x on one block with one polynomial: I - P^T Phi = 1 - 0.5*2 = 0,
        # the eigenvalue-one resonance of the discretized operator
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[1.0], A=lambda t: np.array([[2.0]]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 1, 1))
        with pytest.raises(SingularMatrixError):
            solve(asm, None)

    def test_factorization_reused_across_controls(self):
        spec = SystemSpec(
            n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]])
        )
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 4))
        solve(asm, lambda t: np.array([1.0]))
        first = asm._lu
        solve(asm, lambda t: np.array([t]))
        assert asm._lu is first

    def test_control_shape_mismatch(self):
        spec = SystemSpec(n=1, r=1, t0=0, tf=1, x0=[0.0], B=lambda t: np.array([[1.0]]))
        asm = assemble(spec, BasisConfig.uniform(0, 1, 2, 3))
        with pytest.raises(Exception, match="components"):
            solve(asm, lambda t: np.array([1.0, 2.0]))


class TestEvaluate:
    def test_out_of_domain(self, poly_system):
        sol = hybrid_solve(poly_system, BasisConfig.uniform(0, 1, 3, 4))
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate(1.2)
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate(-0.1)

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


class TestResidual:
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
