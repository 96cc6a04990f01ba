"""Every array a bpcheb type holds is a read-only copy that the type owns, and
the types that hold arrays compare and hash by identity.

A caller's array keeps its flags, and a later write to it does not reach the
object built from it.  Partition, BasisConfig and Problem hold no arrays
and keep value equality (the round-trip tests of problem and exprlang check
it for problems and expression nodes).
"""

import pathlib

import numpy as np
import pytest

import bpcheb
from bpcheb.basis import BasisConfig, Partition
from bpcheb.expansion import CoeffVector
from bpcheb.kernel import FredholmOperator
from bpcheb.operational import OperationalMatrix
from bpcheb.problem import load
from bpcheb.quadrature import WeightedRule
from bpcheb.solver import AssembledSystem, HybridSolution, SystemSpec, hybrid_solve

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
CFG = BasisConfig(Partition((0.0, 0.4, 1.0)), 3)  # K=2, M=3; n=r=1 gives 6 coefficients


def _assembled(phi_blocks, b_blocks, Q=None):
    kernel = None if Q is None else FredholmOperator(Q, CFG)
    x0hat = CoeffVector(np.zeros(6), 2, 3, 1)
    return AssembledSystem(CFG, 1, 1, phi_blocks, b_blocks, kernel, x0hat)


# name -> (shape of the caller's array, build(array), the array the object holds)
HOLDERS = {
    "SystemSpec.x0": ((2,), lambda a: SystemSpec(2, 1, 0.0, 1.0, a), lambda o: o.x0),
    "CoeffVector.data": ((6,), lambda a: CoeffVector(a, 2, 3, 1), lambda o: o.data),
    "CoeffVector.from_tensor": ((2, 3, 1), CoeffVector.from_tensor, lambda o: o.data),
    "WeightedRule.nodes": ((3,), lambda a: WeightedRule(a, np.ones(3)), lambda o: o.nodes),
    "WeightedRule.weights": ((3,), lambda a: WeightedRule(np.zeros(3), a), lambda o: o.weights),
    "FredholmOperator.Q": ((6, 6), lambda a: FredholmOperator(a, CFG), lambda o: o.Q),
    "OperationalMatrix.P": ((6, 6), lambda a: OperationalMatrix(a, CFG), lambda o: o.P),
    "AssembledSystem.phi_blocks": (
        (2, 3, 3), lambda a: _assembled(a, np.zeros((2, 3, 3))), lambda o: o.phi_blocks),
    "AssembledSystem.b_blocks": (
        (2, 3, 3), lambda a: _assembled(np.zeros((2, 3, 3)), a), lambda o: o.b_blocks),
    "AssembledSystem.Q": (
        (6, 6), lambda a: _assembled(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), a), lambda o: o.Q),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_a_held_array_is_a_read_only_copy(name):
    shape, build, held = HOLDERS[name]
    mine = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    before = mine.copy()
    obj = build(mine)
    assert mine.flags.writeable  # the caller's array keeps its flags
    assert not held(obj).flags.writeable
    assert not np.shares_memory(mine, held(obj))
    mine[...] = -7.0  # a later write to the caller's array does not reach the object
    assert np.array_equal(held(obj).reshape(shape), before)
    with pytest.raises(ValueError, match="read-only"):
        held(obj)[...] = 0.0


def test_assembled_system_holds_the_operators_own_q():
    # one copy of Q per assemble: the operator's, not a second one
    kernel = FredholmOperator(np.eye(6), CFG)
    assert _assembled(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), None).Q is None
    asm = AssembledSystem(CFG, 1, 1, np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), kernel,
                          CoeffVector(np.zeros(6), 2, 3, 1))
    assert asm.Q is kernel.Q


def _solution():
    return hybrid_solve(SystemSpec(1, 1, 0.0, 1.0, [1.0]), CFG)


# one factory per class in bpcheb.__all__; the array holders compare by identity
IDENTITY = {
    CoeffVector: lambda: CoeffVector(np.zeros(6), 2, 3, 1),
    SystemSpec: lambda: SystemSpec(1, 1, 0.0, 1.0, [1.0]),
    WeightedRule: lambda: WeightedRule([0.5, -0.5], [0.7, 0.8]),
    FredholmOperator: lambda: FredholmOperator(np.eye(6), CFG),
    OperationalMatrix: lambda: OperationalMatrix(np.eye(6), CFG),
    HybridSolution: _solution,
    AssembledSystem: lambda: _assembled(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), np.eye(6)),
    bpcheb.ExpansionError: lambda: bpcheb.ExpansionError("x"),
    bpcheb.SingularMatrixError: lambda: bpcheb.SingularMatrixError(3, 0.0, 1e-14),
    bpcheb.SolveError: lambda: bpcheb.SolveError("x"),
    bpcheb.ProblemError: lambda: bpcheb.ProblemError("x"),
}
VALUE = {
    Partition: lambda: Partition((0.0, 0.4, 1.0)),
    BasisConfig: lambda: BasisConfig(Partition((0.0, 0.4, 1.0)), 3),
    bpcheb.Problem: lambda: load(PROBLEMS / "exp_decay_ivp.prob"),
}


def test_every_public_type_has_a_factory():
    public = {getattr(bpcheb, n) for n in bpcheb.__all__ if isinstance(getattr(bpcheb, n), type)}
    assert public == set(IDENTITY) | set(VALUE)


@pytest.mark.parametrize("cls", IDENTITY, ids=lambda c: c.__name__)
def test_array_holders_compare_and_hash_by_identity(cls):
    a, b = IDENTITY[cls](), IDENTITY[cls]()
    assert type(a) is cls
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert len({a, a, b}) == 2


@pytest.mark.parametrize("cls", VALUE, ids=lambda c: c.__name__)
def test_value_types_compare_and_hash_by_value(cls):
    a, b = VALUE[cls](), VALUE[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_problems_give_specs_that_are_not_equal():
    p = load(PROBLEMS / "exp_decay_ivp.prob")
    s1, s2 = p.system_spec(), p.system_spec()
    assert p == load(PROBLEMS / "exp_decay_ivp.prob")
    assert s1 != s2 and s1 == s1
    assert np.array_equal(s1.x0, s2.x0) and not np.shares_memory(s1.x0, s2.x0)
