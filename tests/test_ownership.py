"""Every array a bpcheb type holds is read-only and owned by it, and the types
that hold arrays compare and hash by identity.

A type given a caller's array holds a copy: the caller's array keeps its
flags, and a later write to it does not reach the object built from it.  The
operators (P, Q, and what AssembledSystem builds from a spec) are plain
read-only arrays, made where they are computed and never copied.  Partition,
BasisConfig and Problem hold no arrays and keep value equality (the
round-trip tests of problem and exprlang check it for problems and
expression nodes).
"""

import pathlib

import numpy as np
import pytest

import bpcheb
from bpcheb import solver
from bpcheb.basis import BasisConfig, Partition
from bpcheb.kernel import fredholm_operator
from bpcheb.operational import build_p
from bpcheb.problem import load
from bpcheb.quadrature import WeightedRule
from bpcheb.solver import AssembledSystem, HybridSolution, SystemSpec, assemble, hybrid_solve

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
CFG = BasisConfig(Partition((0.0, 0.4, 1.0)), 3)  # K=2, M=3; n=r=1 gives 6 coefficients


def _spec():
    return SystemSpec(2, 1, 0.0, 1.0, [1.0, -2.0],
                      A=lambda t: np.array([[0.0, 1.0], [-1.0, t]]),
                      B=lambda t: np.array([[0.0], [1.0 + t]]),
                      N=lambda t, s: np.array([[t * s, 0.0], [0.0, 1.0]]))


def _copy(shape, build, held):
    """A type given the caller's array holds the caller's values."""
    return shape, build, held, lambda before: before


def _computed(shape, build, held):
    """An operator computed from the caller's array holds what a build from
    an untouched copy of it gives."""
    return shape, build, held, lambda before: held(build(before.copy()))


def _returns(a):
    """A function of t (or of t and s) that returns the caller's array itself."""
    return lambda *ts: a


def _system(**data):
    return AssembledSystem(SystemSpec(2, 1, 0.0, 1.0, [1.0, -2.0], **data), CFG)


# name -> (shape of the caller's array, build(array), the array the object
# holds, what it holds given the caller's values).  P, Q and the coefficients
# keep the names of the classes that once held them: P and Q are now plain
# arrays, and the coefficients HybridSolution.xhat, a (K, M, n) array.
HOLDERS = {
    "SystemSpec.x0": _copy((2,), lambda a: SystemSpec(2, 1, 0.0, 1.0, a), lambda o: o.x0),
    "CoeffVector.data": _copy(
        (6,), lambda a: HybridSolution(CFG, a.reshape(2, 3, 1)), lambda o: o.xhat),
    "CoeffVector.from_tensor": _copy((2, 3, 1), lambda a: HybridSolution(CFG, a), lambda o: o.xhat),
    "WeightedRule.nodes": _copy((3,), lambda a: WeightedRule(a, np.ones(3)), lambda o: o.nodes),
    "WeightedRule.weights": _copy(
        (3,), lambda a: WeightedRule(np.zeros(3), a), lambda o: o.weights),
    "FredholmOperator.Q": _computed(
        (1, 1), lambda a: fredholm_operator(_returns(a), CFG), lambda o: o),
    "OperationalMatrix.P": _computed(
        (3,), lambda a: build_p(BasisConfig(Partition(a), 3)), lambda o: o),
    "AssembledSystem.Ahat": _computed(
        (2, 2), lambda a: _system(A=_returns(a)), lambda o: o.Ahat),
    "AssembledSystem.Bhat": _computed(
        (2, 1), lambda a: _system(B=_returns(a)), lambda o: o.Bhat),
    "AssembledSystem.Q": _computed(
        (2, 2), lambda a: _system(N=_returns(a)), lambda o: o.Q),
}


@pytest.mark.parametrize("name", HOLDERS)
def test_a_held_array_is_a_read_only_copy(name):
    shape, build, held, holds = HOLDERS[name]
    mine = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    before = mine.copy()
    obj = build(mine)
    assert mine.flags.writeable  # the caller's array keeps its flags
    assert type(held(obj)) is np.ndarray and not held(obj).flags.writeable
    assert not np.shares_memory(mine, held(obj))
    mine[...] = -7.0  # a later write to the caller's array does not reach the object
    want = holds(before)
    assert np.array_equal(held(obj), np.reshape(want, held(obj).shape))
    with pytest.raises(ValueError, match="read-only"):
        held(obj)[...] = 0.0


def test_assembled_system_holds_the_operators_own_q(monkeypatch):
    # one Q per assemble: the one fredholm_operator made, not a second copy
    made = []

    def kept(*args, **kwargs):
        made.append(fredholm_operator(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solver, "fredholm_operator", kept)
    assert _system().Q is None and not made
    asm = assemble(_spec(), CFG)
    assert len(made) == 1 and asm.Q is made[0]


def _assert_read_only(a):
    assert type(a) is np.ndarray and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0.0


def _held(asm):
    return asm.Ahat, asm.Bhat, asm.Q, asm.PkronT, asm.Bop, asm.system_matrix


def test_assembled_system_owns_read_only_arrays():
    spec = _spec()
    asm, other = assemble(spec, CFG), assemble(spec, CFG)
    for a in _held(asm):
        _assert_read_only(a)
    # two systems of one spec share nothing but the spec's own x0
    assert asm.x0 is spec.x0 and other.x0 is spec.x0
    for a in _held(asm):
        assert not any(np.shares_memory(a, b) for b in _held(other) + (spec.x0,))


def _solution():
    return hybrid_solve(SystemSpec(1, 1, 0.0, 1.0, [1.0]), CFG)


# one factory per class in bpcheb.__all__; the array holders compare by identity
IDENTITY = {
    SystemSpec: lambda: SystemSpec(1, 1, 0.0, 1.0, [1.0]),
    WeightedRule: lambda: WeightedRule([0.5, -0.5], [0.7, 0.8]),
    HybridSolution: _solution,
    AssembledSystem: lambda: AssembledSystem(_spec(), CFG),
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
