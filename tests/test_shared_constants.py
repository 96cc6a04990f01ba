"""The basis constants are built once per size, per rule or per partition,
shared read-only, and freed with the object they belong to."""

import gc
import weakref

import numpy as np
import pytest

from bpcheb import basis, expansion, kernel, operational, quadrature, solver
from bpcheb.basis import BasisConfig, Partition
from bpcheb.expansion import default_rule, nodes, product_tensor
from bpcheb.operational import block_integral_weights, build_phat, pt_parts
from bpcheb.quadrature import WeightedRule, gauss_u_rule, projection_matrix

PARTITION = Partition((0.0, 0.3, 0.45, 1.0))

SHARED = {
    "rule nodes": lambda: gauss_u_rule(9).nodes,
    "rule weights": lambda: gauss_u_rule(9).weights,
    "projection matrix": lambda: projection_matrix(4, gauss_u_rule(9)),
    "Phat": lambda: build_phat(5),
    "block integral weights": lambda: block_integral_weights(5),
    "product tensor": lambda: product_tensor(5),
    "fold weights": lambda: kernel._fold_weights(5),
    "march weights": lambda: solver._march_weights(5),
    "breakpoint array": lambda: PARTITION.breakpoint_array,
    "width array": lambda: PARTITION.width_array,
}


@pytest.mark.parametrize("name", SHARED)
def test_cached_array_is_read_only(name):
    arr = SHARED[name]()
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0.0


@pytest.mark.parametrize("name", SHARED)
def test_repeated_calls_return_the_same_object(name):
    assert SHARED[name]() is SHARED[name]()


@pytest.mark.parametrize("build", [build_phat, product_tensor, kernel._fold_weights,
                                   solver._march_weights])
def test_cache_is_keyed_by_type(build):
    """A float size fails as it does uncached, also after the int size is cached."""
    build(3)
    with pytest.raises(TypeError):
        build(3.0)


def test_partition_arrays_match_the_tuples():
    assert PARTITION.breakpoint_array.tolist() == list(PARTITION.breakpoints)
    bp = PARTITION.breakpoints
    assert PARTITION.width_array.tolist() == [b - a for a, b in zip(bp, bp[1:])]


def test_default_rule_is_shared_per_m():
    cfg = BasisConfig(PARTITION, 6)
    other = BasisConfig.uniform(-2.0, 5.0, 7, 6)
    assert default_rule(cfg) is default_rule(other) is gauss_u_rule(14)
    assert default_rule(BasisConfig(PARTITION, 7)) is not default_rule(cfg)


def test_custom_rule_gets_its_own_projection():
    shared = gauss_u_rule(9)
    custom = WeightedRule(shared.nodes, 2.0 * shared.weights)
    proj = projection_matrix(4, custom)
    assert proj is not projection_matrix(4, shared)
    assert proj is projection_matrix(4, custom)
    assert np.array_equal(proj, 2.0 * projection_matrix(4, shared))
    # an equal rule is another object with its own matrix
    twin = WeightedRule(shared.nodes, shared.weights)
    assert projection_matrix(4, twin) is not projection_matrix(4, shared)
    assert np.array_equal(projection_matrix(4, twin), projection_matrix(4, shared))
    # each degree has its own matrix, whose rows agree with the larger one's
    assert np.array_equal(projection_matrix(2, custom), proj[:3])


def test_projection_lives_as_long_as_its_rule():
    rule = WeightedRule(np.array([0.5, -0.5]), np.array([0.7, 0.8]))
    ref = weakref.ref(projection_matrix(3, rule))
    assert ref() is not None
    del rule
    gc.collect()
    assert ref() is None


def module_level_sizes() -> dict:
    """Entry counts of every cache and container held at module level."""
    sizes = {}
    for mod in (basis, quadrature, expansion, operational, kernel, solver):
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                sizes[mod.__name__, name] = obj.cache_info().currsize
            elif isinstance(obj, (dict, list, set)):
                sizes[mod.__name__, name] = len(obj)
    return sizes


def touch_every_constant(cfg: BasisConfig) -> None:
    rule = default_rule(cfg)
    projection_matrix(cfg.M - 1, rule)
    nodes(cfg, rule)
    pt_parts(cfg, np.zeros((cfg.K, cfg.M, 1)))
    kernel._fold_weights(cfg.M)
    solver._march_weights(cfg.M)


def test_many_configs_leave_no_module_level_entries():
    for M in (3, 4):
        touch_every_constant(BasisConfig.uniform(0.0, 1.0, 2, M))
    before = module_level_sizes()
    projections = len(gauss_u_rule(3 + expansion.DEFAULT_EXTRA_ORDER)._projections)
    for i in range(10_000):
        touch_every_constant(BasisConfig(Partition((0.0, 0.25 + i * 5e-5, 1.0)), 3 + i % 2))
    assert module_level_sizes() == before
    assert len(gauss_u_rule(3 + expansion.DEFAULT_EXTRA_ORDER)._projections) == projections


def test_deleted_partition_is_collected():
    spec = solver.SystemSpec(
        n=1, r=1, t0=0.0, tf=1.0, x0=[1.0],
        A=lambda t: np.array([[-1.0]]),
        N=lambda t, s: np.array([[t * s]]),
        B=lambda t: np.array([[1.0]]),
        u=lambda t: np.array([1.0]),
    )
    partition = Partition((0.0, 0.4, 1.0))
    sol = solver.hybrid_solve(spec, BasisConfig(partition, 5))
    sol.evaluate_many([0.0, 0.5, 1.0])
    sol.derivative(0.7)
    solver.residual(spec, sol, [0.2, 0.9])
    assert partition.breakpoint_array is not None and partition.width_array is not None
    ref = weakref.ref(partition)
    del partition, sol
    gc.collect()
    assert ref() is None
