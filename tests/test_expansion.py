import math
import os
import re
import threading
import warnings

import numpy as np
import pytest

from bpcheb.basis import (
    BasisConfig,
    Partition,
    chebyshev_u_eval,
    chebyshev_u_series,
)
from bpcheb.expansion import (
    PROBE_RTOL,
    ExpansionError,
    default_rule,
    expand_matrix,
    expand_vector,
    nodes,
    product_blocks,
    product_coeff,
    product_tensor,
    project,
    sample,
    synthesize,
    _Nodes,
)
from bpcheb.problem import load
from bpcheb.quadrature import gauss_u_rule, projection_matrix
from bpcheb.solver import HybridSolution

from conftest import (block_of, expdecay_A, global_of_local, in_order, in_threads, pointwise,
                      poly_A, to_local)

PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


class TestCoeffVector:
    """Coefficients are read-only (K, M, n) arrays, as expand_vector makes them."""

    def test_layout_contract(self):
        # entry (k, m, c) is block k's degree-m coefficient of component c, and sits
        # at flat index ((k-1)*M + m)*n + c of the array flattened in C order
        K, M, n = 3, 4, 2
        cfg = BasisConfig.uniform(0, 1, K, M)
        parts = (np.exp, lambda t: np.sin(3 * t))
        coeffs = expand_vector(lambda t: np.array([g(t) for g in parts]), cfg)
        assert type(coeffs) is np.ndarray and coeffs.shape == (K, M, n)
        assert coeffs.flags.c_contiguous and not coeffs.flags.writeable
        flat = coeffs.reshape(-1)
        for c, g in enumerate(parts):
            own = expand_vector(g, cfg)
            for k in range(1, K + 1):
                for m in range(M):
                    assert flat[((k - 1) * M + m) * n + c] == coeffs[k - 1, m, c]
                    assert coeffs[k - 1, m, c] == pytest.approx(own[k - 1, m, 0], rel=1e-14,
                                                                abs=1e-15)

    def test_rejects_wrong_length(self):
        # a solution holds coefficients only in its basis's (K, M, n) shape, never flat
        cfg = BasisConfig.uniform(0, 1, 2, 2)
        for bad in (np.zeros(5), np.zeros(8), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"^xhat has shape .*, expected \(2, 2, n\)"):
                HybridSolution(cfg, bad)

    def test_zeros(self):
        # the zero function expands to exactly zero coefficients, M*K*n of them
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        cv = expand_vector(lambda t: np.zeros(2), cfg)
        assert cv.shape == (2, 3, 2)
        assert not cv.any()


class TestNodesAndSample:
    def test_nodes_pull_back_to_every_block(self):
        cfg = BasisConfig(Partition((0.0, 0.25, 0.6, 1.0)), 4)
        rule = default_rule(cfg)
        grid = nodes(cfg, rule)
        assert grid.shape == (3, len(rule.nodes))
        for k in (1, 2, 3):
            for x, t in zip(rule.nodes, grid[k - 1]):
                assert t == global_of_local(x, k, cfg.partition)

    def test_sample_stacks_by_block_and_node(self):
        grid = np.array([[0.1, 0.2], [0.6, 0.9]])
        got = sample(lambda t: [t, 2 * t], grid, "vector function", 1)
        np.testing.assert_array_equal(got, np.stack([grid, 2 * grid], axis=-1))
        kern = sample(lambda t, s: t - s, grid, "kernel", 2, t=0.5)
        np.testing.assert_array_equal(kern, (0.5 - grid)[:, :, None, None])

    def test_sample_shape_change_names_the_point(self):
        grid = np.array([[0.1, 0.2], [0.6, 0.9]])
        f = lambda t: [1.0, 2.0] if t < 0.5 else [1.0]
        expected = r"t=0.6 \(block 2\) has shape \(1,\), expected \(2,\)"
        with pytest.raises(ExpansionError, match=expected):
            sample(f, grid, "vector function", 1)


class _Recorder:
    """Counts calls, and those with an array or a _Nodes argument (np.ndim of
    a _Nodes is 0, like that of a single node)."""

    def __init__(self, fn):
        self.fn, self.calls, self.array_calls, self.node_calls = fn, 0, 0, 0

    def __call__(self, *args):
        self.calls += 1
        self.array_calls += any(np.ndim(a) for a in args)
        self.node_calls += any(isinstance(a, _Nodes) for a in args)
        return self.fn(*args)


def _matrix_fn(t):
    return np.array([[np.sin(t) + 0.0 * t, t * t], [np.ones_like(t), np.exp(-t)]])


# one 2x2 datum of t, or kernel of (t, s), in three forms with the same samples on
# every path: arithmetic only, so a grid call and the per-point calls agree bit for bit
def _broadcasting(*x):
    t, s = x[0], x[-1]
    return np.array([[1.0 + 0 * s, t + 0 * s], [t * s, s - t * t]])


def _ragged(*x):
    t, s = x[0], x[-1]
    return np.array([[1.0, t], [t * s, s - t * t]])


def _overwriting():
    buffer = []

    def f(*x):
        val = _broadcasting(*x)
        if not buffer:
            buffer.append(val)
            return val
        buffer[0][...] = val.reshape(val.shape + (1,) * (buffer[0].ndim - val.ndim))
        return val

    return f


class TestGridSampling:
    GRID = np.array([[0.1, 0.2, 0.35], [0.6, 0.7, 0.9]])

    def test_matrix_one_call_equals_pointwise(self):
        grid_fn = _Recorder(_matrix_fn)
        got = sample(grid_fn, self.GRID, "matrix function", 2)
        assert (grid_fn.calls, grid_fn.array_calls) == (3, 1)  # the grid, then two probes
        assert got.flags.c_contiguous
        assert np.array_equal(got, sample(pointwise(_matrix_fn), self.GRID, "matrix function", 2))

    def test_vector_and_scalar_results(self):
        vec = sample(lambda t: np.array([t, 2 * t]), self.GRID, "vector function", 1)
        np.testing.assert_array_equal(vec, np.stack([self.GRID, 2 * self.GRID], axis=-1))
        column = sample(lambda t: np.array([[t]]), self.GRID, "vector function", 1)
        assert column.shape == (2, 3, 1) and column.flags.c_contiguous
        np.testing.assert_array_equal(column, self.GRID[:, :, None])
        scalar = sample(lambda t: 3 * t, self.GRID, "matrix function", 2)
        np.testing.assert_array_equal(scalar, 3 * self.GRID[:, :, None, None])

    def test_kernel_over_outer_times(self):
        kern = lambda t, s: np.array([[t - s, t * s]])  # noqa: E731
        ts = np.array([0.15, 0.5, 0.8])
        grid_fn = _Recorder(kern)
        got = sample(grid_fn, self.GRID, "kernel", 2, t=ts)
        assert (grid_fn.calls, grid_fn.array_calls) == (3, 1)
        assert got.shape == (3, 2, 3, 1, 2) and got.flags.c_contiguous
        want = np.stack([sample(pointwise(kern), self.GRID, "kernel", 2, t=t) for t in ts])
        assert np.array_equal(got, want)

    def test_kernel_gets_full_read_only_views(self):
        seen = []

        def kern(t, s):
            seen.append((t.shape, s.shape, t.flags.writeable, s.flags.writeable))
            return t * s

        sample(kern, self.GRID, "kernel", 2, t=np.array([0.15, 0.5, 0.8]))
        assert seen[0] == ((3, 2, 3), (3, 2, 3), False, False)

    def test_datum_of_t_gets_one_read_only_view_of_the_grid(self):
        grid = self.GRID.copy()
        seen = []

        def f(*x):
            val = _broadcasting(*x)
            if isinstance(x[0], np.ndarray) and x[0].ndim:  # the grid call, not a probe
                seen.append((len(x), x[0].shape, x[0].flags.writeable))
                with pytest.raises(ValueError, match="read-only"):
                    x[0][...] = 0.0
            return val

        got = sample(f, grid, "A", 2)
        assert seen == [(1, (2, 3), False)]
        assert np.array_equal(grid, self.GRID)
        assert np.array_equal(got, sample(pointwise(_broadcasting), self.GRID, "A", 2))

    # the samples of a datum of t alone (A and B with ndim 2, u with ndim 1) on every
    # path equal the pointwise samples bit for bit, as one C-contiguous array
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("make", [
        lambda: _broadcasting, lambda: _ragged, lambda: pointwise(_ragged), _overwriting,
    ], ids=["array", "nodes", "pointwise", "overwrites"])
    def test_datum_of_t_samples_on_every_path(self, make, ndim):
        got = sample(make(), self.GRID, "u", ndim)
        assert got.flags.c_contiguous and got.shape == (2, 3) + ((4,) if ndim == 1 else (2, 2))
        assert np.array_equal(got, sample(pointwise(_ragged), self.GRID, "u", ndim))

    def test_failure_falls_back_to_the_located_error(self):
        def fn(t):
            if np.any(t == 0.7):
                raise ZeroDivisionError("boom")
            return t

        grid_fn = _Recorder(fn)
        with pytest.raises(ExpansionError, match=r"vector function failed at t=0.7 \(block 2\): boom"):
            sample(grid_fn, self.GRID, "vector function", 1)
        # the truth test fails the _Nodes call too; then point by point
        assert (grid_fn.array_calls, grid_fn.node_calls, grid_fn.calls) == (1, 1, 1 + 1 + 5)

    def test_failing_kernel_grid_call_names_t_s_and_block(self):
        def kern(t, s):
            if np.any((t == 0.5) & (s == 0.7)):
                raise ArithmeticError("nope")
            return t * s

        with pytest.raises(ExpansionError,
                           match=r"kernel failed at \(t=0.5, s=0.7\) \(inner block 2\): nope"):
            sample(kern, self.GRID, "kernel", 2, t=np.array([0.15, 0.5, 0.8]))

    def test_wrong_grid_shape_falls_back(self):
        # a callable that ignores its argument's shape is sampled point by point
        got = sample(lambda t: np.array([1.0, 2.0]), self.GRID, "vector function", 1)
        np.testing.assert_array_equal(got, np.broadcast_to([1.0, 2.0], (2, 3, 2)))

    def test_zero_d_entries_count_as_their_value(self):
        # np.ones_like of a _Nodes is a 0-d object array holding 1
        grid_fn = _Recorder(lambda t: np.array([[np.ones_like(t), t], [t, 1.0]]))
        got = sample(grid_fn, self.GRID, "matrix function", 2)
        # the ragged array call fails, the _Nodes call is kept after its two probes
        assert (grid_fn.calls, grid_fn.array_calls, grid_fn.node_calls) == (4, 1, 1)
        want = sample(pointwise(grid_fn.fn), self.GRID, "matrix function", 2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fn", [
        expdecay_A,  # the constant entries make the array ragged
        lambda t: math.exp(-t),
        lambda t: np.array([t, 1.0]) if t < 0.5 else np.array([np.sin(t), t]),
    ])
    def test_scalar_only_callables_fall_back(self, fn):
        # each fails the array call; the _Nodes call serves expdecay_A (then its two
        # probes), while math.exp and the branch on t go on to one call per node
        grid_fn = _Recorder(fn)
        got = sample(grid_fn, self.GRID, "matrix function", 2)
        later = 2 if fn is expdecay_A else self.GRID.size
        assert (grid_fn.calls, grid_fn.array_calls, grid_fn.node_calls) == (2 + later, 1, 1)
        want = sample(pointwise(fn), self.GRID, "matrix function", 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=PROBE_RTOL * np.abs(want).max())
        if fn is not expdecay_A:
            assert np.array_equal(got, want)

    def test_probe_catches_wrong_values_of_the_right_shape(self):
        # at K=2, C @ [sin t, cos t] broadcasts to the shape of a vector sample
        # but mixes the blocks; only a probe can tell
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        u = lambda t: c @ np.array([np.sin(t), np.cos(t)])  # noqa: E731
        assert u(self.GRID).shape == (2,) + self.GRID.shape
        grid_fn = _Recorder(u)
        got = sample(grid_fn, self.GRID, "vector function", 1)
        # the first probe fails; C @ [sin t, cos t] on _Nodes is an object matmul,
        # node by node, kept after its two probes
        assert (grid_fn.calls, grid_fn.node_calls) == (1 + 1 + 1 + 2, 1)
        assert np.array_equal(got, sample(pointwise(u), self.GRID, "vector function", 1))

    def test_nan_from_the_grid_falls_back(self):
        def fn(t):
            out = np.array(t, dtype=float)
            if out.ndim:
                out[1, 1] = np.nan  # not a probe point
            return out

        grid_fn = _Recorder(fn)
        got = sample(grid_fn, self.GRID, "vector function", 1)
        assert grid_fn.calls == 1 + 1 + self.GRID.size  # float() fails the _Nodes call
        np.testing.assert_array_equal(got, self.GRID[:, :, None])

    def test_probe_tolerance(self):
        # off by 1e-14 relative: kept; by 1e-12: dropped; an inf result is never kept
        for eps, kept in ((1e-14, True), (1e-12, False)):
            fn = lambda t, eps=eps: t * (1.0 + eps) if np.ndim(t) else t  # noqa: E731
            grid_fn = _Recorder(fn)
            got = sample(grid_fn, self.GRID, "vector function", 1)
            # dropped: the first probe fails, then the _Nodes call (ndim 0: t itself) and
            # its two probes
            assert grid_fn.calls == (3 if kept else 2 + 3)
            assert np.array_equal(got, fn(self.GRID)[:, :, None] if kept else self.GRID[:, :, None])
        # neither inf grid result is kept: the array call, the _Nodes call, then the first
        # per-node call names the first inf sample
        inf = _Recorder(lambda t: np.full(np.shape(t), np.inf))
        with pytest.raises(ExpansionError, match=r"^vector function is inf at t=0.1 \(block 1\)$"):
            sample(inf, self.GRID, "vector function", 1)
        assert inf.calls == 3

    def test_warnings_from_every_grid_call(self):
        def fn(t, keep):
            if isinstance(t, np.ndarray):
                warnings.warn("array call", UserWarning)
                return t if keep == "array" else t[:1]
            if isinstance(t, _Nodes):
                warnings.warn("_Nodes call", UserWarning)
                return t if keep == "_Nodes" else float(t)
            return t

        # a dropped attempt's warnings reach the caller as well as a kept one's
        for keep, want in (("array", ["array call"]), ("_Nodes", ["array call", "_Nodes call"]),
                           (None, ["array call", "_Nodes call"])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = sample(lambda t: fn(t, keep), self.GRID, "vector function", 1)
            assert [str(w.message) for w in caught] == want
            assert np.array_equal(got, self.GRID[:, :, None])

    def test_concurrent_sampling_leaves_the_warning_filters_as_they_were(self):
        # each grid attempt swaps the process-wide filters; interleaved, one swap used to stay
        cfg = BasisConfig.uniform(0.0, 1.0, 4, 6)
        before = list(warnings.filters)
        in_threads(lambda: [expand_vector(lambda t: np.array([t, np.exp(-t)]), cfg)
                            for _ in range(500)])
        assert warnings.filters == before

    @pytest.mark.parametrize("t", [0.5, np.array([[0.15, 0.5], [0.8, 0.95]])], ids=["scalar", "2d"])
    def test_pointwise_kernel_sees_numpy_scalars_in_c_order(self, t):
        seen = []

        def kern(t, s):  # refuses the grid and _Nodes calls
            if type(t) is not np.float64 or type(s) is not np.float64:
                raise TypeError("one point at a time")
            seen.append((t, s))
            return t - s

        got = sample(kern, self.GRID, "kernel", 2, t=t)
        tt, ss = np.broadcast_arrays(np.reshape(t, np.shape(t) + (1, 1)), self.GRID)
        assert seen == list(zip(tt.flat, ss.flat))
        assert np.array_equal(got, (tt - ss)[..., None, None])

    @pytest.mark.parametrize("grid", [False, True])
    def test_expected_shape_names_the_datum(self, grid):
        f = _matrix_fn if grid else pointwise(_matrix_fn)
        with pytest.raises(ExpansionError, match=r"failed at t=0.1 \(block 1\): A\(0.1\) has "
                                                 r"shape \(2, 2\), expected \(3, 3\)"):
            sample(f, self.GRID, "A", 2, shape=(3, 3))
        vec = lambda t: np.array([t, t])  # noqa: E731
        with pytest.raises(ExpansionError, match=r"u\(0.1\) has 2 components, expected 1"):
            sample(vec if grid else pointwise(vec), self.GRID, "u", 1, shape=(1,))


    # f returns one buffer from its grid call and overwrites all of it on each later
    # call, so the grid samples are copied before the probe calls, in every layout: a
    # scalar f's result is already C-contiguous as (K, q) + (1, 1) or (K, q, 1)
    @pytest.mark.parametrize("via", ["sample", "expand_matrix", "expand_vector"])
    @pytest.mark.parametrize("ref", [
        lambda t: np.array([[np.sin(t), t], [t * t, 1.0 + 0 * t]]),
        lambda t: np.sin(t) + t,
    ], ids=["2x2", "scalar"])
    def test_grid_buffer_overwritten_by_the_probe_calls(self, via, ref):
        buffer = []

        def f(t):
            val = ref(t)
            if not buffer:
                buffer.append(val)
                return val
            buffer[0][...] = val.reshape(val.shape + (1,) * (buffer[0].ndim - val.ndim))
            return val

        cfg = BasisConfig(Partition((0.0, 0.5, 1.0)), 3)
        if via == "sample":
            assert np.array_equal(sample(f, self.GRID, "A", 2), sample(ref, self.GRID, "A", 2))
        else:
            expand = expand_matrix if via == "expand_matrix" else expand_vector
            assert np.array_equal(expand(f, cfg), expand(ref, cfg))

    # axes= gives the samples in another axis order, as one C-contiguous array, on
    # every path: the permutations are expand_matrix's and sample_kernel's (t given)
    @pytest.mark.parametrize("t, axes", [(None, (1, 0, 2, 3)),
                                         (np.array([[0.15, 0.5], [0.8, 0.95]]), (1, 3, 0, 2, 4, 5))],
                             ids=["matrix", "kernel"])
    @pytest.mark.parametrize("make", [
        lambda: _broadcasting,
        lambda: _ragged,  # the array call fails, so the _Nodes call is kept
        lambda: pointwise(_ragged),  # both grid calls fail: one call per point
        _overwriting,  # the probe calls overwrite the buffer the grid call returned
    ], ids=["array", "nodes", "pointwise", "overwrites"])
    def test_axes_give_the_transposed_samples(self, make, t, axes):
        got = sample(make(), self.GRID, "N", 2, t, axes=axes)
        plain = sample(make(), self.GRID, "N", 2, t)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.ascontiguousarray(plain.transpose(axes)))
        assert np.array_equal(plain, sample(pointwise(_ragged), self.GRID, "N", 2, t))


class TestWarningsAndThreads:
    """The grid attempts run under np.errstate(all="ignore"), which numpy keeps
    per thread: sampling holds no lock and leaves every warning but numpy's
    floating-point ones to the caller's filters."""

    GRID = TestGridSampling.GRID
    CFG = BasisConfig.uniform(0.0, 1.0, 1, 3)  # t=0.5 is one of the 11 nodes

    @staticmethod
    def noted(t):  # warns in every call
        warnings.warn("user note", UserWarning)
        return np.array([t])

    def test_datum_may_wait_on_sampling_in_another_thread(self):
        alive = []

        def u(t):
            if isinstance(t, np.ndarray):
                inner = threading.Thread(target=expand_vector, args=(np.exp, self.CFG), daemon=True)
                inner.start()
                inner.join(timeout=5)
                alive.append(inner.is_alive())
            return np.array([t])

        expand_vector(u, self.CFG)
        assert alive == [False]

    def test_two_threads_sample_at_once(self):
        barrier, met = threading.Barrier(2, timeout=5), []

        def u(t):
            if isinstance(t, np.ndarray):
                barrier.wait()  # both array calls run at the same time
                met.append(True)
            return np.array([t])

        in_threads(lambda: expand_vector(u, self.CFG), count=2)
        assert met == [True, True]

    def test_masked_division_is_silent(self):
        assert 0.5 in nodes(self.CFG, default_rule(self.CFG))
        f = lambda t: np.array([np.where(t > 0.5, 1 / (t - 0.5), 0.0)])  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expand_vector(f, self.CFG)
        with np.errstate(divide="ignore"):  # one node at a time, 1/0 at t=0.5 warns
            want = expand_vector(lambda t: f(np.float64(float(t))), self.CFG)
        assert got.tobytes() == want.tobytes()

    def test_warning_as_error_is_a_located_error(self):
        t = nodes(self.CFG, default_rule(self.CFG))[0, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpansionError,
                               match=rf"^u failed at t={re.escape(str(t))} \(block 1\): user note$"):
                expand_vector(self.noted, self.CFG, expect=("u", (1,)))

    def test_warning_of_a_kept_call_is_emitted_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # the array call and both probes warn
            got = sample(self.noted, self.GRID, "u", 1)
        assert [str(w.message) for w in caught] == ["user note"]
        assert np.array_equal(got, self.GRID[:, :, None])

    def test_pointwise_overflow_still_warns(self):
        # the first node overflows, warns and ends the loop
        u = lambda t: np.array([np.exp(1e4 * np.float64(float(t)))])  # noqa: E731
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExpansionError, match=r"^u is inf at t=0.1 \(block 1\)$"):
                sample(u, self.GRID, "u", 1)
        assert [str(w.message) for w in caught] == ["overflow encountered in exp"]


class TestNodesCall:
    """The second grid call, with _Nodes: kept only where every step acts node by node."""

    GRID = TestGridSampling.GRID

    @pytest.mark.parametrize("f", [
        lambda t: np.array([[1.0, t if 0.3 < t < 0.6 else 2 * t]]),
        lambda t: np.array([[1.0, 2 * t if t < 0.3 or t > 0.6 else t]]),
    ])
    def test_branch_only_the_middle_nodes_take(self, f):
        # the probe nodes 0.1 and 0.9 both take 2 t, so only __bool__ can stop this
        grid_fn = _Recorder(f)
        got = sample(grid_fn, self.GRID, "matrix function", 2)
        assert (grid_fn.calls, grid_fn.node_calls) == (2 + self.GRID.size, 1)
        assert got[0, 2, 0, 1] == 0.35
        assert np.array_equal(got, sample(pointwise(f), self.GRID, "matrix function", 2))

    @pytest.mark.parametrize("f, probes", [
        pytest.param(lambda t: np.array([[1.0, math.exp(-t)]]), 0, id="math.exp"),
        pytest.param(lambda t: np.array([[1.0, float(t)]]), 0, id="float"),
        pytest.param(lambda t: np.eye(2) * t, 0, id="ndarray operand"),
        pytest.param(lambda t: np.array([[1.0, np.where(t < 0.5, t, 1.0)]]), 0, id="np.where"),
        # the _Nodes call gives 2 t; the first probe, a numpy float, gives t
        pytest.param(lambda t: np.array([[1.0, t if isinstance(t, float) else 2 * t]]), 1,
                     id="isinstance"),
    ])
    def test_scalar_only_steps_fall_back(self, f, probes):
        grid_fn = _Recorder(f)
        got = sample(grid_fn, self.GRID, "matrix function", 2)
        assert (grid_fn.array_calls, grid_fn.node_calls) == (1, 1)
        assert grid_fn.calls == 2 + probes + self.GRID.size
        assert np.array_equal(got, sample(pointwise(f), self.GRID, "matrix function", 2))

    def test_ragged_matrix_and_kernel_are_kept(self):
        ts = np.array([0.15, 0.5, 0.8])
        kern = lambda t, s: np.array([[1.0, t - s]])  # noqa: E731
        for f, t in ((expdecay_A, None), (kern, ts)):
            grid_fn = _Recorder(f)
            got = sample(grid_fn, self.GRID, "matrix function", 2, t=t)
            # the failed array call, the _Nodes call, two probes
            assert (grid_fn.calls, grid_fn.array_calls, grid_fn.node_calls) == (4, 1, 1)
            assert got.flags.c_contiguous
            want = sample(pointwise(f), self.GRID, "matrix function", 2, t=t)
            np.testing.assert_allclose(got, want, rtol=0, atol=PROBE_RTOL * np.abs(want).max())

    def test_complex_entry_is_named(self):
        f = lambda t: np.array([[1.0, 1j * t]])  # noqa: E731
        with pytest.raises(ExpansionError, match=r"^A is 0.1j at t=0.1 \(block 1\): data must be real$"):
            sample(f, self.GRID, "A", 2, shape=(1, 2))


class TestExpandScalarBlock:
    """Scalar functions through expand_vector, checked block by block."""

    def test_constant(self):
        cfg = BasisConfig.uniform(0, 2, 3, 5)
        coeffs = expand_vector(lambda t: 1.0, cfg)[:, :, 0]
        np.testing.assert_allclose(coeffs, [[1, 0, 0, 0, 0]] * 3, atol=1e-14)

    def test_linear_single_block(self):
        # t on [0, 1] pulls back to (x+1)/2 = (1/2) S_0 + (1/4) S_1
        cfg = BasisConfig.uniform(0, 1, 1, 4)
        coeffs = expand_vector(lambda t: t, cfg)[0][:, 0]
        np.testing.assert_allclose(coeffs, [0.5, 0.25, 0, 0], atol=1e-14)

    def test_quadratic_reconstructs(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        coeffs = expand_vector(lambda t: t**2, cfg)[0][:, 0]
        for x in np.linspace(-1, 1, 50):
            t = global_of_local(x, 1, cfg.partition)
            val = sum(c * chebyshev_u_eval(m, x) for m, c in enumerate(coeffs))
            assert val == pytest.approx(t**2, abs=1e-13)

    def test_evaluation_failure_carries_context(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)

        def bad(t):
            if t > 0.5:
                raise ArithmeticError("boom")
            return 1.0

        with pytest.raises(ExpansionError, match=r"failed at t=.* \(block 2\): boom"):
            expand_vector(bad, cfg)


class TestExpandVector:
    def test_zero_function(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        cv = expand_vector(lambda t: np.array([0.0, 0.0]), cfg)
        assert not cv.any()

    def test_constant_control(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        tensor = expand_vector(lambda t: np.array([1.0]), cfg)
        np.testing.assert_allclose(tensor[:, 0, 0], 1.0, atol=1e-14)
        np.testing.assert_allclose(tensor[:, 1:, 0], 0.0, atol=1e-14)

    def test_exponential_pair_reconstructs(self):
        cfg = BasisConfig.uniform(0, 1, 4, 9)
        cv = expand_vector(lambda t: np.array([np.exp(-t), 3 * np.exp(-t)]), cfg)
        ts = np.linspace(0, 1, 100)
        worst = max(
            np.max(np.abs(synthesize(cv, cfg, t) - np.array([np.exp(-t), 3 * np.exp(-t)])))
            for t in ts
        )
        assert worst < 1e-9

    def test_scalar_return_accepted(self):
        cfg = BasisConfig.uniform(0, 1, 1, 3)
        cv = expand_vector(lambda t: 2.5, cfg)
        assert cv.shape[2] == 1
        np.testing.assert_allclose(cv[0, :, 0], [2.5, 0, 0], atol=1e-14)


def _first_flat(grid, mask):
    """The first node of grid (flat order, as the samples are stored) where mask
    holds, and its 1-based block."""
    i = int(np.argmax(mask.reshape(-1)))
    return grid.reshape(-1)[i], i // grid.shape[1] + 1


class TestNonFiniteData:
    """Non-finite samples are named where they enter: sample raises on the first."""

    CFG = BasisConfig(Partition((0.0, 0.3, 0.55, 1.0)), 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("grid_call", [True, False])
    def test_vector_names_datum_first_t_and_block(self, bad, grid_call):
        f = lambda t: np.where(t > 0.6, bad, 1.0)
        grid = nodes(self.CFG, default_rule(self.CFG))
        t, k = _first_flat(grid, grid > 0.6)
        with pytest.raises(ExpansionError, match=rf"^u is {bad} at t={t} \(block {k}\)$"):
            expand_vector(f if grid_call else pointwise(f), self.CFG, expect=("u", (1,)))
        with pytest.raises(ExpansionError, match=rf"^vector function is {bad} at t={t} "):
            expand_vector(f, self.CFG)

    def test_non_numeric_entry_is_nan_on_the_pointwise_path(self):
        # None is no real scalar: _nodes_layout drops the _Nodes call (TypeError), and
        # on the pointwise path, one node per call, None converts to nan
        grid = nodes(self.CFG, default_rule(self.CFG))
        with pytest.raises(ExpansionError,
                           match=rf"^vector function is nan at t={grid[0, 0]} \(block 1\)$"):
            expand_vector(lambda t: np.array([t, None]), self.CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sign, bad", [(1.0, "-inf"), (-1.0, "inf")])
    def test_matrix_inf_from_the_nodes_call(self, sign, bad):
        # scalar code: the array call is ragged, the _Nodes call returns every sample,
        # with an infinite one wherever t <= 0.4; it is not kept, and the per-node loop
        # names the first
        A = _Recorder(lambda t: np.array([[1.0, sign * np.log(np.maximum(t - 0.4, 0.0))],
                                          [t, 1.0]]))
        grid = nodes(self.CFG, default_rule(self.CFG))
        t, k = _first_flat(grid, grid <= 0.4)
        with pytest.raises(ExpansionError, match=rf"^A is {bad} at t={t} \(block {k}\)$"):
            expand_matrix(A, self.CFG, expect=("A", (2, 2)))
        assert (A.array_calls, A.node_calls, A.calls) == (1, 1, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matrix_nan_on_part_of_the_domain(self):
        # the array call is ragged; the _Nodes call computes every sample and is dropped
        # only for its NaN, so the per-node loop names the first
        A = lambda t: np.array([[1.0, np.sqrt(t - 0.4)], [t, 1.0]])
        grid = nodes(self.CFG, default_rule(self.CFG))
        t, k = _first_flat(grid, grid < 0.4)
        with pytest.raises(ExpansionError, match=rf"^A is nan at t={t} \(block {k}\)$"):
            expand_matrix(A, self.CFG, expect=("A", (2, 2)))
        with pytest.raises(ExpansionError, match=rf"^matrix function is nan at t={t} "):
            expand_matrix(A, self.CFG)


class TestPointwiseSampling:
    """The per-node path: one call per node, each sample converted as it comes back."""

    GRID = np.array([[0.1, 0.2, 0.35], [0.6, 0.7, 0.9]])

    def test_each_node_once_in_order_with_numpy_scalars(self):
        args = []

        def ragged(*xs):  # float() fails both grid calls
            args.append(xs)
            x = float(xs[-1])
            return np.array([[1.0, x], [x, 2.0]])

        got = sample(ragged, self.GRID, "A", 2, shape=(2, 2))
        scalar_calls = args[2:]
        assert len(args) == 2 + self.GRID.size  # the failed array and _Nodes calls, then each node
        assert isinstance(args[0][0], np.ndarray) and isinstance(args[1][0], _Nodes)
        assert [x for (x,) in scalar_calls] == list(self.GRID.flat)
        assert all(type(x) is np.float64 for (x,) in scalar_calls)
        assert got.shape == (2, 3, 2, 2) and got.flags.c_contiguous
        assert np.array_equal(got[..., 0, 1], self.GRID)

        args.clear()
        ts = np.array([0.15, 0.8])
        kern = sample(ragged, self.GRID, "kernel", 2, t=ts)
        scalar_calls = args[2:]
        assert len(args) == 2 + ts.size * self.GRID.size
        assert all(isinstance(a, _Nodes) for a in args[1])
        assert scalar_calls == [(t, s) for t in ts for s in self.GRID.flat]
        assert all(type(t) is np.float64 and type(s) is np.float64 for t, s in scalar_calls)
        assert np.array_equal(kern[..., 0, 1], np.broadcast_to(self.GRID, (2, 2, 3)))

    def test_matches_per_sample_conversion(self):
        # a float32 datum, an int datum and a list datum all convert as one sample at a time
        for f in (lambda t: np.float32(t) * np.ones((1, 2), np.float32) + 0 * float(t),
                  lambda t: [[int(10 * t), 1]],
                  lambda t: [[t, 1.0]]):
            got = sample(f, self.GRID, "matrix function", 2)
            want = np.array([np.array(f(x), dtype=float, ndmin=2) for x in self.GRID.flat])
            assert got.dtype == float and np.array_equal(got, want.reshape(2, 3, 1, 2))

    def test_vector_mixing_scalars_and_one_vectors(self):
        f = lambda t: float(t) if t < 0.5 else np.array([2 * float(t)])  # noqa: E731
        got = sample(f, self.GRID, "u", 1, shape=(1,))
        assert np.array_equal(got[..., 0], np.where(self.GRID < 0.5, self.GRID, 2 * self.GRID))
        cfg = BasisConfig(Partition((0.0, 0.5, 1.0)), 3)
        assert np.array_equal(expand_vector(f, cfg, expect=("u", (1,))),
                              expand_vector(lambda t: np.array([f(t)]).reshape(-1), cfg))

    def test_array_overwritten_by_the_callable(self):
        buffer = np.zeros((2, 2))

        def reused(t):
            float(t)  # scalar-only
            buffer[...] = [[1.0, t], [t, t * t]]
            return buffer

        got = sample(reused, self.GRID, "matrix function", 2)
        assert np.array_equal(got, sample(pointwise(expdecay_like), self.GRID, "matrix function", 2))

    def test_view_of_a_reused_buffer(self):
        buffer = np.zeros(4)
        for view in (lambda: buffer[:].reshape(2, 2), lambda: buffer.reshape(2, 2).T.T):
            def reused(t, view=view):
                float(t)  # scalar-only
                buffer[...] = [1.0, t, t, t * t]
                return view()

            got = sample(reused, self.GRID, "matrix function", 2)
            assert np.array_equal(got, sample(pointwise(expdecay_like), self.GRID,
                                              "matrix function", 2))

    def test_buffer_taken_up_after_the_first_node(self):
        buffer = np.zeros((2, 2))

        def switching(t):
            float(t)  # scalar-only
            if t < 0.15:
                return expdecay_like(t)
            buffer[...] = expdecay_like(t)
            return buffer

        got = sample(switching, self.GRID, "matrix function", 2)
        assert np.array_equal(got, sample(pointwise(expdecay_like), self.GRID, "matrix function", 2))

    def test_list_mutated_and_returned_again(self):
        row = [0.0, 0.0]

        def mutated(t):
            row[:] = [float(t), 2.0 * float(t)]
            return row

        got = sample(mutated, self.GRID, "vector function", 1)
        want = sample(pointwise(lambda t: np.array([t, 2.0 * t])), self.GRID, "vector function", 1)
        assert np.array_equal(got, want)

    def test_bad_sample_is_named_before_later_nodes_run(self):
        seen = []

        def f(t):
            seen.append(float(t))
            if t > 0.65:
                raise RuntimeError("later failure")
            return "x" if t > 0.5 else [1.0]

        with pytest.raises(ExpansionError, match=r"^vector function failed at t=0.6 \(block 2\): "
                                                 r"could not convert"):
            sample(f, self.GRID, "vector function", 1)
        assert seen == [0.1, 0.2, 0.35, 0.6]

    @pytest.mark.parametrize("bad, late", [
        (math.nan, lambda t: 1 / 0),  # a late failing call
        (math.inf, lambda t: np.array([t, t])),  # a late sample of another shape
        (-math.inf, lambda t: 1j * t),  # a late complex sample
    ], ids=["nan-then-failure", "inf-then-misshapen", "-inf-then-complex"])
    def test_early_non_finite_sample_is_named_before_a_later_bad_one(self, bad, late):
        # scalar-only code that is bad twice: the first bad point in C order is named,
        # and no node after it is called
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        grid = nodes(cfg, default_rule(cfg))
        seen = []

        def u(t):
            t = float(t)
            seen.append(t)
            return late(t) if t > 0.9 else np.array([bad if t < 0.1 else t])

        t, k = _first_flat(grid, grid < 0.1)
        with pytest.raises(ExpansionError, match=rf"^u is {bad} at t={t} \(block {k}\)$"):
            expand_vector(u, cfg, expect=("u", (1,)))
        flat = list(grid.flat)
        assert seen == flat[:flat.index(t) + 1]  # no node after t is called

    def test_ragged_sample_names_the_point(self):
        f = lambda t: [[1.0, t], [t]] if t > 0.5 else [[1.0, t], [t, 1.0]]  # noqa: E731
        with pytest.raises(ExpansionError, match=r"^matrix function failed at t=0.6 \(block 2\): "
                                                 r"setting an array element"):
            sample(pointwise(f), self.GRID, "matrix function", 2)


def expdecay_like(t):
    return np.array([[1.0, t], [t, t * t]])


class TestComplexData:
    """A sample with a non-zero imaginary part is named where it enters."""

    CFG = BasisConfig(Partition((0.0, 0.3, 0.55, 1.0)), 5)

    @pytest.mark.parametrize("grid_call", [True, False])
    def test_vector_and_matrix(self, grid_call):
        grid = nodes(self.CFG, default_rule(self.CFG))
        t, k = _first_flat(grid, grid > 0.6)
        u = lambda t: np.array([1.0 + 1j * np.maximum(t - 0.6, 0.0)])  # noqa: E731
        A = lambda t: np.array([[1.0 + 0 * t, t], [1j * (t > 0.6), t]])  # noqa: E731
        wrap = (lambda f: f) if grid_call else pointwise
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(ExpansionError, match=rf"^u is \(1\+{t - 0.6}j\) at t={t} "
                                                     rf"\(block {k}\): data must be real$"):
                expand_vector(wrap(u), self.CFG, expect=("u", (1,)))
            with pytest.raises(ExpansionError, match=rf"^A is 1j at t={t} \(block {k}\)"):
                expand_matrix(wrap(A), self.CFG, expect=("A", (2, 2)))
            with pytest.raises(ExpansionError, match=rf"^vector function is .* at t={t} "):
                expand_vector(wrap(u), self.CFG)

    @pytest.mark.parametrize("grid_call", [True, False])
    def test_zero_imaginary_part_is_real(self, grid_call):
        wrap = (lambda f: f) if grid_call else pointwise
        u = lambda t: np.array([np.exp(-t) + 0j])  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expand_vector(wrap(u), self.CFG, expect=("u", (1,))).reshape(-1)
        want = expand_vector(wrap(lambda t: np.array([np.exp(-t)])), self.CFG).reshape(-1)
        assert np.array_equal(got, want)


class TestExpandMatrix:
    def test_identity(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.eye(2), cfg)
        for k in range(2):
            np.testing.assert_allclose(mset[k, 0], np.eye(2), atol=1e-14)
            np.testing.assert_allclose(mset[k, 1:], 0.0, atol=1e-14)

    def test_zero(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.zeros((2, 2)), cfg)
        assert not mset.any()

    def test_returns_read_only_array(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.ones((2, 1)), cfg)
        assert type(mset) is np.ndarray and mset.shape == (2, 3, 2, 1)
        with pytest.raises(ValueError, match="read-only"):
            mset[0, 0, 0, 0] = 1.0

    def test_polynomial_matrix_reconstructs(self):
        cfg = BasisConfig.uniform(0, 1, 3, 4)
        mset = expand_matrix(poly_A, cfg)
        for t in np.linspace(0, 1, 60):
            k = min(int(t * 3) + 1, 3)
            a, b = cfg.partition.breakpoints[k - 1:k + 1]
            x = (2 * t - a - b) / (b - a)
            rec = sum(
                mset[k - 1, m] * chebyshev_u_eval(m, x) for m in range(4)
            )
            np.testing.assert_allclose(rec, poly_A(t), rtol=0, atol=1e-13)


def einsum_expand_matrix(mfun, cfg):
    """Reference coefficients by the einsum formula: one unoptimized
    np.einsum over the samples of every block."""
    rule = default_rule(cfg)
    fx = sample(mfun, nodes(cfg, rule), "matrix function", 2)
    return np.einsum("mq,kqab->kmab", projection_matrix(cfg.M - 1, rule), fx)


class TestEinsumFormula:
    """expand_matrix equals the einsum formula bit for bit, except for 1x1
    data, where that formula picks another inner loop of einsum."""

    @staticmethod
    def check(mfun, cfg):
        got = expand_matrix(mfun, cfg)
        want = einsum_expand_matrix(mfun, cfg)
        if got.shape[2:] == (1, 1):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("K", [1, 2, 5, 8, 16, 64])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3), (4, 4)])
    def test_random_data(self, shape, K):
        rng = np.random.default_rng([K, *shape])
        inner = np.sort(rng.uniform(0.05, 0.95, K - 1))
        cfg = BasisConfig(Partition((0.0, *inner, 1.0)), int(rng.integers(1, 17)))
        c = rng.uniform(-2.0, 2.0, size=(2,) + shape)
        self.check(lambda t: np.sin(np.multiply.outer(c[0], t) + np.multiply.outer(c[1], t * t)), cfg)

    @pytest.mark.parametrize("K,M", [(None, None), (8, 12)])
    @pytest.mark.parametrize("name", ["exp_decay_ivp.prob", "polynomial_ivp.prob"])
    def test_problem_file_data(self, name, K, M):
        problem = load(os.path.join(PROBLEMS_DIR, name)).with_overrides(K=K, M=M)
        spec, cfg = problem.system_spec(), problem.basis_config()
        self.check(spec.A, cfg)
        self.check(spec.B, cfg)


class TestProject:
    """project adds its terms like the in_order loop, from zero in order of y
    with each product rounded: Q and expand_matrix rest on this."""

    @pytest.mark.parametrize("R", [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257, 1000,
                                   4099, 20000])
    @pytest.mark.parametrize("transposed", [False, True])  # w as proj.T is
    def test_matches_the_loop_bit_for_bit(self, R, transposed):
        rng = np.random.default_rng(R)
        for Y in (1, 2, 3, 5, 8, 13, 20, 28, 40):
            for P in (1, 2, 3, 7, 12, 20, 32):
                w = rng.standard_normal((P, Y)).T if transposed else rng.standard_normal((Y, P))
                terms = rng.standard_normal((Y, R))
                assert np.array_equal(project(w, terms), in_order(w, terms))

    def test_strided_terms_keep_their_shape(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 7)).T
        terms = rng.standard_normal((5, 3, 7, 2)).transpose(2, 0, 1, 3)  # (y; 5, 3, 2)
        got = project(w, terms)
        assert got.shape == (4, 5, 3, 2)
        assert np.array_equal(got, in_order(w, terms))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_one_entry_per_term(self, transposed):
        # with a rest of one entry einsum sums along y in another loop; the
        # only such call is for K = 1 with 1x1 data in expand_matrix, and for
        # K = 1, M = 1 with a scalar kernel in fredholm_operator
        rng = np.random.default_rng(1)
        for Y in (1, 2, 3, 9, 17, 40):
            for P in (1, 2, 12, 32):
                w = rng.standard_normal((P, Y)).T if transposed else rng.standard_normal((Y, P))
                terms = rng.standard_normal((Y, 1))
                want = in_order(w, terms)
                np.testing.assert_allclose(project(w, terms), want, rtol=0,
                                           atol=1e-15 * np.abs(want).max())


class TestProductCoeff:
    def test_degree_zero_factor(self):
        for j in range(6):
            for m in range(6):
                assert product_coeff(0, j, m) == (1.0 if m == j else 0.0)

    def test_s1_squared(self):
        # S_1^2 = S_0 + S_2
        assert product_coeff(1, 1, 0) == 1.0
        assert product_coeff(1, 1, 2) == 1.0
        assert product_coeff(1, 1, 1) == 0.0

    def test_2_3_1(self):
        assert product_coeff(2, 3, 1) == 1.0

    def test_oracle_equivalence_up_to_degree_10(self):
        rule = gauss_u_rule(64)
        for i in range(11):
            for j in range(11):
                si = chebyshev_u_eval
                integrand = (2 / np.pi) * rule.weights
                vals_i = np.array([si(i, x) for x in rule.nodes])
                vals_j = np.array([si(j, x) for x in rule.nodes])
                for m in range(11):
                    vals_m = np.array([si(m, x) for x in rule.nodes])
                    brute = float(np.dot(integrand, vals_i * vals_j * vals_m))
                    assert abs(product_coeff(i, j, m) - brute) <= 1e-12

    def test_cached_read_only_array(self):
        d = product_tensor(5)
        assert d is product_tensor(5) and d.shape == (5, 5, 5)
        with pytest.raises(ValueError, match="read-only"):
            d[0, 0, 0] = 2.0

    def test_symmetry_and_binary_values(self):
        d = product_tensor(8)
        np.testing.assert_allclose(d, np.swapaxes(d, 0, 1), atol=0)
        assert set(np.unique(d)) <= {0.0, 1.0}

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError):
            product_coeff(-1, 0, 0)

    @pytest.mark.parametrize("M", range(1, 17))
    def test_coeff_and_tensor_share_the_rule(self, M):
        d = product_tensor(M)
        for i, j, m in np.ndindex(M, M, M):
            assert product_coeff(i, j, m) == d[i, j, m]
        # the tensor as slices: every other degree from |i-j| up to min(i+j, M-1)
        slices = np.zeros((M, M, M))
        for i in range(M):
            for j in range(M):
                slices[i, j, abs(i - j) : min(i + j, M - 1) + 1 : 2] = 1.0
        assert np.array_equal(d, slices)


class TestBuildProductMatrix:
    def test_identity_matrix_function(self):
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        mset = expand_matrix(lambda t: np.eye(3), cfg)
        for k in (1, 2):
            np.testing.assert_allclose(product_blocks(mset)[k - 1], np.eye(12), atol=1e-13)

    def test_scalar_constant(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.array([[2.5]]), cfg)
        np.testing.assert_allclose(product_blocks(mset)[0], 2.5 * np.eye(3), atol=1e-13)

    def test_t_times_t_single_block(self):
        # on [-1, 1]: t * t = t^2 = (1/4) S_0 + (1/4) S_2
        cfg = BasisConfig(Partition((-1.0, 1.0)), 4)
        mset = expand_matrix(lambda t: np.array([[t]]), cfg)
        fhat = expand_vector(lambda t: np.array([t]), cfg)
        got = product_blocks(mset)[0] @ fhat[0].reshape(-1)
        direct = expand_vector(lambda t: np.array([t * t]), cfg)[0].reshape(-1)
        np.testing.assert_allclose(got, direct, atol=1e-12)
        np.testing.assert_allclose(direct, [0.25, 0, 0.25, 0], atol=1e-13)

    def test_product_consistency_random_polynomials(self):
        rng = np.random.default_rng(5)
        cfg = BasisConfig(Partition((0.0, 0.4, 1.0)), 5)
        rule = gauss_u_rule(cfg.M + 20)
        polyval = np.polynomial.polynomial.polyval
        for _ in range(20):
            mc = rng.uniform(-1, 1, size=(cfg.M - 1, 2, 2))  # degree <= M-2
            fc = rng.uniform(-1, 1, size=(cfg.M - 1, 2))
            mfun = lambda t, mc=mc: polyval(t, mc)
            ffun = lambda t, fc=fc: polyval(t, fc)
            mset = expand_matrix(mfun, cfg, rule)
            fhat = expand_vector(ffun, cfg, rule)
            prod = expand_vector(lambda t: mfun(t) @ ffun(t), cfg, rule)
            for k in (1, 2):
                got = product_blocks(mset)[k - 1] @ fhat[k - 1].reshape(-1)
                np.testing.assert_allclose(got, prod[k - 1].reshape(-1),
                                           rtol=0, atol=1e-10)

    def test_truncation_matches_projection_of_exact_product(self):
        # degree M-1 factors: the product overflows the basis, but the
        # operator must still produce the first M exact-expansion coefficients
        cfg = BasisConfig.uniform(0, 1, 2, 4)
        rule = gauss_u_rule(cfg.M + 20)
        mfun = lambda t: np.array([[t**3 + 0.5 * t]])
        ffun = lambda t: np.array([t**3 - 1.0])
        mset = expand_matrix(mfun, cfg, rule)
        fhat = expand_vector(ffun, cfg, rule)
        prod = expand_vector(lambda t: mfun(t) @ ffun(t), cfg, rule)
        for k in (1, 2):
            got = product_blocks(mset)[k - 1] @ fhat[k - 1].reshape(-1)
            np.testing.assert_allclose(got, prod[k - 1].reshape(-1), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("K,M,shape", [(1, 1, (1, 1)), (3, 4, (2, 2)), (5, 7, (2, 1)),
                                           (8, 12, (3, 2)), (16, 16, (2, 2))])
    def test_matches_per_block_reference(self, K, M, shape):
        # on this smooth data the matmul sums like one einsum per block
        rng = np.random.default_rng(K * M)
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, K - 1)), [1.0]])
        cfg = BasisConfig(Partition(tuple(bp)), M)
        phase = rng.uniform(0, 3, shape)
        mset = expand_matrix(lambda t: np.cos(phase * t) + t * t, cfg)
        d = product_tensor(M)
        got = product_blocks(mset)
        assert got.shape == (K, M * shape[0], M * shape[1])
        for k in range(K):
            hat = np.einsum("ijm,iab->majb", d, mset[k])
            assert np.array_equal(got[k], hat.reshape(M * shape[0], M * shape[1]))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_einsum_oracle_on_random_shapes(self, seed):
        # oracle: product_blocks as one einsum; the matmul sums in another
        # order, so random coefficients can differ in the last bit
        rng = np.random.default_rng(seed)
        K, M, n_out, n_in = (int(v) for v in rng.integers(1, [9, 20, 4, 4], endpoint=True))
        blocks = rng.standard_normal((K, M, n_out, n_in))
        want = np.einsum("ijm,kiab->kmajb", product_tensor(M), blocks)
        want = np.ascontiguousarray(want).reshape(K, M * n_out, M * n_in)
        got = product_blocks(blocks)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(blocks).max())

    def test_dimension_mismatch(self):
        cfg = BasisConfig.uniform(0, 1, 2, 3)
        mset = expand_matrix(lambda t: np.eye(2), cfg)
        fhat = expand_vector(lambda t: np.array([1.0, 2.0, 3.0]), cfg)
        with pytest.raises(ValueError):
            product_blocks(mset)[0] @ fhat[0].reshape(-1)


class TestSynthesize:
    def test_reconstructs_per_block_polynomials(self):
        rng = np.random.default_rng(9)
        cfg = BasisConfig(Partition((0.0, 0.25, 0.6, 1.0)), 5)
        tensor = rng.uniform(-1, 1, size=(3, 5, 2))
        # evaluate the same per-block series directly
        for t in np.linspace(0, 1, 40):
            k = next(
                k for k in range(1, 4)
                if cfg.partition.breakpoints[k - 1] <= t
                and (t < cfg.partition.breakpoints[k] or k == 3)
            )
            a, b = cfg.partition.breakpoints[k - 1:k + 1]
            x = (2 * t - a - b) / (b - a)
            direct = sum(
                tensor[k - 1, m] * chebyshev_u_eval(m, x) for m in range(5)
            )
            np.testing.assert_allclose(synthesize(tensor, cfg, t), direct, atol=1e-12)

    def test_expand_then_synthesize_is_identity_on_basis_polynomials(self):
        cfg = BasisConfig.uniform(0, 2, 2, 4)
        f = lambda t: np.array([0.3 * t**3 - t + 1.0])
        cv = expand_vector(f, cfg)
        for t in np.linspace(0, 2, 60):
            np.testing.assert_allclose(synthesize(cv, cfg, t), f(t), rtol=0, atol=1e-12)

    def test_many_times_match_pointwise_reference_exactly(self):
        # reference: the per-point block lookup, local map and Clenshaw sum
        rng = np.random.default_rng(12)
        cfg = BasisConfig(Partition((0.0, 0.25, 0.6, 1.0)), 6)
        cv = rng.uniform(-1, 1, size=(3, 6, 2))
        ts = np.concatenate([cfg.partition.breakpoints, rng.uniform(0, 1, 40)])
        got = synthesize(cv, cfg, ts)
        assert got.shape == (ts.size, 2)
        for t, row in zip(ts, got):
            k = block_of(t, cfg.partition)
            expected = chebyshev_u_series(cv[k - 1], to_local(t, k, cfg.partition))
            assert np.array_equal(row, expected)
        assert synthesize(cv, cfg, ts.reshape(2, -1)).shape == (2, ts.size // 2, 2)

    def test_zero_outside_domain(self):
        # no zero fill: a time outside [t0, tf], NaN too, raises ValueError
        # naming the first such time in C order
        cfg = BasisConfig(Partition((-0.5, 0.25, 2.0)), 3)
        cv = expand_vector(lambda t: np.array([1.0]), cfg)
        for bad in (math.nan, math.inf, -math.inf, -0.5 - 1e-12, 2.0 + 1e-12):
            message = "^" + re.escape(f"t={np.float64(bad)} outside [-0.5, 2.0]") + "$"
            with pytest.raises(ValueError, match=message):
                synthesize(cv, cfg, bad)
            with pytest.raises(ValueError, match=message):
                synthesize(cv, cfg, np.array([[0.5, 1.0, bad], [3.0, 0.25, -1.0]]))

    def test_accepts_the_ends_0d_and_empty_arrays(self):
        cfg = BasisConfig(Partition((-0.5, 0.25, 2.0)), 3)
        cv = expand_vector(lambda t: np.array([1.0, t]), cfg)
        ends = synthesize(cv, cfg, [-0.5, 2.0])
        np.testing.assert_allclose(ends, [[1.0, -0.5], [1.0, 2.0]], rtol=0, atol=1e-14)
        assert np.array_equal(synthesize(cv, cfg, np.array(2.0)), ends[1])
        assert synthesize(cv, cfg, np.empty(0)).shape == (0, 2)
        assert synthesize(cv, cfg, np.empty((3, 0))).shape == (3, 0, 2)
