"""Expansion of functions of t into hybrid coefficients, and coefficient-space
products.

Scalar coefficients on block k come from the weighted projection of the
affine pullback,

    f_{km} = (2/pi) * integral f((d_k x + t_{k-1} + t_k)/2) S_m(x) sqrt(1-x^2) dx.

The triple-product coefficients d^{(ij)}_m = (2/pi) * integral of
S_i S_j S_m sqrt(1-x^2) linearize products of series; they are 0/1 valued by
the rule S_i S_j = sum over r = 0..min(i,j) of S_{i+j-2r}.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import BasisConfig, chebyshev_u_series, read_only, real_array
from .quadrature import WeightedRule, gauss_u_rule, projection_matrix

__all__ = [
    "ExpansionError",
    "default_rule",
    "nodes",
    "sample",
    "expand_vector",
    "expand_matrix",
    "project",
    "product_coeff",
    "product_tensor",
    "product_blocks",
    "synthesize",
]

# extra quadrature points beyond M; exact for the polynomial data of interest
# and near machine precision for smooth data
DEFAULT_EXTRA_ORDER = 8
# a whole-grid call is kept when its samples at the probe nodes agree with
# single-point calls to this times its largest magnitude
PROBE_RTOL = 1e-13


class ExpansionError(Exception):
    """Evaluation of user data failed during a projection."""


def default_rule(cfg: BasisConfig) -> WeightedRule:
    """The library-default rule: M + 8 points, one shared rule per M (see
    quadrature.gauss_u_rule)."""
    return gauss_u_rule(cfg.M + DEFAULT_EXTRA_ORDER)


def nodes(cfg: BasisConfig, rule: WeightedRule) -> np.ndarray:
    """The rule's nodes pulled back to every block: shape (K, q), row k-1 is block k."""
    bp = cfg.partition.breakpoint_array
    a, b = bp[:-1, np.newaxis], bp[1:, np.newaxis]
    return 0.5 * (cfg.partition.width_array[:, np.newaxis] * rule.nodes + a + b)


def sample(f: Callable, grid: np.ndarray, name: str, ndim: int, t=None,
           shape: tuple[int, ...] | None = None, axes: tuple[int, ...] | None = None) -> np.ndarray:
    """Checked samples of the datum f at every node of grid (shape (K, q)), a
    C-contiguous (K, q) + sample shape array, its axes in the order axes when
    given; every message names f by name.

    With t given, f is a kernel and the samples are f(t, s) for s on the grid;
    an array t of outer times prefixes its shape.  f's arguments, built once,
    are read-only arrays of one shape lead = t's shape + (K, q): a datum of t
    alone gets one, a read-only view of grid itself (so a write to it raises
    and leaves grid as it was), and a kernel gets (t, s) broadcast against
    each other; a point is one entry of each.  Each sample becomes a float
    array of at least ndim dimensions (ndim 1: flattened to a vector) and
    must have the given shape; without one, the first sample sets it.

    f is first called for the whole grid (see _sample_grid), then, when
    that result is not kept, once per point (see _sample_points).  Either
    way a failing call, a sample with a non-zero imaginary part, a sample
    of another shape, and a NaN or infinite sample raise ExpansionError
    naming the first such point, in C order over lead, and its block.

    numpy's floating-point warnings never come from the grid calls (a kept
    result has no NaN and an inf sample raises, so they would come only from
    masked intermediates); any other warning of f reaches the caller from
    every call, kept or not.
    """
    if t is None:
        args = (read_only(grid.view()),)
    else:
        lead = np.shape(t) + grid.shape
        points = (np.reshape(t, np.shape(t) + (1,) * grid.ndim), grid)
        args = tuple(np.broadcast_to(p, lead) for p in points)
    vals = _sample_grid(f, args, ndim, shape, axes)
    if vals is None:
        vals = _sample_points(f, args, name, ndim, shape)
    _require_finite(vals, args, name)
    # both paths return C-contiguous samples in the natural order: only axes needs a copy
    return vals if axes is None else np.ascontiguousarray(vals.transpose(axes))


def _sample_points(f: Callable, args: tuple, name: str, ndim: int,
                   shape: tuple | None) -> np.ndarray:
    """Samples of f from one call per point, with numpy scalars.  Each result
    is converted and copied into the samples as it comes back; a failing
    call or conversion, a complex sample, or a sample whose shape differs
    from shape (or else from the first sample's) raises ExpansionError."""
    out = None
    for n, point in enumerate(zip(*(a.flat for a in args))):  # n: the flat index of point
        try:
            val = _as_float(f(*point), ndim)
        except _ComplexSample as exc:
            msg = f"{name} is {exc.args[0]} at {_where(args, n)}: data must be real"
            raise ExpansionError(msg) from None
        except Exception as exc:
            raise ExpansionError(f"{name} failed at {_where(args, n)}: {exc}") from exc
        if shape is not None and val.shape != shape:
            at = _where(args, n)
            if out is None:  # the first sample, against the given shape
                raise ExpansionError(f"{name} failed at {at}: {_misfit(name, shape, point, val)}")
            raise ExpansionError(f"{name} at {at} has shape {val.shape}, expected {shape}")
        if out is None:
            shape, out = val.shape, np.empty((args[0].size,) + val.shape)
        out[n] = val  # a copy: f may overwrite what it returned
    return out.reshape(args[0].shape + shape)


class _ComplexSample(ValueError):
    """A sample with a non-zero imaginary part; args[0] is its first such entry."""


def _as_float(val, ndim: int) -> np.ndarray:
    """One sample as a float array of at least ndim dimensions (ndim 1: a
    vector); raises _ComplexSample when it has a non-zero imaginary part."""
    val = np.asarray(val)
    if val.dtype.kind == "c":
        imag = val.imag != 0
        if imag.any():
            raise _ComplexSample(val[imag].flat[0])
        val = val.real
    val = np.array(val, dtype=float, ndmin=ndim, copy=None)
    return val.reshape(-1) if ndim == 1 else val


_REAL_SCALARS = (int, float, np.integer, np.floating, np.bool_)


class _Nodes(np.lib.mixins.NDArrayOperatorsMixin):
    """All the nodes of a grid call, passed to f as one scalar-like argument.

    Arithmetic and elementwise ufuncs with real scalars and other _Nodes
    act node by node on the held array, so code written for a scalar t,
    such as np.array([[1.0, t], [t, t**2 + 1]]), computes every sample in
    one call: numpy takes the object for an opaque scalar and builds an
    object array of _Nodes and constants.  Anything else (an ndarray
    operand, out= or where=, a reduction, a generalized ufunc) is refused,
    and so is every way to a single value: truth tests (if t < 0.5),
    float(), int(), len() and indexing raise TypeError, which sends f to
    the per-node loop.
    """

    __slots__ = ("v",)

    def __init__(self, v: np.ndarray):
        self.v = v

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if (method != "__call__" or kwargs or ufunc.signature is not None
                or not all(isinstance(x, (_Nodes,) + _REAL_SCALARS) for x in inputs)):
            return NotImplemented
        res = ufunc(*(x.v if isinstance(x, _Nodes) else x for x in inputs))
        return tuple(map(_Nodes, res)) if isinstance(res, tuple) else _Nodes(res)

    def __bool__(self):
        raise TypeError("the truth value of all nodes at once is undefined")


def _nodes_layout(vals, lead: tuple) -> np.ndarray:
    """A _Nodes call's result as a float value_shape + lead array: every entry
    a _Nodes or a real scalar, broadcast to lead; TypeError for any other entry.
    A 0-d array entry counts as the value it holds (np.ones_like of a _Nodes
    is a 0-d object array holding 1)."""
    vals = np.asarray(vals, dtype=object)
    entries = []
    for x in vals.flat:
        if isinstance(x, np.ndarray) and x.ndim == 0:
            x = x.item()
        if isinstance(x, _Nodes):
            x = x.v
        elif not isinstance(x, _REAL_SCALARS):
            raise TypeError(f"{type(x).__name__} entry")
        entries.append(np.broadcast_to(np.asarray(x, dtype=float), lead))
    return np.stack(entries).reshape(vals.shape + lead)


def _sample_grid(f: Callable, args: tuple, ndim: int, shape: tuple | None,
                 axes: tuple | None) -> np.ndarray | None:
    """Samples of f on the whole grid from the first kept call (see _kept);
    None when neither is kept and the pointwise loop must run.

    f is first called with the arrays args of shape lead (see sample).
    When that result is not kept, f is called once more with each array
    wrapped in a _Nodes, which serves code written for a scalar t.  Both
    attempts and their probes run under np.errstate(all="ignore"), which
    numpy keeps per thread.
    """
    lead = args[0].shape
    with np.errstate(all="ignore"):
        for call in (lambda: f(*args), lambda: _nodes_layout(f(*map(_Nodes, args)), lead)):
            try:
                return _kept(call(), f, args, ndim, shape, axes)
            except Exception:
                pass  # the pointwise loop raises the located error, if any
    return None


def _kept(vals, f: Callable, args: tuple, ndim: int, shape: tuple | None,
          axes: tuple | None) -> np.ndarray:
    """A grid call's value_shape + lead result as lead + sample shape, a view
    of its one copy in the order axes; raises unless it is kept.

    A result is kept when it is real, of shape value_shape + lead with no
    NaN, value_shape matches shape when given, and the samples at the first
    and the last point agree with single-point calls there to PROBE_RTOL
    times the largest magnitude (exactly, where that is 0 or not finite).
    """
    lead = args[0].shape
    vals = _as_float(vals, 0)
    nv = vals.ndim - len(lead)
    if nv < 0 or vals.shape[nv:] != lead:
        raise ValueError(f"shape {vals.shape} does not end in {lead}")
    vals = vals.reshape((1,) * (ndim - nv) + vals.shape)  # pad in front, like ndmin
    nv = max(nv, ndim)
    vals = vals.transpose((*range(nv, vals.ndim), *range(nv)))  # value axes last
    vals = vals.reshape(lead + (-1,)) if ndim == 1 else vals
    scale = max(vals.max(), -vals.min())  # the largest magnitude (or NaN), with no temporary
    if shape not in (None, vals.shape[len(lead):]) or np.isnan(scale):
        raise ValueError("a sample of another shape, or a NaN")
    # the one copy, always made before the probes call f again: f may overwrite what it returned
    order = axes or tuple(range(vals.ndim))
    back = sorted(range(len(order)), key=order.__getitem__)  # inverse; np.argsort is µs slower
    vals = np.array(vals.transpose(order), order="C").transpose(back)
    for i in ((0,) * len(lead), (-1,) * len(lead)):  # the probe points
        got = vals[i]
        want = _as_float(f(*(a[i] for a in args)), ndim)
        # with an infinite sample anywhere, only an exact match (inf == inf) counts
        close = got == want if scale == np.inf else abs(got - want) <= PROBE_RTOL * scale
        if got.shape != want.shape or not close.all():
            raise ValueError("a probe disagrees with its single-point call")
    return vals


def _require_finite(vals: np.ndarray, args: tuple, name: str) -> None:
    """Raise ExpansionError naming the first non-finite sample of vals, laid out
    as sample returns it: its value, its point and block."""
    finite = np.isfinite(vals)
    if finite.all():
        return
    rows, ok = vals.reshape(args[0].size, -1), finite.reshape(args[0].size, -1)
    n = np.argmin(ok.all(axis=1))
    raise ExpansionError(f"{name} is {rows[n][~ok[n]][0]} at {_where(args, n)}")


def _where(args: tuple, n: int) -> str:
    i = np.unravel_index(n, args[0].shape)  # the point at flat index n, and its block
    p, k = [a[i] for a in args], i[-2] + 1
    return f"t={p[0]} (block {k})" if len(args) == 1 else f"(t={p[0]}, s={p[1]}) (inner block {k})"


def _misfit(name: str, shape: tuple[int, ...], point: tuple, val: np.ndarray) -> str:
    call = f"{name}({', '.join(map(str, point))})"
    if len(shape) == 1:
        return f"{call} has {val.size} components, expected {shape[0]}"
    return f"{call} has shape {val.shape}, expected {shape}"


def expand_vector(
    f: Callable[[float], np.ndarray], cfg: BasisConfig, rule: WeightedRule | None = None,
    expect: tuple[str, tuple[int]] | None = None,
) -> np.ndarray:
    """Componentwise expansion of a vector function: the read-only hybrid
    coefficients, shape (K, M, n), entry [k-1, m, c] for block k, degree m,
    component c.  Flattened in C order, entry (k, m, c) sits at
    ((k-1)*M + m)*n + c: the block-major, degree-middle, component-minor
    stacking used throughout.

    expect = (name, (n,)) names f and its length for sample's checks.
    """
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    name, shape = expect or ("vector function", None)
    fx = sample(f, nodes(cfg, rule), name, 1, shape=shape)  # (K, q, n)
    return read_only(proj @ fx)


def expand_matrix(
    mfun: Callable[[float], np.ndarray], cfg: BasisConfig, rule: WeightedRule | None = None,
    expect: tuple[str, tuple[int, int]] | None = None,
) -> np.ndarray:
    """Entrywise expansion of a matrix function of t: the read-only hybrid
    coefficients, shape (K, M, n_out, n_in), entry [k-1, m] for block k, degree m,
    bit-identical to np.einsum("mq,kqab->kmab", proj, samples) except for 1x1
    data, where that einsum takes another loop and the last bit can differ.

    expect = (name, (n_out, n_in)) names mfun and its shape for sample's checks.
    """
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    name, shape = expect or ("matrix function", None)
    fx = sample(mfun, nodes(cfg, rule), name, 2, shape=shape, axes=(1, 0, 2, 3))  # (q, K, ...)
    return read_only(project(proj.T, fx).transpose(1, 0, 2, 3))


def project(w: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """out[p, ...] = sum over y of w[y, p] * terms[y, ...] by one unoptimized einsum
    (not BLAS) over a C-contiguous (y; rest) terms, copied only if laid out otherwise:
    for a rest of two or more entries it adds the terms in order of y from zero, without
    fused multiply-adds, as its batched form "yp,xyr->xpr" does for each x.  With a rest
    of one entry either takes another loop; kernel._project_each keeps x in the rest then."""
    terms = np.ascontiguousarray(terms)
    out = np.einsum("yp,yr->pr", w, terms.reshape(len(terms), -1))
    return out.reshape(w.shape[1:] + terms.shape[1:])


def product_coeff(i: int, j: int, m: int) -> float:
    """Coefficient of S_m in S_i S_j: 1 where _product_rule holds, else 0."""
    if min(i, j, m) < 0:
        raise ValueError("degrees must be non-negative")
    return float(_product_rule(i, j, m))


@lru_cache(maxsize=None, typed=True)
def product_tensor(M: int) -> np.ndarray:
    """Read-only (M, M, M) tensor d[i, j, m] of product_coeff values, cached per M."""
    return read_only(_product_rule(*np.indices((M, M, M), sparse=True)).astype(float))


def _product_rule(i, j, m):
    """Whether S_m appears in S_i S_j: |i-j| <= m <= i+j with i+j+m even.
    On non-negative ints, or elementwise on arrays that broadcast together."""
    return (abs(i - j) <= m) & (m <= i + j) & ((i + j + m) % 2 == 0)


def product_blocks(blocks: np.ndarray) -> np.ndarray:
    """The per-block operators sending coefficients of f to coefficients of M(t) f(t).

    blocks holds the coefficients M_{km} of M(t), shape (K, M, n_out, n_in),
    as expand_matrix returns them.  Returns shape (K, M*n_out, M*n_in); entry
    k-1 is the block-k matrix with (m, j) sub-block sum_i d^{(ij)}_m M_{ki},
    rows (degree, out-component)-major to match the (K, M, n) stacking of expand_vector.
    """
    K, M, n_out, n_in = np.shape(blocks)
    # one matmul over degree i: rows (k, a, b), columns (j, m) of the d-tensor
    rows = np.moveaxis(np.asarray(blocks, dtype=float), 1, -1).reshape(-1, M)
    hat = (rows @ product_tensor(M).reshape(M, M * M)).reshape(K, n_out, n_in, M, M)
    return hat.transpose(0, 4, 1, 3, 2).reshape(K, M * n_out, M * n_in)


def synthesize(coeffs: np.ndarray, cfg: BasisConfig, t) -> np.ndarray:
    """Reconstruction sum_{km} f_{km} h_{km}(t) at a time t or at each time of an array t,
    from the (K, M, n) coefficients of expand_vector.

    The result has shape np.shape(t) + (n,).  A string or complex time raises
    TypeError naming t (basis.real_array), and a time outside [t0, tf], NaN
    too, ValueError naming the first such time in C order.  Only the block
    containing a time contributes (t_{k-1} <= t < t_k, and t_f in block K),
    evaluated by one Clenshaw pass over all times.
    """
    p = cfg.partition
    ts = real_array("t", t)
    flat = ts.reshape(-1)
    outside = ~((flat >= p.t0) & (flat <= p.tf))
    if outside.any():
        raise ValueError(f"t={flat[np.argmax(outside)]} outside [{p.t0}, {p.tf}]")
    bp = p.breakpoint_array
    k = np.minimum(np.searchsorted(bp, flat, side="right"), p.num_blocks)  # t_f: block K
    a, b = bp[k - 1], bp[k]
    x = (2.0 * flat - a - b) / (b - a)
    vals = chebyshev_u_series(np.moveaxis(coeffs[k - 1], 1, 0), x[:, np.newaxis])
    return vals.reshape(ts.shape + coeffs.shape[2:])
