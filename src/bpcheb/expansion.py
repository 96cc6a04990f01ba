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

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import BasisConfig, chebyshev_u_series
from .quadrature import WeightedRule, gauss_u_rule, projection_matrix

__all__ = [
    "CoeffVector",
    "ExpansionError",
    "default_rule",
    "nodes",
    "sample",
    "require_finite",
    "expand_vector",
    "expand_matrix",
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
    """The library-default rule: M + 8 points."""
    return gauss_u_rule(cfg.M + DEFAULT_EXTRA_ORDER)


@dataclass(frozen=True)
class CoeffVector:
    """Stacked hybrid coefficients of an n-component vector function.

    Layout contract: the entry for (block k, degree m, component c) lives at
    flat index ((k-1)*M + m)*n + c, with k in 1..K and m, c 0-based.  This is
    the block-major, degree-middle, component-minor stacking used throughout.
    """

    data: np.ndarray
    K: int
    M: int
    n: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.size != self.M * self.K * self.n:
            raise ValueError(
                f"coefficient vector has length {data.size}, "
                f"expected M*K*n = {self.M * self.K * self.n}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @classmethod
    def from_tensor(cls, tensor: np.ndarray) -> "CoeffVector":
        """Build from an array of shape (K, M, n)."""
        K, M, n = tensor.shape
        return cls(np.ascontiguousarray(tensor, dtype=float).reshape(-1), K, M, n)

    def tensor(self) -> np.ndarray:
        """View of shape (K, M, n); tensor()[k-1, m, c] is coefficient (k, m, c)."""
        return self.data.reshape(self.K, self.M, self.n)

    def block(self, k: int) -> np.ndarray:
        """Coefficients of block k as shape (M, n)."""
        return self.tensor()[k - 1]


def nodes(cfg: BasisConfig, rule: WeightedRule) -> np.ndarray:
    """The rule's nodes pulled back to every block: shape (K, q), row k-1 is block k."""
    bp = np.asarray(cfg.partition.breakpoints)
    a, b = bp[:-1, np.newaxis], bp[1:, np.newaxis]
    return 0.5 * ((b - a) * rule.nodes + a + b)


def sample(f: Callable, grid: np.ndarray, what: str, ndim: int, t=None,
           expect: tuple[str, tuple[int, ...]] | None = None) -> np.ndarray:
    """Samples of f at every node of grid (shape (K, q)), stacked as (K, q) + sample shape.

    With t given, f is a kernel and the samples are f(t, s) for s on the grid;
    an array t of outer times prefixes its shape.  Each sample becomes a
    float array of at least ndim dimensions (ndim 1: flattened to a vector).
    expect = (name, shape) names the datum and the shape its samples must
    have; without it, the first sample sets the shape.

    f is first called for the whole grid (see _sample_grid): once with
    arrays, then, when that result is not kept, once with a _Nodes, which
    serves code written for a scalar t.  When neither result is kept, f is
    called once per point, with numpy scalars, and each result is converted
    and copied into the samples as it comes back: a failing call or
    conversion, a sample with a non-zero imaginary part, or a sample whose
    shape differs from the others or from expect raises ExpansionError
    naming the point and its block.
    """
    lead = np.shape(t) + grid.shape
    shape = expect[1] if expect else None
    vals = _sample_grid(f, grid, ndim, t, lead, shape)
    if vals is not None:
        return vals
    out = None
    for i, ti in np.ndenumerate(t) if np.ndim(t) else [((), t)]:
        for k, xs in enumerate(grid, start=1):
            for y, x in enumerate(xs):
                try:
                    val = _as_float(f(x) if ti is None else f(ti, x), ndim)
                except _ComplexSample as exc:
                    name = expect[0] if expect else what
                    msg = f"{name} is {exc.args[0]} at {_where(ti, x, k)}: data must be real"
                    raise ExpansionError(msg) from None
                except Exception as exc:
                    raise ExpansionError(f"{what} failed at {_where(ti, x, k)}: {exc}") from exc
                if out is None:
                    if shape is not None and val.shape != shape:  # shape is expect's
                        args = x if ti is None else f"{ti}, {x}"
                        raise ExpansionError(
                            f"{what} failed at {_where(ti, x, k)}: {_misfit(expect, args, val)}"
                        )
                    shape = val.shape
                    out = np.empty(lead + shape)
                if val.shape != shape:
                    raise ExpansionError(
                        f"{what} at {_where(ti, x, k)} has shape {val.shape}, expected {shape}"
                    )
                out[i + (k - 1, y)] = val  # a copy: f may overwrite what it returned
    return out


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


def _sample_grid(f: Callable, grid: np.ndarray, ndim: int, t, lead: tuple,
                 shape: tuple | None) -> np.ndarray | None:
    """Samples of f on the whole grid from one call, laid out C-contiguous as
    lead + sample shape; None when no call is kept.

    f is first called with read-only arrays of shape lead: the grid, or for
    a kernel the outer times and the grid broadcast against each other.
    When that result is not kept, f is called once more with each array
    wrapped in a _Nodes, which serves code written for a scalar t.  A
    result is kept when the call raises nothing and gives a real shape
    value_shape + lead with no NaN, value_shape matches shape when given,
    and the samples at the first and the last point agree with
    single-point calls there to PROBE_RTOL times the largest magnitude
    (exactly, where that is 0 or not finite).  Only the warnings of the
    kept call and its probes are re-emitted.  Recording them swaps the
    process-wide warning filters for each call (warnings.catch_warnings).
    """
    points = (grid,) if t is None else (np.reshape(t, np.shape(t) + (1,) * grid.ndim), grid)
    args = [np.broadcast_to(p, lead) for p in points]
    for call in (lambda: f(*args), lambda: _nodes_layout(f(*map(_Nodes, args)), lead)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                vals = _kept(call(), f, grid, ndim, t, lead, shape)
            except Exception:
                vals = None  # the pointwise loop raises the located error, if any
        if vals is not None:
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                       source=w.source)
            return vals
    return None


def _kept(vals, f: Callable, grid: np.ndarray, ndim: int, t, lead: tuple,
          shape: tuple | None) -> np.ndarray | None:
    """A grid call's result laid out by _grid_layout, or None when it is not
    kept (see _sample_grid)."""
    vals = _grid_layout(vals, ndim, lead)
    if vals is None or shape not in (None, vals.shape[len(lead):]):
        return None
    scale = np.abs(vals).max()
    if np.isnan(scale):
        return None
    nt = np.ndim(t)
    for end in (0, -1):  # the probe points
        idx = (end,) * len(lead)
        got = vals[idx]
        ti = np.asarray(t)[idx[:nt]] if nt else t
        x = grid[idx[nt:]]
        want = _as_float(f(x) if ti is None else f(ti, x), ndim)
        # with an infinite sample anywhere, only an exact match (inf == inf) counts
        close = got == want if scale == np.inf else abs(got - want) <= PROBE_RTOL * scale
        if got.shape != want.shape or not close.all():
            return None
    return vals


def _grid_layout(vals, ndim: int, lead: tuple) -> np.ndarray | None:
    """A grid call's value_shape + lead result as lead + sample shape; None
    for another shape or a non-zero imaginary part."""
    vals = _as_float(vals, 0)
    nv = vals.ndim - len(lead)
    if nv < 0 or vals.shape[nv:] != lead:
        return None
    vals = vals.reshape((1,) * (ndim - nv) + vals.shape)  # pad in front, like ndmin
    nv = max(nv, ndim)
    # C-contiguous like the pointwise result: einsum sums a strided view in another order
    vals = np.ascontiguousarray(np.moveaxis(vals, range(nv), range(-nv, 0)))
    return vals.reshape(lead + (-1,)) if ndim == 1 else vals


def require_finite(vals: np.ndarray, grid: np.ndarray, name: str, t=None) -> None:
    """Raise ExpansionError naming the first non-finite sample of vals, laid out
    as sample(f, grid, ..., t=t) returns it: its value, its t (or (t, s)) and block."""
    finite = np.isfinite(vals)
    if finite.all():
        return
    lead = np.shape(t) + grid.shape
    i = np.unravel_index(np.argmin(finite.reshape(lead + (-1,)).all(axis=-1)), lead)
    bad = vals[i][~finite[i]].flat[0]
    nt = np.ndim(t)
    ti = np.asarray(t)[i[:nt]] if nt else t
    k, y = i[nt:]
    raise ExpansionError(f"{name} is {bad} at {_where(ti, grid[k, y], k + 1)}")


def _where(t: float | None, x: float, k: int) -> str:
    return f"t={x} (block {k})" if t is None else f"(t={t}, s={x}) (inner block {k})"


def _misfit(expect: tuple[str, tuple[int, ...]], args: float | str, val: np.ndarray) -> str:
    name, shape = expect
    if len(shape) == 1:
        return f"{name}({args}) has {val.size} components, expected {shape[0]}"
    return f"{name}({args}) has shape {val.shape}, expected {shape}"


def expand_vector(
    f: Callable[[float], np.ndarray], cfg: BasisConfig, rule: WeightedRule | None = None,
    expect: tuple[str, tuple[int]] | None = None,
) -> CoeffVector:
    """Componentwise expansion of a vector function into CoeffVector layout.

    expect = (name, (n,)) names f and its length for sample's shape check.
    A non-finite sample raises ExpansionError naming f, the t and the block.
    """
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    grid = nodes(cfg, rule)
    fx = sample(f, grid, "vector function", 1, expect=expect)  # (K, q, n)
    require_finite(fx, grid, expect[0] if expect else "vector function")
    return CoeffVector.from_tensor(proj @ fx)


def expand_matrix(
    mfun: Callable[[float], np.ndarray], cfg: BasisConfig, rule: WeightedRule | None = None,
    expect: tuple[str, tuple[int, int]] | None = None,
) -> np.ndarray:
    """Entrywise expansion of a matrix function of t: the read-only hybrid
    coefficients, shape (K, M, n_out, n_in), entry [k-1, m] for block k, degree m.

    expect = (name, (n_out, n_in)) names mfun and its shape for sample's check.
    A non-finite sample raises ExpansionError naming mfun, the t and the block.
    """
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    grid = nodes(cfg, rule)
    fx = sample(mfun, grid, "matrix function", 2, expect=expect)  # (K, q, n_out, n_in)
    require_finite(fx, grid, expect[0] if expect else "matrix function")
    coeffs = np.einsum("mq,kqab->kmab", proj, fx)
    coeffs.flags.writeable = False
    return coeffs


def product_coeff(i: int, j: int, m: int) -> float:
    """Coefficient of S_m in S_i S_j: 1 when |i-j| <= m <= i+j with matching
    parity, else 0."""
    if min(i, j, m) < 0:
        raise ValueError("degrees must be non-negative")
    return 1.0 if abs(i - j) <= m <= i + j and (i + j + m) % 2 == 0 else 0.0


@lru_cache(maxsize=None)
def product_tensor(M: int) -> np.ndarray:
    """Read-only (M, M, M) tensor d[i, j, m] of product_coeff values, cached per M."""
    d = np.zeros((M, M, M))
    for i in range(M):
        for j in range(M):
            lo, hi = abs(i - j), min(i + j, M - 1)
            d[i, j, lo : hi + 1 : 2] = 1.0
    d.flags.writeable = False
    return d


def product_blocks(blocks: np.ndarray) -> np.ndarray:
    """The per-block operators sending coefficients of f to coefficients of M(t) f(t).

    blocks holds the coefficients M_{km} of M(t), shape (K, M, n_out, n_in),
    as expand_matrix returns them.  Returns shape (K, M*n_out, M*n_in); entry
    k-1 is the block-k matrix with (m, j) sub-block sum_i d^{(ij)}_m M_{ki},
    rows (degree, out-component)-major to match CoeffVector stacking.
    """
    K, M, n_out, n_in = np.shape(blocks)
    # one matmul over degree i: rows (k, a, b), columns (j, m) of the d-tensor
    rows = np.moveaxis(np.asarray(blocks, dtype=float), 1, -1).reshape(-1, M)
    hat = (rows @ product_tensor(M).reshape(M, M * M)).reshape(K, n_out, n_in, M, M)
    return hat.transpose(0, 4, 1, 3, 2).reshape(K, M * n_out, M * n_in)


def synthesize(coeffs: CoeffVector, cfg: BasisConfig, t) -> np.ndarray:
    """Reconstruction sum_{km} f_{km} h_{km}(t); zero outside the domain.

    t is a time or an array of times; the result has shape t.shape + (n,).
    Only the block containing a time contributes (t_{k-1} <= t < t_k, and
    t_f in block K), evaluated by one Clenshaw pass over all times.
    """
    p = cfg.partition
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    bp = np.asarray(p.breakpoints)
    inside = (flat >= p.t0) & (flat <= p.tf)
    k = np.clip(np.searchsorted(bp, flat, side="right"), 1, p.num_blocks)
    a, b = bp[k - 1], bp[k]
    x = np.where(inside, (2.0 * flat - a - b) / (b - a), 0.0)
    vals = chebyshev_u_series(np.moveaxis(coeffs.tensor()[k - 1], 1, 0), x[:, np.newaxis])
    vals[~inside] = 0.0
    return vals.reshape(ts.shape + (coeffs.n,))
