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

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import BasisConfig, chebyshev_u_series
from .quadrature import WeightedRule, gauss_u_rule, projection_matrix

__all__ = [
    "CoeffVector",
    "MatrixCoeffSet",
    "ProductTensor",
    "ExpansionError",
    "default_rule",
    "nodes",
    "sample",
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
    def zeros(cls, cfg: BasisConfig, n: int) -> "CoeffVector":
        return cls(np.zeros(cfg.M * cfg.K * n), cfg.K, cfg.M, n)

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

    @staticmethod
    def flat_index(k: int, m: int, c: int, M: int, n: int) -> int:
        return ((k - 1) * M + m) * n + c


@dataclass(frozen=True)
class MatrixCoeffSet:
    """Hybrid coefficients M_{km} of a matrix function, shape (K, M, n_out, n_in)."""

    blocks: np.ndarray
    cfg: BasisConfig

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 4 or blocks.shape[:2] != (self.cfg.K, self.cfg.M):
            raise ValueError(f"expected shape (K, M, n_out, n_in), got {blocks.shape}")
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def shape(self) -> tuple[int, int]:
        return self.blocks.shape[2], self.blocks.shape[3]


@dataclass(frozen=True)
class ProductTensor:
    """d[i, j, m]: coefficient of S_m in S_i S_j, for i, j, m < M."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @property
    def M(self) -> int:
        return self.d.shape[0]


def nodes(cfg: BasisConfig, rule: WeightedRule) -> np.ndarray:
    """The rule's nodes pulled back to every block: shape (K, q), row k-1 is block k."""
    bp = np.asarray(cfg.partition.breakpoints)
    a, b = bp[:-1, np.newaxis], bp[1:, np.newaxis]
    return 0.5 * ((b - a) * rule.nodes + a + b)


def sample(f: Callable, grid: np.ndarray, what: str, ndim: int, t: float | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Samples of f at every node of grid (shape (K, q)), stacked as (K, q) + sample shape.

    With t given, f is a kernel and the samples are f(t, s) for s on the grid.
    Each sample becomes a float array of at least ndim dimensions, written to
    out when given, else to a new array shaped by the first sample.  A failing
    call, or a sample whose shape differs from the others, raises
    ExpansionError naming the point and its block.
    """
    shape = None if out is None else out.shape[2:]
    for k, xs in enumerate(grid, start=1):
        for y, x in enumerate(xs):
            try:
                val = np.array(f(x) if t is None else f(t, x), dtype=float, ndmin=ndim, copy=None)
            except Exception as exc:
                raise ExpansionError(f"{what} failed at {_where(t, x, k)}: {exc}") from exc
            if out is None:
                shape = val.shape
                out = np.empty(grid.shape + shape)
            if val.shape != shape:
                raise ExpansionError(
                    f"{what} at {_where(t, x, k)} has shape {val.shape}, expected {shape}"
                )
            out[k - 1, y] = val
    return out


def _where(t: float | None, x: float, k: int) -> str:
    return f"t={x} (block {k})" if t is None else f"(t={t}, s={x}) (inner block {k})"


def expand_vector(
    f: Callable[[float], np.ndarray], cfg: BasisConfig, rule: WeightedRule | None = None
) -> CoeffVector:
    """Componentwise expansion of a vector function into CoeffVector layout."""
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    fx = sample(f, nodes(cfg, rule), "vector function", 1)  # (K, q, n)
    return CoeffVector.from_tensor(np.stack([proj @ block for block in fx]))


def expand_matrix(
    mfun: Callable[[float], np.ndarray], cfg: BasisConfig, rule: WeightedRule | None = None
) -> MatrixCoeffSet:
    """Entrywise expansion of a matrix function of t."""
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    fx = sample(mfun, nodes(cfg, rule), "matrix function", 2)  # (K, q, n_out, n_in)
    return MatrixCoeffSet(np.stack([np.einsum("mq,qab->mab", proj, block) for block in fx]), cfg)


def product_coeff(i: int, j: int, m: int) -> float:
    """Coefficient of S_m in S_i S_j: 1 when |i-j| <= m <= i+j with matching
    parity, else 0."""
    if min(i, j, m) < 0:
        raise ValueError("degrees must be non-negative")
    return 1.0 if abs(i - j) <= m <= i + j and (i + j + m) % 2 == 0 else 0.0


@lru_cache(maxsize=None)
def product_tensor(M: int) -> ProductTensor:
    """Dense (M, M, M) tensor of product_coeff values, cached per M."""
    d = np.zeros((M, M, M))
    for i in range(M):
        for j in range(M):
            lo, hi = abs(i - j), min(i + j, M - 1)
            d[i, j, lo : hi + 1 : 2] = 1.0
    return ProductTensor(d)


def product_blocks(mset: MatrixCoeffSet) -> np.ndarray:
    """The per-block operators sending coefficients of f to coefficients of M(t) f(t).

    Returns shape (K, M*n_out, M*n_in); entry k-1 is the block-k matrix with
    (m, j) sub-block sum_i d^{(ij)}_m M_{ki}, rows (degree, out-component)-major
    to match CoeffVector stacking.
    """
    cfg = mset.cfg
    d = product_tensor(cfg.M).d
    hat = np.einsum("ijm,kiab->kmajb", d, mset.blocks)
    n_out, n_in = mset.shape
    return np.ascontiguousarray(hat).reshape(cfg.K, cfg.M * n_out, cfg.M * n_in)


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
