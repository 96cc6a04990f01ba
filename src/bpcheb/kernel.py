"""Hybrid expansion of Fredholm kernels.

Kernels are functions N(t, s) with t the free (outer) variable and s the
integration (inner) variable of

    w(t) = integral over [t_0, t_f] of N(t, s) f(s) ds.

N is sampled on the (K q) x (K q) grid of quadrature nodes in t and s, in
chunks of whole outer blocks (one call per chunk when N broadcasts over
arrays; a chunk holds as many blocks as fit in _CHUNK_NODES nodes, at least
one), and the weighted projection is applied in s, then in t, one outer
block at a time.  Combining the resulting coefficients C^{(jl)}_{ki} (outer
block j, outer degree l, inner block k, inner degree i) with the
triple-product tensor and the closed-form block integrals

    integral of S_m over [-1, 1] = 2/(m+1) for even m, 0 for odd m

(twice operational.block_integral_weights) yields one dense matrix Q with
coeffs(w) = Q coeffs(f), exact up to basis truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .basis import BasisConfig
from .expansion import CoeffVector, default_rule, nodes, product_tensor, require_finite, sample
from .operational import block_integral_weights
from .quadrature import WeightedRule, projection_matrix

__all__ = ["FredholmOperator", "fredholm_operator"]

# a kernel is sampled for as many outer times per call as fit in this many
# (t, s) nodes, and for at least one row of outer times
_CHUNK_NODES = 2**16


@dataclass(frozen=True)
class FredholmOperator:
    """Coefficient-space matrix of f -> integral of N(t, s) f(s) ds."""

    Q: np.ndarray
    cfg: BasisConfig

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Q.flags.writeable = False
        object.__setattr__(self, "Q", Q)

    def apply(self, fhat: CoeffVector) -> CoeffVector:
        if fhat.data.size != self.Q.shape[1]:
            raise ValueError(
                f"coefficient vector of length {fhat.data.size} does not match "
                f"operator of size {self.Q.shape}"
            )
        return CoeffVector(self.Q @ fhat.data, fhat.K, fhat.M, self.Q.shape[0] // (fhat.K * fhat.M))


def fredholm_operator(
    kernel: Callable[[float, float], np.ndarray],
    cfg: BasisConfig,
    rule: WeightedRule | None = None,
) -> FredholmOperator:
    """Project the kernel on both variables and fold in the block integrals.

    The (outer j, inner k) block of Q is

        sum over even m of (d_k / (m+1)) * sum over i of d^{(i j')}_m C^{(jl)}_{ki},

    laid out so Q acts on CoeffVector stackings.  A non-finite kernel sample
    raises ExpansionError naming (t, s) and the inner block.
    """
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    K, M = cfg.K, cfg.M
    grid = nodes(cfg, rule)
    data = None
    # vals[j, x, k-1, y] = N(t_x, s_y) for outer node t_x of outer block
    # rows.start + j + 1 and node s_y of inner block k
    for rows, vals in sample_kernel(kernel, grid, grid):
        require_finite(vals, grid, "kernel", t=grid[rows])
        if data is None:
            data = np.empty((K, M, K, M) + vals.shape[-2:])
        for j, slab in enumerate(vals, start=rows.start):
            inner = np.einsum("my,xkyac->xkmac", proj, slab)
            data[j] = np.einsum("lx,xkiac->lkiac", proj, inner)
    n_out, n_in = data.shape[4:]
    # fold the block integrals of the product degrees into the d-tensor
    weights = 2.0 * block_integral_weights(M)  # only even m survive
    g = np.einsum("ipm,m->ip", product_tensor(M), weights)  # (inner degree i, f degree j')
    # out[j, l, a, k, jp, c] = (d_k/2) * sum_i data[j,l,k,i,a,c] g[i,jp]
    out = np.einsum("jlkiac,ip->jlakpc", data, g)
    out *= 0.5 * np.asarray(cfg.partition.widths)[np.newaxis, np.newaxis, np.newaxis, :,
                                                  np.newaxis, np.newaxis]
    return FredholmOperator(out.reshape(K * M * n_out, K * M * n_in), cfg)


def sample_kernel(kernel: Callable, grid: np.ndarray,
                  ts: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Samples of kernel(t, s) for s on grid, in chunks of the rows ts[i] of
    outer times: yields (rows, vals), vals laid out as
    sample(kernel, grid, "kernel", 2, t=ts[rows]) returns it.

    A chunk is one sample call over as many rows as fit in _CHUNK_NODES
    (t, s) nodes, and at least one row.  Every chunk gets a new array; the
    chunks after the first must have the first one's sample shape.
    """
    step = max(1, _CHUNK_NODES // (np.size(ts[0]) * grid.size))
    expect = None
    for start in range(0, len(ts), step):
        rows = slice(start, start + step)
        vals = sample(kernel, grid, "kernel", 2, t=ts[rows], expect=expect)
        expect = ("kernel", vals.shape[np.ndim(ts) + grid.ndim:])
        yield rows, vals
