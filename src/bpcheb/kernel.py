"""Hybrid expansion of Fredholm kernels.

Kernels are functions N(t, s) with t the free (outer) variable and s the
integration (inner) variable of

    w(t) = integral over [t_0, t_f] of N(t, s) f(s) ds.

N is sampled on the (K q) x (K q) grid of quadrature nodes in t and s, in
chunks of whole outer blocks (one call per chunk when N broadcasts over
arrays; a chunk holds as many blocks as fit in _CHUNK_NODES nodes, at least
one).  Each chunk is projected in s, then in t; the resulting coefficients
C^{(jl)}_{ki} (outer block j, outer degree l, inner block k, inner degree i)
are folded with the triple-product tensor and the closed-form block integrals

    integral of S_m over [-1, 1] = 2/(m+1) for even m, 0 for odd m

(twice operational.block_integral_weights) into one dense matrix Q with
coeffs(w) = Q coeffs(f), exact up to basis truncation; fredholm_operator
returns Q itself, a plain read-only array.  A chunk is copied once, as (outer
node, inner node; outer block, inner block, value); each of the three sums is
one einsum per chunk whose result is the layout the next one reads, adding the
terms in index order without fused multiply-adds, as the einsum formula does.
So Q is bit-identical to that formula, and the golden outputs stay fixed,
except for a scalar kernel, where the formula's einsum takes another loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .basis import BasisConfig, read_only
from .expansion import default_rule, nodes, product_tensor, project, sample
from .operational import block_integral_weights
from .quadrature import WeightedRule, projection_matrix

__all__ = ["fredholm_operator"]

# a kernel is sampled for as many outer times per call as fit in this many
# (t, s) nodes, and for at least one row of outer times
_CHUNK_NODES = 2**16


def fredholm_operator(
    kernel: Callable[[float, float], np.ndarray],
    cfg: BasisConfig,
    rule: WeightedRule | None = None,
    expect: tuple[str, tuple[int, int]] | None = None,
) -> np.ndarray:
    """Q, the (KMn_out, KMn_in) coefficient-space matrix of f -> integral of
    N(t, s) f(s) ds: the kernel projected on both variables with the block
    integrals folded in, made read-only in place.

    The (outer j, inner k) block of Q is

        sum over even m of (d_k / (m+1)) * sum over i of d^{(i j')}_m C^{(jl)}_{ki},

    laid out so Q acts on the (K, M, n) stacking of expand_vector.  Each chunk is copied
    once, projected and folded by one einsum per sum, in index order (see the module
    docstring), and written scaled into its rows of Q.  expect = (name,
    (n_out, n_in)) names the kernel and its shape for sample's checks, which
    raise ExpansionError at the first bad sample, naming (t, s) and the
    inner block.
    """
    rule = rule or default_rule(cfg)
    proj = projection_matrix(cfg.M - 1, rule)
    K, M = cfg.K, cfg.M
    grid = nodes(cfg, rule)
    g = _fold_weights(M)
    half_widths = 0.5 * cfg.partition.width_array[:, np.newaxis, np.newaxis]
    name, shape = expect or ("kernel", None)
    out = None
    # one copy per chunk, in the layout the sums read: terms[x, y, j, k, a, c] = N(t_x, s_y)
    # for outer node t_x of outer block rows.start + j + 1 and node s_y of inner block k + 1
    for rows, terms in sample_kernel(kernel, grid, grid, name, shape, (1, 3, 0, 2, 4, 5)):
        if out is None:
            n_out, n_in = terms.shape[-2:]
            out = np.empty((K, M, n_out, K, M, n_in))
        data = project(proj.T, _project_each(proj.T, terms))  # (l; m, j, k, a, c)
        fold = _project_each(g, data)  # (l, p, j, k, a, c)
        # out[j, l, a, k, p, c] = (d_k/2) * sum_i data[l, i, j, k, a, c] g[i, p]
        np.multiply(fold.transpose(2, 0, 4, 3, 1, 5), half_widths, out=out[rows])
        del terms, data, fold  # before the next chunk is sampled
    return read_only(out.reshape(K * M * n_out, K * M * n_in))


def _project_each(w: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """project(w, terms[x]) stacked over x, bit for bit (see expansion.project)."""
    if terms[0, 0].size > 1:  # one batched einsum over C-contiguous terms
        out = np.einsum("yp,xyr->xpr", w, terms.reshape(terms.shape[:2] + (-1,)))
        return out.reshape(terms.shape[:1] + w.shape[1:] + terms.shape[2:])
    return np.moveaxis(project(w, np.moveaxis(terms, 1, 0)), 0, 1)  # x in project's rest


@lru_cache(maxsize=None, typed=True)
def _fold_weights(M: int) -> np.ndarray:
    """g[i, p] (inner degree i, f degree p): the block integrals folded into
    the d-tensor; read-only, built once per M and shared for the life of the
    process."""
    return read_only(np.einsum("ipm,m->ip", product_tensor(M), 2.0 * block_integral_weights(M)))


def sample_kernel(kernel: Callable, grid: np.ndarray, ts: np.ndarray, name: str,
                  shape: tuple[int, int] | None, axes: tuple[int, ...] | None = None,
                  ) -> Iterator[tuple[slice, np.ndarray]]:
    """Checked samples of kernel(t, s) for s on grid, in chunks of the rows
    ts[i] of outer times: yields (rows, vals), vals as
    sample(kernel, grid, name, 2, ts[rows], shape, axes=axes) returns it.

    A chunk is one sample call over as many rows as fit in _CHUNK_NODES
    (t, s) nodes, and at least one row.  Every chunk gets a new array and
    the same shape; without a given shape, the first chunk sets it.
    """
    step = max(1, _CHUNK_NODES // (np.size(ts[0]) * grid.size))
    for start in range(0, len(ts), step):
        rows = slice(start, start + step)
        vals = sample(kernel, grid, name, 2, ts[rows], shape, axes=axes)
        shape = vals.shape[np.ndim(ts) + grid.ndim:]
        yield rows, vals
        del vals  # before the next chunk is sampled
