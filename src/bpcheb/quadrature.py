"""Gauss quadrature for the second-kind Chebyshev weight sqrt(1 - x^2).

Every projection integral in the library,

    (2/pi) * integral over [-1, 1] of f(x) S_m(x) sqrt(1 - x^2) dx,

is evaluated with the rule built here, so polynomial exactness is tested in
one place.  The n-point rule has closed-form nodes and weights

    x_i = cos(i pi / (n+1)),   w_i = (pi / (n+1)) sin^2(i pi / (n+1)),

i = 1..n, and integrates p(x) sqrt(1 - x^2) exactly for deg p <= 2n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import chebyshev_u_all, read_only

__all__ = ["WeightedRule", "gauss_u_rule"]


@dataclass(frozen=True, eq=False)
class WeightedRule:
    """Nodes in (-1, 1) (strictly decreasing in gauss_u_rule) and positive
    weights, as read-only copies of the arrays given; the rule also holds the
    projection matrices built from it (see projection_matrix)."""

    nodes: np.ndarray
    weights: np.ndarray
    _projections: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", read_only(np.array(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", read_only(np.array(self.weights, dtype=float)))


@lru_cache(maxsize=None, typed=True)
def gauss_u_rule(n: int) -> WeightedRule:
    """The n-point Gauss rule for the weight sqrt(1 - x^2) on [-1, 1].

    Cached per n: every call with the same n returns the same rule, whose
    read-only arrays are shared by every caller for the life of the process.
    """
    if n < 1:
        raise ValueError(f"rule order must be >= 1, got {n}")
    i = np.arange(1, n + 1, dtype=float)
    theta = i * np.pi / (n + 1)
    return WeightedRule(np.cos(theta), (np.pi / (n + 1)) * np.sin(theta) ** 2)


def projection_matrix(max_degree: int, rule: WeightedRule) -> np.ndarray:
    """Matrix mapping samples f(x_i) to coefficients of S_0..S_{max_degree}.

    Row m holds (2/pi) * w_i S_m(x_i); shape (max_degree+1, order).  Shared
    workhorse for the vectorized expansions.  The matrix is read-only and
    cached on the rule per max_degree: it is built once, shared by every
    caller and freed with the rule.  A rule built by hand gets its own.
    """
    proj = rule._projections.get(max_degree)
    if proj is None:
        smat = chebyshev_u_all(max_degree, rule.nodes)
        proj = read_only((2.0 / np.pi) * smat * rule.weights[np.newaxis, :])
        rule._projections[max_degree] = proj
    return proj
