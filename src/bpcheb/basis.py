"""Hybrid basis of block-pulse functions and second-kind Chebyshev polynomials.

A partition t_0 < t_1 < ... < t_K of [t_0, t_f] defines K block pulses
b_k(t) = 1 on [t_{k-1}, t_k).  The hybrid function h_{km} is the degree-m
second-kind Chebyshev polynomial S_m pulled back to block k:

    h_{km}(t) = b_k(t) * S_m((2t - t_{k-1} - t_k) / d_k),   d_k = t_k - t_{k-1},

for k = 1..K and m = 0..M-1.  Everything here is immutable and pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Partition",
    "BasisConfig",
    "chebyshev_u_eval",
    "chebyshev_u_all",
    "chebyshev_u_series",
    "chebyshev_u_derivative_coeffs",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints [t_0, ..., t_K] of the time interval."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) < 2:
            raise ValueError("partition needs at least two breakpoints")
        if not all(math.isfinite(t) for t in bp):
            raise ValueError(f"breakpoints must be finite, got {bp}")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be strictly increasing, got {bp}")

    @classmethod
    def uniform(cls, t0: float, tf: float, num_blocks: int) -> "Partition":
        num_blocks = as_index("num_blocks", num_blocks)
        if num_blocks < 1:
            raise ValueError("need at least one block")
        edges = np.linspace(float(t0), float(tf), num_blocks + 1)
        return cls(tuple(edges))

    @property
    def num_blocks(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def t0(self) -> float:
        return self.breakpoints[0]

    @property
    def tf(self) -> float:
        return self.breakpoints[-1]

    @property
    def widths(self) -> tuple[float, ...]:
        bp = self.breakpoints
        return tuple(b - a for a, b in zip(bp, bp[1:]))

    def block_bounds(self, k: int) -> tuple[float, float]:
        """Closed bounds [t_{k-1}, t_k] of block k (1-based)."""
        if not 1 <= k <= self.num_blocks:
            raise ValueError(f"block index {k} out of range 1..{self.num_blocks}")
        return self.breakpoints[k - 1], self.breakpoints[k]


@dataclass(frozen=True)
class BasisConfig:
    """A partition plus the per-block polynomial count M (degrees 0..M-1)."""

    partition: Partition
    M: int

    def __post_init__(self):
        object.__setattr__(self, "M", as_index("M", self.M))
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")

    @classmethod
    def uniform(cls, t0: float, tf: float, K: int, M: int) -> "BasisConfig":
        return cls(Partition.uniform(t0, tf, K), M)

    @property
    def K(self) -> int:
        return self.partition.num_blocks


def as_index(key: str, value) -> int:
    """value as a Python int; integers of any kind pass, else TypeError naming key."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{key} must be an integer, got {value!r}") from None


def chebyshev_u_eval(m: int, x: float) -> float:
    """S_m(x) by the three-term recurrence S_{m+1} = 2x S_m - S_{m-1}.

    S_0 = 1, S_1 = 2x.  The recurrence is used even for |x| > 1 (no domain
    check), which avoids the removable singularity of the closed form
    sin((m+1) arccos x)/sqrt(1-x^2) at the endpoints.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    prev, cur = 1.0, 2.0 * x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_u_all(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Matrix of S_m(x_i) for m = 0..max_degree, shape (max_degree+1, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1, x.size), dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = 2.0 * x
    for m in range(1, max_degree):
        out[m + 1] = 2.0 * x * out[m] - out[m - 1]
    return out


def chebyshev_u_series(coeffs: np.ndarray, x: float) -> np.ndarray:
    """Evaluate sum_m coeffs[m] * S_m(x) by the Clenshaw backward recurrence.

    coeffs may be shape (M,) or (M, n); vector coefficients are summed
    componentwise.  x may also be an array that broadcasts against coeffs[0],
    evaluating many series at once.
    """
    c = np.asarray(coeffs, dtype=float)
    b1 = np.zeros_like(c[0])
    b2 = np.zeros_like(c[0])
    for m in range(c.shape[0] - 1, -1, -1):
        b1, b2 = c[m] + 2.0 * x * b1 - b2, b1
    return b1


def chebyshev_u_derivative_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of d/dx applied to a second-kind Chebyshev series.

    Uses S_n' = sum over j = n-1, n-3, ... of 2(j+1) S_j, so
    b_j = 2(j+1) * sum of c_n over n > j with n - j odd.
    """
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros_like(c)
    for j in range(c.shape[0] - 1):
        out[j] = 2.0 * (j + 1) * c[j + 1 :: 2].sum(axis=0)
    return out

