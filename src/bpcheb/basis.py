"""Hybrid basis of block-pulse functions and second-kind Chebyshev polynomials.

A partition t_0 < t_1 < ... < t_K of [t_0, t_f] defines K block pulses
b_k(t) = 1 on [t_{k-1}, t_k).  The hybrid function h_{km} is the degree-m
second-kind Chebyshev polynomial S_m pulled back to block k:

    h_{km}(t) = b_k(t) * S_m((2t - t_{k-1} - t_k) / d_k),   d_k = t_k - t_{k-1},

for k = 1..K and m = 0..M-1.  Everything here is immutable and pure, and read_only
is the one place where an array bpcheb holds is frozen.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

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
    """Strictly increasing breakpoints [t_0, ..., t_K] of the time interval;
    block k (1-based) is [t_{k-1}, t_k], that is breakpoints[k - 1:k + 1].
    Breakpoints that are not a 1-D sequence of reals raise an error naming
    breakpoints.

    breakpoint_array and width_array hold the breakpoints and the block
    widths as read-only float arrays, each computed on first use and kept
    on the partition, shared by every caller, while the partition lives.
    """

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bp = real_array("breakpoints", self.breakpoints)
        if bp.ndim != 1:
            raise ValueError(f"breakpoints must be a 1-D sequence, got shape {bp.shape}")
        bp = tuple(map(float, bp))
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
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        edges = np.linspace(as_real("t0", t0), as_real("tf", tf), num_blocks + 1)
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

    @cached_property
    def breakpoint_array(self) -> np.ndarray:
        """[t_0, ..., t_K] as a read-only array, shape (K+1,)."""
        return read_only(np.array(self.breakpoints))

    @cached_property
    def width_array(self) -> np.ndarray:
        """The block widths d_k = t_k - t_{k-1} as a read-only array, shape (K,)."""
        return read_only(np.diff(self.breakpoint_array))


@dataclass(frozen=True)
class BasisConfig:
    """A partition plus the per-block polynomial count M (degrees 0..M-1)."""

    partition: Partition
    M: int

    def __post_init__(self):
        if not isinstance(self.partition, Partition):
            raise TypeError(f"partition must be a Partition, got {self.partition!r}")
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
    """value as a Python int; integers of any kind but bool pass, else TypeError naming key."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{key} must be an integer, got {value!r}")


def as_real(key: str, value) -> float:
    """value as a finite Python float; real numbers of any kind but bool pass, else
    TypeError naming key; NaN and infinities raise ValueError naming key."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{key} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return float(value)


def real_array(key: str, value) -> np.ndarray:
    """value as a float array, not copied when it is one already (a caller that keeps it
    copies it); bool, int and float entries pass, else TypeError naming key."""
    a = np.asarray(value)
    if a.dtype.kind not in "biuf":
        raise TypeError(f"{key} must be real numbers, got {value!r}")
    return a.astype(float, copy=False)


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place: every array bpcheb holds, made by it or copied, passes here."""
    a.flags.writeable = False
    return a


def chebyshev_u_eval(m: int, x: float) -> float:
    """S_m(x): chebyshev_u_all's degree-m entry at the one point x.

    The recurrence runs for any x (no domain check), which avoids the removable
    singularity of the closed form sin((m+1) arccos x)/sqrt(1-x^2) at the
    endpoints; a large x overflows to inf or nan silently, as Python floats do.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(chebyshev_u_all(m, [x])[m, 0])


def chebyshev_u_all(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Matrix of S_m(x_i) for m = 0..max_degree, shape (max_degree+1, len(x)),
    by the three-term recurrence S_{m+1} = 2x S_m - S_{m-1}, S_0 = 1, S_1 = 2x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1, x.size), dtype=float)
    out[0] = 1.0
    two_x = 2.0 * x
    if max_degree >= 1:
        out[1] = two_x
    for m in range(1, max_degree):
        out[m + 1] = two_x * out[m] - out[m - 1]
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
    two_x = 2.0 * x
    for m in range(c.shape[0] - 1, -1, -1):
        b1, b2 = c[m] + two_x * b1 - b2, b1
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

