"""Hybrid block-pulse / second-kind Chebyshev solver for linear
integrodifferential initial-value systems.

The state equation

    x'(t) = A(t) x(t) + integral over [t0, tf] of N(t, s) x(s) ds + B(t) u(t)

with x(t0) = x0 is reduced to one linear system by expanding all data in
products of block pulses and second-kind Chebyshev polynomials.  See
SystemSpec / assemble / solve for the library API and bpcheb.cli for the
command-line front end.
"""

from .basis import BasisConfig, Partition, chebyshev_u_eval
from .expansion import (
    CoeffVector,
    ExpansionError,
    expand_matrix,
    expand_vector,
    product_coeff,
    product_tensor,
)
from .kernel import fredholm_operator
from .linalg import SingularMatrixError
from .operational import build_p, build_phat
from .problem import Problem, ProblemError, load, loads
from .quadrature import WeightedRule, gauss_u_rule
from .solver import (
    AssembledSystem,
    HybridSolution,
    SolveError,
    SystemSpec,
    assemble,
    hybrid_solve,
    residual,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BasisConfig",
    "Partition",
    "chebyshev_u_eval",
    "WeightedRule",
    "gauss_u_rule",
    "CoeffVector",
    "ExpansionError",
    "expand_vector",
    "expand_matrix",
    "product_coeff",
    "product_tensor",
    "build_phat",
    "build_p",
    "fredholm_operator",
    "SingularMatrixError",
    "SystemSpec",
    "AssembledSystem",
    "HybridSolution",
    "SolveError",
    "assemble",
    "solve",
    "hybrid_solve",
    "residual",
    "Problem",
    "ProblemError",
    "load",
    "loads",
    "__version__",
]
