"""Desk-scale numerics for the divisor summatory function: exact counts,
oscillatory series approximations of the error term, Gaussian lattice-sum
transforms, endpoint-corrected summation, divisor exponential sums, and
the gap-construction identities, all cross-checked against independent
oracles.
"""

from .divisor_core import (
    EULER_GAMMA,
    DivisorTable,
    SummatoryPoint,
    delta,
    delta_scan,
    divisor_count,
    divisor_count_lambda,
    sieve_divisors,
    summatory_hyperbola,
)
from .errors import DivisorLabError, DomainError, PrecisionError, ResourceError

__version__ = "0.1.0"

# The benchmark's run record reads these; the kernels are NumPy only.
BACKEND = "numpy"
HAVE_NUMBA = False

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "EULER_GAMMA",
    "DivisorTable",
    "SummatoryPoint",
    "delta",
    "delta_scan",
    "divisor_count",
    "divisor_count_lambda",
    "sieve_divisors",
    "summatory_hyperbola",
    "DivisorLabError",
    "DomainError",
    "PrecisionError",
    "ResourceError",
    "__version__",
]
