"""Integrand descriptors: a constant and a power.

Sums and averages that take an integrand accept one of these frozen,
comparable values instead of a bare callable.  Analytic descriptors with
a disk bound live in ``exp_sums`` where the difference operator needs
them.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstantFn:
    value: float = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.full_like(x, float(self.value))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PowerFn:
    """coef * x**exponent on x > 0."""

    exponent: float
    coef: float = 1.0

    def __call__(self, x):
        out = self.coef * np.power(np.asarray(x, dtype=np.float64), self.exponent)
        return out if out.ndim else float(out)
