"""Log-space helpers for the factorial sums of the witness, loss-channel and
Hartree code: log n! from a cached table, and a log-sum-exp."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["log_factorial", "logsumexp"]


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    table = np.array([math.lgamma(n + 1.0) for n in range(size)])
    table.setflags(write=False)
    return table


def log_factorial(n) -> np.ndarray:
    """log(n!) elementwise for integers n >= 0 (an int or an integer array),
    looked up in a table of math.lgamma values sized to the next power of two."""
    n = np.asarray(n)
    return _log_factorials(1 << int(n.max(initial=0)).bit_length())[n]


def logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) without overflow; -inf for an empty or all -inf x.

    The largest terms are taken out of the sum, as in scipy.special.logsumexp."""
    top = np.max(x, initial=-np.inf)
    if top == -np.inf:
        return -np.inf
    tops = np.count_nonzero(x == top)
    rest = np.sum(np.exp(np.where(x == top, -np.inf, x) - top)) / tops
    return float(np.log1p(rest) + np.log(tops) + top)
