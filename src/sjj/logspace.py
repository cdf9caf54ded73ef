"""Log-space helpers for the factorial sums of the witness, loss-channel and
Hartree code: log n! from a cached table, and a log-sum-exp."""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["logspace"])


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    table = np.array([math.lgamma(n + 1.0) for n in range(size)])
    table.setflags(write=False)
    return table


def log_factorial(n) -> np.ndarray:
    """log(n!) elementwise for integers n >= 0 (an int or an integer array),
    looked up in a table of math.lgamma values sized to the next power of two.
    A negative n, or an n of any other dtype (bool, float), is a ValueError:
    indexing the table with it would mask or fail."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        raise ValueError(f"log_factorial needs integers, got dtype {n.dtype}")
    if (low := n.min(initial=0)) < 0:
        raise ValueError(f"log_factorial needs n >= 0, got {low}")
    return _log_factorials(1 << int(n.max(initial=0)).bit_length())[n]


def logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) without overflow; -inf for an empty or all -inf x,
    and nan where x holds a nan.

    The largest terms are taken out of the sum, as in scipy.special.logsumexp."""
    top = np.max(x, initial=-np.inf)
    if not top > -np.inf:  # -inf, or nan, which np.max propagates
        return float(top)
    tops = np.count_nonzero(x == top)
    rest = np.sum(np.exp(np.where(x == top, -np.inf, x) - top)) / tops
    return float(np.log1p(rest) + np.log(tops) + top)
