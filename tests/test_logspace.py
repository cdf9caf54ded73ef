import math

import mpmath
import numpy as np
import pytest
import scipy.special

from sjj.logspace import log_factorial, logsumexp


def test_log_factorial_matches_extended_precision():
    n = np.arange(20001)
    got = log_factorial(n)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.loggamma(k + 1)) for k in range(len(n))])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert np.max(err) <= 2.0 * np.finfo(float).eps
    assert got[0] == got[1] == 0.0


def test_log_factorial_shapes_and_growth():
    assert log_factorial(0) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)
    small = log_factorial(np.array([[3, 4], [5, 6]]))
    assert small.shape == (2, 2)
    # a larger argument later extends the table without moving earlier values
    big = log_factorial(np.array([3, 70000]))
    assert big[0] == small[0, 0]
    assert big[1] == pytest.approx(math.lgamma(70001.0), rel=1e-15)


def test_logsumexp_matches_scipy(rng):
    for _ in range(300):
        x = rng.normal(size=int(rng.integers(1, 200))) * rng.uniform(0.1, 800.0)
        x[rng.random(len(x)) < 0.2] = -np.inf
        if rng.random() < 0.3:
            x[int(rng.integers(len(x)))] = np.max(x)  # a repeated maximum
        assert logsumexp(x) == scipy.special.logsumexp(x)


def test_logsumexp_edges():
    assert logsumexp(np.array([])) == -np.inf
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)
    assert logsumexp(np.array([-800.0])) == -800.0
